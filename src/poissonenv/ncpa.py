"""Finite-dimensional non-commutative Poisson algebras from structure
constants: validation, structural analysis, ideals, derivations.

An algebra presentation lists rational structure constants for a unital
associative product and a Lie bracket on a fixed ordered basis; the
axioms (associativity, unit, antisymmetry, Jacobi, Leibniz) are checked
on basis triples, which suffices by bilinearity.  The basis input order
doubles as the total order used by all later PBW constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Echelon,
    Matrix,
    SparseVector,
    Subspace,
    ZERO,
    _integral,
    accumulate,
    close_under,
    mat_from_columns,
    mat_from_rows,
    mat_identity,
    mat_lincomb,
    mat_mul,
    mat_numerators,
    minimal_polynomial,
    saturate_closure,
    solve_nullspace,
)


class PresentationError(Exception):
    """Structurally malformed presentation (bad lengths, bad indices)."""


class NcpaValidationError(Exception):
    """Axioms failed; carries the list of Violation records."""

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"algebra axioms violated: {summary}{more}")


@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple
    lhs: SparseVector
    rhs: SparseVector

    def __str__(self) -> str:
        return f"{self.axiom} at {self.indices}"

    def to_dict(self, labels: Sequence[str] | None = None) -> dict:
        if labels is not None:
            where = tuple(labels[i] for i in self.indices)
        else:
            where = self.indices
        return {
            "axiom": self.axiom,
            "indices": list(self.indices),
            "basis": list(where) if labels is not None else None,
            "lhs": {str(i): str(v) for i, v in sorted(self.lhs.items())},
            "rhs": {str(i): str(v) for i, v in sorted(self.rhs.items())},
        }


class AlgebraPresentation:
    """Raw structure-constant data before any axiom has been checked.

    mul/bracket map basis index pairs (i, j) to the coordinate vector of
    v_i * v_j resp. {v_i, v_j}; omitted pairs mean zero.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        basis_labels: Sequence[str],
        unit: SparseVector,
        mul: Mapping[tuple, SparseVector],
        bracket: Mapping[tuple, SparseVector],
    ):
        self.name = name
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        self.unit = unit
        self.mul = {k: v for k, v in mul.items() if not v.is_zero()}
        self.bracket = {k: v for k, v in bracket.items() if not v.is_zero()}

    def problems(self) -> list[str]:
        out = []
        if self.dim < 1:
            out.append("dimension must be >= 1")
            return out
        if len(self.basis_labels) != self.dim:
            out.append(
                f"expected {self.dim} basis labels, got {len(self.basis_labels)}"
            )
        if len(set(self.basis_labels)) != len(self.basis_labels):
            out.append("duplicate basis labels")
        if self.unit.n != self.dim:
            out.append(f"unit vector has length {self.unit.n}, expected {self.dim}")
        for tag, table in (("mul", self.mul), ("bracket", self.bracket)):
            for key, vec in table.items():
                if (
                    not isinstance(key, tuple)
                    or len(key) != 2
                    or not all(isinstance(i, int) for i in key)
                ):
                    out.append(f"{tag} key {key!r} is not a basis index pair")
                    continue
                i, j = key
                if not (0 <= i < self.dim and 0 <= j < self.dim):
                    out.append(f"{tag} key {key} out of range for dim {self.dim}")
                if vec.n != self.dim:
                    out.append(f"{tag}[{key}] has length {vec.n}, expected {self.dim}")
        return out


class NCPA:
    """A presentation together with bilinear product/bracket evaluation.

    Construct through validate_ncpa / standard_ncpa so the axioms have
    actually been checked, or through unit_first, the isomorphic copy of a
    checked algebra whose basis holds the unit (env-dim runs its ideal
    closure there; the copy has caches of its own).  Instances carry memo
    caches for the PBW layer ("straighten", "lie_word"), the smash product
    ("q_mono", its slot factors "q_factor" and the word-pair plans
    "q_plan", which hold the integer straightened tails), the ideal slices
    ("ideal_slice") and the operator matrices ("ops").  Cached values are
    immutable, except the leveled ideal closures under "ideal_slice", which
    later calls extend to wider windows.
    """

    def __init__(self, presentation: AlgebraPresentation):
        problems = presentation.problems()
        if problems:
            raise PresentationError("; ".join(problems))
        self.presentation = presentation
        self.name = presentation.name
        self.n = presentation.dim
        self.labels = presentation.basis_labels
        self.unit = presentation.unit
        self._mul = presentation.mul
        self._bracket = presentation.bracket
        self.caches: dict[str, dict] = {
            "straighten": {},
            "lie_word": {},
            "q_mono": {},
            "q_factor": {},
            "q_plan": {},
            "ideal_slice": {},
            "ops": {},
        }

    # -- basic evaluation ---------------------------------------------------

    def zero(self) -> SparseVector:
        return SparseVector(self.n)

    def basis(self, i: int) -> SparseVector:
        return SparseVector.unit(self.n, i)

    def mul_basis(self, i: int, j: int) -> SparseVector:
        return self._mul.get((i, j), SparseVector(self.n))

    def bracket_basis(self, i: int, j: int) -> SparseVector:
        return self._bracket.get((i, j), SparseVector(self.n))

    def _bilinear(self, table, x: SparseVector, y: SparseVector) -> SparseVector:
        if x.n != self.n or y.n != self.n:
            raise ValueError("element has wrong dimension for this algebra")
        data: dict[int, Fraction] = {}
        for i, xi in x.data.items():
            for j, yj in y.data.items():
                vec = table.get((i, j))
                if vec is None:
                    continue
                c = xi * yj
                for k, v in vec.data.items():
                    accumulate(data, k, c * v)
        out = SparseVector(self.n)
        out.data = data
        return out

    def mul(self, x: SparseVector, y: SparseVector) -> SparseVector:
        return self._bilinear(self._mul, x, y)

    def bracket(self, x: SparseVector, y: SparseVector) -> SparseVector:
        return self._bilinear(self._bracket, x, y)

    @property
    def has_zero_bracket(self) -> bool:
        return not self._bracket

    def format_element(self, x: SparseVector) -> str:
        return format_terms((x.get(i), self.labels[i]) for i in x.support())

    # -- multiplication operators as matrices --------------------------------

    def _matrix(self, key, column) -> Matrix:
        """Matrix whose j-th column is column(j); cached under key."""
        cache = self.caches["ops"]
        if key not in cache:
            cache[key] = mat_from_columns([column(j).data for j in range(self.n)], self.n)
        return cache[key]

    def left_mult_matrix(self, i: int) -> Matrix:
        return self._matrix(("Lmat", i), lambda j: self.mul_basis(i, j))

    def right_mult_matrix(self, i: int) -> Matrix:
        return self._matrix(("Rmat", i), lambda j: self.mul_basis(j, i))

    def ad_matrix(self, i: int) -> Matrix:
        return self._matrix(("admat", i), lambda j: self.bracket_basis(i, j))

    def __repr__(self) -> str:
        return f"NCPA({self.name!r}, dim={self.n})"


def format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """The sum of the (coefficient, body) terms as text: c*body, with a
    coefficient of 1 or -1 left out and a negative term subtracted; "0"
    when there is none."""
    parts = [body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}" for c, body in terms]
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in parts[1:])


# -- validation ---------------------------------------------------------------

def axiom_violations(p: AlgebraPresentation) -> list[Violation]:
    """Every violated axiom instance over basis pairs/triples."""
    problems = p.problems()
    if problems:
        raise PresentationError("; ".join(problems))
    A = NCPA(p)
    n = A.n
    out: list[Violation] = []
    basis = [A.basis(i) for i in range(n)]

    for i in range(n):
        lhs = A.mul(A.unit, basis[i])
        if lhs != basis[i]:
            out.append(Violation("unit", (i,), lhs, basis[i]))
        lhs = A.mul(basis[i], A.unit)
        if lhs != basis[i]:
            out.append(Violation("unit", (i,), lhs, basis[i]))

    for i in range(n):
        for j in range(n):
            lhs = A.bracket_basis(i, j) + A.bracket_basis(j, i)
            if not lhs.is_zero():
                out.append(Violation("antisymmetry", (i, j), lhs, A.zero()))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = A.mul(A.mul_basis(i, j), basis[k])
                rhs = A.mul(basis[i], A.mul_basis(j, k))
                if lhs != rhs:
                    out.append(Violation("associativity", (i, j, k), lhs, rhs))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                jac = (
                    A.bracket(A.bracket_basis(i, j), basis[k])
                    + A.bracket(A.bracket_basis(j, k), basis[i])
                    + A.bracket(A.bracket_basis(k, i), basis[j])
                )
                if not jac.is_zero():
                    out.append(Violation("jacobi", (i, j, k), jac, A.zero()))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = A.bracket(A.mul_basis(i, j), basis[k])
                rhs = A.mul(basis[i], A.bracket_basis(j, k)) + A.mul(
                    A.bracket_basis(i, k), basis[j]
                )
                if lhs != rhs:
                    out.append(Violation("leibniz", (i, j, k), lhs, rhs))
    return out


def validate_ncpa(p: AlgebraPresentation) -> NCPA:
    violations = axiom_violations(p)
    if violations:
        raise NcpaValidationError(violations)
    return NCPA(p)


def standard_ncpa(p: AlgebraPresentation) -> NCPA:
    """Equip an associative presentation with the commutator bracket."""
    A = NCPA(p)  # structural checks only; product used to build the bracket
    bracket = {}
    for i in range(A.n):
        for j in range(A.n):
            c = A.mul_basis(i, j) - A.mul_basis(j, i)
            if not c.is_zero():
                bracket[(i, j)] = c
    std = AlgebraPresentation(
        p.name, p.dim, p.basis_labels, p.unit, dict(p.mul), bracket
    )
    return validate_ncpa(std)


def unit_first(A: NCPA) -> NCPA:
    """A copy of A whose basis holds the unit: the basis vector e_r at the
    first index r of the unit's support is replaced, in place, by the unit
    u.  A itself when the unit already is a basis vector.

    A vector sum_k c_k e_k has coordinate c_r / u_r at r and
    c_k - c_r u_k / u_r at every other k, since
    e_r = (u - sum_{k != r} u_k e_k) / u_r.  Products of the other basis
    vectors are A's, rewritten in these coordinates; f_r f_b = f_b f_r = f_b
    and {f_r, f_b} = 0 are written down directly.  The name and labels are
    kept (label r now names the unit), and the copy is not validated again:
    it is isomorphic to A.

    Every number env-dim reports is the same on the copy.  The isomorphism
    fixes the PBW filtration F of the enveloping algebra, since F_0 is
    spanned by the images of A (x) A^op and F_1 adds j(A).  J's generators
    are bilinear in (v_p, v_q), and I's and OH's are linear in v_a, so over
    any basis they span the same space, and so do the windows T_B, the
    sums of F_a g F_b with a + b <= B.  Each dimension is
    dim F_d - dim(T_{D-1} meet F_d), and each stable flag compares two such
    spaces.  What changes is sparsity: with 1 a basis vector, the i(1),
    k(1) and j slots that hold the unit stay single terms instead of
    expanding over its support.
    """
    u = A.unit.data
    r = min(u)
    ur = u[r]
    if len(u) == 1 and ur == 1:
        return A
    n = A.n

    def coords(v: SparseVector) -> SparseVector:
        data = dict(v.data)
        s = data.pop(r, ZERO) / ur
        if s:
            for k, uk in u.items():
                accumulate(data, k, -s * uk)
            data[r] = s
        return SparseVector(n, data)

    def table(old: Mapping[tuple, SparseVector]) -> dict:
        return {ab: coords(v) for ab, v in old.items() if r not in ab}

    mul = table(A.presentation.mul)
    for b in range(n):
        mul[(r, b)] = mul[(b, r)] = A.basis(b)
    return NCPA(AlgebraPresentation(
        A.name, n, A.labels, A.basis(r), mul, table(A.presentation.bracket)))


def is_standard(A: NCPA) -> bool:
    """True iff the bracket is exactly the commutator of the product.  Kept
    for standard_bimodule_to_poisson."""
    for i in range(A.n):
        for j in range(A.n):
            if A.bracket_basis(i, j) != A.mul_basis(i, j) - A.mul_basis(j, i):
                return False
    return True


# -- structural analysis -------------------------------------------------------

def _central_rows(A: NCPA, tables: Sequence) -> list[dict[int, Fraction]]:
    """Rows of sum_i z_i * table(i, j) = 0 over the coordinates of an
    unknown z, for tables mapping basis index pairs to vectors: one row per
    table, basis index j and coordinate of the value.  Empty rows are left
    out."""
    n = A.n
    rows = []
    for table in tables:
        for j in range(n):
            block: list[dict[int, Fraction]] = [{} for _ in range(n)]
            for i in range(n):
                for k, c in table(i, j).data.items():
                    block[k][i] = c
            rows += [row for row in block if row]
    return rows


def _commutator(A: NCPA):
    return lambda i, j: A.mul_basis(i, j) - A.mul_basis(j, i)


def center(A: NCPA) -> Subspace:
    """Solutions of v*b = b*v for every basis element b.

    Public although no command reads it: it is the associative center that
    regular_poisson_structures constrains psi to (through the same rows),
    and poisson_center equals it when the bracket is zero."""
    return solve_nullspace(_central_rows(A, [_commutator(A)]), A.n)


def poisson_center(A: NCPA) -> Subspace:
    """The Poisson center Z_P(A): solutions of v*b = b*v and {v, b} = 0 for
    every basis element b."""
    return solve_nullspace(_central_rows(A, [_commutator(A), A.bracket_basis]), A.n)


def poisson_ideal_closure(A: NCPA, seed: Iterable[SparseVector]) -> Subspace:
    """Smallest subspace containing seed and closed under the bracket with,
    and the products on either side by, every element of the algebra."""
    basis = [A.basis(i) for i in range(A.n)]
    ops = [lambda v, b=b: A.bracket(b, v) for b in basis]
    ops += [lambda v, b=b: A.mul(b, v) for b in basis]
    ops += [lambda v, b=b: A.mul(v, b) for b in basis]
    return saturate_closure(seed, ops, A.n)


@dataclass
class SimplicityReport:
    simple: bool
    witness: Subspace | None = None


def _operator_matrices(A: NCPA) -> list[Matrix]:
    out = []
    for i in range(A.n):
        out.append(A.left_mult_matrix(i))
        out.append(A.right_mult_matrix(i))
        if not A.has_zero_bracket:
            out.append(A.ad_matrix(i))
    return out


def _operator_algebra_basis(A: NCPA) -> list[Matrix]:
    """Basis of the unital matrix algebra generated by all multiplication
    and bracket operators (the image of the enveloping action on A)."""
    n = A.n
    gens = [mat_identity(n)] + _operator_matrices(A)
    ech = Echelon(n * n)
    return close_under(
        lambda m: ech.add_data(mat_numerators(m, n)), gens,
        [lambda b, g=g: mat_mul(g, b) for g in gens],
    )


def _combination(coeffs: Mapping[int, Fraction], mats: Sequence[Matrix]) -> Matrix:
    """sum of coeffs[k] * mats[k], for rational coefficients."""
    nums, s = _integral(coeffs)
    return mat_lincomb(((c, mats[k]) for k, c in nums.items()), len(mats[0][0]), s)


def _trace_radical(basis: list[Matrix]) -> list[Matrix]:
    """Radical of the matrix algebra via the trace form (char 0)."""
    e = len(basis)
    if e == 0:
        return []
    rows = []
    for t in range(e):
        data = {}
        for s in range(e):
            prod, den = mat_mul(basis[s], basis[t])
            tr = Fraction(sum(row.get(i, 0) for i, row in enumerate(prod)), den)
            if tr:
                data[s] = tr
        rows.append(data)
    sol = solve_nullspace(rows, e)
    return [_combination(coeffs.data, basis) for coeffs in sol.rows]


def _centralizer_basis(A: NCPA) -> list[Matrix]:
    """Basis of the matrices commuting with every multiplication and bracket
    operator: the reduced echelon basis, over the n^2 entries (f[r][c] at
    r*n + c), of the L_z for z in the Poisson center.

    These matrices are End(A) for A as a module over P^e, and they are
    exactly the L_z.  If c commutes with every L_x and R_x, then
    c(x) = c(1*x) = c(1)*x and c(x) = c(x*1) = x*c(1), so c = L_z with
    z = c(1) central; commuting with ad_a gives {a, z} = c({a, 1}) = 0.
    Conversely, for z in Z_P(A), L_z commutes with L_x and R_x by
    associativity and centrality, and with ad_a by the Leibniz rule:
    {a, z*y} = {a, z}*y + z*{a, y} = z*{a, y}.  The reduced form is unique,
    so the basis does not depend on how the span was found."""
    n = A.n
    ech = Echelon(n * n)
    for z in poisson_center(A).rows:
        ech.add_data({r * n + c: x for c in range(n) for r, x in A.mul(z, A.basis(c)).items()})
    out = []
    for v in ech.to_subspace().rows:
        grid: list[dict] = [{} for _ in range(n)]
        for idx, x in v.data.items():
            grid[idx // n][idx % n] = x
        out.append(mat_from_rows(grid))
    return out


def _is_scalar_matrix(m: Matrix) -> bool:
    rows = m[0]
    d = rows[0].get(0)
    return all(row == ({i: d} if d else {}) for i, row in enumerate(rows))


def _poly_eval_matrix(coeffs: Sequence[Fraction], m: Matrix) -> Matrix:
    """Reached by simple's third stage, on a reducible minimal polynomial."""
    powers = [mat_identity(len(m[0]))]
    for _ in coeffs[1:]:
        powers.append(mat_mul(powers[-1], m))
    return _combination(dict(enumerate(coeffs)), powers)


def _rational_factors(coeffs: Sequence[Fraction]) -> list[list[Fraction]]:
    """Monic irreducible factors over Q of a polynomial given low-to-high."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs])), x, domain="QQ")
    out = []
    for fac, _mult in poly.factor_list()[1]:
        fac = fac.monic()
        cs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append(cs)
    return out


def _matrix_kernel(m: Matrix) -> Subspace:
    """Reached by simple's third stage, on a reducible minimal polynomial."""
    return solve_nullspace(m[0], len(m[0]))


def is_poisson_simple(A: NCPA) -> SimplicityReport:
    """Decide whether the only two-sided Poisson ideals are 0 and A.

    Three stages, each returning a closure-verified proper ideal when it
    finds one: (1) saturated closures of a spanning probe set (all basis
    vectors and all basis pair sums); (2) the radical of the operator
    algebra O generated by multiplications and brackets (a nonzero radical
    maps A onto a proper invariant subspace); (3) the Poisson center.
    Poisson ideals are the O-submodules of A, and the matrices commuting
    with O are the L_z for z in Z_P(A) (_centralizer_basis), so the kernel
    of f(L_z), for a rational factor f of L_z's minimal polynomial, is a
    Poisson ideal.  Stage 3 tries the L_z of a basis of Z_P(A).  Stage 1
    alone can miss ideals positioned askew to the basis.  Once stage 2 has
    found no radical, A is simple iff Z_P(A) is a field; stage 3 still
    misses a Z_P(A) that is not a field but whose basis elements all have
    irreducible minimal polynomials.
    """
    n = A.n
    probes = [A.basis(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            probes.append(A.basis(i) + A.basis(j))
    for v in probes:
        closure = poisson_ideal_closure(A, [v])
        if 0 < closure.rank < n:
            return SimplicityReport(False, closure)

    algebra_basis = _operator_algebra_basis(A)
    radical = _trace_radical(algebra_basis)
    if radical:
        images = [  # column j of each radical element: its image of basis j
            SparseVector(n, {i: Fraction(row[j], den) for i, row in enumerate(rows) if j in row})
            for rows, den in radical for j in range(n)
        ]
        closure = poisson_ideal_closure(A, images)
        if 0 < closure.rank < n:
            return SimplicityReport(False, closure)

    for f in _centralizer_basis(A):
        if _is_scalar_matrix(f):
            continue
        minpoly = minimal_polynomial(f)
        factors = _rational_factors(minpoly)
        if len(factors) == 1 and len(factors[0]) == len(minpoly):
            continue  # irreducible, no invariant kernel from this element
        for fac in factors:
            kernel = _matrix_kernel(_poly_eval_matrix(fac, f))
            if 0 < kernel.rank < n:
                closure = poisson_ideal_closure(A, kernel.rows)
                if 0 < closure.rank < n:
                    return SimplicityReport(False, closure)
    return SimplicityReport(True, None)


# -- derivations ---------------------------------------------------------------

def _derivation_rows(A: NCPA) -> list[dict[int, Fraction]]:
    """Rows of psi(v_i . v_j) = psi(v_i) . v_j + v_i . psi(v_j) over the
    unknown matrix psi, flattened row-major (psi[r][c] at r*n + c), for the
    product and then for the bracket.  Row t of (i, j) takes the terms
    -table(p, j)[t] at p*n + i and -table(i, p)[t] at p*n + j for p in
    order; only the nonzero ones are walked, since adding a zero leaves a
    row (and its key order) as it is."""
    n = A.n
    rows = []
    for table_basis, i in itertools.product((A.mul_basis, A.bracket_basis), range(n)):
        for j in range(n):
            terms: list[list] = [[] for _ in range(n)]  # per t: (key, coefficient)
            for p in range(n):
                for t, c in table_basis(p, j).data.items():
                    terms[t].append((p * n + i, -c))
                for t, c in table_basis(i, p).data.items():
                    terms[t].append((p * n + j, -c))
            prod = table_basis(i, j)
            for t in range(n):
                data: dict[int, Fraction] = {}
                for k, c in prod.data.items():
                    accumulate(data, t * n + k, c)
                for key, c in terms[t]:
                    accumulate(data, key, c)
                rows.append(data)
    return rows


@dataclass
class RegularStructures:
    """Derivations qualifying to twist the bracket on the regular bimodule.

    ``derivations`` is the unconstrained Poisson-derivation space (maps
    that are derivations for both the product and the bracket, n x n
    matrices flattened row-major);
    ``space`` adds the center-valued and commutator-killing constraints.
    The gap between the two is reported rather than resolved.
    """

    derivations: Subspace
    space: Subspace
    algebra: NCPA

    def star_bracket_table(self, psi: SparseVector) -> dict:
        """Bracket table of {a, b}* = {a, b} + psi(a) b for a flattened psi.
        Kept for the twisted regular modules that the tests build."""
        A = self.algebra
        n = A.n
        if psi.n != n * n:
            raise ValueError("psi has wrong dimension")
        table = {}
        for i in range(n):
            psi_vi = SparseVector(n, {r: psi.get(r * n + i) for r in range(n)})
            for j in range(n):
                val = A.bracket_basis(i, j) + A.mul(psi_vi, A.basis(j))
                if not val.is_zero():
                    table[(i, j)] = val
        return table


def regular_poisson_structures(A: NCPA) -> RegularStructures:
    n = A.n
    rows = _derivation_rows(A)
    derivations = solve_nullspace(rows, n * n)
    # each column psi(v_j) must lie in the center and multiply every
    # commutator [v_b, v_c] to zero: those rows, on column j of psi
    commutator = _commutator(A)
    kills = [lambda i, c, b=b: A.mul(A.basis(i), commutator(b, c)) for b in range(n)]
    for row in _central_rows(A, [commutator, *kills]):
        for j in range(n):
            rows.append({k * n + j: x for k, x in row.items()})
    return RegularStructures(derivations, solve_nullspace(rows, n * n), A)
