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
    accumulate,
    close_under,
    complement_conditions,
    mat_apply,
    mat_flatten,
    mat_from_columns,
    mat_identity,
    mat_lincomb,
    mat_mul,
    mat_shape,
    mat_unflatten,
    minimal_polynomial,
    rat,
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

    def element(self, coords: Sequence) -> SparseVector:
        if len(coords) != self.n:
            raise ValueError(
                f"expected {self.n} coordinates, got {len(coords)}"
            )
        return SparseVector.from_dense([rat(c) for c in coords])

    def format_element(self, x: SparseVector) -> str:
        if x.is_zero():
            return "0"
        parts = []
        for i in x.support():
            c = x.get(i)
            label = self.labels[i]
            if c == 1:
                term = label
            elif c == -1:
                term = f"-{label}"
            else:
                term = f"{c}*{label}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    # -- multiplication operators as dense matrices --------------------------

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
    """True iff the bracket is exactly the commutator of the product."""
    for i in range(A.n):
        for j in range(A.n):
            if A.bracket_basis(i, j) != A.mul_basis(i, j) - A.mul_basis(j, i):
                return False
    return True


# -- structural analysis -------------------------------------------------------

def center(A: NCPA) -> Subspace:
    """Solutions of v*b = b*v for every basis element b."""
    n = A.n
    rows = []
    for j in range(n):
        for k in range(n):
            data = {}
            for i in range(n):
                c = A.mul_basis(i, j).get(k) - A.mul_basis(j, i).get(k)
                if c:
                    data[i] = c
            if data:
                v = SparseVector(n)
                v.data = data
                rows.append(v)
    return solve_nullspace(rows, n)


def _side_operators(A: NCPA, side: str):
    ops = []
    for i in range(A.n):
        b = A.basis(i)
        ops.append(lambda v, b=b: A.bracket(b, v))
    if side in ("left", "two_sided"):
        for i in range(A.n):
            b = A.basis(i)
            ops.append(lambda v, b=b: A.mul(b, v))
    if side in ("right", "two_sided"):
        for i in range(A.n):
            b = A.basis(i)
            ops.append(lambda v, b=b: A.mul(v, b))
    return ops


def poisson_ideal_closure(
    A: NCPA, seed: Iterable[SparseVector], side: str = "two_sided"
) -> Subspace:
    """Smallest subspace containing seed, closed under the bracket with all
    of the algebra and under the requested one- or two-sided products."""
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"unknown side {side!r}")
    return saturate_closure(seed, _side_operators(A, side), A.n)


@dataclass
class SimplicityReport:
    simple: bool
    witness: Subspace | None = None

    def __bool__(self) -> bool:
        return self.simple


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
        lambda m: ech.add(mat_flatten(m)), gens, [lambda b, g=g: mat_mul(g, b) for g in gens]
    )


def _trace_radical(basis: list[Matrix]) -> list[Matrix]:
    """Radical of the matrix algebra via the trace form (char 0)."""
    e = len(basis)
    if e == 0:
        return []
    rows = []
    for t in range(e):
        data = {}
        for s in range(e):
            prod = mat_mul(basis[s], basis[t])
            tr = sum((prod[i][i] for i in range(len(prod))), ZERO)
            if tr:
                data[s] = tr
        v = SparseVector(e)
        v.data = data
        rows.append(v)
    sol = solve_nullspace(rows, e)
    size = len(basis[0])
    return [
        mat_lincomb([(c, basis[s]) for s, c in coeffs.items()], size)
        for coeffs in sol.rows
    ]


def _centralizer_basis(A: NCPA) -> list[Matrix]:
    """Matrices commuting with every multiplication/bracket operator."""
    n = A.n
    ops = _operator_matrices(A)
    rows = []
    # unknown f with entries f[r][c] at coordinate r*n + c; conditions fM = Mf
    for M in ops:
        for r in range(n):
            for c in range(n):
                data = {}
                for k in range(n):
                    x = M[k][c]
                    if x:
                        data[r * n + k] = data.get(r * n + k, ZERO) + x
                    y = M[r][k]
                    if y:
                        data[k * n + c] = data.get(k * n + c, ZERO) - y
                data = {k: v for k, v in data.items() if v}
                if data:
                    v = SparseVector(n * n)
                    v.data = data
                    rows.append(v)
    sol = solve_nullspace(rows, n * n)
    return [mat_unflatten(v, n, n) for v in sol.rows]


def _is_scalar_matrix(m: Matrix) -> bool:
    n = len(m)
    d = m[0][0]
    return all(m[i][j] == (d if i == j else ZERO) for i in range(n) for j in range(n))


def _poly_eval_matrix(coeffs: Sequence[Fraction], m: Matrix) -> Matrix:
    n = len(m)
    pairs = []
    power = mat_identity(n)
    for c in coeffs:
        if c:
            pairs.append((c, power))
        power = mat_mul(power, m)
    return mat_lincomb(pairs, n)


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
    rows = []
    r, c = mat_shape(m)
    for i in range(r):
        data = {j: m[i][j] for j in range(c) if m[i][j]}
        if data:
            v = SparseVector(c)
            v.data = data
            rows.append(v)
    return solve_nullspace(rows, c)


def is_poisson_simple(A: NCPA) -> SimplicityReport:
    """Decide whether the only two-sided Poisson ideals are 0 and A.

    Three stages, each returning a closure-verified proper ideal when it
    finds one: (1) saturated closures of a spanning probe set (all basis
    vectors and all basis pair sums); (2) the radical of the operator
    algebra generated by multiplications and brackets (a nonzero radical
    maps A onto a proper invariant subspace); (3) kernels of rational
    minimal-polynomial factors of operator-centralizer elements.  Stage 1
    alone can miss ideals positioned askew to the basis; stages 2-3 catch
    those at desk scale, though exotic division-algebra centralizers with
    no splitting basis element would still go undetected.
    """
    n = A.n
    probes = [A.basis(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            probes.append(A.basis(i) + A.basis(j))
    for v in probes:
        closure = poisson_ideal_closure(A, [v], "two_sided")
        if 0 < closure.rank < n:
            return SimplicityReport(False, closure)

    algebra_basis = _operator_algebra_basis(A)
    radical = _trace_radical(algebra_basis)
    if radical:
        images = [mat_apply(r, A.basis(j)) for r in radical for j in range(n)]
        closure = poisson_ideal_closure(A, images, "two_sided")
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
                closure = poisson_ideal_closure(A, kernel.rows, "two_sided")
                if 0 < closure.rank < n:
                    return SimplicityReport(False, closure)
    return SimplicityReport(True, None)


# -- derivations ---------------------------------------------------------------

def _derivation_rows(A: NCPA) -> list[SparseVector]:
    """Rows of psi(v_i . v_j) = psi(v_i) . v_j + v_i . psi(v_j) over the
    unknown matrix psi, flattened row-major (psi[r][c] at r*n + c), for the
    product and then for the bracket."""
    n = A.n
    rows = []
    for table_basis, i in itertools.product((A.mul_basis, A.bracket_basis), range(n)):
        for j in range(n):
            prod = table_basis(i, j)
            for t in range(n):
                data: dict[int, Fraction] = {}
                for k, c in prod.data.items():
                    key = t * n + k
                    data[key] = data.get(key, ZERO) + c
                for p in range(n):
                    c1 = table_basis(p, j).get(t)
                    if c1:
                        key = p * n + i
                        data[key] = data.get(key, ZERO) - c1
                    c2 = table_basis(i, p).get(t)
                    if c2:
                        key = p * n + j
                        data[key] = data.get(key, ZERO) - c2
                data = {k: v for k, v in data.items() if v}
                if data:
                    v = SparseVector(n * n)
                    v.data = data
                    rows.append(v)
    return rows


def poisson_derivations(A: NCPA) -> Subspace:
    """Maps that are derivations for both the product and the bracket,
    as a subspace of n x n matrices flattened row-major."""
    return solve_nullspace(_derivation_rows(A), A.n * A.n)


@dataclass
class RegularStructures:
    """Derivations qualifying to twist the bracket on the regular bimodule.

    ``derivations`` is the unconstrained Poisson-derivation space;
    ``space`` adds the center-valued and commutator-killing constraints.
    The gap between the two is reported rather than resolved.
    """

    derivations: Subspace
    space: Subspace
    algebra: NCPA

    def star_bracket_table(self, psi: SparseVector) -> dict:
        """Bracket table of {a, b}* = {a, b} + psi(a) b for a flattened psi."""
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
    # psi(v_j) must lie in the center
    conds = complement_conditions(center(A))
    for j in range(n):
        for w in conds:
            data = {}
            for k, c in w.data.items():
                data[k * n + j] = c
            v = SparseVector(n * n)
            v.data = data
            rows.append(v)
    # psi(v_a) [v_b, v_c] = 0 over basis triples
    for b in range(n):
        for c in range(n):
            kappa = A.mul_basis(b, c) - A.mul_basis(c, b)
            if kappa.is_zero():
                continue
            for a in range(n):
                for t in range(n):
                    data = {}
                    for p in range(n):
                        coeff = A.mul(A.basis(p), kappa).get(t)
                        if coeff:
                            data[p * n + a] = coeff
                    if data:
                        v = SparseVector(n * n)
                        v.data = data
                        rows.append(v)
    return RegularStructures(derivations, solve_nullspace(rows, n * n), A)
