"""Quasi-Poisson and Poisson modules over an NCPA, and the mutually
inverse passages between such modules and representations of the
quasi-Poisson enveloping algebra.

A module is given by three families of exact matrices indexed by the
algebra basis: left action, right action, and Lie-type action.  The
passage to an enveloping-algebra action sends the monomial (i, j, word)
to left(i) . right(j) . lie(w_1) ... lie(w_k); the reverse passage reads
the three families off the degree <= 1 monomials, once the action's
products to degree 2 check out.  roundtrip_report checks the products of
F(M) once, to its bound or 2, and reads both answers off that check: the
products with the generators, which hold exactly when every monomial pair
multiplies, and list the failing (monomial, generator) pairs otherwise
(EnvAction.multiplicativity_failures).

Module families, action matrices and of_element values are linalg
Matrices: canonical integer forms, sparse integer rows over one
denominator.  The axiom checks, the action's monomial matrices and its
multiplicativity check multiply and combine them as they are, and two
matrices are equal exactly when their forms are.  The axiom checks form
each product of two family members once (_products), none with a zero
factor, whose product is the zero form, and none with an identity factor,
whose product is the other factor; the Poisson check and the module's
action read the quasi-Poisson sweep's products again.  Their sums go
through mat_lincomb, which drops zero terms and does arithmetic only where
more than one term, or one scaled term, is left.  A monomial pair is
checked against the smash product's memo entry (numerators, denominator)
as it stands, so no Fraction is formed per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .limits import check_degree
from .linalg import (
    Matrix,
    SparseVector,
    Subspace,
    _integral,
    add_terms,
    is_form,
    mat_combination,
    mat_from_columns,
    mat_identity,
    mat_lincomb,
    mat_mul,
    solve_nullspace,
)
from .ncpa import NCPA, is_standard, poisson_ideal_closure
from .smash import GENERATOR_TERM, QElement, QMonomial, embed, q_mono_mult, tail_words
from .truncation import env_monomials, ideal_j_gens


class ModuleShapeError(Exception):
    """Matrices of a module have inconsistent shapes."""


class ActionError(Exception):
    """An enveloping-algebra action failed its multiplicativity check."""


@dataclass(eq=False, frozen=True)
class QuasiPoissonModule:
    algebra: NCPA
    dim: int
    left: tuple  # Matrix per basis index, action of v_i . m
    right: tuple  # Matrix per basis index, action of m . v_i
    lie: tuple  # Matrix per basis index, action of {v_i, m}*

    def __post_init__(self):
        n = self.algebra.n
        if not (len(self.left) == len(self.right) == len(self.lie) == n):
            raise ModuleShapeError("need one matrix per basis element")
        for fam in (self.left, self.right, self.lie):
            for m in fam:
                if not is_form(m, self.dim, self.dim):
                    raise ModuleShapeError(
                        f"matrix is not the canonical form of a {self.dim}x{self.dim} matrix"
                    )

    def equal_actions(self, other: "QuasiPoissonModule") -> bool:
        return self.dim == other.dim and (self.left, self.right, self.lie) == (
            other.left, other.right, other.lie)


# -- constructions -------------------------------------------------------------

def regular_module(A: NCPA, lie_table: Mapping | None = None) -> QuasiPoissonModule:
    """The algebra acting on itself; optionally with a replacement table
    for the Lie-type action (used by twisted regular structures).  Kept as
    a fixture writer for scripts/compare_reports.py and the tests."""
    n = A.n
    left = tuple(A.left_mult_matrix(i) for i in range(n))
    right = tuple(A.right_mult_matrix(i) for i in range(n))
    if lie_table is None:
        lie = tuple(A.ad_matrix(i) for i in range(n))
    else:
        lie = tuple(
            mat_from_columns([lie_table.get((i, j), A.zero()).data for j in range(n)], n)
            for i in range(n)
        )
    return QuasiPoissonModule(A, n, left, right, lie)


def tensor_square_module(A: NCPA) -> QuasiPoissonModule:
    """A (x) A with a . (b (x) c) = ab (x) c, (b (x) c) . a = b (x) ca and
    the Lie action acting as a derivation on the two legs.  Kept as a
    fixture writer for scripts/compare_reports.py and perfbench."""
    n = A.n
    dim = n * n
    legs = [(b, c) for b in range(n) for c in range(n)]  # b (x) c is column b*n + c

    def first(x: SparseVector, c: int) -> dict:  # x (x) c
        return {k * n + c: v for k, v in x.data.items()}

    def second(b: int, x: SparseVector) -> dict:  # b (x) x
        return {b * n + k: v for k, v in x.data.items()}

    def family(column) -> tuple:
        return tuple(mat_from_columns([column(i, b, c) for b, c in legs], dim) for i in range(n))

    left = family(lambda i, b, c: first(A.mul_basis(i, b), c))
    right = family(lambda i, b, c: second(b, A.mul_basis(c, i)))
    # the Lie action is a derivation: both legs add into one column
    lie = family(lambda i, b, c: add_terms(
        first(A.bracket_basis(i, b), c), second(b, A.bracket_basis(i, c))))
    return QuasiPoissonModule(A, dim, left, right, lie)


def standard_bimodule_to_poisson(
    A: NCPA, left: Sequence, right: Sequence
) -> QuasiPoissonModule:
    """For a standard NCPA (commutator bracket), any bimodule becomes a
    Poisson module with Lie action left - right.  Kept as a source of
    modules for module morphisms (ROADMAP item 10)."""
    if not is_standard(A):
        raise ValueError("bracket is not the commutator of the product")
    dim = len(left[0][0])
    lie = tuple(mat_lincomb(((1, l), (-1, r)), dim) for l, r in zip(left, right))
    return QuasiPoissonModule(A, dim, tuple(left), tuple(right), lie)


def quotient_module(A: NCPA, ideal: Subspace) -> QuasiPoissonModule:
    """Regular actions induced on A / ideal, for a two-sided Poisson ideal.

    Representatives are the non-pivot coordinates of the ideal's echelon
    basis; images are reduced modulo the ideal.  Kept as a fixture writer
    for scripts/compare_reports.py."""
    n = A.n
    for op_name, op in (
        ("left", A.mul),
        ("right", lambda x, y: A.mul(y, x)),
        ("bracket", A.bracket),
    ):
        for row in ideal.rows:
            for i in range(n):
                if not ideal.contains(op(A.basis(i), row)):
                    raise ValueError(f"seed subspace not closed under {op_name}")
    reps = [c for c in range(n) if c not in set(ideal.pivots)]
    dim = len(reps)
    pos = {c: t for t, c in enumerate(reps)}

    def project(v: SparseVector) -> dict:
        return {pos[c]: val for c, val in ideal.reduce(v).data.items()}

    def family(column) -> tuple:  # column t of matrix i: column(i, reps[t]), projected
        return tuple(mat_from_columns([project(column(i, c)) for c in reps], dim) for i in range(n))

    left = family(A.mul_basis)
    right = family(lambda i, c: A.mul_basis(c, i))
    lie = family(A.bracket_basis)
    return QuasiPoissonModule(A, dim, left, right, lie)


# -- validation ------------------------------------------------------------------
#
# Two matrices are equal exactly when their forms are.

def _products(M: QuasiPoissonModule) -> Callable[[str, int, str, int], Matrix]:
    """product(x, a, y, b), the product of member a of family x and member
    b of family y ("L", "R" or "Z": left, right, lie).  Each is formed once,
    through mat_mul, and kept; where a factor is zero the zero form is the
    product, and where one is the identity form the other factor is, with
    no mat_mul call.  Each member is compared with both forms once."""
    members = {(x, a): m for x, fam in (("L", M.left), ("R", M.right), ("Z", M.lie))
               for a, m in enumerate(fam)}
    ident = mat_identity(M.dim)
    zeros = {key for key, m in members.items() if not any(m[0])}
    ones = {key for key, m in members.items() if m == ident}
    zero: Matrix = (({},) * M.dim, 1)
    memo: dict[tuple, Matrix] = {}

    def product(x: str, a: int, y: str, b: int) -> Matrix:
        key = (x, a, y, b)
        out = memo.get(key)
        if out is None:
            f, h = (x, a), (y, b)
            if f in zeros or h in zeros:
                out = zero
            elif f in ones:
                out = members[h]
            elif h in ones:
                out = members[f]
            else:
                out = mat_mul(members[f], members[h])
            memo[key] = out
        return out

    return product


def _quasi_sweep(M: QuasiPoissonModule) -> tuple[list[dict], Callable]:
    """quasi_violations' findings and the product function (_products) that
    formed them, whose products the Poisson check reads again."""
    L, R, Z = M.left, M.right, M.lie
    A = M.algebra
    n = A.n
    dim = M.dim
    mul = _products(M)
    out: list[dict] = []
    ident = mat_identity(dim)

    if mat_combination(A.unit.data, L, dim) != ident:
        out.append({"axiom": "unit-left", "indices": ()})
    if mat_combination(A.unit.data, R, dim) != ident:
        out.append({"axiom": "unit-right", "indices": ()})

    for i in range(n):
        for j in range(n):
            prod = A.mul_basis(i, j)
            if mul("L", i, "L", j) != mat_combination(prod.data, L, dim):
                out.append({"axiom": "left-action", "indices": (i, j)})
            if mul("R", j, "R", i) != mat_combination(prod.data, R, dim):
                out.append({"axiom": "right-action", "indices": (i, j)})
            if mul("L", i, "R", j) != mul("R", j, "L", i):
                out.append({"axiom": "bimodule-commute", "indices": (i, j)})
            bra = A.bracket_basis(i, j)
            # {a, b.m}* = {a,b}.m + b.{a,m}*
            if mul("Z", i, "L", j) != mat_combination(bra.data, L, dim, mul("L", j, "Z", i)):
                out.append({"axiom": "lie-left", "indices": (i, j)})
            # {a, m.b}* = m.{a,b} + {a,m}*.b
            if mul("Z", i, "R", j) != mat_combination(bra.data, R, dim, mul("R", j, "Z", i)):
                out.append({"axiom": "lie-right", "indices": (i, j)})
            # {{a,b}, m}* = {a,{b,m}*}* - {b,{a,m}*}*
            rhs = mat_lincomb(((1, mul("Z", i, "Z", j)), (-1, mul("Z", j, "Z", i))), dim)
            if mat_combination(bra.data, Z, dim) != rhs:
                out.append({"axiom": "lie-module", "indices": (i, j)})
    return out, mul


def quasi_violations(M: QuasiPoissonModule) -> list[dict]:
    """Bimodule axioms plus the three quasi-Poisson compatibilities,
    checked on basis pairs.  Each family product is formed once, and none
    with a zero factor (_products)."""
    return _quasi_sweep(M)[0]


def poisson_violations(M: QuasiPoissonModule) -> list[dict]:
    """Quasi-Poisson axioms plus {ab, m}* = a.{b,m}* + {a,m}*.b.  The
    products L_i.Z_j and R_j.Z_i on the right were all formed by the
    quasi-Poisson sweep, and are read from it."""
    out, mul = _quasi_sweep(M)
    Z = M.lie
    A = M.algebra
    dim = M.dim
    for i in range(A.n):
        for j in range(A.n):
            rhs = mat_lincomb(((1, mul("L", i, "Z", j)), (1, mul("R", j, "Z", i))), dim)
            if mat_combination(A.mul_basis(i, j).data, Z, dim) != rhs:
                out.append({"axiom": "product-compat", "indices": (i, j)})
    return out


def _checked_products(M: QuasiPoissonModule) -> Callable:
    """The quasi-Poisson sweep's product function (_products), once M
    passes the sweep; ActionError otherwise."""
    bad, mul = _quasi_sweep(M)
    if bad:
        raise ActionError(f"quasi-Poisson axioms violated: {bad[:3]}")
    return mul


# -- enveloping-algebra actions ---------------------------------------------------

class EnvAction:
    """The action F(M) of the quasi-Poisson enveloping algebra on a module
    M: monomial (i, j, word) acts by left(i) . right(j) . lie(w_1) ...
    lie(w_k).  Each monomial's matrix is built lazily and stored once: that
    of (i, j, word) from that of (i, j, word[:-1]) and the module's lie
    family, and left(i) . right(j) is read from products, a product
    function of M's families (_products): the quasi-Poisson sweep's
    (_checked_products), which formed it for the bimodule-commute check.
    The multiplicativity verdicts are taken on those matrices, so no
    Fraction is formed per pair, and not kept: a caller checks once.

    A monomial that acts as zero is stored as the one zero form, and the
    check (multiplicativity_failures) does no matrix work with it: if m or
    g acts as zero, then F(m)·F(g) is zero, since a zero factor gives a
    zero product; and the terms of m·g that act as zero are dropped, since
    they add nothing to F(m·g).  Each rational matrix has exactly one form,
    so every verdict is the one the full products give.

    Nor does it form a product that can only act as zero.  Call a word
    dead when all n² monomials (p, q, word) act as zero.  Every term of
    m·g has one of the tail words of the word pair of m and g as its word
    (smash.tail_words), whatever the slots; if all of them are dead, every
    term acts as zero, so F(m·g) = 0 and the verdict is F(m)·F(g) == 0,
    with no product formed and no memo entry made."""

    def __init__(self, M: QuasiPoissonModule, products: Callable):
        self.algebra = M.algebra
        self.dim = M.dim
        self._mul, self._lie = products, M.lie
        self._zero: Matrix = (({},) * M.dim, 1)  # the zero matrix
        self._forms: dict[QMonomial, Matrix] = {}
        self._generators: dict[str, tuple] | None = None

    def matrix(self, mono: QMonomial) -> Matrix:
        """The matrix of mono.  The checks read _form instead, since
        perfbench.tracing wraps this one (TRACED)."""
        return self._form(mono)

    def _form(self, mono: QMonomial) -> Matrix:
        hit = self._forms.get(mono)
        if hit is None:
            hit = self._new_form(mono)
            if not any(hit[0]):
                hit = self._zero
            self._forms[mono] = hit
        return hit

    def _new_form(self, mono: QMonomial) -> Matrix:
        i, j, word = mono
        if not word:
            return self._mul("L", i, "R", j)
        prefix, lie = self._form((i, j, word[:-1])), self._lie[word[-1]]
        if prefix is self._zero or not any(lie[0]):  # a zero factor: no product
            return self._zero
        return mat_mul(prefix, lie)

    def _combination(self, nums: dict, den: int) -> Matrix:
        """The action of sum nums[m] * m / den."""
        return mat_lincomb(((c, self._form(m)) for m, c in nums.items()), self.dim, den)

    def of_element(self, x: QElement) -> Matrix:
        return self._combination(*_integral(x))

    def _generator_forms(self) -> dict[str, tuple]:
        """{kind: (F(G_0), ..., F(G_{n-1}))} for the kinds i, k and j of
        GENERATOR_TERM, where G_p is the generator kind(e_p) expanded over
        the unit (smash.embed).  Built once: the generator check multiplies
        by them and _read_module reads the module's families off them."""
        if self._generators is None:
            A = self.algebra
            self._generators = {
                kind: tuple(self.of_element(embed(A, kind, A.basis(p))) for p in range(A.n))
                for kind in GENERATOR_TERM
            }
        return self._generators

    def multiplicativity_failures(self, degree_bound: int) -> list[tuple]:
        """The pairs (m, g) where F(m·g) != F(m)·F(g), for every monomial m
        and every one-term generator g = i(e_p), k(e_q) or j(e_a)
        (GENERATOR_TERM) with deg m + deg g <= degree_bound, F(g) being the
        action of the expanded generator (_generator_forms).  They come in
        sweep order: kind (i, k, j), then generator, then env_monomials
        order.  perfbench.tracing wraps it (TRACED).

        The list is empty iff every monomial pair (m1, m2) with
        deg m1 + deg m2 <= degree_bound multiplies: F(m1·m2) == F(m1)·F(m2).
        Write d for the bound, G for a generator expanded over the unit
        (I_p, K_q, J_a), and read every product as the implemented one
        (q_mono_mult, extended bilinearly).  A product with a one-term
        generator equals the product with G term by term (smash's module
        docstring), so each pair checks F(m·G) == F(m)·F(G), and F is
        linear, so an empty list gives F(x·G) = F(x)·F(G) for every
        combination x of monomials of degree <= d - deg G.  A product of
        monomials has no term of degree above the sum of theirs
        (straightening never raises the degree).

        If every monomial pair multiplies, the list is empty: G is a
        combination of monomials of the degree of g, so F(m·G) is the same
        combination of the F(m·m') = F(m)·F(m'), which is F(m)·F(G).

        If the list is empty, every monomial pair multiplies.  Show
        F(m1·m2) = F(m1)·F(m2) for m2 = (p, q, w) and deg m1 + |w| <= d, by
        induction on r = |w|.  By the definition of the implemented product
        (q_mono_mult folds the generator products over m2),
        m1·(p, q, ()) = (m1·I_p)·K_q and m1·(p, q, w) = (m1·(p, q, w'))·J_a
        for w = w' a; and (p, q, ()) = I_p·K_q, (p, q, w) = (p, q, w')·J_a,
        which test_monomials_are_products_of_the_generators checks.
          r = 0: m1·I_p has degree <= deg m1, so the check gives
          F(m1·m2) = F(m1·I_p)·F(K_q) = F(m1)·F(I_p)·F(K_q); and
          F(I_p)·F(K_q) = F(I_p·K_q) = F(m2), by the check on the
          degree-0 monomials of I_p.
          r > 0: with m' = (p, q, w'), m1·m' has degree <= d - 1, so
          F(m1·m2) = F(m1·m')·F(J_a), which is F(m1)·F(m')·F(J_a) by the
          case r - 1 and F(m1)·F(m2) by the check on m' and J_a.

        Each pair's verdict reads F(m), F(g) and the terms of m·g alone, so
        it is the same at every bound that holds the pair, and the pairs of
        one generator come in env_monomials order, which runs by degree.
        So for d' <= d the pairs of degree <= d' in the list at d are the
        list at d', in order; roundtrip_report reads its lists at both of
        its bounds off one call.

        Every monomial's form is built first, in env_monomials order.  A
        pair does no matrix work with a zero factor, nor with an identity
        one, whose product is the other factor, and is skipped when a
        factor acts as zero and every tail word is dead (see the class
        docstring): decided once per word pair, and only when some word is
        dead, with the word's n² pairs skipped at once where the generator
        or the word acts as zero."""
        A = self.algebra
        zero = self._zero
        ident = mat_identity(self.dim)
        monos = env_monomials(A, degree_bound)
        rows: dict = {}  # word -> [(monomial, form, form is the identity)]
        for m in monos:
            f = self._form(m)
            rows.setdefault(m[2], []).append((m, f, f == ident))
        dead = self._dead_words(monos)
        skips: dict = {}  # word pair -> every tail word is dead
        by_kind = self._generator_forms()
        out = []
        for kind, make in GENERATOR_TERM.items():
            for p, fg in enumerate(by_kind[kind]):
                g, g_zero, g_one = make(p), not any(fg[0]), fg == ident
                for alpha, row in rows.items():
                    if len(alpha) + len(g[2]) > degree_bound:
                        break  # the words run by degree
                    key = (alpha, g[2])
                    skip = skips.get(key)
                    if skip is None:
                        skip = skips[key] = bool(dead) and tail_words(A, *key) <= dead
                    if skip and (g_zero or alpha in dead):
                        continue  # a zero factor in every pair of the row
                    for m, f, f_one in row:
                        if f is zero or g_zero:
                            if skip:
                                continue
                            composed = zero
                        elif g_one:
                            composed = f
                        elif f_one:
                            composed = fg
                        else:
                            composed = mat_mul(f, fg)
                        if composed != self._of_product(m, g):
                            out.append((m, g))
        return out

    def _of_product(self, m: QMonomial, g: QMonomial) -> Matrix:
        """The action of m·g, read off its q_mono memo entry as it stands;
        mat_lincomb drops the terms that act as zero.  Their forms are read
        from the store, which the check has filled to its bound."""
        return self._combination(*q_mono_mult(self.algebra, m, g))

    def _dead_words(self, monos: list) -> set:
        """The words of monos whose n² monomials all act as zero; reads
        their forms, built already."""
        return {m[2] for m in monos}.difference(
            m[2] for m in monos if self._form(m) is not self._zero)


def module_to_action(M: QuasiPoissonModule) -> EnvAction:
    """Monomial (i, j, word) acts by left(i) . right(j) . lie(w_1) ...
    lie(w_k); the module must satisfy the quasi-Poisson axioms."""
    return EnvAction(M, _checked_products(M))


def _read_module(action: EnvAction, bad: list[tuple]) -> QuasiPoissonModule:
    """The three action families, the actions of i(e_p), k(e_p) and j(e_p),
    unvalidated; bad (the action's failures to degree 2) must be empty."""
    if bad:
        raise ActionError(f"action not multiplicative at {bad[:3]}")
    left, right, lie = action._generator_forms().values()
    return QuasiPoissonModule(action.algebra, action.dim, left, right, lie)


def action_to_module(action: EnvAction) -> QuasiPoissonModule:
    """Read the three action families off the degree <= 1 monomials.  The
    action must respect monomial products up to degree 2 (the degree-2
    products encode the generating relations).  Kept for perfbench.tracing,
    which wraps it (TRACED)."""
    back = _read_module(action, action.multiplicativity_failures(2))
    _checked_products(back)
    return back


def roundtrip_report(
    A: NCPA, M: QuasiPoissonModule, degree_bound: int = 2
) -> dict:
    """Check both passages are mutually inverse on M, and that the induced
    action is associative on monomial pairs up to the bound."""
    top = max(2, degree_bound)  # reading G(F(M)) checks degree 2
    check_degree(top, "product degree", A.degree_cap)  # before any work
    action = module_to_action(M)
    # one check: its list to degree d is this list's part of degree <= d
    failures = action.multiplicativity_failures(top)

    def up_to(d: int) -> list[tuple]:
        return [p for p in failures if len(p[0][2]) + len(p[1][2]) <= d]

    back = _read_module(action, up_to(2))
    gf_equal = M.equal_actions(back)
    # the axioms read only the families, and module_to_action validated M's,
    # so G(F(M)) is validated only where it differs from M; F(G(F(M))) is
    # built from back's matrices alone, so where they are M's it is F(M)
    action2 = action if gf_equal else EnvAction(back, _checked_products(back))
    monos = env_monomials(A, degree_bound)
    fgf_mismatches = [m for m in monos if action._form(m) != action2._form(m)]
    assoc_failures = up_to(degree_bound)
    return {
        "module_roundtrip_equal": gf_equal,
        "monomials_checked": len(monos),
        "action_roundtrip_mismatches": fgf_mismatches,
        "associativity_failures": assoc_failures,
        "ok": gf_equal and not fgf_mismatches and not assoc_failures,
    }


def action_annihilates(action: EnvAction, gens) -> bool:
    """True iff every generator acts as zero; the oracle behind
    j_annihilation_check."""
    return all(not any(action.of_element(g)[0]) for g in gens.gens)


def j_annihilation_check(A: NCPA, M: QuasiPoissonModule) -> bool:
    """True iff every generator of the product-compatibility ideal acts as
    zero; agrees with the Poisson verdict of poisson_violations.  Kept as
    the oracle that gives that verdict as J-annihilation."""
    return action_annihilates(module_to_action(M), ideal_j_gens(A))


def annihilator(A: NCPA, M: QuasiPoissonModule) -> Subspace:
    """Elements acting as zero on both sides; always a two-sided Poisson
    ideal, which is re-checked here.  Kept for module morphisms (ROADMAP
    item 10)."""
    n = A.n
    rows: dict = {}  # one row per entry (side, r, c): sum_i x_i * fam[i][r][c] = 0
    for side, fam in enumerate((M.left, M.right)):
        for i, (mat, den) in enumerate(fam):
            for r, row in enumerate(mat):
                for c, v in row.items():
                    rows.setdefault((side, r, c), {})[i] = Fraction(v, den)
    ann = solve_nullspace(rows.values(), n)
    closed = poisson_ideal_closure(A, ann.rows)
    if closed != ann:
        raise RuntimeError("annihilator failed its Poisson-ideal closure check")
    return ann
