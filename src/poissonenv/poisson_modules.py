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
products with the generators decide whether any pair fails
(EnvAction.generators_multiply), and only an action that fails is swept
pair by pair, for the list (EnvAction.multiplicativity_failures).

Module families, action matrices and of_element values are linalg
Matrices: canonical integer forms, sparse integer rows over one
denominator.  The axiom checks, the action's monomial matrices and its
multiplicativity check multiply and combine them as they are, and two
matrices are equal exactly when their forms are.  A monomial pair is
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

def _of(family: Sequence[Matrix], x: SparseVector, dim: int, *extra: Matrix) -> Matrix:
    """sum_i x_i * family[i], plus each matrix in extra."""
    nums, s = _integral(x.data)
    pairs = [(c, family[i]) for i, c in nums.items()]
    pairs += [(s, m) for m in extra]
    return mat_lincomb(pairs, dim, s)


def quasi_violations(M: QuasiPoissonModule) -> list[dict]:
    """Bimodule axioms plus the three quasi-Poisson compatibilities,
    checked on basis pairs."""
    L, R, Z = M.left, M.right, M.lie
    A = M.algebra
    n = A.n
    dim = M.dim
    mul = mat_mul
    out: list[dict] = []
    ident = mat_identity(dim)

    if _of(L, A.unit, dim) != ident:
        out.append({"axiom": "unit-left", "indices": ()})
    if _of(R, A.unit, dim) != ident:
        out.append({"axiom": "unit-right", "indices": ()})

    for i in range(n):
        for j in range(n):
            prod = A.mul_basis(i, j)
            if mul(L[i], L[j]) != _of(L, prod, dim):
                out.append({"axiom": "left-action", "indices": (i, j)})
            if mul(R[j], R[i]) != _of(R, prod, dim):
                out.append({"axiom": "right-action", "indices": (i, j)})
            if mul(L[i], R[j]) != mul(R[j], L[i]):
                out.append({"axiom": "bimodule-commute", "indices": (i, j)})
            bra = A.bracket_basis(i, j)
            # {a, b.m}* = {a,b}.m + b.{a,m}*
            if mul(Z[i], L[j]) != _of(L, bra, dim, mul(L[j], Z[i])):
                out.append({"axiom": "lie-left", "indices": (i, j)})
            # {a, m.b}* = m.{a,b} + {a,m}*.b
            if mul(Z[i], R[j]) != _of(R, bra, dim, mul(R[j], Z[i])):
                out.append({"axiom": "lie-right", "indices": (i, j)})
            # {{a,b}, m}* = {a,{b,m}*}* - {b,{a,m}*}*
            rhs = mat_lincomb(((1, mul(Z[i], Z[j])), (-1, mul(Z[j], Z[i]))), dim)
            if _of(Z, bra, dim) != rhs:
                out.append({"axiom": "lie-module", "indices": (i, j)})
    return out


def poisson_violations(M: QuasiPoissonModule) -> list[dict]:
    """Quasi-Poisson axioms plus {ab, m}* = a.{b,m}* + {a,m}*.b."""
    out = quasi_violations(M)
    L, R, Z = M.left, M.right, M.lie
    A = M.algebra
    dim = M.dim
    for i in range(A.n):
        for j in range(A.n):
            rhs = mat_lincomb(((1, mat_mul(L[i], Z[j])), (1, mat_mul(R[j], Z[i]))), dim)
            if _of(Z, A.mul_basis(i, j), dim) != rhs:
                out.append({"axiom": "product-compat", "indices": (i, j)})
    return out


def validate_quasi_poisson(M: QuasiPoissonModule) -> QuasiPoissonModule:
    bad = quasi_violations(M)
    if bad:
        raise ActionError(f"quasi-Poisson axioms violated: {bad[:3]}")
    return M


# -- enveloping-algebra actions ---------------------------------------------------

class EnvAction:
    """A representation of the quasi-Poisson enveloping algebra, given by
    a matrix for each monomial, built lazily and stored once per monomial.
    The multiplicativity verdicts are taken on those matrices, so no
    Fraction is formed per pair, and not kept: a caller checks once.

    A monomial that acts as zero is stored as the one zero form, and
    neither check (generators_multiply, multiplicativity_failures) does
    matrix work with it: if m1 or m2 acts as zero, then
    F(m1)·F(m2) is zero, since a zero factor gives a zero product; and the
    terms of m1·m2 that act as zero are dropped, since they add nothing to
    F(m1·m2).  Each rational matrix has exactly one form, so every verdict
    is the one the full products give.

    Nor does either form a product that can only act as zero.  Call a word
    dead when all n² monomials (p, q, word) act as zero.  Every term of
    m1·m2 has one of the tail words of the word pair of m1 and m2 as its
    word (smash.tail_words), whatever the slots; if all of them are dead,
    every term acts as zero, so F(m1·m2) = 0 and the verdict is
    F(m1)·F(m2) == 0, with no product formed and no memo entry made.  The
    full sweep reads the dead words after its first row, which reads
    every monomial's form, in the order a sweep without skips reads them;
    when no word is dead, a pair costs one test of an empty skip more."""

    def __init__(self, algebra: NCPA, dim: int, matrix_fn: Callable[[QMonomial], Matrix]):
        self.algebra = algebra
        self.dim = dim
        self._fn = matrix_fn
        self._zero: Matrix = (({},) * dim, 1)  # the zero matrix
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
        """Kept for actions given by a matrix_fn, as the tests build them."""
        out = self._fn(mono)
        if not is_form(out, self.dim, self.dim):
            raise ModuleShapeError("action matrix has wrong shape")
        return out

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

    def generators_multiply(self, degree_bound: int) -> bool:
        """True iff multiplicativity_failures(degree_bound) is empty, decided
        on the products with the 3n generators alone: F(m·g) == F(m)·F(g)
        for every monomial m and every one-term generator g = i(e_p), k(e_q)
        or j(e_a) (GENERATOR_TERM) with deg m + deg g <= degree_bound, F(g)
        being the action of the expanded generator (_generator_forms).

        Write d for the bound, G for a generator expanded over the unit
        (I_p, K_q, J_a), and read every product as the implemented one
        (q_mono_mult, extended bilinearly).  A product with a one-term
        generator equals the product with G term by term (smash's module
        docstring), so the check is F(m·G) == F(m)·F(G), and F is linear, so
        it gives F(x·G) = F(x)·F(G) for every combination x of monomials of
        degree <= d - deg G.  A product of monomials has no term of degree
        above the sum of theirs (straightening never raises the degree).

        Only if: G is a combination of monomials of the degree of g, so
        F(m·G) is the same combination of the F(m·m') = F(m)·F(m'), which
        is F(m)·F(G), when every pair of total degree <= d holds.

        If: two identities of the implemented product, which
        test_monomials_are_products_of_the_generators checks.  First,
        (p, q, ()) = I_p·K_q.  Second, (p, q, w) = (p, q, w')·J_a for a
        nonempty PBW word w = w' a: the unit slots of J_a keep e_p and e_q
        (1·x = x·1 = x), every part that brackets a letter into them is zero
        (ad_u(1) = 0 for a nonempty word u), and w' followed by a straightens
        to itself, w being non-decreasing.  Now show F(m1·m2) = F(m1)·F(m2)
        for m2 = (p, q, w) and deg m1 + |w| <= d, by induction on r = |w|.
          r = 0: m1·m2 = (m1·I_p)·K_q, and m1·I_p has degree <= deg m1, so
          the check gives F(m1·m2) = F(m1·I_p)·F(K_q) = F(m1)·F(I_p)·F(K_q);
          and F(I_p)·F(K_q) = F(I_p·K_q) = F(m2), by the check on the
          degree-0 monomials of I_p.
          r > 0: with m' = (p, q, w'), m1·m2 = (m1·m')·J_a, and m1·m' has
          degree <= d - 1, so F(m1·m2) = F(m1·m')·F(J_a), which is
          F(m1)·F(m')·F(J_a) by the case r - 1 and F(m1)·F(m2) by the check
          on m' and J_a.
        Associativity of the implemented product, used twice above, is the
        one assumption; test_associativity_exhaustive_kxk and
        test_associativity_random_m2 check it.

        Every monomial's form is built first, in env_monomials order, and
        a pair does no matrix work with a zero factor, as in the full sweep.
        Nor is a product formed that can only act as zero: a pair is skipped
        when a factor acts as zero and every tail word of its word pair
        (smash.tail_words) is dead, for then both sides are zero.  That is
        decided once per word pair, and only when some word is dead; where
        the generator or the word acts as zero, the word's n² pairs are
        skipped at once."""
        A = self.algebra
        zero = self._zero
        monos = env_monomials(A, degree_bound)
        rows: dict = {}  # word -> [(monomial, form)], in env_monomials order
        for m in monos:
            rows.setdefault(m[2], []).append((m, self._form(m)))
        dead = self._dead_words(monos)
        form = self._forms.__getitem__
        skips: dict = {}  # word pair -> every tail word is dead
        by_kind = self._generator_forms()
        for kind, make in GENERATOR_TERM.items():
            for p, fg in enumerate(by_kind[kind]):
                g, g_zero = make(p), not any(fg[0])
                for alpha, row in rows.items():
                    if len(alpha) + len(g[2]) > degree_bound:
                        break  # the words run by degree
                    key = (alpha, g[2])
                    skip = skips.get(key)
                    if skip is None:
                        skip = skips[key] = bool(dead) and tail_words(A, *key) <= dead
                    if skip and (g_zero or alpha in dead):
                        continue  # a zero factor in every pair of the row
                    for m, f in row:
                        if f is zero or g_zero:
                            if skip:
                                continue
                            composed = zero
                        else:
                            composed = mat_mul(f, fg)
                        if composed != self._of_product(m, g, form):
                            return False
        return True

    def multiplicativity_failures(self, degree_bound: int) -> list[tuple]:
        """Monomial pairs (total degree <= bound) where composing matrices
        differs from acting by the product, in sweep order.  The callers run
        it only when generators_multiply fails, to list the failures, so no
        CLI job reaches it (a validated module's action multiplies); it is
        kept as that lister and as the reference the generator check is
        tested against, and perfbench.tracing wraps it (TRACED)."""
        form = self._form
        zero = self._zero
        out = []
        monos = env_monomials(self.algebra, degree_bound)
        # monomials of degree <= d form a prefix of monos, upto[d] long
        upto = [sum(len(m[2]) <= d for m in monos) for d in range(degree_bound + 1)]
        dead_products: dict = {}
        for row, m1 in enumerate(monos):
            if row == 1:  # the first row has built every form: read the store
                form = self._forms.__getitem__
                dead_products = self._dead_products(monos, degree_bound)
            skip = dead_products.get(m1[2])
            for m2 in monos[:upto[degree_bound - len(m1[2])]]:
                # read every form, m1's, m2's, then the product terms', even
                # where a factor is zero: a failing matrix_fn then fails at
                # the same monomial whatever acts as zero
                f1, f2 = form(m1), form(m2)
                composed = zero if f1 is zero or f2 is zero else mat_mul(f1, f2)
                if skip and m2[2] in skip:
                    product = zero  # m1·m2 acts as zero: not formed
                else:
                    product = self._of_product(m1, m2, form)
                if composed != product:
                    out.append((m1, m2))
        return out

    def _of_product(self, m1: QMonomial, m2: QMonomial, form: Callable) -> Matrix:
        """The action of m1·m2, read off its q_mono memo entry as it stands;
        the terms that act as zero (form reads their forms) are dropped."""
        A = self.algebra
        entry = A.caches["q_mono"].get((m1, m2))
        if entry is None:
            entry = q_mono_mult(A, m1, m2)  # the one function that fills the memo
        nums, den = entry
        live = {m: c for m, c in nums.items() if form(m) is not self._zero}
        return self._combination(live, den) if live else self._zero

    def _dead_words(self, monos: list) -> set:
        """The words of monos whose n² monomials all act as zero; reads
        their forms, built already."""
        return {m[2] for m in monos}.difference(
            m[2] for m in monos if self._form(m) is not self._zero)

    def _dead_products(self, monos: list, degree_bound: int) -> dict:
        """For each word alpha of monos, the words beta (of degree at most
        degree_bound - len(alpha)) whose tail words with alpha are all dead;
        empty when no word is dead.  Reads only forms already built.  Kept
        for the full sweep, which no CLI job reaches (see
        multiplicativity_failures): without it the sweep of a failing action
        would form every product that can only act as zero."""
        dead = self._dead_words(monos)
        if not dead:
            return {}
        words = list(dict.fromkeys(m[2] for m in monos))
        out: dict = {}
        for alpha in words:
            for beta in words:
                if len(alpha) + len(beta) <= degree_bound:
                    if tail_words(self.algebra, alpha, beta) <= dead:
                        out.setdefault(alpha, set()).add(beta)
        return out


class _ModuleAction(EnvAction):
    """The action of a module: monomial (i, j, word) acts by
    left(i) . right(j) . lie(w_1) ... lie(w_k).  Its matrix is built from
    that of (i, j, word[:-1]) and the module's families."""

    def __init__(self, M: QuasiPoissonModule):
        super().__init__(M.algebra, M.dim, None)  # _new_form is overridden
        self._left, self._right, self._lie = M.left, M.right, M.lie

    def _new_form(self, mono: QMonomial) -> Matrix:
        i, j, word = mono
        if not word:
            return mat_mul(self._left[i], self._right[j])
        return mat_mul(self._form((i, j, word[:-1])), self._lie[word[-1]])


def module_to_action(M: QuasiPoissonModule) -> EnvAction:
    """Monomial (i, j, word) acts by left(i) . right(j) . lie(w_1) ...
    lie(w_k); the module must satisfy the quasi-Poisson axioms."""
    return _ModuleAction(validate_quasi_poisson(M))


def _failures(action: EnvAction, degree_bound: int) -> list[tuple]:
    """The action's failing monomial pairs to the bound, in sweep order:
    none when its generators multiply, else the full sweep's list."""
    if action.generators_multiply(degree_bound):
        return []
    return action.multiplicativity_failures(degree_bound)


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
    return validate_quasi_poisson(_read_module(action, _failures(action, 2)))


def roundtrip_report(
    A: NCPA, M: QuasiPoissonModule, degree_bound: int = 2
) -> dict:
    """Check both passages are mutually inverse on M, and that the induced
    action is associative on monomial pairs up to the bound."""
    top = max(2, degree_bound)  # reading G(F(M)) checks degree 2
    check_degree(top, "product degree")  # before any work
    action = module_to_action(M)
    # one check; a sweep to degree d fails at its pairs of degree <= d
    failures = _failures(action, top)

    def up_to(d: int) -> list[tuple]:
        return [p for p in failures if len(p[0][2]) + len(p[1][2]) <= d]

    back = _read_module(action, up_to(2))
    gf_equal = M.equal_actions(back)
    # the axioms read only the families, and module_to_action validated M's,
    # so G(F(M)) is validated only where it differs from M
    if not gf_equal:
        validate_quasi_poisson(back)

    # F(G(F(M))) is built from back's matrices alone, so where they are M's
    # it is F(M)
    action2 = action if gf_equal else _ModuleAction(back)
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
