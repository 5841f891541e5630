from fractions import Fraction

import pytest

from poissonenv.linalg import SparseVector, is_form, mat_from_rows, mat_identity, mat_lincomb, mat_mul
from poissonenv.ncpa import NCPA, poisson_ideal_closure, regular_poisson_structures
from poissonenv.pbw import u_monomials
from poissonenv.poisson_modules import (
    ActionError,
    EnvAction,
    ModuleShapeError,
    QuasiPoissonModule,
    _products,
    action_to_module,
    annihilator,
    j_annihilation_check,
    module_to_action,
    poisson_violations,
    quasi_violations,
    quotient_module,
    regular_module,
    roundtrip_report,
    standard_bimodule_to_poisson,
    tensor_square_module,
)
from conftest import dense, grid_form, is_zero, rebase, skew_basis, vec, zero_matrix

ONE = Fraction(1)
ZERO = Fraction(0)


class _FnAction(EnvAction):
    """An action of M's algebra on M.dim-space in which each monomial acts
    by fn(monomial), a canonical form: a reference built apart from the
    module's own forms."""

    def __init__(self, M, fn):
        super().__init__(M, None)  # _new_form is overridden: no product is read
        self._fn = fn

    def _new_form(self, mono):
        return self._fn(mono)


def projection_twist_module(A):
    """Regular bimodule of K x K with the Lie slot acting by the first
    idempotent projection: quasi-Poisson but not Poisson."""
    reg = regular_module(A)
    proj = mat_from_rows([{0: 1}, {}])
    return QuasiPoissonModule(A, 2, reg.left, reg.right, (proj, zero_matrix(2)))


def test_regular_modules_are_poisson(kxk, m2, trunc2, ut2):
    for A in (kxk, m2, trunc2, ut2):
        M = regular_module(A)
        assert quasi_violations(M) == []
        assert poisson_violations(M) == []


def test_zero_lie_bimodule_over_zero_bracket(kxk):
    reg = regular_module(kxk)
    M = QuasiPoissonModule(kxk, 2, reg.left, reg.right, (zero_matrix(2), zero_matrix(2)))
    assert poisson_violations(M) == []


def test_tensor_square_quasi_always(kxk, m2, trunc2):
    for A in (kxk, m2, trunc2):
        M = tensor_square_module(A)
        assert M.dim == A.n * A.n
        assert quasi_violations(M) == []


def test_tensor_square_zero_bracket_is_poisson(kxk, trunc2):
    for A in (kxk, trunc2):
        M = tensor_square_module(A)
        assert all(is_zero(m) for m in M.lie)
        assert poisson_violations(M) == []


def test_tensor_square_m2_not_poisson(m2):
    # the diagonal Lie action fails product compatibility here
    M = tensor_square_module(m2)
    assert quasi_violations(M) == []
    assert poisson_violations(M) != []


def test_projection_twist_is_quasi_not_poisson(kxk):
    M = projection_twist_module(kxk)
    assert quasi_violations(M) == []
    bad = poisson_violations(M)
    assert any(f["axiom"] == "product-compat" and f["indices"] == (0, 0) for f in bad)


def test_standard_bimodule_regular(m2):
    reg = regular_module(m2)
    M = standard_bimodule_to_poisson(m2, reg.left, reg.right)
    assert poisson_violations(M) == []
    assert M.lie == reg.lie  # commutator bracket: the twist is the adjoint


def test_standard_bimodule_tensor_square(m2):
    ts = tensor_square_module(m2)
    M = standard_bimodule_to_poisson(m2, ts.left, ts.right)
    assert poisson_violations(M) == []


def test_standard_bimodule_requires_commutator(trunc2):
    # a commutative algebra with a nonzero bracket: valid NCPA, but the
    # bracket is not the (zero) commutator
    from poissonenv.ncpa import AlgebraPresentation, validate_ncpa
    pres = AlgebraPresentation(
        "trunc2-sol",
        3,
        ["1", "x1", "x2"],
        vec(3, {0: 1}),
        dict(trunc2.presentation.mul),
        {(1, 2): vec(3, {1: 1}), (2, 1): vec(3, {1: -1})},
    )
    A = validate_ncpa(pres)
    reg = regular_module(A)
    with pytest.raises(ValueError):
        standard_bimodule_to_poisson(A, reg.left, reg.right)


def test_trivial_one_dimensional_module(field_k):
    M = regular_module(field_k)
    assert poisson_violations(M) == []
    report = roundtrip_report(field_k, M, 3)
    assert report["ok"]


def test_action_matrix_examples(kxk):
    M = regular_module(kxk)
    action = module_to_action(M)
    # (e1 (x) e2 # 1) . e1 = e1 e1 e2 = 0
    m = action.matrix((0, 1, ()))
    assert m == zero_matrix(2)  # e1 . x . e2 = 0 on the commutative kxk
    # (e1 (x) e1 # 1) . e1 = e1, and e2 goes to 0
    assert action.matrix((0, 0, ())) == (({0: 1}, {}), 1)
    assert dense(action.matrix((0, 0, ()))) == ((ONE, ZERO), (ZERO, ZERO))


def test_action_zero_bracket_positive_degree(kxk):
    action = module_to_action(regular_module(kxk))
    assert is_zero(action.matrix((0, 0, (1,))))


def test_action_matrices_match_the_product_formula(m2):
    # each monomial's matrix is left(i) . right(j) . lie(w1) ... lie(wk), as
    # the loop below multiplies it out; the action builds it from its prefix
    import gc
    import weakref

    M = tensor_square_module(m2)
    action = module_to_action(M)
    for word in u_monomials(4, 3):
        for i in range(4):
            for j in range(4):
                acc = mat_mul(M.left[i], M.right[j])
                for letter in word:
                    acc = mat_mul(acc, M.lie[letter])
                assert action.matrix((i, j, word)) == acc, (i, j, word)
    # no reference cycle: the cached matrices go with the last reference
    ref = weakref.ref(action)
    gc.disable()
    try:
        del action
        assert ref() is None
    finally:
        gc.enable()


def test_roundtrip_regular_modules(kxk, m2, trunc2):
    for A in (kxk, m2, trunc2):
        report = roundtrip_report(A, regular_module(A), 2)
        assert report["ok"], report


def test_roundtrip_tensor_square_kxk(kxk):
    for degree in (2, 3):
        report = roundtrip_report(kxk, tensor_square_module(kxk), degree)
        assert report["ok"], degree


def test_module_action_module_is_identity(kxk, m2):
    for A in (kxk, m2):
        M = regular_module(A)
        back = action_to_module(module_to_action(M))
        assert back.equal_actions(M)


def test_action_module_action_is_identity_to_degree_two(m2):
    M = regular_module(m2)
    action = module_to_action(M)
    again = module_to_action(action_to_module(action))
    for word in u_monomials(4, 2):
        for i in range(4):
            for j in range(4):
                mono = (i, j, word)
                assert action.matrix(mono) == again.matrix(mono)


def test_action_to_module_rejects_bad_action(kxk):
    # an action that is not multiplicative: identity on everything
    bad = _FnAction(regular_module(kxk), lambda mono: mat_identity(2))
    with pytest.raises(ActionError):
        action_to_module(bad)


def test_multiplicativity_verdicts_reused_across_bounds(kxk):
    # one action asked for several bounds answers as a fresh one would, so
    # a wider bound checks the pairs a narrower one never saw
    def identity_action():
        return _FnAction(regular_module(kxk), lambda mono: mat_identity(2))

    action = identity_action()
    found = {}
    for bound in (1, 2, 2, 3):
        found[bound] = action.multiplicativity_failures(bound)
        assert found[bound] == identity_action().multiplicativity_failures(bound)
    assert found[1]
    assert len(found[3]) > len(found[2])


def test_module_to_action_requires_quasi(kxk):
    reg = regular_module(kxk)
    # break the bimodule: left action of e1 replaced by a non-multiplicative map
    broken = QuasiPoissonModule(
        kxk, 2,
        (grid_form(((1, 1), (0, 1))), reg.left[1]),
        reg.right, reg.lie,
    )
    with pytest.raises(ActionError):
        module_to_action(broken)


def test_j_annihilation_matches_poisson_verdict(kxk, m2, trunc2):
    modules = []
    for A in (kxk, m2, trunc2):
        modules.append((A, regular_module(A)))
        modules.append((A, tensor_square_module(A)))
    modules.append((kxk, projection_twist_module(kxk)))
    reg = regular_module(m2)
    modules.append((m2, standard_bimodule_to_poisson(m2, reg.left, reg.right)))
    structures = regular_poisson_structures(trunc2)
    for psi in structures.space.rows:
        modules.append(
            (trunc2, regular_module(trunc2, structures.star_bracket_table(psi)))
        )
    assert len(modules) >= 10
    for A, M in modules:
        assert quasi_violations(M) == []
        verdict = poisson_violations(M) == []
        assert j_annihilation_check(A, M) == verdict


def test_annihilator_faithful_regular(kxk, m2):
    for A in (kxk, m2):
        assert annihilator(A, regular_module(A)).rank == 0


def test_annihilator_quotient_module(kxk):
    ideal = poisson_ideal_closure(kxk, [kxk.basis(0)])
    M = quotient_module(kxk, ideal)
    assert M.dim == 1
    assert poisson_violations(M) == []
    ann = annihilator(kxk, M)
    assert list(ann.rows) == [kxk.basis(0)]
    # closure re-check is internal; confirm independently
    closed = poisson_ideal_closure(kxk, ann.rows)
    assert closed == ann


def test_annihilator_zero_dim_module(kxk):
    empty = mat_from_rows([])
    M = QuasiPoissonModule(kxk, 0, (empty, empty), (empty, empty), (empty, empty))
    assert annihilator(kxk, M).rank == 2


def test_quotient_module_rejects_non_ideal(kxk):
    from poissonenv.linalg import join_and_reduce
    not_ideal = join_and_reduce([vec(2, {0: 1, 1: -1})], 2)
    # span{e1 - e2} is not closed under multiplication by e1
    with pytest.raises(ValueError):
        quotient_module(kxk, not_ideal)


def test_m2_quotient_modules_faithful(m2):
    # simple algebra: no proper ideals, so test the regular and twisted cases
    assert annihilator(m2, tensor_square_module(m2)).rank == 0


def test_morphism_compatibility(kxk):
    # f = left multiplication by e1 commutes with all three actions of the
    # regular module; it must then commute with every monomial action
    M = regular_module(kxk)
    action = module_to_action(M)
    f = M.left[0]
    for word in u_monomials(2, 3):
        for i in range(2):
            for j in range(2):
                m = action.matrix((i, j, word))
                assert mat_mul(f, m) == mat_mul(m, f)


def test_morphism_compatibility_between_modules(kxk):
    # the projection A -> A/span{e1} intertwines the three actions, so it
    # must intertwine every monomial action of the two representations
    M = regular_module(kxk)
    ideal = poisson_ideal_closure(kxk, [kxk.basis(0)])
    N = quotient_module(kxk, ideal)
    f = mat_from_rows([{1: 1}])  # sends e1 to 0 and e2 to the coset rep
    for fam_m, fam_n in ((M.left, N.left), (M.right, N.right), (M.lie, N.lie)):
        for i in range(2):
            assert mat_mul(f, fam_m[i]) == mat_mul(fam_n[i], f)
    act_m = module_to_action(M)
    act_n = module_to_action(N)
    for word in u_monomials(2, 3):
        for i in range(2):
            for j in range(2):
                mono = (i, j, word)
                assert mat_mul(f, act_m.matrix(mono)) == mat_mul(
                    act_n.matrix(mono), f
                )


def test_twisted_regular_structures_validate(trunc2):
    structures = regular_poisson_structures(trunc2)
    twists = list(structures.space.rows)
    twists.append(twists[0] + twists[2])
    for psi in twists:
        M = regular_module(trunc2, structures.star_bracket_table(psi))
        assert poisson_violations(M) == []


def test_poisson_simplicity_annihilator_link(kxk, m2):
    # a non-simple algebra admits a nonzero module with nonzero annihilator
    ideal = poisson_ideal_closure(kxk, [kxk.basis(0)])
    M = quotient_module(kxk, ideal)
    assert M.dim > 0 and annihilator(kxk, M).rank > 0
    # a simple one does not, among the tested modules
    for M2_ in (regular_module(m2), tensor_square_module(m2)):
        assert annihilator(m2, M2_).rank == 0


# Fraction references: the multiplicativity loop and the axiom loops as they
# ran before the checks moved to integer forms, over dense Fraction matrices
# multiplied and combined here, independently of linalg's kernel.

def _fident(dim):
    return tuple(tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim))


def _dense_families(M):
    return tuple(tuple(map(dense, fam)) for fam in (M.left, M.right, M.lie))

def _fmul(a, b):
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in cols)
        for row in a
    )


def _fcomb(pairs, dim):
    acc = [[ZERO] * dim for _ in range(dim)]
    for c, m in pairs:
        for acc_row, row in zip(acc, m):
            for j, x in enumerate(row):
                acc_row[j] += c * x
    return tuple(tuple(row) for row in acc)


def _fadd(a, b):
    return _fcomb(((ONE, a), (ONE, b)), len(a))


def _fsub(a, b):
    return _fcomb(((ONE, a), (-ONE, b)), len(a))


def _ref_multiplicativity_failures(action, degree_bound):
    from poissonenv.smash import q_mult
    from poissonenv.truncation import env_monomials

    A = action.algebra
    out = []
    monos = env_monomials(A, degree_bound)
    for m1 in monos:
        for m2 in monos:
            if len(m1[2]) + len(m2[2]) > degree_bound:
                continue
            composed = _fmul(dense(action.matrix(m1)), dense(action.matrix(m2)))
            direct = _fcomb(
                ((c, dense(action.matrix(m))) for m, c in q_mult(A, {m1: ONE}, {m2: ONE}).items()),
                action.dim,
            )
            if composed != direct:
                out.append((m1, m2))
    return out


def _ref_generator_failures(action, degree_bound):
    """The generator check with no skip: F(m·g) against F(m)·F(G) for every
    monomial m and one-term generator g with deg m + deg g <= the bound, G
    being g expanded over the unit, in the check's order.  Asks for every
    monomial's matrix first, in env_monomials order, then for those of the
    generators' terms, as the check does."""
    from poissonenv.smash import GENERATOR_TERM, embed, q_mult
    from poissonenv.truncation import env_monomials

    A = action.algebra
    monos = env_monomials(A, degree_bound)
    forms = {m: dense(action.matrix(m)) for m in monos}

    def of(x):
        return _fcomb(((c, dense(action.matrix(m))) for m, c in x.items()), action.dim)

    gens = [(make(p), of(embed(A, kind, A.basis(p))))
            for kind, make in GENERATOR_TERM.items() for p in range(A.n)]
    out = []
    for g, fg in gens:
        for m in monos:
            if len(m[2]) + len(g[2]) <= degree_bound:
                if _fmul(forms[m], fg) != of(q_mult(A, {m: ONE}, {g: ONE})):
                    out.append((m, g))
    return out


def _ref_quasi_violations(M):
    A = M.algebra
    n = A.n
    out = []
    ident = _fident(M.dim)
    L, R, Z = _dense_families(M)

    def of(fam, x):
        return _fcomb(((c, fam[i]) for i, c in x.data.items()), M.dim)

    if of(L, A.unit) != ident:
        out.append({"axiom": "unit-left", "indices": ()})
    if of(R, A.unit) != ident:
        out.append({"axiom": "unit-right", "indices": ()})
    for i in range(n):
        for j in range(n):
            prod = A.mul_basis(i, j)
            if _fmul(L[i], L[j]) != of(L, prod):
                out.append({"axiom": "left-action", "indices": (i, j)})
            if _fmul(R[j], R[i]) != of(R, prod):
                out.append({"axiom": "right-action", "indices": (i, j)})
            if _fmul(L[i], R[j]) != _fmul(R[j], L[i]):
                out.append({"axiom": "bimodule-commute", "indices": (i, j)})
            bra = A.bracket_basis(i, j)
            lhs = _fmul(Z[i], L[j])
            rhs = _fadd(of(L, bra), _fmul(L[j], Z[i]))
            if lhs != rhs:
                out.append({"axiom": "lie-left", "indices": (i, j)})
            lhs = _fmul(Z[i], R[j])
            rhs = _fadd(of(R, bra), _fmul(R[j], Z[i]))
            if lhs != rhs:
                out.append({"axiom": "lie-right", "indices": (i, j)})
            lhs = of(Z, bra)
            rhs = _fsub(_fmul(Z[i], Z[j]), _fmul(Z[j], Z[i]))
            if lhs != rhs:
                out.append({"axiom": "lie-module", "indices": (i, j)})
    return out


def _ref_poisson_violations(M):
    out = _ref_quasi_violations(M)
    A = M.algebra
    L, R, Z = _dense_families(M)
    for i in range(A.n):
        for j in range(A.n):
            lhs = _fcomb(((c, Z[k]) for k, c in A.mul_basis(i, j).data.items()), M.dim)
            rhs = _fadd(_fmul(L[i], Z[j]), _fmul(R[j], Z[i]))
            if lhs != rhs:
                out.append({"axiom": "product-compat", "indices": (i, j)})
    return out


def _product_formula_action(M):
    """The action monomial (i, j, word) would have, left(i) . right(j) .
    lie(w_1) ... lie(w_k), built from dense Fraction matrices on request."""
    L, R, Z = _dense_families(M)

    def fn(mono):
        i, j, word = mono
        acc = _fmul(L[i], R[j])
        for letter in word:
            acc = _fmul(acc, Z[letter])
        return grid_form(acc)

    return _FnAction(M, fn)


def _fractional_break(M):
    """M with 1/3 added at entry (0, 1) of left(0) and -2/5 at (1, 0) of lie(1)."""
    def bumped(m, r, c, x):
        return grid_form(
            tuple(y + x if (s, t) == (r, c) else y for t, y in enumerate(row))
            for s, row in enumerate(dense(m))
        )

    left = (bumped(M.left[0], 0, 1, Fraction(1, 3)),) + M.left[1:]
    lie = M.lie[:1] + (bumped(M.lie[1], 1, 0, Fraction(-2, 5)),) + M.lie[2:]
    return QuasiPoissonModule(M.algebra, M.dim, left, M.right, lie)


def test_verdicts_match_the_fraction_references(kxk, kxk_skew, trunc2_skew, ut2, m2_rebased, m2):
    broken = _fractional_break(regular_module(kxk_skew))
    # a nonzero bracket in a skew basis, with non-integral constants
    broken_skew = _fractional_break(regular_module(rebase(m2, skew_basis(1, m2.n))))
    twist = projection_twist_module(kxk)
    # a nonzero bracket whose Lie family has a zero member: ad(f0), f0 = 1
    central = regular_module(m2_rebased)
    assert is_zero(central.lie[0]) and not m2_rebased.has_zero_bracket
    for M, bound in (  # module, multiplicativity bound
        (tensor_square_module(kxk_skew), 3),
        (tensor_square_module(trunc2_skew), 2),
        (regular_module(ut2), 2),  # a nonzero Lie action
        (twist, 3),
        (broken, 3),
        (central, 0),
        (broken_skew, 0),
    ):
        quasi = quasi_violations(M)
        assert quasi == _ref_quasi_violations(M)
        poisson = poisson_violations(M)
        assert poisson == _ref_poisson_violations(M)
        assert bool(quasi) == (M is broken or M is broken_skew)
        assert bool(poisson) == (M is broken or M is broken_skew or M is twist)
        # the dense reference is slow on the 9-dimensional square: check the
        # module's own action there, and also the dense reference elsewhere
        actions = [EnvAction(M, _products(M))]
        if M.dim < 9:
            actions.append(_product_formula_action(M))
        for action in actions:
            got = action.multiplicativity_failures(bound)
            assert got == _ref_generator_failures(action, bound)
            assert bool(got) == bool(_ref_multiplicativity_failures(action, bound))
            assert bool(got) == (M is broken or M is broken_skew)
    identity = _FnAction(regular_module(kxk_skew), lambda mono: mat_identity(2))
    for bound in (1, 2, 3):
        got = identity.multiplicativity_failures(bound)
        assert got and got == _ref_generator_failures(identity, bound)
        assert _ref_multiplicativity_failures(identity, bound)


# Dense-grid references: the tensor square, the quotient module and the
# twisted regular Lie family as they were built before every family came from
# sparse columns through linalg.mat_from_columns, scattering each image into
# a dense grid of Fractions.

def _ref_tensor_square(A):
    n = A.n
    dim = n * n
    left, right, lie = [], [], []
    for i in range(n):
        lmat = [[ZERO] * dim for _ in range(dim)]
        rmat = [[ZERO] * dim for _ in range(dim)]
        zmat = [[ZERO] * dim for _ in range(dim)]
        for b in range(n):
            for c in range(n):
                src = b * n + c
                for k, v in A.mul_basis(i, b).data.items():
                    lmat[k * n + c][src] += v
                for k, v in A.mul_basis(c, i).data.items():
                    rmat[b * n + k][src] += v
                for k, v in A.bracket_basis(i, b).data.items():
                    zmat[k * n + c][src] += v
                for k, v in A.bracket_basis(i, c).data.items():
                    zmat[b * n + k][src] += v
        left.append(tuple(tuple(row) for row in lmat))
        right.append(tuple(tuple(row) for row in rmat))
        lie.append(tuple(tuple(row) for row in zmat))
    return tuple(left), tuple(right), tuple(lie)


def _ref_quotient(A, ideal):
    n = A.n
    reps = [c for c in range(n) if c not in set(ideal.pivots)]
    dim = len(reps)
    pos = {c: t for t, c in enumerate(reps)}
    left, right, lie = [], [], []
    for i in range(n):
        lmat = [[ZERO] * dim for _ in range(dim)]
        rmat = [[ZERO] * dim for _ in range(dim)]
        zmat = [[ZERO] * dim for _ in range(dim)]
        for t, c in enumerate(reps):
            for grid, image in (
                (lmat, A.mul_basis(i, c)),
                (rmat, A.mul_basis(c, i)),
                (zmat, A.bracket_basis(i, c)),
            ):
                for r, val in ideal.reduce(image).data.items():
                    grid[pos[r]][t] = val
        left.append(tuple(tuple(row) for row in lmat))
        right.append(tuple(tuple(row) for row in rmat))
        lie.append(tuple(tuple(row) for row in zmat))
    return tuple(left), tuple(right), tuple(lie)


def _ref_twisted_lie(A, table):
    n = A.n
    lie = []
    for i in range(n):
        cols = [table.get((i, j), SparseVector(n)) for j in range(n)]
        lie.append(tuple(tuple(col.get(r) for col in cols) for r in range(n)))
    return tuple(lie)


def _all_canonical(M):
    return all(is_form(m, M.dim, M.dim) for fam in (M.left, M.right, M.lie) for m in fam)


def test_constructions_match_the_dense_grid_references(kxk, m2, trunc2, ut2, kxk_skew, trunc2_skew):
    from poissonenv.linalg import join_and_reduce

    for A in (kxk, m2, trunc2, ut2, kxk_skew, trunc2_skew):
        M = tensor_square_module(A)
        assert _dense_families(M) == _ref_tensor_square(A)
        assert _all_canonical(M)

        ideals = [join_and_reduce([], A.n)]
        for p in range(A.n):
            ideal = poisson_ideal_closure(A, [A.basis(p)])
            if ideal not in ideals:
                ideals.append(ideal)
        for ideal in ideals:
            M = quotient_module(A, ideal)
            assert M.dim == A.n - ideal.rank
            assert _dense_families(M) == _ref_quotient(A, ideal)
            assert _all_canonical(M)

        structures = regular_poisson_structures(A)
        psis = [SparseVector(A.n * A.n)]
        psis += list(structures.space.rows) + list(structures.derivations.rows)
        for psi in psis:
            table = structures.star_bracket_table(psi)
            M = regular_module(A, table)
            assert _dense_families(M)[2] == _ref_twisted_lie(A, table)
            assert _all_canonical(M)


def test_tensor_square_lie_adds_both_legs_into_one_entry(m2):
    # b (x) c with {v_i, b} having a b-part and {v_i, c} a c-part: the column
    # of b (x) c under lie(i) has both parts on its own diagonal entry
    n = m2.n
    shared = [
        (i, b, c)
        for i in range(n) for b in range(n) for c in range(n)
        if m2.bracket_basis(i, b).get(b) and m2.bracket_basis(i, c).get(c)
    ]
    assert shared
    lie = tensor_square_module(m2).lie
    for i, b, c in shared:
        src = b * n + c
        both = m2.bracket_basis(i, b).get(b) + m2.bracket_basis(i, c).get(c)
        assert dense(lie[i])[src][src] == both


# The pairwise multiplicativity sweep, with no skip: one product of forms per
# monomial pair and one combination per nonzero memo entry, on the action's
# own forms.  The generator check lists nothing exactly when it finds nothing.

def _sweep_without_skips(action, degree_bound):
    from poissonenv.smash import q_mono_mult
    from poissonenv.truncation import env_monomials

    A = action.algebra
    zero = zero_matrix(action.dim)
    out = []
    monos = env_monomials(A, degree_bound)
    for m1 in monos:
        for m2 in monos:
            if len(m1[2]) + len(m2[2]) > degree_bound:
                continue
            nums, den = q_mono_mult(A, m1, m2)
            composed = mat_mul(action._form(m1), action._form(m2))
            product = zero
            if nums:
                pairs = ((c, action._form(m)) for m, c in nums.items())
                product = mat_lincomb(pairs, action.dim, den)
            if composed != product:
                out.append((m1, m2))
    return out


def _module_fixtures(kxk, m2, trunc2, trunc2_skew):
    from poissonenv.fileformat import bundled_path, parse_module_file

    def bundled(name):
        return parse_module_file(bundled_path(name).read_text(encoding="utf-8"), kxk)

    x1 = poisson_ideal_closure(trunc2, [trunc2.basis(1)])
    return {
        "kxk-regular": bundled("kxk-regular.mod"),
        "kxk-nonpoisson": bundled("kxk-nonpoisson.mod"),
        "kxk-square": tensor_square_module(kxk),
        "trunc2-square": tensor_square_module(trunc2),
        "trunc2-skew-square": tensor_square_module(trunc2_skew),
        "m2-square": tensor_square_module(m2),
        "m2-regular": regular_module(m2),
        "trunc2-quotient": quotient_module(trunc2, x1),
    }


def test_sweep_matches_the_sweep_without_skips(kxk, m2, trunc2, trunc2_skew):
    # a quasi-Poisson module's action multiplies: the pairwise sweep finds
    # nothing, and the generator check lists nothing
    for name, M in _module_fixtures(kxk, m2, trunc2, trunc2_skew).items():
        for bound in (2, 3):
            expected = _sweep_without_skips(EnvAction(M, _products(M)), bound)
            got = EnvAction(M, _products(M)).multiplicativity_failures(bound)
            assert got == expected == [], (name, bound)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_roundtrip_report_sweeps_once(kxk, m2, trunc2, trunc2_skew, monkeypatch, bound):
    check = EnvAction.multiplicativity_failures
    calls = []

    def counted(self, degree_bound):
        calls.append(degree_bound)
        return check(self, degree_bound)

    monkeypatch.setattr(EnvAction, "multiplicativity_failures", counted)
    for name, M in _module_fixtures(kxk, m2, trunc2, trunc2_skew).items():
        if name.startswith("m2") and bound == 3:
            continue  # the pairwise reference below; the sweep tests run m2std at degree 3
        calls.clear()
        report = roundtrip_report(M.algebra, M, bound)
        # one check, to degree 2 at least, which reading G(F(M)) checks
        assert calls == [max(2, bound)], name
        assert report["associativity_failures"] == [], name
        assert _sweep_without_skips(module_to_action(M), bound) == [], name
    # a failing action gets the same one check, which lists its failures
    for name, (A, M, monos, change) in _corrupted_cases(kxk, trunc2).items():
        if _fails(name, 2):
            calls.clear()
            with pytest.raises(ActionError, match="action not multiplicative at "):
                action_to_module(_corrupted(A, M, monos, change, []))
            assert calls == [2], name


def test_every_cli_roundtrip_job_runs_the_check_once(tmp_path, monkeypatch, capsys):
    # the check stays on the command path: each roundtrip job of
    # scripts/compare_reports.py enters it once, at max(2, d), save the one
    # above the degree cap, which exits 2 before any work
    from pathlib import Path

    from poissonenv import cli

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    monkeypatch.syspath_prepend(str(root / "scripts"))
    monkeypatch.chdir(root)
    monkeypatch.delenv("POISSON_ENV_MAX_DEGREE", raising=False)
    from compare_reports import TMP, jobs, write_inputs

    write_inputs(str(tmp_path))
    check = EnvAction.multiplicativity_failures
    calls = []

    def counted(self, degree_bound):
        calls.append(degree_bound)
        return check(self, degree_bound)

    monkeypatch.setattr(EnvAction, "multiplicativity_failures", counted)
    runs = [argv for argv in jobs() if argv[0] == "roundtrip"]
    assert len(runs) >= 15
    for argv in runs:
        calls.clear()
        code = cli.main([arg.replace(TMP, str(tmp_path)) for arg in argv])
        d = int(argv[argv.index("--degree") + 1]) if "--degree" in argv else 2
        assert (code, calls) == ((2, []) if d > 8 else (0, [max(2, d)])), argv
    capsys.readouterr()


def test_a_sweep_to_degree_3_lists_the_degree_2_failures_in_order(kxk, trunc2):
    # roundtrip_report reads its degree-2 failures off the wider sweep
    for name, (A, M, monos, change) in _corrupted_cases(kxk, trunc2).items():
        wide = _corrupted(A, M, monos, change, []).multiplicativity_failures(3)
        narrow = _corrupted(A, M, monos, change, []).multiplicativity_failures(2)
        assert [p for p in wide if len(p[0][2]) + len(p[1][2]) <= 2] == narrow, name
        assert (bool(narrow), bool(wide)) == (_fails(name, 2), _fails(name, 3)), name


def _corrupted(A, M, monos, change, asked):
    """The action of M, except that each monomial in monos acts by
    change(its matrix); each monomial whose matrix is asked for is appended
    to asked."""
    good = module_to_action(M)

    def fn(m):
        asked.append(m)
        out = good.matrix(m)
        return change(out) if m in monos else out

    return _FnAction(QuasiPoissonModule(A, M.dim, M.left, M.right, M.lie), fn)


def _corrupted_cases(kxk, trunc2) -> dict:
    """name -> (algebra, module, monomials, change) for _corrupted."""
    from poissonenv.truncation import env_monomials

    M = tensor_square_module(trunc2)
    good = module_to_action(M)
    dead = (0, 0, (1,))  # a nonempty word: zero bracket, so it acts as zero
    live = (1, 0, ())  # left(x1) . right(1)
    assert is_zero(good.matrix(dead)) and not is_zero(good.matrix(live))
    identity = mat_identity(M.dim)
    return {
        "zero made nonzero": (trunc2, M, {dead}, lambda m: identity),
        "live made zero": (trunc2, M, {live}, lambda m: zero_matrix(M.dim)),
        "live scaled": (
            trunc2, M, {live},
            lambda m: grid_form(tuple(x * Fraction(3, 2) for x in row) for row in dense(m)),
        ),
        # the first monomial swept, whose products with e2's monomials are
        # zero, so the later forms are not read through its product terms;
        # the idempotent e1 (x) e1 acting as zero keeps the action multiplicative
        "first made zero": (kxk, tensor_square_module(kxk), {(0, 0, ())}, lambda m: zero_matrix(4)),
        # the word (1, 1) is no longer dead, so (1,) times (1,) must be formed;
        # at bound 3 the words of degree 3 stay dead
        "dead degree-2 word made live": (trunc2, M, {(0, 0, (1, 1))}, lambda m: identity),
        # a monomial of degree 3: no pair of degree <= 2 meets it, and (1, 1)
        # times (1,), both acting as zero, has it as its one term
        "dead degree-3 word made live": (trunc2, M, {(0, 0, (1, 1, 1))}, lambda m: identity),
        # lie(x1) = 1 makes a quasi-Poisson module, whose words of degree 2
        # are made zero: only the products (p, q, (1,)) j(x1), both factors
        # nonzero and every tail word dead, fail, so only a check that
        # multiplies by j(e_a) and forms such products sees it
        "lie(x1) = 1, degree-2 words made zero": (
            trunc2, QuasiPoissonModule(trunc2, M.dim, M.left, M.right,
                                       (zero_matrix(M.dim), identity, zero_matrix(M.dim))),
            {m for m in env_monomials(trunc2, 3) if len(m[2]) >= 2}, lambda m: zero_matrix(M.dim),
        ),
    }


def _fails(name, bound) -> bool:
    """Whether the corrupted action named in _corrupted_cases fails a
    multiplicativity check to the bound (2 or 3)."""
    return {"first made zero": False, "dead degree-3 word made live": bound == 3}.get(name, True)


def test_sweep_matches_the_sweep_without_skips_on_corrupted_actions(kxk, trunc2):
    for name, (A, M, monos, change) in _corrupted_cases(kxk, trunc2).items():
        for bound in (2, 3):
            asked, asked_without_skips = [], []
            got = _corrupted(A, M, monos, change, asked).multiplicativity_failures(bound)
            expected = _ref_generator_failures(
                _corrupted(A, M, monos, change, asked_without_skips), bound
            )
            assert got == expected, (name, bound)
            assert bool(got) == _fails(name, bound), (name, bound)
            # matrices are asked for in the same order, so a function that
            # raises does so at the same monomial
            assert asked == asked_without_skips, (name, bound)


def test_generator_check_agrees_with_the_full_sweep(kxk, trunc2):
    # the list is empty exactly when the pairwise sweep finds nothing, and
    # each listed (m, g) has a failing pair (m, t), t a term of g expanded
    # over the unit: F(m·G) is the combination of the F(m·t)
    from poissonenv.smash import expand_unit

    actions = {name: lambda case=case: _corrupted(*case, [])
               for name, case in _corrupted_cases(kxk, trunc2).items()}
    actions["identity"] = lambda: _FnAction(regular_module(kxk), lambda mono: mat_identity(2))
    for name, action in actions.items():
        A = action().algebra
        for bound in (2, 3):
            got = action().multiplicativity_failures(bound)
            full = _sweep_without_skips(action(), bound)
            assert bool(got) == bool(full), (name, bound)
            assert bool(full) == (name == "identity" or _fails(name, bound)), (name, bound)
            for m, g in got:
                assert any((m, t) in full for t in expand_unit(A, {g: ONE})), (name, bound, m, g)


def test_generator_check_skips_only_products_that_act_as_zero(trunc2):
    # trunc2-n2's square: only the 9 degree-0 monomials act as nonzero, and
    # every j(e_a) acts as zero, so the check forms the products of those 9
    # with the 6 generators i(e_p), k(e_q), and no other
    A = _fresh(trunc2)
    M = tensor_square_module(A)
    assert EnvAction(M, _products(M)).multiplicativity_failures(2) == []
    formed = set(A.caches["q_mono"])
    assert len(formed) == 54
    assert {(m[2], g) for m, g in formed} == {((), (p, None, ())) for p in range(3)} | {
        ((), (None, q, ())) for q in range(3)}


def _fresh(A):
    """A copy of A whose memo caches are empty."""
    return NCPA(A.presentation)


def _unformed_products(action, bound) -> list:
    """Run the check of action, whose algebra's q_mono memo starts empty, and
    return the (monomial, generator) pairs it did not multiply, after
    checking that each of their products (formed now) has no term that acts
    as nonzero."""
    from poissonenv.smash import GENERATOR_TERM, q_mono_mult
    from poissonenv.truncation import env_monomials

    A = action.algebra
    assert not A.caches["q_mono"]
    action.multiplicativity_failures(bound)
    monos = env_monomials(A, bound)
    unformed = [
        (m, g) for make in GENERATOR_TERM.values() for g in map(make, range(A.n))
        for m in monos if len(m[2]) + len(g[2]) <= bound and (m, g) not in A.caches["q_mono"]
    ]
    for m, g in unformed:
        nums, _ = q_mono_mult(A, m, g)
        assert all(is_zero(action.matrix(t)) for t in nums), (m, g)
    return unformed


def test_sweep_skips_only_products_that_act_as_zero(kxk, m2, trunc2, trunc2_skew):
    unformed = {}
    for name, M in _module_fixtures(kxk, m2, trunc2, trunc2_skew).items():
        for bound in (2, 3):
            fresh = QuasiPoissonModule(_fresh(M.algebra), M.dim, M.left, M.right, M.lie)
            unformed[name, bound] = _unformed_products(EnvAction(fresh, _products(fresh)), bound)
    for name, (A, M, monos, change) in _corrupted_cases(kxk, trunc2).items():
        for bound in (2, 3):
            action = _corrupted(_fresh(A), M, monos, change, [])
            unformed[name, bound] = _unformed_products(action, bound)
    # the zero bracket makes every nonempty word dead and every j(e_a) act as
    # zero: of the 6 * 90 + 3 * 36 pairs to degree 2, only the 9 degree-0
    # monomials times the 6 generators i(e_p), k(e_q) are formed
    assert len(unformed["trunc2-square", 2]) == 648 - 54
    # m2std's square has no dead word at bound 2 or 3.  Its regular module
    # has four at bound 3, such as (E12, E12, E12), as ad(E12)^3 = 0 on M_2.
    # Each is the one tail word of a degree-2 row times a j(e_a), such as
    # (p, q, (E12, E12)) * j(E12), and 12 of the row's 16 monomials act as
    # zero: 4 * 12 products are left unformed
    assert [len(unformed["m2-" + name, bound]) for name in ("square", "regular")
            for bound in (2, 3)] == [0, 0, 0, 48]
    revived = unformed["dead degree-2 word made live", 3]
    x1, j1 = (0, 0, (1,)), (None, None, (1,))
    assert revived and (x1, j1) not in revived and (x1, j1) in unformed["trunc2-square", 3]


def test_trunc2_square_sweep_forms_only_the_live_products(trunc2, monkeypatch):
    from poissonenv import poisson_modules
    from poissonenv.truncation import env_monomials

    M = tensor_square_module(_fresh(trunc2))
    action = EnvAction(M, _products(M))
    monos = env_monomials(trunc2, 2)
    live = [m for m in monos if not is_zero(action.matrix(m))]  # builds every form
    assert (len(monos), len(live)) == (90, 9)
    assert all(not m[2] for m in live)  # the zero bracket kills every nonempty word
    by_kind = action._generator_forms()  # built here, so the counts below omit them
    ident = mat_identity(action.dim)
    gens = [fg for forms in by_kind.values() for fg in forms]
    calls = {"mul": 0, "lincomb": 0, "q_mono_mult": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name, attr in (("mul", "mat_mul"), ("lincomb", "mat_lincomb"),
                       ("q_mono_mult", "q_mono_mult")):
        monkeypatch.setattr(poisson_modules, attr, counting(name, getattr(poisson_modules, attr)))
    assert action.multiplicativity_failures(2) == []
    # one product per live monomial and generator, neither acting as zero
    # or as the identity; one smash product per degree-0 monomial and
    # generator i(e_p) or k(e_q): only there is the tail word () met; and one
    # combination per smash product, in which mat_lincomb drops the terms
    # that act as zero
    factors = [action.matrix(m) for m in live]
    products = sum(f != ident and not is_zero(fg) and fg != ident
                   for f in factors for fg in gens)
    expected = {"mul": 32, "lincomb": 54, "q_mono_mult": 54}
    assert calls == {"mul": products, "lincomb": 9 * 6, "q_mono_mult": 9 * 6} == expected


def test_roundtrip_converts_no_matrix_and_builds_one_action(trunc2, monkeypatch):
    from poissonenv import linalg

    M = tensor_square_module(trunc2)
    calls = {"mat_from_rows": 0, "_new_form": 0}
    from_rows, new_form = linalg.mat_from_rows, EnvAction._new_form

    def counted_from_rows(*args):
        calls["mat_from_rows"] += 1
        return from_rows(*args)

    def counted_new_form(self, mono):
        calls["_new_form"] += 1
        return new_form(self, mono)

    # every matrix built from rational entries goes through mat_from_rows,
    # mat_from_columns included
    monkeypatch.setattr(linalg, "mat_from_rows", counted_from_rows)
    monkeypatch.setattr(EnvAction, "_new_form", counted_new_form)
    report = roundtrip_report(trunc2, M, 2)
    assert report["ok"] and report["monomials_checked"] == 90
    # the families are multiplied as they are, and G(F(M)) = M, so F(G(F(M)))
    # is F(M): one matrix per monomial of F(M)
    assert calls == {"mat_from_rows": 0, "_new_form": 90}


def test_roundtrip_builds_a_second_action_when_the_module_differs(m2, monkeypatch):
    from poissonenv import poisson_modules
    from poissonenv.truncation import env_monomials

    M = regular_module(m2)
    # M in the basis scaled by 1, 2, 3, 4: an isomorphic, so quasi-Poisson,
    # module with other matrices
    scale = [Fraction(k + 1) for k in range(M.dim)]

    def conjugate(m):
        return grid_form(tuple(x * scale[c] / scale[r] for c, x in enumerate(row))
                         for r, row in enumerate(dense(m)))

    back = QuasiPoissonModule(m2, M.dim, *(tuple(map(conjugate, fam))
                                           for fam in (M.left, M.right, M.lie)))
    assert quasi_violations(back) == []
    monkeypatch.setattr(poisson_modules, "_read_module", lambda action, bad: back)
    report = roundtrip_report(m2, M, 2)
    first, second = EnvAction(M, _products(M)), EnvAction(back, _products(back))
    differ = [m for m in env_monomials(m2, 2) if first.matrix(m) != second.matrix(m)]
    assert differ and len(differ) < report["monomials_checked"]
    assert report["module_roundtrip_equal"] is False
    assert report["ok"] is False
    assert report["action_roundtrip_mismatches"] == differ


def test_roundtrip_validates_a_differing_module_as_action_to_module_does(m2, monkeypatch):
    from poissonenv import poisson_modules

    M = regular_module(m2)
    back = QuasiPoissonModule(  # the Lie action doubled: not quasi-Poisson
        m2, M.dim, M.left, M.right,
        tuple(mat_lincomb(((2, m),), M.dim) for m in M.lie),
    )
    with pytest.raises(ActionError) as expected:
        module_to_action(back)
    monkeypatch.setattr(poisson_modules, "_read_module", lambda action, bad: back)
    with pytest.raises(ActionError) as got:
        roundtrip_report(m2, M, 2)
    assert str(got.value) == str(expected.value)
    with pytest.raises(ActionError) as got:
        action_to_module(module_to_action(M))
    assert str(got.value) == str(expected.value)


def test_equal_actions_sees_one_changed_entry(m2):
    M = regular_module(m2)
    lie = list(M.lie)
    rows = [list(row) for row in dense(lie[1])]
    rows[0][1] += 1
    lie[1] = grid_form(rows)
    other = QuasiPoissonModule(m2, M.dim, M.left, M.right, tuple(lie))
    assert M.equal_actions(regular_module(m2))
    assert not M.equal_actions(other) and not other.equal_actions(M)


def test_module_rejects_what_is_not_a_canonical_form(kxk):
    reg = regular_module(kxk)
    for bad in (
        ((ONE, ZERO), (ZERO, ZERO)),  # a dense Fraction grid
        (({0: 2}, {}), 2),  # not in lowest terms
        (({0: 1}, {}, {}), 1),  # three rows
        (({2: 1}, {}), 1),  # column 2 of a 2x2 matrix
        (({0: ONE}, {}), 1),  # a Fraction entry
    ):
        with pytest.raises(ModuleShapeError, match="canonical form of a 2x2 matrix"):
            QuasiPoissonModule(kxk, 2, reg.left, reg.right, (bad, reg.lie[1]))
    with pytest.raises(ModuleShapeError, match="one matrix per basis element"):
        QuasiPoissonModule(kxk, 2, reg.left, reg.right, reg.lie[:1])


def test_modules_are_frozen(kxk):
    from dataclasses import FrozenInstanceError

    M = regular_module(kxk)
    lie = M.lie
    with pytest.raises(FrozenInstanceError):
        M.lie = M.left
    assert M.lie is lie


@pytest.mark.parametrize("check", ["quasi", "poisson"])
def test_module_checks_form_each_product_once_and_none_with_a_zero_factor(
        trunc2, m2, monkeypatch, check):
    # the checks' only matrix products are their families' products: each is
    # formed once, through the mat_mul binding, and a zero or identity factor
    # forms none.  trunc2's square has a zero Lie family, and its unit is
    # basis vector 0, so L_0 and R_0 are the identity: only the L and R
    # products of members 1 and 2 are formed, 2^2 per ordered pair of
    # families; m2std's regular module has no zero member, and its unit is
    # no basis vector, so all nine pairs of families are formed.  The
    # Poisson check reads the quasi-Poisson sweep's products and forms none
    # of its own.
    from poissonenv import poisson_modules

    original = poisson_modules.mat_mul
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(poisson_modules, "mat_mul", counted)
    sweep = poisson_violations if check == "poisson" else quasi_violations
    for M, count in ((tensor_square_module(trunc2), 4 * 4), (regular_module(m2), 9 * 16)):
        calls.clear()
        assert sweep(M) == (_ref_poisson_violations if check == "poisson" else
                            _ref_quasi_violations)(M)
        assert len(calls) == count
        ident = mat_identity(M.dim)
        assert all(not is_zero(a) and not is_zero(b) for a, b in calls)
        assert all(a != ident and b != ident for a, b in calls)
        assert len({(id(a), id(b)) for a, b in calls}) == count
