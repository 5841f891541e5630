from fractions import Fraction

import pytest

from poissonenv.fileformat import load_bundled_algebra
from poissonenv.linalg import SparseVector, accumulate, mat_from_rows, solve_nullspace
from poissonenv.ncpa import (
    AlgebraPresentation,
    NcpaValidationError,
    PresentationError,
    _centralizer_basis,
    _derivation_rows,
    _operator_matrices,
    axiom_violations,
    center,
    is_poisson_simple,
    is_standard,
    poisson_center,
    poisson_ideal_closure,
    regular_poisson_structures,
    standard_ncpa,
    unit_first,
    validate_ncpa,
)

from conftest import vec

FIXTURES = ["kxk", "m2", "trunc2", "m2_rebased", "ut2", "trunc2_skew", "trunc2_skew7"]
# every algebra of conftest
ALGEBRAS = FIXTURES + ["field_k", "ut2_zero", "kxk_skew"]


def matrix_units(k: int, upper: bool) -> AlgebraPresentation:
    """M_k, or T_k (the upper-triangular k x k matrices) when upper, on the
    matrix units E_rc in row-major order."""
    pairs = [(r, c) for r in range(k) for c in range(k) if r <= c or not upper]
    index = {rc: t for t, rc in enumerate(pairs)}
    n = len(pairs)
    mul = {(index[r, c], index[c, d]): vec(n, {index[r, d]: 1})
           for r, c in pairs for d in range(k) if (c, d) in index}
    return AlgebraPresentation(f"{'T' if upper else 'M'}_{k}", n,
                               [f"E{r + 1}{c + 1}" for r, c in pairs],
                               vec(n, {index[r, r]: 1 for r in range(k)}), mul, {})


@pytest.fixture(scope="module")
def m3():
    return standard_ncpa(matrix_units(3, upper=False))


@pytest.fixture(scope="module")
def t3():
    return standard_ncpa(matrix_units(3, upper=True))


@pytest.fixture(scope="module")
def xy_bracket():
    """k[x, y]/(x^2, y^2) on (1, x, y, xy) with {x, y} = xy: commutative,
    so its center is all of it, but only 1 and xy are Poisson-central."""
    one, x, y, xy = (vec(4, {a: 1}) for a in range(4))
    mul = {(0, b): v for b, v in enumerate((one, x, y, xy))}
    mul |= {(b, 0): v for b, v in enumerate((one, x, y, xy))}
    mul |= {(1, 2): xy, (2, 1): xy}
    bracket = {(1, 2): xy, (2, 1): xy.scale(-1)}
    return validate_ncpa(AlgebraPresentation("xy-bracket", 4, ["1", "x", "y", "xy"],
                                             one, mul, bracket))


def test_bundled_algebras_validate(kxk, m2, trunc2):
    for A in (kxk, m2, trunc2):
        assert not axiom_violations(A.presentation)


def test_antisymmetry_violation_witness():
    pres = load_bundled_algebra("bad-antisym.alg")
    violations = axiom_violations(pres)
    assert any(
        v.axiom == "antisymmetry" and v.indices == (0, 0) for v in violations
    )
    with pytest.raises(NcpaValidationError):
        validate_ncpa(pres)


def test_jacobi_violation_witness():
    pres = load_bundled_algebra("bad-jacobi.alg")
    violations = axiom_violations(pres)
    assert violations
    axioms = {v.axiom for v in violations}
    assert axioms == {"jacobi"}
    assert any(set(v.indices) == {1, 2, 3} for v in violations)


def test_leibniz_violation_witness():
    pres = load_bundled_algebra("bad-leibniz.alg")
    violations = axiom_violations(pres)
    assert violations
    assert {v.axiom for v in violations} == {"leibniz"}
    assert any(v.indices == (0, 0, 1) for v in violations)


def test_malformed_presentation_reported_separately():
    pres = AlgebraPresentation(
        "bad", 2, ["a"], vec(2, {0: 1}), {}, {}
    )
    with pytest.raises(PresentationError):
        axiom_violations(pres)


def test_unit_axiom_violation():
    # product sends everything to zero: the declared unit fails
    pres = AlgebraPresentation("nounit", 1, ["e"], vec(1, {0: 1}), {}, {})
    violations = axiom_violations(pres)
    assert any(v.axiom == "unit" for v in violations)


def test_standard_of_commutative_is_zero_bracket(kxk):
    std = standard_ncpa(kxk.presentation)
    assert std.has_zero_bracket


def test_standard_m2_brackets(m2):
    # {E12, E21} = E11 - E22 and {E11, E12} = E12
    assert m2.bracket_basis(1, 2) == vec(4, {0: 1, 3: -1})
    assert m2.bracket_basis(0, 1) == vec(4, {1: 1})
    assert is_standard(m2)


def test_standard_requires_associativity():
    # u unit, v*v = w, v*w = u, w*v = v, w*w = w: (vv)v = v but v(vv) = u
    mul3 = {(0, i): vec(3, {i: 1}) for i in range(3)}
    mul3.update({(i, 0): vec(3, {i: 1}) for i in range(1, 3)})
    mul3[(1, 1)] = vec(3, {2: 1})
    mul3[(1, 2)] = vec(3, {0: 1})
    mul3[(2, 1)] = vec(3, {1: 1})
    mul3[(2, 2)] = vec(3, {2: 1})
    pres3 = AlgebraPresentation(
        "na3", 3, ["u", "v", "w"], vec(3, {0: 1}), mul3, {}
    )
    with pytest.raises(NcpaValidationError) as err:
        standard_ncpa(pres3)
    assert any(v.axiom == "associativity" for v in err.value.violations)


def test_mul_and_bracket_bilinear(kxk, m2):
    x = vec(2, {0: 1, 1: 1})
    assert kxk.mul(x, kxk.basis(0)) == kxk.basis(0)
    assert kxk.mul(kxk.unit, x) == x
    y = vec(4, {0: 1, 1: 2, 3: 1})
    assert m2.bracket(y, y).is_zero()


def test_mul_dimension_mismatch(kxk):
    with pytest.raises(ValueError):
        kxk.mul(kxk.basis(0), SparseVector.unit(3, 0))


def test_center_commutative_is_full(kxk):
    assert center(kxk).rank == 2


def test_center_m2_is_scalars(m2):
    c = center(m2)
    assert c.rank == 1
    assert c.contains(m2.unit)
    assert list(c.rows) == [vec(4, {0: 1, 3: 1})]


def test_center_one_dimensional(field_k):
    assert center(field_k).rank == 1


def test_center_contains_unit(kxk, m2, trunc2, ut2):
    for A in (kxk, m2, trunc2, ut2):
        assert center(A).contains(A.unit)


@pytest.mark.parametrize("name", ALGEBRAS + ["m3", "t3", "xy_bracket"])
def test_poisson_center_is_central_and_lie_central(name, request):
    A = request.getfixturevalue(name)
    z = poisson_center(A)
    assert z.contains(A.unit)
    for row in z.rows:
        for i in range(A.n):
            assert A.mul(row, A.basis(i)) == A.mul(A.basis(i), row)
            assert A.bracket(row, A.basis(i)).is_zero()
    if A.has_zero_bracket:
        assert z == center(A)


def test_poisson_center_ranks(kxk, m2, trunc2, m3, t3, xy_bracket):
    ranks = {A.name: poisson_center(A).rank for A in (kxk, m2, trunc2, m3, t3, xy_bracket)}
    assert ranks == {"kxk": 2, "m2std": 1, "trunc2-n2": 3, "M_3": 1, "T_3": 1, "xy-bracket": 2}
    assert center(xy_bracket).rank == 4


def _centralizer_reference(A):
    """The matrices f commuting with every multiplication and bracket
    operator M, solved for over their n^2 entries (f[r][c] at r*n + c)."""
    n = A.n
    rows = []
    for M, _ in _operator_matrices(A):
        for r in range(n):
            for c in range(n):
                data = {}
                for k in range(n):
                    accumulate(data, r * n + k, M[k].get(c, 0))
                    accumulate(data, k * n + c, -M[r].get(k, 0))
                rows.append(data)
    out = []
    for v in solve_nullspace(rows, n * n).rows:
        grid = [{} for _ in range(n)]
        for idx, x in v.data.items():
            grid[idx // n][idx % n] = x
        out.append(mat_from_rows(grid))
    return out


@pytest.mark.parametrize("name", ALGEBRAS + ["m3", "t3", "xy_bracket"])
def test_centralizer_basis_matches_the_full_solve(name, request):
    A = request.getfixturevalue(name)
    assert _centralizer_basis(A) == _centralizer_reference(A)


def test_unit_is_lie_central(kxk, m2, trunc2, ut2):
    # forced by the Leibniz rule in any validated algebra
    for A in (kxk, m2, trunc2, ut2):
        for i in range(A.n):
            assert A.bracket(A.unit, A.basis(i)).is_zero()
            assert A.bracket(A.basis(i), A.unit).is_zero()


def test_ideal_closure_idempotent_seed(kxk):
    s = poisson_ideal_closure(kxk, [kxk.basis(0)])
    assert s.rank == 1
    assert s.contains(kxk.basis(0))


def test_ideal_closure_zero_seed(kxk):
    assert poisson_ideal_closure(kxk, [kxk.zero()]).rank == 0


def test_ideal_closure_simple_algebra_full(m2):
    assert poisson_ideal_closure(m2, [m2.basis(1)]).rank == 4


def test_ideal_closure_is_closed(m2, trunc2):
    for A, seed in ((m2, [m2.basis(1)]), (trunc2, [trunc2.basis(1)])):
        s = poisson_ideal_closure(A, seed)
        for row in s.rows:
            for i in range(A.n):
                assert s.contains(A.mul(A.basis(i), row))
                assert s.contains(A.mul(row, A.basis(i)))
                assert s.contains(A.bracket(A.basis(i), row))


def test_simplicity_kxk_false_with_witness(kxk):
    report = is_poisson_simple(kxk)
    assert not report.simple
    assert report.witness is not None
    assert 0 < report.witness.rank < 2
    # the witness really is a proper Poisson ideal
    closed = poisson_ideal_closure(kxk, report.witness.rows)
    assert closed == report.witness


def test_simplicity_m2_true(m2):
    report = is_poisson_simple(m2)
    assert report.simple
    assert report.witness is None


def test_simplicity_one_dimensional(field_k):
    assert is_poisson_simple(field_k).simple


def test_simplicity_trunc2_false(trunc2):
    report = is_poisson_simple(trunc2)
    assert not report.simple
    assert report.witness.rank in (1, 2)


def test_simplicity_skew_basis(kxk_skew):
    # every probe closure is full here, so the basis probes alone cannot
    # find the hidden ideal span{e1}
    probes = [
        kxk_skew.basis(0),
        kxk_skew.basis(1),
        kxk_skew.basis(0) + kxk_skew.basis(1),
    ]
    for v in probes:
        assert poisson_ideal_closure(kxk_skew, [v]).rank == 2
    report = is_poisson_simple(kxk_skew)
    assert not report.simple
    assert report.witness.rank == 1
    # witness must be span{e1} or span{e2}: e1 = (-b1 + 4 b2)/7, e2 = (2 b1 - b2)/7
    w = report.witness.rows[0]
    e1_dir = vec(2, {0: 1, 1: -4})  # -7 e1
    e2_dir = vec(2, {0: 1, 1: Fraction(-1, 2)})  # normalized 2e1... e2 direction
    assert w in (e1_dir, e2_dir)


def test_simplicity_rotated_radical():
    # the radical-square-zero algebra in the shifted basis c_i = 1 + x_i:
    # every probe vector is invertible so all probe closures are full, but
    # the operator-algebra radical stage recovers span{x1, x2}
    mul = {
        (0, 0): vec(3, {0: 1, 1: -1, 2: 1}),
        (0, 1): vec(3, {2: 1}),
        (1, 0): vec(3, {2: 1}),
        (0, 2): vec(3, {1: -1, 2: 2}),
        (2, 0): vec(3, {1: -1, 2: 2}),
        (1, 1): vec(3, {0: -1, 1: 1, 2: 1}),
        (1, 2): vec(3, {0: -1, 2: 2}),
        (2, 1): vec(3, {0: -1, 2: 2}),
        (2, 2): vec(3, {0: -1, 1: -1, 2: 3}),
    }
    pres = AlgebraPresentation(
        "trunc2-rot", 3, ["c1", "c2", "c3"], vec(3, {0: 1, 1: 1, 2: -1}), mul, {}
    )
    A = validate_ncpa(pres)
    probes = [A.basis(i) for i in range(3)] + [
        A.basis(i) + A.basis(j) for i in range(3) for j in range(i + 1, 3)
    ]
    for v in probes:
        assert poisson_ideal_closure(A, [v]).rank == 3
    report = is_poisson_simple(A)
    assert not report.simple
    # witness is the radical span{x1, x2} = span{c3 - c2, c3 - c1}
    assert report.witness.rank == 2
    assert report.witness.contains(vec(3, {1: 1, 2: -1}))
    assert report.witness.contains(vec(3, {0: 1, 2: -1}))


def test_derivations_kxk_zero(kxk):
    assert regular_poisson_structures(kxk).derivations.rank == 0


def test_derivations_m2_inner(m2):
    ders = regular_poisson_structures(m2).derivations
    assert ders.rank == 3
    # each basis solution really is a derivation on basis pairs
    for flat in ders.rows:
        def psi(x):  # the matrix with entry (r, c) at coordinate r*4 + c
            out = {}
            for idx, v in flat.data.items():
                r, c = divmod(idx, 4)
                out[r] = out.get(r, 0) + v * x.get(c)
            return SparseVector(4, out)
        for i in range(4):
            for j in range(4):
                prod = m2.mul_basis(i, j)
                lhs = psi(prod)
                rhs = m2.mul(psi(m2.basis(i)), m2.basis(j)) + m2.mul(
                    m2.basis(i), psi(m2.basis(j))
                )
                assert lhs == rhs


def test_derivations_trunc2(trunc2):
    # psi(1) = 0 and psi(x_i) arbitrary in the radical: 4 parameters
    assert regular_poisson_structures(trunc2).derivations.rank == 4


def test_regular_structures_zero_for_m2_and_kxk(kxk, m2):
    for A in (kxk, m2):
        structures = regular_poisson_structures(A)
        assert structures.space.rank == 0
        # the zero twist reproduces the original bracket
        table = structures.star_bracket_table(SparseVector(A.n * A.n))
        for (i, j), valr in table.items():
            assert valr == A.bracket_basis(i, j)


def test_regular_structures_trunc2_nontrivial(trunc2):
    structures = regular_poisson_structures(trunc2)
    assert structures.derivations.rank == 4
    assert structures.space.rank == 4


def _regular_structures_reference(A):
    """derivations and space of regular_poisson_structures, with psi(v_j)
    kept in the center by the rows that annihilate the center's basis."""
    n = A.n
    rows = _derivation_rows(A)
    derivations = solve_nullspace(rows, n * n)
    for w in solve_nullspace([r.data for r in center(A).rows], n).rows:
        for j in range(n):
            rows.append({k * n + j: c for k, c in w.data.items()})
    for b in range(n):
        for c in range(n):
            kappa = A.mul_basis(b, c) - A.mul_basis(c, b)
            for a in range(n):
                for t in range(n):
                    rows.append({p * n + a: x for p in range(n)
                                 if (x := A.mul(A.basis(p), kappa).get(t))})
    return derivations, solve_nullspace(rows, n * n)


def _derivation_rows_reference(A):
    """_derivation_rows as it was written first: one accumulate per (p, t)
    of every basis pair and table, zero coefficients included."""
    n = A.n
    rows = []
    for table_basis in (A.mul_basis, A.bracket_basis):
        for i in range(n):
            for j in range(n):
                prod = table_basis(i, j)
                for t in range(n):
                    data = {}
                    for k, c in prod.data.items():
                        accumulate(data, t * n + k, c)
                    for p in range(n):
                        accumulate(data, p * n + i, -table_basis(p, j).get(t))
                        accumulate(data, p * n + j, -table_basis(i, p).get(t))
                    rows.append(data)
    return rows


@pytest.mark.parametrize("name", ALGEBRAS + ["xy_bracket", "m3"])
def test_derivation_rows_match_the_dense_enumeration(name, request):
    A = request.getfixturevalue(name)
    # the same rows in the same order, each with its keys in the same order
    assert [list(row.items()) for row in _derivation_rows(A)] == [
        list(row.items()) for row in _derivation_rows_reference(A)]


@pytest.mark.parametrize("name", ALGEBRAS + ["xy_bracket"])
def test_regular_structures_match_the_center_annihilator_route(name, request):
    A = request.getfixturevalue(name)
    structures = regular_poisson_structures(A)
    assert (structures.derivations, structures.space) == _regular_structures_reference(A)


@pytest.mark.parametrize("name", FIXTURES)
def test_unit_first_is_an_isomorphic_copy_with_the_unit_in_its_basis(name, request):
    A = request.getfixturevalue(name)
    B = unit_first(A)
    validate_ncpa(B.presentation)
    assert (B.name, B.labels) == (A.name, A.labels)
    r = min(A.unit.data)
    assert B.unit == B.basis(r)
    # f_r = u and f_a = e_a otherwise: the map f_a -> column a preserves both
    # operations on every basis pair
    cols = [A.unit if a == r else A.basis(a) for a in range(A.n)]

    def image(v):
        return sum((cols[a].scale(c) for a, c in v.items()), A.zero())

    for a in range(A.n):
        for b in range(A.n):
            assert image(B.mul_basis(a, b)) == A.mul(cols[a], cols[b])
            assert image(B.bracket_basis(a, b)) == A.bracket(cols[a], cols[b])


@pytest.mark.parametrize("name", ["trunc2", "m2_rebased", "field_k"])
def test_unit_first_returns_the_algebra_when_the_unit_is_a_basis_vector(name, request):
    A = request.getfixturevalue(name)
    assert unit_first(A) is A


def test_unit_first_replaces_a_basis_vector_by_a_multiple_of_it():
    # e e = e/2, so the unit is 2e, which is not a basis vector
    pres = AlgebraPresentation("k", 1, ["e"], vec(1, {0: 2}),
                               {(0, 0): vec(1, {0: Fraction(1, 2)})}, {})
    A = validate_ncpa(pres)
    B = unit_first(A)
    assert B is not A
    assert B.unit == B.basis(0) and B.mul_basis(0, 0) == B.basis(0)
