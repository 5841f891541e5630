from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from poissonenv.linalg import (
    ONE,
    ZERO,
    Echelon,
    SparseVector,
    Subspace,
    TrackedEchelon,
    is_form,
    join_and_reduce,
    mat_from_columns,
    mat_from_rows,
    mat_identity,
    mat_lincomb,
    mat_mul,
    mat_numerators,
    minimal_polynomial,
    rat,
    reduced_rows,
    saturate_closure,
    solve_nullspace,
)


def sv(*values):
    return SparseVector(len(values), dict(enumerate(values)))


def express(vectors, target):
    """TrackedEchelon.express over the vectors, inserted in order."""
    tracked = TrackedEchelon(target.n)
    for v in vectors:
        tracked.insert(v.data)
    return tracked.express(target)


def test_in_span_zero_vector_always():
    assert Subspace(2).contains(sv(0, 0))


def test_in_span_misses():
    s = join_and_reduce([sv(1, 0)], 2)
    assert not s.contains(sv(0, 1))


def test_in_span_solves_two_by_two():
    # (3,5) = 4*(1,1) - 1*(1,-1)
    s = join_and_reduce([sv(1, 1), sv(1, -1)], 2)
    assert s.contains(sv(3, 5))
    coeffs = express([sv(1, 1), sv(1, -1)], sv(3, 5))
    assert coeffs == {0: Fraction(4), 1: Fraction(-1)}


def test_join_empty():
    s = join_and_reduce([], 3)
    assert s.rank == 0
    assert s.ambient_dim == 3


def test_join_dependent_rows():
    s = join_and_reduce([sv(1, 0), sv(2, 0)], 2)
    assert s.rank == 1


def test_join_rank_two_from_determinant():
    # det [[1,2],[3,4]] = -2 != 0
    s = join_and_reduce([sv(1, 2), sv(3, 4), sv(5, 6)], 2)
    assert s.rank == 2


def test_join_dimension_mismatch():
    with pytest.raises(ValueError):
        join_and_reduce([sv(1, 0, 0)], 2)


def test_subspace_equality_is_canonical():
    a = join_and_reduce([sv(1, 1), sv(0, 2)], 2)
    b = join_and_reduce([sv(3, 5), sv(1, 0)], 2)
    assert a == b


def test_saturate_empty_seed():
    ops = [lambda v: v]
    assert saturate_closure([], ops, 3).rank == 0


def test_saturate_idempotent_component():
    # K x K: left/right multiplication by e1, e2, zero bracket
    def mul_by(i):
        def op(v):
            return SparseVector(2, {i: v.get(i)})
        return op
    ops = [mul_by(0), mul_by(1)]
    s = saturate_closure([sv(1, 0)], ops, 2)
    assert s.rank == 1
    assert s.contains(sv(1, 0))


def _m2_mult_ops():
    # matrix units: E_{ab} E_{cd} = delta_{bc} E_{ad}; index a*2+b-ish: 0=E11,1=E12,2=E21,3=E22
    pos = {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (2, 2)}
    def mul(i, j):
        (a, b), (c, d) = pos[i], pos[j]
        if b != c:
            return None
        return [k for k, v in pos.items() if v == (a, d)][0]
    ops = []
    for i in range(4):
        def left(v, i=i):
            out = {}
            for j, c in v.data.items():
                k = mul(i, j)
                if k is not None:
                    out[k] = out.get(k, 0) + c
            return SparseVector(4, out)
        def right(v, i=i):
            out = {}
            for j, c in v.data.items():
                k = mul(j, i)
                if k is not None:
                    out[k] = out.get(k, 0) + c
            return SparseVector(4, out)
        ops += [left, right]
    return ops


def test_saturate_simple_algebra_fills_space():
    # two-sided ideal generated by E12 in M2 is everything
    s = saturate_closure([sv(0, 1, 0, 0)], _m2_mult_ops(), 4)
    assert s.rank == 4


def test_solve_nullspace():
    # x + y = 0 in dim 3: solutions span{(1,-1,0), (0,0,1)}
    s = solve_nullspace([{0: 1, 1: 1}], 3)
    assert s.rank == 2
    assert s.contains(sv(1, -1, 0))
    assert s.contains(sv(0, 0, 1))
    assert not s.contains(sv(1, 1, 0))


def test_express_not_in_span():
    assert express([sv(1, 0)], sv(0, 1)) is None
    assert express([], sv(0, 0)) == {}
    assert express([], sv(1, 0)) is None


def test_matrix_helpers():
    ident = mat_identity(3)
    assert ident == (({0: 1}, {1: 1}, {2: 1}), 1)
    assert mat_mul(ident, ident) == ident
    assert mat_from_rows([{0: ONE}, {1: Fraction(2, 2), 0: 0}, {2: 1}]) == ident
    assert mat_from_columns([{0: 1}, {1: 1}, {2: ONE}], 3) == ident
    half = mat_from_rows([{1: Fraction(1, 2)}, {0: 3}])
    assert half == (({1: 1}, {0: 6}), 2)
    assert mat_from_columns([{1: 3}, {0: Fraction(1, 2)}], 2) == half
    assert mat_numerators(half, 2) == {1: 1, 2: 6}
    assert is_form(ident, 3, 3) and is_form(half, 2, 2) and is_form(((), 1), 0, 0)
    for bad, r, c in (
        (ident, 3, 2),  # an entry in column 2
        (ident, 2, 3),  # three rows
        ((({0: 2}, {}), 2), 2, 2),  # not in lowest terms
        ((({}, {}), 3), 2, 2),  # the zero matrix has den 1
        ((({0: 1}, {}), -1), 2, 2),  # negative denominator
        ((({0: 0}, {}), 1), 2, 2),  # a stored zero
        ((({0: ONE}, {}), 1), 2, 2),  # a Fraction entry
        (((ONE, ZERO), (ZERO, ONE)), 2, 2),  # a dense Fraction grid
        (([{0: 1}, {1: 1}], 1), 2, 2),  # rows in a list
    ):
        assert not is_form(bad, r, c), bad


def test_minimal_polynomial_diagonal():
    m = mat_from_rows([{0: 1}, {1: 2}])
    # (x-1)(x-2) = 2 - 3x + x^2
    assert minimal_polynomial(m) == [Fraction(2), Fraction(-3), Fraction(1)]


def test_minimal_polynomial_scalar():
    m = mat_from_rows([{0: 5}, {1: 5}])
    assert minimal_polynomial(m) == [Fraction(-5), Fraction(1)]


def test_minimal_polynomial_of_fractional_matrices():
    # the powers' denominators differ (1, 30, 900, ...), and the
    # coefficients must come out exact all the same
    F = Fraction
    cases = [
        # eigenvalues 1/2 and 1/5: (x - 1/2)(x - 1/5)
        ([{0: F(1, 2), 1: F(1, 3)}, {1: F(1, 5)}], [F(1, 10), F(-7, 10), ONE]),
        # nilpotent: x^2
        ([{1: F(1, 3)}, {}], [ZERO, ZERO, ONE]),
        # diag(1/2, 1/2, 1/3): (x - 1/2)(x - 1/3)
        ([{0: F(1, 2)}, {1: F(1, 2)}, {2: F(1, 3)}], [F(1, 6), F(-5, 6), ONE]),
        # a Jordan block at 2/3: (x - 2/3)^2
        ([{0: F(2, 3), 1: 1}, {1: F(2, 3)}], [F(4, 9), F(-4, 3), ONE]),
        # scalar 3/4
        ([{0: F(3, 4)}, {1: F(3, 4)}], [F(-3, 4), ONE]),
    ]
    for rows, want in cases:
        assert minimal_polynomial(mat_from_rows(rows)) == want, rows


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_minimal_polynomial_annihilates_and_is_monic(n, data):
    grid = data.draw(sparse_matrices(n, n))
    coeffs = minimal_polynomial(_form(grid))
    assert coeffs[-1] == 1 and 2 <= len(coeffs) <= n + 1
    # p(grid) = 0, evaluated on dense Fraction grids
    acc = _dense_zero(n, n)
    power = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    for c in coeffs:
        acc = _dense_mat_lincomb([(ONE, acc), (c, power)], n, n)
        power = _dense_mat_mul(power, grid)
    assert acc == _dense_zero(n, n)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def vector_lists(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=4))
    vecs = [
        SparseVector(dim, dict(enumerate(
            [draw(small_fractions) for _ in range(dim)]
        )))
        for _ in range(count)
    ]
    return dim, vecs


@settings(max_examples=60, deadline=None)
@given(vector_lists())
def test_every_generator_in_its_span(case):
    dim, vecs = case
    s = join_and_reduce(vecs, dim)
    assert s.rank <= min(len(vecs), dim)
    for v in vecs:
        assert s.contains(v)


@settings(max_examples=40, deadline=None)
@given(vector_lists())
def test_saturation_is_a_fixed_point(case):
    dim, vecs = case
    # a couple of arbitrary but fixed linear maps: cyclic shift and a projection
    def shift(v):
        return SparseVector(dim, {(i + 1) % dim: c for i, c in v.data.items()})
    def proj(v):
        return SparseVector(dim, {0: v.get(0)})
    ops = [shift, proj]
    s = saturate_closure(vecs, ops, dim)
    for row in s.rows:
        for op in ops:
            assert s.contains(op(row))


def _coefficients(k):
    return st.lists(small_fractions, min_size=k, max_size=k)


def _combine(coeffs, vecs, dim):
    total = SparseVector(dim)
    for c, v in zip(coeffs, vecs):
        total = total + v.scale(c)
    return total


@settings(max_examples=60, deadline=None)
@given(vector_lists(), st.data())
def test_express_in_span_rebuilds_target(case, data):
    dim, vecs = case
    # append dependent vectors: a repeat and a combination of earlier ones
    if vecs:
        mix = data.draw(_coefficients(len(vecs)))
        vecs = vecs + [vecs[0], _combine(mix, vecs, dim)]
    coeffs = data.draw(_coefficients(len(vecs)))
    target = _combine(coeffs, vecs, dim)
    found = express(vecs, target)
    assert found is not None
    assert set(found) <= set(range(len(vecs)))
    assert _combine([found.get(t, ZERO) for t in range(len(vecs))], vecs, dim) == target


@settings(max_examples=60, deadline=None)
@given(vector_lists(), st.data())
def test_express_in_span_rejects_outside_target(case, data):
    dim, vecs = case
    s = join_and_reduce(vecs, dim)
    outside = [i for i in range(dim) if not s.contains(SparseVector.unit(dim, i))]
    assume(outside)
    coeffs = data.draw(_coefficients(len(vecs)))
    stray = SparseVector.unit(dim, data.draw(st.sampled_from(outside)))
    target = _combine(coeffs, vecs, dim) + stray
    assert express(vecs, target) is None


# Reference elimination: the Fraction Gauss-Jordan that the integer kernel
# replaced, with every row divided by its pivot entry as it is made.  The
# reduced row echelon form of a span is unique, so the kernel must give the
# same values, as Fractions.

def _ref_clear(data, pivot_row):
    out = dict(data)
    for p in [c for c in out if c in pivot_row]:
        lam = out[p]
        for c, v in pivot_row[p].items():
            s = out.get(c, ZERO) - lam * v
            if s:
                out[c] = s
            else:
                out.pop(c, None)
    return out


def _ref_echelon(vectors, n):
    """{pivot: row} of the vectors' span, pivots below n, pivot entries 1."""
    pivot_row = {}
    for data in vectors:
        red = _ref_clear(data, pivot_row)
        p = min(red, default=n)
        if p >= n:
            continue
        row = {c: v / red[p] for c, v in red.items()}
        for other in pivot_row.values():
            lam = other.get(p)
            if lam:
                for c, v in row.items():
                    s = other.get(c, ZERO) - lam * v
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
        pivot_row[p] = row
    return pivot_row


def _ref_span(vectors, n):
    return [(p, row) for p, row in sorted(_ref_echelon([v.data for v in vectors], n).items())]


def _ref_nullspace(rows, n):
    pivot_row = _ref_echelon([r.data for r in rows], n)
    basis = []
    for free in range(n):
        if free not in pivot_row:
            data = {free: ONE}
            for p, row in pivot_row.items():
                if row.get(free):
                    data[p] = -row[free]
            basis.append(SparseVector(n, data))
    return _ref_span(basis, n)


def _ref_express(vectors, target):
    n = target.n
    tagged = [{**v.data, n + t: ONE} for t, v in enumerate(vectors)]
    red = _ref_clear(target.data, _ref_echelon(tagged, n))
    if any(c < n for c in red):
        return None
    return {c - n: -x for c, x in red.items()}


def _as_pairs(s):
    return [(p, row.data) for p, row in zip(s.pivots, s.rows)]


def _all_types(values, kind):
    return all(type(x) is kind for x in values)


def _all_fractions(values):
    return _all_types(values, Fraction)


def _rows_are_fractions(s):
    return _all_fractions(x for row in s.rows for x in row.data.values())


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
leading = rationals.filter(lambda x: x not in (0, 1))


@st.composite
def rational_vectors(draw, dim):
    """A vector whose first nonzero entry is not 1, or the zero vector."""
    start = draw(st.integers(min_value=0, max_value=dim))
    if start == dim:
        return SparseVector(dim)
    tail = [draw(rationals) for _ in range(start + 1, dim)]
    return SparseVector(dim, dict(enumerate([ZERO] * start + [draw(leading)] + tail)))


@st.composite
def rational_systems(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=0, max_value=5))
    vecs = [draw(rational_vectors(dim)) for _ in range(count)]
    if vecs and draw(st.booleans()):
        # a dependent vector: a combination of the others
        coeffs = [draw(rationals) for _ in vecs]
        vecs.append(_combine(coeffs, vecs, dim))
    return dim, vecs, draw(rational_vectors(dim))


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_elimination_matches_fraction_reference(case):
    dim, vecs, target = case
    expected = _ref_span(vecs, dim)

    s = join_and_reduce(vecs, dim)
    assert _as_pairs(s) == expected
    assert _rows_are_fractions(s)

    ech = Echelon(dim)
    for v in vecs:
        ech.add_data(v.data)
    for row in ech.rows:
        # primitive integer rows with a positive pivot entry
        assert _all_types(row.values(), int) and gcd(*row.values()) == 1
        assert row[min(row)] > 0
    assert _as_pairs(ech.to_subspace()) == expected
    assert _rows_are_fractions(ech.to_subspace())

    reduced = s.reduce(target)
    assert reduced.data == _ref_clear(target.data, dict(expected))
    assert _all_fractions(reduced.data.values())

    null = solve_nullspace([v.data for v in vecs], dim)
    assert _as_pairs(null) == _ref_nullspace(vecs, dim)
    assert _rows_are_fractions(null)

    found = express(vecs, target)
    assert found == _ref_express(vecs, target)
    if found is not None:
        assert _all_fractions(found.values())


def test_nullspace_of_a_row_whose_pivot_entry_is_not_one():
    # 2x + 3y = 0 and 4z = 0: the solutions are t * (1, -2/3, 0)
    s = solve_nullspace([{0: 2, 1: 3}, {2: 4}], 3)
    assert list(s.rows) == [sv(1, Fraction(-2, 3), 0)]
    assert s.pivots == (0,)


def test_subspace_keeps_its_rows_when_the_echelon_grows():
    vectors = [sv(1, 1, 0, 0), sv(0, 0, 1, 1)]
    ech = Echelon(4)
    for v in vectors:
        ech.add_data(v.data)
    s = ech.to_subspace()
    rows = list(s.rows)
    probes = [sv(1, 0, 0, 0), sv(0, 1, 1, 0), sv(3, 1, 2, 5)]
    reduced = [s.reduce(v) for v in probes]
    stored = list(ech.rows)
    before = [dict(row) for row in ech.rows]
    # pivot 1: the new row keeps its entry at pivot 2, and the rows before
    # it are neither rewritten nor replaced
    assert ech.add_data(sv(0, 2, 2, 0).data) == {1: 1, 2: 1}
    assert ech.rows[:2] == before
    assert all(a is b for a, b in zip(ech.rows, stored))
    assert ech.to_subspace() == join_and_reduce(vectors + [sv(0, 1, 1, 0)], 4)
    assert ech.to_subspace().rows[0] == sv(1, 0, 0, 1)
    assert s == join_and_reduce(vectors, 4)
    assert list(s.rows) == rows
    assert [s.reduce(v) for v in probes] == reduced


def test_express_rejects_a_vector_of_another_dimension():
    tracked = TrackedEchelon(2)
    tracked.insert({0: 1})
    # coordinate 2 would be read as the tag of the first vector
    with pytest.raises(ValueError, match="dimension mismatch"):
        tracked.express(SparseVector(3, {0: 1, 2: 5}))
    with pytest.raises(ValueError, match="dimension mismatch"):
        tracked.express(SparseVector(1, {0: 1}))
    assert tracked.express(SparseVector(2, {0: 3})) == {0: Fraction(3)}


# Triangular against reduced: the echelon reduces inserts by leading term
# only and builds the reduced form where it is read, while _ref_echelon
# keeps every row reduced as it goes.  A span's pivots are its leading
# coordinates, whatever basis holds them, so both take the same pivot at
# the same insert, and the reduced form and the coefficients of an
# expression over independent vectors are unique.

integers = st.integers(min_value=-6, max_value=6)


@st.composite
def mixed_sequences(draw):
    """Vectors as int or Fraction data, some of them dependent on earlier
    ones, zero or repeated, and a target in or out of their span."""
    dim = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=0, max_value=7))
    out = []
    for _ in range(count):
        kinds = ["int", "fraction"] + (["dependent"] if out else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "dependent":
            coeffs = [draw(st.one_of(integers, rationals)) for _ in out]
            data = _combine(coeffs, [SparseVector(dim, d) for d in out], dim).data
        else:
            values = integers if kind == "int" else rationals
            picked = draw(st.lists(st.integers(min_value=0, max_value=dim - 1), max_size=dim))
            data = {c: draw(values) for c in picked}
        out.append({c: v for c, v in data.items() if v})
    if out and draw(st.booleans()):
        coeffs = [draw(rationals) for _ in out]
        target = _combine(coeffs, [SparseVector(dim, d) for d in out], dim)
    else:
        target = draw(rational_vectors(dim))
    return dim, out, target


@settings(max_examples=200, deadline=None)
@given(mixed_sequences())
def test_triangular_echelon_matches_reduced_reference(case):
    dim, vectors, target = case
    fractions = [{c: Fraction(v) for c, v in data.items()} for data in vectors]
    ech = Echelon(dim)
    tracked = TrackedEchelon(dim)
    for k, data in enumerate(vectors):
        before = _ref_echelon(fractions[:k], dim)
        after = _ref_echelon(fractions[:k + 1], dim)
        row = ech.add_data(data)
        assert (row is None) == (len(after) == len(before)), k
        assert tracked.insert(data) == (row is not None), k
        if row is not None:
            assert _all_types(row.values(), int) and gcd(*row.values()) == 1
            assert min(row) == list(after)[-1] and row[min(row)] > 0
        # the same pivots, taken in the same order
        assert list(ech.pivot_row) == list(after), k
    vecs = [SparseVector(dim, d) for d in fractions]
    assert _as_pairs(ech.to_subspace()) == _ref_span(vecs, dim)
    assert ech.to_subspace() == Subspace(dim, reduced_rows(ech.pivot_row))
    assert tracked.express(target) == _ref_express(vecs, target)


@settings(max_examples=200, deadline=None)
@given(mixed_sequences())
def test_tracked_rows_are_the_rows_of_the_tagged_vectors(case):
    # a plain Echelon fed each vector with a tag 1 at n + t; TrackedEchelon
    # clears the vector first and tags it with the clearing scale, which is
    # the same integer vector
    dim, vectors, _ = case
    tracked, plain = TrackedEchelon(dim), Echelon(dim)
    for t, data in enumerate(vectors):
        row = plain.add_data({**data, dim + t: 1})
        assert tracked.insert(data) == (row is not None), t
        assert tracked.rows == plain.rows, t
        assert list(tracked.pivot_row.items()) == list(plain.pivot_row.items()), t


def test_reduced_rows_leaves_the_triangular_rows_as_they_are():
    ech = Echelon(4)
    for data in ({0: 2, 1: 3, 2: 1}, {1: 1, 2: 1, 3: 1}, {2: 3, 3: 6}):
        ech.add_data(data)
    before = {p: dict(row) for p, row in ech.pivot_row.items()}
    reduced = reduced_rows(ech.pivot_row)
    assert ech.pivot_row == before
    assert list(reduced) == [0, 1, 2]
    assert reduced == {0: {0: 2, 3: 1}, 1: {1: 1, 3: -1}, 2: {2: 1, 3: 2}}
    assert reduced_rows(reduced) == reduced


# Dense reference kernels over tuple grids of Fractions: every product and
# combination term, zero or not, as the kernels computed them before they
# moved to sparse integer forms.
def _dense_zero(r, c):
    return tuple((ZERO,) * c for _ in range(r))


def _dense_mat_mul(a, b):
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt)
        for row in a
    )


def _dense_mat_lincomb(pairs, r, c):
    acc = _dense_zero(r, c)
    for coeff, m in pairs:
        acc = tuple(
            tuple(x + rat(coeff) * y for x, y in zip(ra, rb)) for ra, rb in zip(acc, m)
        )
    return acc


def _form(grid):
    return mat_from_rows([dict(enumerate(row)) for row in grid])


def _dense(m, c):
    rows, den = m
    return tuple(tuple(Fraction(row.get(j, 0), den) for j in range(c)) for row in rows)


def _assert_canonical_form(grid, r, c, scale):
    """The form of the grid is in lowest terms, converts back to the grid,
    and equals the form of another grid exactly when that grid equals this
    one; scale != 0."""
    form = _form(grid)
    assert is_form(form, r, c)
    rows, den = form
    assert gcd(den, *(v for row in rows for v in row.values())) == 1
    assert _dense(form, c) == grid
    scaled = tuple(tuple(scale * x for x in row) for row in grid)
    negated = tuple(tuple(-x for x in row) for row in grid)
    for other in (grid, scaled, negated, _dense_zero(r, c)):
        assert (_form(other) == form) == (other == grid)


sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), small_fractions)
nonzero_fractions = small_fractions.filter(bool)
dims = st.integers(min_value=1, max_value=4)


@st.composite
def sparse_matrices(draw, r, c):
    """A dense r x c grid of Fractions, often sparse, sometimes zero."""
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return _dense_zero(r, c)
    return tuple(tuple(draw(sparse_entries) for _ in range(c)) for _ in range(r))


@settings(max_examples=100, deadline=None)
@given(dims, dims, dims, st.data())
def test_mat_mul_matches_dense_reference(r, k, c, data):
    a = data.draw(sparse_matrices(r, k))
    b = data.draw(sparse_matrices(k, c))
    got = mat_mul(_form(a), _form(b))
    assert is_form(got, r, c)
    # the kernel's product is the canonical form of the reference product
    assert _dense(got, c) == _dense_mat_mul(a, b)
    assert got == _form(_dense_mat_mul(a, b))
    scale = data.draw(nonzero_fractions)
    for m, rows, cols in ((a, r, k), (b, k, c), (_dense(got, c), r, c)):
        _assert_canonical_form(m, rows, cols, scale)


@settings(max_examples=100, deadline=None)
@given(dims, dims, st.data())
def test_mat_lincomb_matches_dense_reference(r, c, data):
    count = data.draw(st.integers(min_value=0, max_value=4))
    pairs = [
        (data.draw(st.integers(min_value=-3, max_value=3)), data.draw(sparse_matrices(r, c)))
        for _ in range(count)
    ]
    # over integer coefficients and a denominator, the kernel gives the
    # canonical form of the combination
    den = data.draw(st.integers(min_value=1, max_value=6))
    got = mat_lincomb(((coeff, _form(m)) for coeff, m in pairs), r, den)
    want = _dense_mat_lincomb([(Fraction(coeff, den), m) for coeff, m in pairs], r, c)
    assert is_form(got, r, c)
    assert _dense(got, c) == want
    assert got == _form(want)
    _assert_canonical_form(want, r, c, data.draw(nonzero_fractions))


def test_mat_lincomb_empty_is_zero_matrix():
    zero = (({}, {}), 1)
    assert mat_lincomb([], 2) == zero
    assert mat_lincomb([], 2, 5) == zero
    assert mat_lincomb([(0, mat_identity(2))], 2) == zero
    # terms that cancel leave the zero matrix over den 1, not over 3
    half = mat_from_rows([{0: Fraction(1, 2)}, {1: 1}])
    assert mat_lincomb([(1, half), (-1, half)], 2, 3) == zero
    # a zero member is dropped: alone it leaves the zero form, beside
    # another member that member's sum
    assert mat_lincomb([(4, zero)], 2, 3) == zero
    assert mat_lincomb([(4, zero), (2, half)], 2, 5) == mat_lincomb([(2, half)], 2, 5)


def test_mat_lincomb_returns_a_lone_unscaled_member_itself():
    zero = (({}, {}), 1)
    half = mat_from_rows([{0: Fraction(1, 2)}, {1: 1}])
    assert mat_lincomb([(3, half)], 2, 3) is half
    assert mat_lincomb([(0, mat_identity(2)), (3, half), (1, zero)], 2, 3) is half
    # scaled, the member gives a new form
    assert mat_lincomb([(2, half)], 2, 3) == mat_from_rows([{0: Fraction(1, 3)},
                                                            {1: Fraction(2, 3)}])


def test_mat_lincomb_checks_the_shape_of_every_member():
    # a member returned as it is, or dropped as zero, is checked all the same
    zero2 = (({}, {}), 1)
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_lincomb([(3, mat_identity(2))], 3, 3)  # a lone member with c == den
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_lincomb([(1, mat_identity(3)), (1, zero2)], 3)  # a zero member
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_lincomb([(0, mat_identity(2)), (1, mat_identity(3))], 3)  # a zero coefficient


def test_matrix_kernels_reject_shape_mismatch():
    wide = mat_from_rows([{2: 1}, {}])  # 2 x 3, with an entry in column 2
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_mul(wide, mat_identity(2))
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_mul(mat_identity(2), mat_from_rows([{0: 1}]))
    with pytest.raises(ValueError, match="matrix shape mismatch"):
        mat_lincomb([(1, mat_identity(2))], 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_and_fraction_inserts_give_identical_rows(data):
    # one insert body for both: the int copy and the cleared Fraction copy
    # of a vector, at any nonzero scale, reduce to the same row; coordinates
    # run below 0, as the ideal closure's do, and up to n + 1, where no
    # pivot is taken
    dim = data.draw(st.integers(min_value=1, max_value=5), label="dim")
    coords = st.integers(min_value=-2, max_value=dim + 1)
    nonzero = integers.filter(bool)
    vectors = data.draw(st.lists(st.dictionaries(coords, nonzero, max_size=dim + 2),
                                 max_size=7), label="vectors")
    ints, fracs = Echelon(dim), Echelon(dim)
    for k, v in enumerate(vectors):
        scale = data.draw(rationals.filter(bool), label=f"scale {k}")
        row = ints.add_data(v)
        assert row == fracs.add_data({c: x * scale for c, x in v.items()}), k
        assert row is None or _all_types(row.values(), int)
        assert ints.rows == fracs.rows
        assert list(ints.pivot_row.items()) == list(fracs.pivot_row.items())
    stored = list(ints.rows)
    before = [dict(row) for row in stored]
    coeffs = data.draw(st.lists(rationals, min_size=len(stored), max_size=len(stored)),
                       label="coefficients")
    total: dict = {}
    for c, row in zip(coeffs, stored):
        for t, x in row.items():
            total[t] = total.get(t, 0) + c * x
    in_span = {t: x for t, x in total.items() if x}
    s = lcm(*[x.denominator for x in in_span.values()])
    for ech in (ints, fracs):
        kept = list(ech.rows)
        for zero in ({}, in_span, {t: int(x * s) for t, x in in_span.items()}):
            assert ech.add_data(zero) is None
        assert ech.rows == before and all(a is b for a, b in zip(ech.rows, kept))
        assert list(ech.pivot_row.values()) == before


@pytest.mark.parametrize("scale", [1, Fraction(2, 3)], ids=["int", "fraction"])
def test_no_entry_point_changes_its_argument(scale):
    # the ideal closure in truncation multiplies the vectors it inserts
    # again, so every reduction runs on a copy
    def vec(*values):
        return {c: x * scale for c, x in enumerate(values) if x}

    vectors = [vec(2, 4, 6, 0), vec(1, 3, 0, 0), vec(3, 7, 6, 0), vec(0, 5, 0, 1)]
    targets = [vec(4, 10, 6, 0), vec(0, 0, 0, 1), vec(0, 0, 1, 0), {}]
    ech, tracked = Echelon(4), TrackedEchelon(4)
    for v in vectors:
        before = dict(v)
        assert ech.add_data(v) is not v
        tracked.insert(v)
        assert v == before and all(type(x) is type(scale) for x in v.values())
    assert len(ech.rows) == len(tracked.rows) == 3
    for data in targets:
        target = SparseVector(4)
        target.data = dict(data)  # as minimal_polynomial passes int numerators
        tracked.express(target)
        assert target.data == data
    assert tracked.express(SparseVector(4, targets[0])) == {0: 1, 1: 2}
