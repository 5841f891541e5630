import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from poissonenv.limits import DegreeCapExceeded
from poissonenv.linalg import (
    Echelon,
    SparseVector,
    Subspace,
    TrackedEchelon,
    _integral,
    _primitive,
    add_terms,
    close_under,
    join_and_reduce,
    reduced_rows,
    remainder,
    sub_terms,
)
from poissonenv.ncpa import is_poisson_simple, unit_first
from poissonenv.smash import (
    GENERATOR_TERM,
    embed,
    q_identity,
    q_mult,
    q_mult_scaled,
)
from poissonenv.truncation import (
    IdealGens,
    _LeveledClosure,
    _leveled_closure,
    dimension_table,
    env_monomials,
    ideal_gens_by_label,
    ideal_i_gens,
    ideal_j_gens,
    ideal_oh_gens,
    qelem_to_vector,
    TruncatedQuotient,
    truncated_ideal_span,
)

from conftest import rebase, reference_embed

ONE = Fraction(1)


def test_j_generator_count(kxk, m2, trunc2):
    # one generator per basis pair, minus the ones that vanish outright
    assert len(ideal_j_gens(kxk).gens) == 4
    assert len(ideal_j_gens(m2).gens) == 16
    assert len(ideal_j_gens(trunc2).gens) == 9


def test_i_and_oh_generator_count(kxk, trunc2):
    assert len(ideal_i_gens(kxk).gens) == 2
    assert len(ideal_oh_gens(kxk).gens) == 2
    # OH generators of the unit basis vector vanish: a (x) 1 = 1 (x) a for a = 1
    assert len(ideal_oh_gens(trunc2).gens) == 2


def _reference_ideal_gens(A, label):
    """J as q_mult of hand-expanded embeddings, I and OH as sub_terms chains."""
    def e(kind, v):
        return reference_embed(A, kind, v)

    gens = []
    for p in range(A.n):
        vp = A.basis(p)
        if label == "J":
            for q in range(A.n):
                vq = A.basis(q)
                gens.append(sub_terms(
                    sub_terms(e("j", A.mul_basis(p, q)), q_mult(A, e("i", vp), e("j", vq))),
                    q_mult(A, e("k", vq), e("j", vp)),
                ))
        elif label == "I":
            g = sub_terms(e("j", vp), e("i", vp))
            for mono, c in e("k", vp).items():
                g = sub_terms(g, {mono: -c})
            gens.append(g)
        else:
            gens.append(sub_terms(e("i", vp), e("k", vp)))
    return [list(g.items()) for g in gens if g]


@pytest.mark.parametrize("name", ["kxk", "kxk_skew", "m2", "ut2", "trunc2"])
def test_ideal_generators_match_reference(name, request):
    # values and term order: the closure's memo key and input are the dicts
    A = request.getfixturevalue(name)
    for label, build in (("J", ideal_j_gens), ("I", ideal_i_gens), ("OH", ideal_oh_gens)):
        gens = build(A).gens
        assert [list(g.items()) for g in gens] == _reference_ideal_gens(A, label), label


def test_j_generator_kxk_values(kxk):
    gens = {}
    for p in range(2):
        for q in range(2):
            g = sub_terms(
                sub_terms(
                    embed(kxk, "j", kxk.mul_basis(p, q)),
                    q_mult(kxk, embed(kxk, "i", kxk.basis(p)), embed(kxk, "j", kxk.basis(q))),
                ),
                q_mult(kxk, embed(kxk, "k", kxk.basis(q)), embed(kxk, "j", kxk.basis(p))),
            )
            gens[(p, q)] = g
    # pair (e1, e1): 1(x)1#e1 - e1(x)1#e1 - 1(x)e1#e1 = (e2,e2,e1) - (e1,e1,e1)
    assert gens[(0, 0)] == {(1, 1, (0,)): ONE, (0, 0, (0,)): Fraction(-1)}
    # pair (e1, e2): product vanishes: -e1(x)1#e2 - 1(x)e2#e1
    assert gens[(0, 1)] == {
        (0, 0, (1,)): Fraction(-1),
        (0, 1, (1,)): Fraction(-1),
        (0, 1, (0,)): Fraction(-1),
        (1, 1, (0,)): Fraction(-1),
    }


def test_ideal_label_parsing(kxk):
    assert ideal_gens_by_label(kxk, "J").label == "J"
    combo = ideal_gens_by_label(kxk, "J+I")
    assert combo.label == "J+I"
    assert len(combo.gens) == 6
    with pytest.raises(ValueError):
        ideal_gens_by_label(kxk, "X")


def test_zero_generators_rejected():
    with pytest.raises(ValueError):
        IdealGens("bad", ({},))


def test_empty_gens_zero_slice(kxk):
    slice_, stable = truncated_ideal_span(kxk, IdealGens("none", ()), 1, 3)
    assert slice_.rank == 0
    assert stable


def test_env_monomial_order_is_degree_then_word(kxk):
    monos = env_monomials(kxk, 2)
    degrees = [len(m[2]) for m in monos]
    assert degrees == sorted(degrees)
    assert len(monos) == 4 * (1 + 2 + 3)


def test_kxk_dimension_sequence(kxk):
    # the quotient splits as two field factors and two truncated
    # polynomial factors: dimension 2d + 4
    table = dimension_table(kxk, ideal_j_gens(kxk), 3)
    assert [row["dimension"] for row in table] == [4, 6, 8, 10]
    assert all(row["stable"] for row in table)


def test_kxk_degree_zero_slice_empty(kxk):
    slice_, stable = truncated_ideal_span(kxk, ideal_j_gens(kxk), 0, 2)
    assert slice_.rank == 0
    assert stable


def test_kxk_degree_one_quotient(kxk):
    q = TruncatedQuotient(kxk, ideal_j_gens(kxk), 1, 3)
    assert q.dimension == 6
    assert q.stable


def test_monotone_in_saturation(kxk, trunc2):
    for A in (kxk, trunc2):
        gens = ideal_j_gens(A)
        prev_rank = -1
        for D in range(1, 5):
            slice_, _ = truncated_ideal_span(A, gens, 1, D)
            assert slice_.rank >= prev_rank
            prev_rank = slice_.rank


def test_slice_monotone_containment(trunc2):
    gens = ideal_j_gens(trunc2)
    small, _ = truncated_ideal_span(trunc2, gens, 2, 3)
    large, _ = truncated_ideal_span(trunc2, gens, 2, 4)
    for row in small.rows:
        assert large.contains(row)


def test_reduce_generators_to_zero(kxk):
    gens = ideal_j_gens(kxk)
    q = TruncatedQuotient(kxk, gens, 2)
    for g in gens.gens:
        assert q.reduce(g).is_zero()


def test_reduce_lie_unit_dies_in_quotient(kxk):
    # the Lie embedding of the unit lands in the ideal
    q = TruncatedQuotient(kxk, ideal_j_gens(kxk), 1)
    assert q.reduce(embed(kxk, "j", kxk.unit)).is_zero()


def test_reduce_identity_nonzero(kxk, trunc2):
    for A in (kxk, trunc2):
        q = TruncatedQuotient(A, ideal_j_gens(A), 1)
        assert not q.reduce(q_identity(A)).is_zero()


def test_reduce_degree_guard(kxk):
    q = TruncatedQuotient(kxk, ideal_j_gens(kxk), 1)
    with pytest.raises(DegreeCapExceeded):
        q.reduce({(0, 0, (0, 1)): ONE})


def test_reduce_is_linear_and_respects_cosets(kxk):
    q = TruncatedQuotient(kxk, ideal_j_gens(kxk), 2)
    x = {(0, 0, (0, 1)): Fraction(3), (1, 1, ()): Fraction(-1, 2)}
    g = ideal_j_gens(kxk).gens[0]
    shifted = sub_terms(x, q_scale_local(g, Fraction(7)))
    assert q.reduce(x) == q.reduce(shifted)


def q_scale_local(x, c):
    return {k: c * v for k, v in x.items()}


def test_coset_basis_bookkeeping(kxk):
    q = TruncatedQuotient(kxk, ideal_j_gens(kxk), 2)
    assert len(q.coset_basis) + q.ideal_slice.rank == len(q.monomials)
    # representatives reduce to unit coordinate vectors
    for t, mono in enumerate(q.coset_basis):
        coords = q.reduce({mono: ONE})
        assert coords == SparseVector.unit(len(q.coset_basis), t)


def test_standard_quotient_collapses_to_bimodule_algebra(kxk):
    # adjoining the extra generators cuts the quotient to A (x) A^op
    table = dimension_table(kxk, ideal_gens_by_label(kxk, "J+I"), 3)
    assert [row["dimension"] for row in table] == [4, 4, 4, 4]
    assert all(row["stable"] for row in table)


def test_standard_quotient_upper_triangular(ut2):
    table = dimension_table(ut2, ideal_gens_by_label(ut2, "J+I"), 3)
    assert [row["dimension"] for row in table] == [9, 9, 9, 9]
    assert all(row["stable"] for row in table)


def test_kxk_quotient_component_structure(kxk):
    # the quotient splits into two field factors spanned by orthogonal
    # idempotents i(e_s)k(e_t) and two polynomial factors generated by
    # i(e1)j(e1)k(e2) and i(e2)j(e2)k(e1)
    q0 = TruncatedQuotient(kxk, ideal_j_gens(kxk), 0)
    q2 = TruncatedQuotient(kxk, ideal_j_gens(kxk), 2)

    def e(s, t):
        return q_mult(
            kxk, embed(kxk, "i", kxk.basis(s)), embed(kxk, "k", kxk.basis(t))
        )

    total = {}
    for s in range(2):
        for t in range(2):
            est = e(s, t)
            total = add_terms(total, est)
            assert not q0.reduce(est).is_zero()
            assert q2.reduce(q_mult(kxk, est, est)) == q2.reduce(est)
    assert q0.reduce(total) == q0.reduce(q_identity(kxk))

    def poly_gen(s, t):
        return q_mult(
            kxk,
            q_mult(kxk, embed(kxk, "i", kxk.basis(s)), embed(kxk, "j", kxk.basis(s))),
            embed(kxk, "k", kxk.basis(t)),
        )

    a12, a21 = poly_gen(0, 1), poly_gen(1, 0)
    assert not q2.reduce(a12).is_zero()
    assert not q2.reduce(q_mult(kxk, a12, a12)).is_zero()  # no nilpotents
    assert q2.reduce(q_mult(kxk, a12, a21)).is_zero()  # distinct factors
    assert q2.reduce(q_mult(kxk, e(0, 1), a12)) == q2.reduce(a12)
    assert q2.reduce(q_mult(kxk, e(0, 0), a12)).is_zero()


# -- reference: cosets from a second elimination pass ------------------------
#
# The slice rows, then every monomial in term order, each with a tag; a
# monomial is a coset representative iff it raised the rank, and reduce()
# reads the representatives' tags off the tracked combination.

class _ReferenceQuotient:
    def __init__(self, q):
        n_ideal = q.ideal_slice.rank
        self.solver = TrackedEchelon(len(q.monomials))
        for row in q.ideal_slice.rows:
            self.solver.insert(row.data)
        self.position, self.coset_basis = {}, []
        for t, mono in enumerate(q.monomials):
            if self.solver.insert({t: ONE}):
                self.position[n_ideal + t] = len(self.coset_basis)
                self.coset_basis.append(mono)

    def reduce(self, q, x):
        combo = self.solver.express(qelem_to_vector(x, q.index, len(q.monomials)))
        data = {self.position[t]: c for t, c in combo.items() if t in self.position}
        return SparseVector(len(self.coset_basis), data)


def _random_elements(monomials, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = rng.sample(monomials, min(len(monomials), rng.randint(1, 6)))
        out.append({m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for m in terms})
    return out


@pytest.mark.parametrize(
    "name, max_degree",
    [("kxk", 3), ("trunc2", 2), ("m2", 1), ("trunc2_skew", 2)],
)
@pytest.mark.parametrize("label", ["J", "J+I", "OH"])
def test_quotient_cosets_match_second_pass(name, max_degree, label, request):
    A = request.getfixturevalue(name)
    gens = ideal_gens_by_label(A, label)
    for d in range(max_degree + 1):
        q = TruncatedQuotient(A, gens, d)
        ref = _ReferenceQuotient(q)
        assert q.coset_basis == ref.coset_basis, d
        for k, x in enumerate(_random_elements(q.monomials, 20, f"{name} {label} {d}")):
            assert q.reduce(x) == ref.reduce(q, x), (d, k)


@pytest.mark.parametrize("name", ["kxk_skew", "trunc2_skew"])
def test_results_have_fraction_coefficients(name, request):
    # the elimination kernel works on integers; no int, and no float from a
    # division of ints, may leak into what it returns
    A = request.getfixturevalue(name)
    gens = ideal_j_gens(A)
    coefficients = []
    for d in range(3):
        slice_, _ = truncated_ideal_span(A, gens, d, d + 2)
        coefficients += [c for row in slice_.rows for c in row.data.values()]
    factors = [embed(A, kind, A.basis(a)) for kind in "ikj" for a in range(A.n)]
    for x in factors + list(gens.gens[:2]):
        for y in factors:
            coefficients += q_mult(A, x, y).values()
    # products the closure memoized: q_mult over memo hits
    cached = list(A.caches["q_mono"])[:200]
    assert cached
    for m1, m2 in cached:
        coefficients += q_mult(A, {m1: ONE}, {m2: ONE}).values()
        coefficients += q_mult(A, {m1: Fraction(1, 3)}, {m2: 2}).values()
    q = TruncatedQuotient(A, gens, 2)
    for x in _random_elements(q.monomials, 20, name):
        coefficients += q.reduce(x).data.values()
    witness = is_poisson_simple(A).witness
    assert witness is not None and witness.rank
    coefficients += [c for row in witness.rows for c in row.data.values()]
    assert all(type(c) is Fraction for c in coefficients)


def test_oh_quotient_smoke(kxk):
    # quotient by the commutativity generators alone stays unital
    q = TruncatedQuotient(kxk, ideal_oh_gens(kxk), 1)
    assert not q.reduce(q_identity(kxk)).is_zero()
    assert 0 < q.dimension <= 16


# -- reference: the slice as the span of every monomial-pair product ----------
#
# Window D spans m1 * g * m2 over basis monomials with deg m1 + deg m2 <= D-1.
# Coordinates run in descending term order, so the echelon rows whose pivots
# fall in the degree-<=d block span exactly the slice at degree d.

def _pair_span_slices(A, gens, D):
    """Slices of window D at every degree d <= D, by enumerating products."""
    monos = env_monomials(A, D)
    big = len(monos)
    index = {m: big - 1 - t for t, m in enumerate(monos)}
    ech = Echelon(big)
    for g in gens.gens:
        for m2 in monos:
            right = q_mult(A, g, {m2: ONE})
            for m1 in monos:
                if right and len(m1[2]) + len(m2[2]) <= D - 1:
                    prod = q_mult(A, {m1: ONE}, right)
                    if prod:
                        ech.add_data({index[m]: c for m, c in prod.items()})
    slices = []
    for d in range(D + 1):
        n_low = len(env_monomials(A, d))
        rows = [
            SparseVector(n_low, {big - 1 - c: v for c, v in row.items()})
            for p, row in ech.pivot_row.items()
            if p >= big - n_low
        ]
        slices.append(join_and_reduce(rows, n_low))
    return slices


@pytest.mark.parametrize(
    "name, label, first_only",
    [
        ("kxk", "J", False),
        ("kxk", "J+I", False),
        ("kxk", "OH", False),
        ("ut2", "J+I", False),
        ("trunc2", "J", False),
        ("trunc2", "J+I", False),
        ("ut2", "J", False),
        ("ut2", "OH", False),
        # a basis whose structure constants are not integral
        ("kxk_skew", "J", False),
        ("kxk_skew", "J+I", False),
        # one generator is not closed under brackets with the j(a), so here
        # j(a) * v and v * j(a) span different things
        ("ut2", "J", True),
    ],
)
def test_leveled_slice_matches_pair_span(name, label, first_only, request):
    A = request.getfixturevalue(name)
    gens = ideal_gens_by_label(A, label)
    if first_only:
        gens = IdealGens(label, gens.gens[:1])
    reference = [_pair_span_slices(A, gens, D) for D in range(4)]
    for D in range(4):
        for d in range(D + 1):
            # window D - 1 has no degree-D block, so d = D >= 1 is unstable
            stable = D == 0 or (d < D and reference[D][d] == reference[D - 1][d])
            assert truncated_ideal_span(A, gens, d, D) == (reference[D][d], stable), (d, D)


@pytest.mark.parametrize(
    "name, label",
    [("kxk", "J"), ("ut2", "J+I"), ("ut2", "OH"), ("trunc2", "J"), ("kxk_skew", "J"),
     # deeper levels skip j products; m2 has a nonzero bracket
     ("m2", "J"), ("trunc2_skew", "J")],
)
def test_leveled_closure_is_closed_under_i_and_k(name, label, request):
    # only level 0 is closed under i(a), k(a); the generator relations must
    # carry that closure to every later level
    A = request.getfixturevalue(name)
    closure = _LeveledClosure(A, ideal_gens_by_label(A, label))
    ik = [embed(A, kind, A.basis(a)) for kind in "ik" for a in range(A.n)]
    for D in range(1, 4):
        closure.extend_to(A, D)
        monomial = {c: m for m, c in closure.coord.items()}
        reduced = reduced_rows(closure.ech.pivot_row)
        for row in closure.ech.pivot_row.values():
            v = {monomial[c]: x for c, x in row.items()}
            for x in ik:
                for image in (q_mult(A, x, v), q_mult(A, v, x)):
                    data = qelem_to_vector(image, closure.coord, 0).data
                    assert not remainder(data, reduced), (D, x)


# -- reference: the closure that forms every j product --------------------------

def _unrestricted_closure_levels(A, gens, D):
    """Reduced rows and pivot levels after each level of the closure that
    multiplies everything a level gained by every j(a) on both sides."""
    coord = {m: -1 - t for t, m in enumerate(env_monomials(A, D))}
    ech, pivot_level, out = Echelon(0), {}, []

    def add(x):
        return ech.add_data(qelem_to_vector(x, coord, 0).data)

    def both_sides(factors):
        return [op for x in factors for op in (
            lambda y, x=x: _primitive(q_mult_scaled(A, x, y)[0]),
            lambda y, x=x: _primitive(q_mult_scaled(A, y, x)[0]))]

    i, k, j = (GENERATOR_TERM[kind] for kind in "ikj")
    ik = [a for a in range(A.n) if A.basis(a) != A.unit]
    ik_ops = both_sides([{i(a): 1} for a in ik] + [{k(a): 1} for a in ik])
    j_ops = both_sides([{j(a): 1} for a in range(A.n)])
    frontier = close_under(add, [_primitive(_integral(g)[0]) for g in gens.gens], ik_ops)
    for level in range(D):
        if level:
            images = (op(y) for y in frontier for op in j_ops)
            frontier = [v for v in images if add(v) is not None]
        for p in ech.pivot_row:
            pivot_level.setdefault(p, level)
        out.append((reduced_rows(ech.pivot_row), dict(pivot_level)))
    return out


def _assert_unrestricted_rows(A, gens, top):
    # skipping the j products the bracket relation already spans leaves the
    # span and the level of each pivot as the unrestricted closure has them;
    # the two insert different vectors, so their triangular rows differ, but
    # the reduced form of a span is unique
    reference = _unrestricted_closure_levels(A, gens, top)
    closure = _LeveledClosure(A, gens)
    for D in range(1, top + 1):
        closure.extend_to(A, D)
        got = (reduced_rows(closure.ech.pivot_row), closure.pivot_level)
        assert got == reference[D - 1], D


@pytest.mark.parametrize("name", ["kxk", "m2", "trunc2", "ut2", "kxk_skew", "trunc2_skew"])
@pytest.mark.parametrize("label", ["J", "OH", "J+I"])
def test_ordered_j_rule_keeps_every_row(name, label, request):
    A = request.getfixturevalue(name)
    _assert_unrestricted_rows(A, ideal_gens_by_label(A, label), 4 if name == "m2" else 5)


@pytest.mark.parametrize("label, t", [("J", 0), ("J", 5), ("I", 1)])
def test_ordered_j_rule_keeps_every_row_of_one_generator(m2, label, t):
    # the full J and I are closed under brackets with the j(a), which hides
    # rules that skip more, such as j(c) * j(c) w or right products of
    # left-made vectors; these single generators are not
    gens = ideal_gens_by_label(m2, label)
    _assert_unrestricted_rows(m2, IdealGens(label, gens.gens[t:t + 1]), 3)


@pytest.mark.parametrize(
    "name, label, t",
    [("trunc2", "J", 0), ("trunc2", "J", 4), ("trunc2", "OH", 1), ("trunc2", "I", 2),
     ("trunc2_skew", "J", 1), ("trunc2_skew", "OH", 0), ("kxk", "J", 1), ("kxk", "I", 0),
     ("m2_rebased", "J", 0), ("m2_rebased", "J", 5), ("m2_rebased", "I", 1),
     ("m2_rebased", "OH", 2), ("ut2_zero", "J", 1), ("ut2_zero", "OH", 1)],
)
def test_central_rule_keeps_every_row_of_one_generator(name, label, t, request):
    # every generator of trunc2, trunc2_skew and kxk is central, of ut2_zero
    # every j(a) and of m2_rebased only j(f0): the closure forms one side of
    # each central product, and single generators are not closed under
    # ad j(c)
    A = request.getfixturevalue(name)
    gens = ideal_gens_by_label(A, label)
    _assert_unrestricted_rows(A, IdealGens(label, gens.gens[t:t + 1]), 4)


# -- reference: the slice rows reduced by Fraction Gauss-Jordan ---------------
#
# The closure stores triangular rows, and a quotient reduces its low rows
# only when reduce() or ideal_slice first reads them.  The reduced form of
# a span is unique, so a Fraction Gauss-Jordan that keeps every row reduced
# as it goes must give the same remainders and the same slice.

def _ref_subtract(out, lam, row):
    for c, v in row.items():
        s = out.get(c, 0) - lam * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)


def _ref_reduced(rows, pivot_of):
    """{pivot: row} of the rows' span in ascending pivot order, with each
    pivot taken by pivot_of, each pivot entry 1, and each row zero at every
    other row's pivot."""
    out = {}
    for row in rows:
        red = {c: Fraction(x) for c, x in row.items()}
        for p, other in out.items():
            lam = red.get(p)
            if lam:
                _ref_subtract(red, lam, other)
        if not red:
            continue
        p = pivot_of(red)
        red = {c: x / red[p] for c, x in red.items()}
        for other in out.values():
            lam = other.get(p)
            if lam:
                _ref_subtract(other, lam, red)
        out[p] = red
    return dict(sorted(out.items()))


@pytest.mark.parametrize("name", ["trunc2_skew", "m2"])
@pytest.mark.parametrize("label", ["J", "OH"])
def test_quotient_reads_match_a_reduced_reference(name, label, request):
    A = request.getfixturevalue(name)
    gens = ideal_gens_by_label(A, label)
    for D in range(1, 5):
        closure = _LeveledClosure(A, gens)
        closure.extend_to(A, D)
        for d in range(D + 1):
            q = TruncatedQuotient(A, gens, d, D)
            n_low = len(q.monomials)
            # the closure's low rows at monomial positions, pivots at the top
            rows = [{-1 - c: x for c, x in row.items()}
                    for p, row in closure.ech.pivot_row.items() if p >= -n_low]
            top = _ref_reduced(rows, max)
            assert set(top) == set(range(n_low)) - {q.index[m] for m in q.coset_basis}
            slice_ = q.ideal_slice
            got = [(p, row.data) for p, row in zip(slice_.pivots, slice_.rows)]
            assert got == list(_ref_reduced(rows, min).items()), (D, d)
            position = {q.index[m]: k for k, m in enumerate(q.coset_basis)}
            for k, x in enumerate(_random_elements(q.monomials, 8, f"{name} {label} {D} {d}")):
                rest = {q.index[m]: c for m, c in x.items()}
                for p, row in top.items():
                    lam = rest.get(p)
                    if lam:
                        _ref_subtract(rest, lam, row)
                assert q.reduce(x).data == {position[t]: c for t, c in rest.items()}, (D, d, k)


@pytest.mark.parametrize("name", ["trunc2_skew", "m2"])
def test_closure_never_rewrites_a_stored_row(name, request):
    # an insert, within a level or at a wider window, only adds a row; a
    # quotient keeps the rows it was built from, not copies, and reads them
    # reduced
    A = request.getfixturevalue(name)
    gens = ideal_j_gens(A)
    closure = _LeveledClosure(A, gens)
    inserted = []
    add_data = closure.ech.add_data

    def recording(data):
        row = add_data(data)
        if row is not None:
            inserted.append((row, dict(row)))
        return row

    closure.ech.add_data = recording
    for D in range(1, 5):
        closure.extend_to(A, D)
        stored = list(closure.ech.pivot_row.values())
        assert len(inserted) == len(closure.ech.rows) == len(stored)
        assert all(a is b is c for (a, _), b, c in zip(inserted, closure.ech.rows, stored))
        for k, (row, snapshot) in enumerate(inserted):
            assert row == snapshot, (D, k)
    q = TruncatedQuotient(A, gens, 2, 3)
    rows = dict(q._low_rows)
    snapshot = {p: dict(row) for p, row in rows.items()}
    q.reduce(q_identity(A))
    _leveled_closure(A, gens, 4)  # widens the memoized closure
    assert q.ideal_slice.rank == len(rows)
    assert q._low_rows == snapshot
    assert all(q._low_rows[p] is row for p, row in rows.items())


@pytest.mark.parametrize("name", ["kxk", "m2", "trunc2", "ut2", "kxk_skew", "trunc2_skew",
                                  "m2_rebased", "ut2_zero", "field_k"])
def test_central_flags_match_the_smash_product(name, request):
    A = request.getfixturevalue(name)
    closure = _LeveledClosure(A, IdealGens("none", ()))
    gens = {kind: [embed(A, kind, A.basis(a)) for a in range(A.n)] for kind in "ikj"}
    every = [x for xs in gens.values() for x in xs]
    flags = {"i": closure.ik_central, "k": closure.ik_central, "j": closure.j_central}
    for kind, xs in gens.items():
        for a, g in enumerate(xs):
            central = all(q_mult(A, g, x) == q_mult(A, x, g) for x in every)
            assert flags[kind][a] == central, (kind, a)


def test_rebased_m2_matches_m2(m2, m2_rebased):
    for label in ("J", "OH"):
        assert (dimension_table(m2_rebased, ideal_gens_by_label(m2_rebased, label), 1)
                == dimension_table(m2, ideal_gens_by_label(m2, label), 1)), label


# Every fixture with its highest degree for the basis-invariance tests.  The
# windows of m2std cost the most, so it runs to degree 1 only, and its random
# bases take entries in {0, 1}: with entries in [-2, 2] its rows grow so dense
# that J to degree 1 alone takes 5-7 s.
INVARIANCE_DEGREE = {"kxk": 3, "trunc2": 3, "ut2": 3, "trunc2_skew": 3, "trunc2_skew7": 3,
                     "m2": 1, "m2_rebased": 1}
SMALL_ENTRIES = {"m2", "m2_rebased"}
IDEALS = ("J", "I", "OH", "J+I")


def _table(A, label: str, d: int) -> list[dict]:
    return dimension_table(A, ideal_gens_by_label(A, label), d)


@pytest.mark.parametrize("label", IDEALS)
@pytest.mark.parametrize("name", INVARIANCE_DEGREE)
def test_dimension_table_is_the_same_in_the_unit_first_basis(name, label, request):
    A = request.getfixturevalue(name)
    d = INVARIANCE_DEGREE[name]
    assert _table(unit_first(A), label, d) == _table(A, label, d)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
def test_dimension_table_is_invariant_under_a_change_of_basis(request, data):
    # dimensions and stable flags depend on no basis (see ncpa.unit_first):
    # a random integer basis, and its unit-first copy, answer as A does
    name = data.draw(st.sampled_from(sorted(INVARIANCE_DEGREE)), label="fixture")
    label = data.draw(st.sampled_from(IDEALS), label="ideal")
    d = data.draw(st.integers(0, INVARIANCE_DEGREE[name]), label="degree")
    A = request.getfixturevalue(name)
    entries = st.integers(0, 1) if name in SMALL_ENTRIES else st.integers(-2, 2)
    P = data.draw(st.lists(st.lists(entries, min_size=A.n, max_size=A.n),
                           min_size=A.n, max_size=A.n), label="basis")
    try:
        B = rebase(A, P)
    except ZeroDivisionError:
        assume(False)
    expected = _table(A, label, d)
    assert _table(B, label, d) == expected
    assert _table(unit_first(B), label, d) == expected


def test_closure_counts_j_products(trunc2, m2):
    # trunc2: every j(a) is central, so j(a) * v is never formed; m2std has
    # no central basis vector, so only the ordered rule skips
    for A, formed, skipped in (
        (trunc2, [0, 63, 90, 136], [0, 63, 192, 350]),
        (m2, [0, 512, 993, 1483], [0, 0, 287, 1077]),
    ):
        closure = _LeveledClosure(A, ideal_j_gens(A))
        sizes = []
        for D in range(1, 5):
            closure.extend_to(A, D)
            sizes.append(len(closure.frontier))
        assert closure.j_formed == formed
        assert closure.j_skipped == skipped
        for level in range(1, 4):
            assert closure.j_formed[level] + closure.j_skipped[level] == 2 * A.n * sizes[level - 1]


@pytest.mark.parametrize(
    "name, degree, saturate, dims, stable",
    [
        ("kxk", 2, 2, [4, 6, 8], [True, True, False]),
        ("kxk", 1, 1, [4, 6], [True, False]),
        ("kxk", 0, 0, [4], [True]),  # window 0 is the empty slice
        ("trunc2", 2, 2, [9, 15, 22], [True, True, False]),
    ],
)
def test_explicit_saturation_tables(name, degree, saturate, dims, stable, request):
    A = request.getfixturevalue(name)
    table = dimension_table(A, ideal_j_gens(A), degree, saturate)
    assert [row["dimension"] for row in table] == dims
    assert [row["stable"] for row in table] == stable
    assert all(row["saturation"] == saturate for row in table)


def test_window_without_degree_block_is_unstable(kxk):
    none = IdealGens("none", ())
    # window 0 holds no products; window 1 has no degree-2 block
    assert truncated_ideal_span(kxk, none, 0, 0) == (Subspace(4), True)
    assert truncated_ideal_span(kxk, none, 2, 2) == (Subspace(24), False)


def test_dimension_table_builds_no_subspace(kxk, trunc2, m2, monkeypatch):
    # dimensions and stable flags come from the closure's pivots; only a
    # read of reduce() or ideal_slice reduces the rows or eliminates them
    # again
    def forbidden(*args):
        raise AssertionError("dimension_table eliminated an ideal slice")

    monkeypatch.setattr("poissonenv.truncation.join_and_reduce", forbidden)
    monkeypatch.setattr("poissonenv.truncation.reduced_rows", forbidden)
    for A, max_degree, dims in (
        (kxk, 3, [4, 6, 8, 10]),
        (trunc2, 2, [9, 15, 22]),
        (m2, 1, [16, 16]),
    ):
        table = dimension_table(A, ideal_j_gens(A), max_degree)
        assert [row["dimension"] for row in table] == dims


def _slice_rank_row(A, gens, d, D):
    """A dimension_table row as the co-rank of the eliminated slice."""
    slice_, stable = truncated_ideal_span(A, gens, d, D)
    n_low = len(env_monomials(A, d))
    return {"degree": d, "saturation": D, "dimension": n_low - slice_.rank, "stable": stable}


@pytest.mark.parametrize("name", ["kxk", "trunc2", "m2"])
@pytest.mark.parametrize("label", ["J", "J+I", "OH"])
@pytest.mark.parametrize("descending", [False, True])
def test_dimension_table_matches_slice_rank(name, label, descending, request):
    A = request.getfixturevalue(name)
    gens = ideal_gens_by_label(A, label)
    top = 1 if name == "m2" else 2
    calls = [(d, D) for d in range(top + 1) for D in (d, d + 1, d + 2)]
    if descending:  # each narrower window starts the closure over
        calls.sort(key=lambda call: -call[1])
    for d, D in calls:
        table = dimension_table(A, gens, d, D)
        assert table == [_slice_rank_row(A, gens, e, D) for e in range(d + 1)], (d, D)
        q = TruncatedQuotient(A, gens, d, D)
        assert q.ideal_slice == truncated_ideal_span(A, gens, d, D)[0], (d, D)


def test_slice_independent_of_call_order():
    # the leveled closure is memoized per algebra; a narrower window after
    # a wider one starts a fresh pass and must give the same answer
    from poissonenv.fileformat import load_bundled_algebra
    from poissonenv.ncpa import validate_ncpa

    def fresh():
        A = validate_ncpa(load_bundled_algebra("kxk.alg"))
        return A, ideal_j_gens(A)

    A, gens = fresh()
    calls = [(2, 4), (1, 3), (1, 2), (2, 3), (3, 4), (0, 1)]
    got = [truncated_ideal_span(A, gens, d, D) for d, D in calls]
    for (d, D), result in zip(calls, got):
        B, gens_b = fresh()
        assert truncated_ideal_span(B, gens_b, d, D) == result, (d, D)


# -- independent oracle for the zero-bracket 2-truncated algebra ----------------
#
# With zero bracket the enveloping algebra is the commutative ring
#   A (x) A (x) K[g0, g1, g2]   (A = K<x1,x2>/rad^2, g_i the Lie embeddings),
# and the ideal is generated by the homogeneous degree-one elements
#   g0,  b_j g0,  a_i g0,  a_i g_j + b_j g_i
# so its degree-<=d slice is spanned exactly by monomial multiples of
# those generators (no truncation uncertainty).  This model never touches
# the smash-product engine, but it ranks its rows with
# poissonenv.linalg.Echelon, the elimination kernel the engine uses too.
# The check that shares no code with the package is the hand count in
# test_acceptance.py::test_criterion_07_trunc2_dimension_sequence.

def _trunc2_oracle_dims(max_degree):
    u_part = ["1", "a1", "a2", "b1", "b2", "a1b1", "a1b2", "a2b1", "a2b2"]
    u_index = {u: t for t, u in enumerate(u_part)}

    def gammas(total):
        out = []
        for e0 in range(total + 1):
            for e1 in range(total - e0 + 1):
                out.append((e0, e1, total - e0 - e1))
        return out

    exps = [e for m in range(max_degree + 1) for e in gammas(m)]
    coords = {(u, e): t for t, (u, e) in enumerate(
        (u, e) for e in exps for u in u_part
    )}
    n_coords = len(coords)

    def alpha_times(i, u):
        # multiply a monomial of the A (x) A part by a_i on the left
        if u == "1":
            return f"a{i}"
        if u in ("b1", "b2"):
            return f"a{i}{u}"
        return None  # radical squared vanishes

    def beta_times(j, u):
        if u == "1":
            return f"b{j}"
        if u in ("a1", "a2"):
            return f"{u}b{j}"
        return None

    def bump(e, k):
        out = list(e)
        out[k] += 1
        return tuple(out)

    rows = []

    def emit(entries):
        data = {}
        for key, c in entries:
            if key is not None and key in coords:
                data[coords[key]] = data.get(coords[key], Fraction(0)) + c
        data = {k: v for k, v in data.items() if v}
        if data:
            v = SparseVector(n_coords)
            v.data = data
            rows.append(v)

    for e in [e for e in exps if sum(e) <= max_degree - 1]:
        for u in u_part:
            # u * gamma^e * g0
            emit([((u, bump(e, 0)), ONE)])
            for i in (1, 2):
                for j in (1, 2):
                    # u * gamma^e * (a_i g_j + b_j g_i)
                    emit([
                        ((alpha_times(i, u), bump(e, j)), ONE),
                        ((beta_times(j, u), bump(e, i)), ONE),
                    ])
            # a_i g0 and b_j g0 multiples are covered by the g0 row above
    dims = []
    for d in range(max_degree + 1):
        total = 9 * len([e for e in exps if sum(e) <= d])
        # count pivots inside the degree-<=d block: coordinates are grouped
        # by exponent blocks in increasing total degree
        low_keys = {
            coords[(u, e)] for e in exps if sum(e) <= d for u in u_part
        }
        # the slice of the full ideal at degree <= d: re-echelonize restricted rows
        sub = Echelon(n_coords)
        for r in rows:
            if set(r.data) <= low_keys:
                sub.add_data(r.data)
        dims.append(total - sub.rank)
    return dims


def test_trunc2_independent_oracle():
    dims = _trunc2_oracle_dims(3)
    assert dims[:3] == [9, 15, 22]


def test_trunc2_engine_matches_oracle(trunc2):
    oracle = _trunc2_oracle_dims(3)
    table = dimension_table(trunc2, ideal_j_gens(trunc2), 3)
    assert [row["dimension"] for row in table] == oracle
    assert all(row["stable"] for row in table)


def test_trunc2_basis_collapse_is_in_the_ideal(trunc2):
    # gamma_2 * (a1 g1 + b1 g1) - gamma_1 * (a2 g1 + b1 g2)
    #   = a1 g1 g2 - a2 g1^2, a difference of two generator multiples
    h11 = {(1, 0, (1,)): ONE, (0, 1, (1,)): ONE}
    h21 = {(2, 0, (1,)): ONE, (0, 1, (2,)): ONE}
    g1 = {(0, 0, (1,)): ONE}
    g2 = {(0, 0, (2,)): ONE}
    r1 = q_mult(trunc2, g2, h11)
    r2 = q_mult(trunc2, g1, h21)
    collapse = sub_terms(r1, r2)
    assert collapse == {(1, 0, (1, 2)): ONE, (2, 0, (1, 1)): Fraction(-1)}
    q = TruncatedQuotient(trunc2, ideal_j_gens(trunc2), 2)
    assert q.reduce(collapse).is_zero()


def test_slice_annihilates_poisson_modules(trunc2):
    # soundness certificate: every slice element of the ideal acts as zero
    # on every Poisson module, here the twisted regular modules
    from poissonenv.ncpa import regular_poisson_structures
    from poissonenv.poisson_modules import (
        module_to_action,
        poisson_violations,
        regular_module,
    )

    structures = regular_poisson_structures(trunc2)
    assert structures.space.rank == 4
    slice_, _ = truncated_ideal_span(trunc2, ideal_j_gens(trunc2), 2, 4)
    monos = env_monomials(trunc2, 2)
    twists = list(structures.space.rows)
    twists.append(twists[0] + twists[1])
    for psi in twists:
        M = regular_module(trunc2, structures.star_bracket_table(psi))
        assert poisson_violations(M) == []
        action = module_to_action(M)
        for row in slice_.rows:
            rows, _ = action.of_element({monos[t]: c for t, c in row.data.items()})
            assert not any(rows)
