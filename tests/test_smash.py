import copy
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from poissonenv.fileformat import load_bundled_algebra
from poissonenv.limits import DegreeCapExceeded
from poissonenv.linalg import _integral, add_terms, sub_terms
from poissonenv.ncpa import validate_ncpa
from poissonenv.pbw import straighten, u_monomials
from poissonenv.poisson_modules import roundtrip_report, tensor_square_module
from poissonenv.smash import (
    embed,
    format_q_element,
    generator_relation_failures,
    q_identity,
    q_mono_mult,
    q_mult,
    q_mult_scaled,
)
from poissonenv.truncation import ideal_j_gens, truncated_ideal_span

from conftest import mono_product, reference_embed, reference_identity, vec

ONE = Fraction(1)


def q_scale(x, c):
    return {m: c * v for m, v in x.items()}


def test_identity_element(kxk, m2):
    assert q_identity(kxk) == {(0, 0, ()): ONE, (0, 1, ()): ONE,
                               (1, 0, ()): ONE, (1, 1, ()): ONE}
    for A in (kxk, m2):
        one = q_identity(A)
        for mono in [(0, 0, ()), (1, 0, (0,)), (1, 1, (0, 1))]:
            x = {mono: ONE}
            assert q_mult(A, one, x) == x
            assert q_mult(A, x, one) == x


def test_kxk_zero_bracket_word_merge(kxk):
    # (e1 (x) e1 # e2) (e1 (x) e1 # e1) = e1 (x) e1 # e1e2
    x = {(0, 0, (1,)): ONE}
    y = {(0, 0, (0,)): ONE}
    assert q_mult(kxk, x, y) == {(0, 0, (0, 1)): ONE}


def test_m2_cross_term_example(m2):
    # j(E12) i(E21) = i({E12, E21}) + i(E21) j(E12)
    lhs = q_mult(m2, embed(m2, "j", m2.basis(1)), embed(m2, "i", m2.basis(2)))
    rhs = add_terms(
        embed(m2, "i", m2.bracket(m2.basis(1), m2.basis(2))),
        q_mult(m2, embed(m2, "i", m2.basis(2)), embed(m2, "j", m2.basis(1))),
    )
    assert lhs == rhs
    # and explicitly: (E11 - E22) (x) 1 # 1  +  E21 (x) 1 # E12
    expected = add_terms(
        embed(m2, "i", vec(4, {0: 1, 3: -1})),
        {(2, 0, (1,)): ONE, (2, 3, (1,)): ONE},
    )
    assert lhs == expected


def test_embed_unit_gives_identity(kxk, m2, trunc2):
    for A in (kxk, m2, trunc2):
        assert embed(A, "i", A.unit) == q_identity(A)
        assert embed(A, "k", A.unit) == q_identity(A)


@pytest.mark.parametrize("name", ["kxk", "kxk_skew", "m2", "ut2", "trunc2"])
def test_embeddings_match_reference_expansion(name, request):
    # items lists, so term order is checked as well as values
    A = request.getfixturevalue(name)
    assert list(q_identity(A).items()) == list(reference_identity(A).items())
    for kind in "ikj":
        for a in [A.basis(p) for p in range(A.n)] + [A.unit]:
            assert list(embed(A, kind, a).items()) == list(reference_embed(A, kind, a).items())


def test_embed_kinds(kxk):
    with pytest.raises(ValueError):
        embed(kxk, "z", kxk.basis(0))


def test_left_embedding_is_algebra_map(m2):
    for i in range(4):
        for j in range(4):
            lhs = q_mult(m2, embed(m2, "i", m2.basis(i)), embed(m2, "i", m2.basis(j)))
            assert lhs == embed(m2, "i", m2.mul_basis(i, j))


def test_right_embedding_is_opposite_algebra_map(m2):
    for i in range(4):
        for j in range(4):
            lhs = q_mult(m2, embed(m2, "k", m2.basis(i)), embed(m2, "k", m2.basis(j)))
            assert lhs == embed(m2, "k", m2.mul_basis(j, i))


def test_lie_embedding_bracket_relation(m2):
    for i in range(4):
        for j in range(4):
            ja = embed(m2, "j", m2.basis(i))
            jb = embed(m2, "j", m2.basis(j))
            lhs = sub_terms(q_mult(m2, ja, jb), q_mult(m2, jb, ja))
            assert lhs == embed(m2, "j", m2.bracket_basis(i, j))


def test_augmentation_left_inverse(kxk, m2, trunc2):
    # collapsing a (x) b # word to (counit of word) . a b inverts i and k
    def augmentation(A, x):
        out = A.zero()
        for (p, q, word), c in x.items():
            if not word:
                out = out + A.mul_basis(p, q).scale(c)
        return out

    for A in (kxk, m2, trunc2):
        assert augmentation(A, q_identity(A)) == A.unit
        for i in range(A.n):
            for kind in "ik":
                assert augmentation(A, embed(A, kind, A.basis(i))) == A.basis(i)
            assert augmentation(A, embed(A, "j", A.basis(i))).is_zero()


def test_generator_relations_all_bundled(kxk, m2, trunc2, ut2):
    for A in (kxk, m2, trunc2, ut2):
        assert generator_relation_failures(A) == []


def test_associativity_exhaustive_kxk(kxk):
    monos = [(i, j, w) for w in u_monomials(2, 3) for i in range(2) for j in range(2)]
    checked = 0
    for m1, m2_, m3 in itertools.product(monos, repeat=3):
        if len(m1[2]) + len(m2_[2]) + len(m3[2]) > 3:
            continue
        checked += 1
        lhs = q_mult(kxk, mono_product(kxk, m1, m2_), {m3: ONE})
        rhs = q_mult(kxk, {m1: ONE}, mono_product(kxk, m2_, m3))
        assert lhs == rhs, (m1, m2_, m3)
    assert checked > 5000


def test_associativity_random_m2(m2):
    rng = random.Random(20250810)
    monos = [(i, j, w) for w in u_monomials(4, 2) for i in range(4) for j in range(4)]
    for _ in range(200):
        a, b, c = (rng.choice(monos) for _ in range(3))
        lhs = q_mult(m2, mono_product(m2, a, b), {c: ONE})
        rhs = q_mult(m2, {a: ONE}, mono_product(m2, b, c))
        assert lhs == rhs, (a, b, c)


@pytest.mark.parametrize("name", ["kxk_skew", "m2", "ut2", "trunc2_skew"])
def test_monomials_are_products_of_the_generators(name, request):
    # the two identities the generator check's proof uses
    # (EnvAction.generators_multiply): (p, q, ()) = i(e_p) k(e_q), and
    # (p, q, w) = (p, q, w') j(e_a) for a PBW word w = w' a, with the
    # generators expanded over the unit, which is not a basis vector in the
    # skew bases
    A = request.getfixturevalue(name)
    for p in range(A.n):
        for q in range(A.n):
            ip, kq = embed(A, "i", A.basis(p)), embed(A, "k", A.basis(q))
            assert q_mult(A, ip, kq) == {(p, q, ()): ONE}
            for w in u_monomials(A.n, 3)[1:]:
                ja = embed(A, "j", A.basis(w[-1]))
                assert q_mult(A, {(p, q, w[:-1]): ONE}, ja) == {(p, q, w): ONE}, (p, q, w)


def test_bilinearity(m2):
    x = {(0, 1, (1,)): Fraction(2), (2, 3, ()): Fraction(-1, 3)}
    y = {(1, 0, (0, 2)): Fraction(5)}
    z = {(3, 3, ()): ONE}
    lhs = q_mult(m2, x, add_terms(y, z))
    rhs = add_terms(q_mult(m2, x, y), q_mult(m2, x, z))
    assert lhs == rhs
    assert q_mult(m2, q_scale(x, 7), y) == q_scale(q_mult(m2, x, y), 7)


def componentwise_product(A, m1, m2_):
    """Independent oracle for the zero-bracket case: multiply the three
    slots separately (opposite product in the middle, sorted word glue)."""
    (i1, j1, al), (i2, j2, be) = m1, m2_
    out = {}
    left = A.mul_basis(i1, i2)
    right = A.mul_basis(j2, j1)
    word = tuple(sorted(al + be))
    for p, cp in left.data.items():
        for q, dq in right.data.items():
            out[(p, q, word)] = cp * dq
    return out


def test_zero_bracket_componentwise_oracle(trunc2):
    rng = random.Random(99)
    monos = [
        (i, j, w) for w in u_monomials(3, 3) for i in range(3) for j in range(3)
    ]
    for _ in range(200):
        m1, m2_ = rng.choice(monos), rng.choice(monos)
        assert mono_product(trunc2, m1, m2_) == componentwise_product(trunc2, m1, m2_)


def test_filtration_degree_bound(m2):
    rng = random.Random(3)
    monos = [(i, j, w) for w in u_monomials(4, 2) for i in range(4) for j in range(4)]
    for _ in range(100):
        m1, m2_ = rng.choice(monos), rng.choice(monos)
        prod = mono_product(m2, m1, m2_)
        if prod:
            assert max(len(m[2]) for m in prod) <= len(m1[2]) + len(m2_[2])


def test_degree_cap_enforced(kxk):
    big = (0, 0, (0,) * 5)
    with pytest.raises(DegreeCapExceeded):
        q_mono_mult(kxk, big, big)


def test_format_roundtrip_with_cli_parser(m2):
    from poissonenv.cli import parse_q_element

    x = add_terms(embed(m2, "j", m2.basis(1)),
                  q_scale(embed(m2, "i", m2.basis(2)), Fraction(-3, 2)))
    text = format_q_element(m2, x)
    assert parse_q_element(m2, text) == x


def _direct_q_mono_mult(A, m1, m2):
    # The tripartition formula written out afresh: each letter of the left
    # word brackets into the left slot (block 0), into the opposite slot
    # (block 1), or passes to the word slot (block 2); nested brackets and
    # products use A.bracket and A.mul, and a None slot holds A.unit.  The
    # term order is the product's: the left block is chosen first (a base-2
    # counter, position 0 most significant, in the block first), then the
    # opposite block among the other letters, and a sum that cancels is
    # dropped at once.
    i1, j1, alpha = m1
    i2, j2, beta = m2

    def ad(word, v):
        for letter in reversed(word):
            v = A.bracket(A.basis(letter), v)
        return v

    def slot(i):
        return A.unit if i is None else A.basis(i)

    def order(blocks):
        return [b != 0 for b in blocks], [b == 2 for b in blocks if b]

    out = {}
    for blocks in sorted(itertools.product(range(3), repeat=len(alpha)), key=order):
        parts = [tuple(a for a, b in zip(alpha, blocks) if b == k) for k in range(3)]
        left = A.mul(slot(i1), ad(parts[0], slot(i2)))
        right = A.mul(ad(parts[1], slot(j2)), slot(j1))
        for p, cp in left.data.items():
            for q, dq in right.data.items():
                for gamma, eg in straighten(A, parts[2] + beta).items():
                    key = (p, q, gamma)
                    v = out.get(key, 0) + cp * dq * eg
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
    return out


@pytest.mark.parametrize("name", ["kxk_skew", "m2"])
def test_q_mono_mult_matches_direct_formula(name, request):
    # every pair of basis monomials whose product has degree <= 2
    A = request.getfixturevalue(name)
    monos = [(i, j, w) for w in u_monomials(A.n, 2) for i in range(A.n) for j in range(A.n)]
    for m1 in monos:
        for m2 in monos:
            if len(m1[2]) + len(m2[2]) <= 2:
                assert mono_product(A, m1, m2) == _direct_q_mono_mult(A, m1, m2), (m1, m2)
                assert q_mono_mult(A, m1, m2) is A.caches["q_mono"][(m1, m2)]


@st.composite
def _monomial_pairs(draw, n, degree=4):
    """Two monomials whose product has degree <= degree.  A slot may hold
    None (the unit) unless the other factor's slot does too."""
    def word(k):
        return st.lists(st.integers(0, n - 1), max_size=k).map(lambda w: tuple(sorted(w)))

    index = st.integers(0, n - 1)
    slot = st.one_of(st.none(), index)
    alpha = draw(word(degree))
    beta = draw(word(degree - len(alpha)))
    i1, j1 = draw(slot), draw(slot)
    i2 = draw(index if i1 is None else slot)
    j2 = draw(index if j1 is None else slot)
    return (i1, j1, alpha), (i2, j2, beta)


@pytest.mark.parametrize("name", ["kxk_skew", "trunc2_skew", "m2", "ut2"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_q_mono_mult_matches_direct_formula_to_degree_4(name, request, data):
    # equal terms in equal order, None slots included
    A = request.getfixturevalue(name)
    m1, m2_ = data.draw(_monomial_pairs(A.n))
    got = mono_product(A, m1, m2_)
    assert list(got.items()) == list(_direct_q_mono_mult(A, m1, m2_).items()), (m1, m2_)
    assert all(type(c) is Fraction for c in got.values())


def test_zero_bracket_plans_keep_one_part():
    # every Lie word of positive degree acts as zero, so only the part that
    # passes all of alpha to the word slot is left
    A = validate_ncpa(load_bundled_algebra("trunc2-n2.alg"))
    monos = [(i, j, w) for w in u_monomials(A.n, 2) for i in range(A.n) for j in range(A.n)]
    for m1 in monos:
        for m2_ in monos:
            q_mono_mult(A, m1, m2_)
    plans = A.caches["q_plan"]
    assert len(plans) == len(u_monomials(A.n, 2)) ** 2
    for (alpha, beta), plan in plans.items():
        tail = _integral(straighten(A, alpha + beta))
        assert plan == (((), (((), tail),)),), (alpha, beta)


def test_plans_keep_parts_that_act():
    # no basis element of M_2 is central, so a letter bracketing into either
    # slot survives, and the plan lists all three tripartitions of (a,)
    A = validate_ncpa(load_bundled_algebra("m2std.alg"))

    def tail(word):
        return _integral(straighten(A, word))

    for a in range(A.n):
        q_mono_mult(A, (0, 1, (a,)), (2, 3, ()))
        assert A.caches["q_plan"][((a,), ())] == (
            ((a,), (((), tail(())),)),
            ((), (((a,), tail(())), ((), tail((a,))))),
        )


def _plan_terms(A, alpha, beta):
    # The plan written out afresh, flattened to (w1, w2, rest) in the
    # product's term order (see _direct_q_mono_mult), keeping the terms
    # whose two Lie words each act on some basis vector.
    def acts(word):
        for b in range(A.n):
            v = A.basis(b)
            for letter in reversed(word):
                v = A.bracket(A.basis(letter), v)
            if v.data:
                return True
        return False

    def order(blocks):
        return [b != 0 for b in blocks], [b == 2 for b in blocks if b]

    out = []
    for blocks in sorted(itertools.product(range(3), repeat=len(alpha)), key=order):
        w1, w2, rest = (tuple(a for a, b in zip(alpha, blocks) if b == k) for k in range(3))
        if acts(w1) and acts(w2):
            out.append((w1, w2, rest + beta))
    return out


def test_plan_and_tail_entries_are_tuples_never_mutated():
    A = validate_ncpa(load_bundled_algebra("m2std.alg"))
    x = {(1, 2, (3,)): ONE, (0, 3, (1, 2)): Fraction(-1, 2)}
    y = {(2, 1, (0,)): ONE, (3, 3, ()): Fraction(2, 3)}
    got = q_mult(A, x, y)
    plans = A.caches["q_plan"]
    assert plans
    frozen = copy.deepcopy(plans)
    for (alpha, beta), plan in plans.items():
        assert type(plan) is tuple
        terms = []
        for w1, rights in plan:
            assert type(w1) is tuple and type(rights) is tuple
            for w2, tail in rights:
                assert type(w2) is tuple and type(tail) is tuple
                terms.append((w1, w2, tail))
        # each tail is the straightened rest of its term, as integers
        assert terms == [(w1, w2, _integral(straighten(A, rest)))
                         for w1, w2, rest in _plan_terms(A, alpha, beta)], (alpha, beta)
    got.clear()
    for m1 in x:
        for m2_ in y:
            mono_product(A, m1, m2_)[m1] = Fraction(99)
    q_mult(A, y, x)
    assert {k: plans[k] for k in frozen} == frozen


def _count_cap_reads(monkeypatch) -> list:
    """Replace every binding of limits.degree_cap with a counting wrapper."""
    import importlib
    import pkgutil

    import poissonenv
    from poissonenv import limits

    original = limits.degree_cap
    reads = []

    def counted():
        reads.append(1)
        return original()

    modules = [poissonenv] + [importlib.import_module(f"poissonenv.{m.name}")
                              for m in pkgutil.iter_modules(poissonenv.__path__)]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return reads


def test_degree_cap_is_read_once_per_plan_or_straighten_miss(monkeypatch):
    A = validate_ncpa(load_bundled_algebra("trunc2-n2.alg"))
    M = tensor_square_module(A)
    reads = _count_cap_reads(monkeypatch)
    report = roundtrip_report(A, M, 2)
    assert report["module_roundtrip_equal"] and not report["associativity_failures"]
    # the products of the 9 degree-0 monomials with the 6 generators i(e_p)
    # and k(e_q); the generator check does not form the others, which can
    # only act as zero
    assert len(A.caches["q_mono"]) == 54
    # the roundtrip's own check and the ordered_partitions misses, which are
    # memoized per process, are the constant
    assert 0 < len(reads) <= len(A.caches["q_plan"]) + len(A.caches["straighten"]) + 4


@pytest.mark.parametrize("product", ["q_mono_mult", "q_mult", "q_mult_scaled"])
def test_plan_checks_the_product_degree(product, monkeypatch):
    A = validate_ncpa(load_bundled_algebra("m2std.alg"))  # no plan yet
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", "2")
    m1, m2_ = (0, 1, (1,)), (2, 3, (0, 3))
    run = {
        "q_mono_mult": lambda: q_mono_mult(A, m1, m2_),
        "q_mult": lambda: q_mult(A, {m1: ONE}, {m2_: ONE}),
        "q_mult_scaled": lambda: q_mult_scaled(A, {m1: 1}, {m2_: 1}),
    }[product]
    with pytest.raises(DegreeCapExceeded, match="product degree 3 exceeds cap 2"):
        run()
    assert not A.caches["q_plan"] and not A.caches["q_mono"]


@pytest.mark.parametrize("name", ["kxk_skew", "m2", "ut2", "trunc2"])
def test_unit_slot_generators_match_embeddings(name, request):
    # a generator with None for the unit multiplies every monomial of degree
    # <= 2, on either side, as its embedding expanded over the basis does, and
    # as the direct formula does with the unit put in the None slots
    A = request.getfixturevalue(name)
    monos = [(i, j, w) for w in u_monomials(A.n, 2) for i in range(A.n) for j in range(A.n)]
    generators = {"i": lambda a: (a, None, ()), "k": lambda a: (None, a, ()),
                  "j": lambda a: (None, None, (a,))}
    for kind, gen in generators.items():
        for a in range(A.n):
            g = gen(a)
            e = embed(A, kind, A.basis(a))
            for m in monos:
                assert (q_mult(A, {g: ONE}, {m: ONE}) == q_mult(A, e, {m: ONE})
                        == _direct_q_mono_mult(A, g, m)), (g, m)
                assert (q_mult(A, {m: ONE}, {g: ONE}) == q_mult(A, {m: ONE}, e)
                        == _direct_q_mono_mult(A, m, g)), (m, g)


def test_unit_slot_shared_by_both_factors_is_rejected(m2):
    for m1, m2_ in [((0, None, ()), (1, None, (2,))),
                    ((None, 1, ()), (None, 2, ())),
                    ((None, None, (0,)), (None, None, (1,)))]:
        with pytest.raises(ValueError, match="unit"):
            q_mono_mult(m2, m1, m2_)


def _fraction_q_mult(A, x, y):
    """q_mult as a Fraction loop over the monomial products: the reference
    for the integer kernel, down to the order of the terms."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            c = c1 * c2
            nums, den = q_mono_mult(A, m1, m2)
            for mono, v in nums.items():
                s = out.get(mono, Fraction(0)) + c * Fraction(v, den)
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
    return out


@st.composite
def _elements(draw, n):
    """Up to four terms over monomials of degree <= 2, with int or with
    Fraction coefficients of denominator <= 4."""
    monos = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.lists(st.integers(0, n - 1), max_size=2).map(lambda w: tuple(sorted(w))))
    if draw(st.booleans()):
        coeffs = st.integers(-3, 3).filter(bool)
    else:
        coeffs = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return draw(st.dictionaries(monos, coeffs, max_size=4))


@pytest.mark.parametrize("name", ["kxk_skew", "trunc2_skew", "m2", "ut2"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_q_mult_matches_fraction_loop(name, request, data):
    A = request.getfixturevalue(name)
    x = data.draw(_elements(A.n))
    y = data.draw(_elements(A.n))
    got = q_mult(A, x, y)
    assert list(got.items()) == list(_fraction_q_mult(A, x, y).items())
    assert all(type(c) is Fraction for c in got.values())


def test_q_mono_mult_returns_its_memo_entry_and_q_mult_a_new_dict():
    # a fresh algebra, so that the first call is a miss
    A = validate_ncpa(load_bundled_algebra("m2std.alg"))
    memo = A.caches["q_mono"]
    m1, m2_ = (1, 2, (3,)), (2, 1, (1,))
    assert (m1, m2_) not in memo
    miss = q_mono_mult(A, m1, m2_)
    assert miss is memo[(m1, m2_)] and miss[0]
    assert q_mono_mult(A, m1, m2_) is miss  # a hit
    zero = ((0, 0, ()), (3, 3, ()))  # E11 E22 = 0 in the left slot
    assert q_mono_mult(A, *zero) == ({}, 1) and q_mono_mult(A, *zero) is memo[zero]
    frozen = copy.deepcopy(miss)
    # q_mult of one-term elements gives the product as a new dict of
    # Fractions, which may be changed without touching the memo
    product = mono_product(A, m1, m2_)
    assert product == _direct_q_mono_mult(A, m1, m2_)
    assert product is not mono_product(A, m1, m2_)
    product.clear()
    assert mono_product(A, m1, m2_) == _direct_q_mono_mult(A, m1, m2_)
    assert memo[(m1, m2_)] == frozen


@pytest.mark.parametrize("name", ["kxk_skew", "trunc2_skew", "m2"])
def test_q_mono_cache_holds_integers_in_lowest_terms(name, request):
    A = request.getfixturevalue(name)
    truncated_ideal_span(A, ideal_j_gens(A), 1, 2)
    entries = A.caches["q_mono"]
    assert entries
    for key, (nums, den) in entries.items():
        assert type(den) is int and den > 0, key
        assert all(type(v) is int and v for v in nums.values()), key
        assert gcd(den, *nums.values()) == 1, key
