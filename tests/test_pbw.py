import itertools
import random
from fractions import Fraction

import pytest

from poissonenv.limits import DegreeCapExceeded
from poissonenv.linalg import accumulate
from poissonenv.ncpa import unit_first
from poissonenv.pbw import (
    act_on_tensor,
    lie_word_act,
    module_algebra_failures,
    straighten,
    u_monomials,
    u_mult,
)

from conftest import ALGEBRAS, vec

ONE = Fraction(1)


def u_one():
    return {(): ONE}


def tensor_of(a, b):
    return {(i, j): ci * cj for i, ci in a.data.items() for j, cj in b.data.items()}


def test_sorted_word_is_normal(m2):
    assert straighten(m2, (0, 1, 3)) == {(0, 1, 3): ONE}


def test_zero_bracket_straighten_sorts(kxk, trunc2):
    assert straighten(kxk, (1, 0)) == {(0, 1): ONE}
    assert straighten(trunc2, (2, 1, 0)) == {(0, 1, 2): ONE}


def test_m2_single_swap(m2):
    # E21 E12 = E12 E21 + {E21, E12} = (E12,E21) + E22 - E11
    assert straighten(m2, (2, 1)) == {
        (1, 2): ONE,
        (3,): ONE,
        (0,): Fraction(-1),
    }


def test_straighten_idempotent(m2):
    for word, coeff in straighten(m2, (3, 2, 1)).items():
        assert straighten(m2, word) == {word: ONE}


def _rewrite(A, word, memo):
    # the leftmost-descent rewriting with no shortcut: the reference for
    # straighten, memoized in memo
    hit = memo.get(word)
    if hit is None:
        pos = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), None)
        if pos is None:
            hit = {word: ONE}
        else:
            b, a = word[pos], word[pos + 1]
            hit = dict(_rewrite(A, word[:pos] + (a, b) + word[pos + 2:], memo))
            for k, c in A.bracket(A.basis(b), A.basis(a)).data.items():
                for mono, d in _rewrite(A, word[:pos] + (k,) + word[pos + 2:], memo).items():
                    accumulate(hit, mono, c * d)
        memo[word] = hit
    return hit


@pytest.mark.parametrize("name", ALGEBRAS + ["xy_bracket"])
def test_straighten_matches_the_rewriting_to_degree_4(name, request):
    # every word of degree <= 4, on the algebra and on its unit-first copy:
    # equal terms in equal order, so the sorted rule for words with at most
    # one distinct non-central letter changes nothing
    A = request.getfixturevalue(name)
    for B in dict.fromkeys((A, unit_first(A))):
        memo = {}
        for d in range(5):
            for word in itertools.product(range(B.n), repeat=d):
                got = straighten(B, word)
                assert list(got.items()) == list(_rewrite(B, word, memo).items()), word


def test_straighten_degree_cap(kxk):
    with pytest.raises(DegreeCapExceeded):
        straighten(kxk, (0,) * 9)


def test_u_mult_checks_the_product_degree_before_straightening(kxk, monkeypatch):
    def forbidden(*args):
        raise AssertionError("straightened before checking the degree")

    monkeypatch.setattr("poissonenv.pbw.straighten", forbidden)
    x = {(0,): ONE, (0,) * 5: ONE}
    y = {(1,) * 4: ONE, (): ONE}
    with pytest.raises(DegreeCapExceeded, match="^product degree 9 exceeds cap 8$"):
        u_mult(kxk, x, y)


def test_u_mult_identity(m2):
    x = straighten(m2, (2, 1))
    assert u_mult(m2, u_one(), x) == x
    assert u_mult(m2, x, u_one()) == x


def test_u_mult_zero_bracket_commutes(kxk):
    x = {(0,): ONE}
    y = {(1,): ONE}
    assert u_mult(kxk, x, y) == u_mult(kxk, y, x) == {(0, 1): ONE}


def test_u_mult_m2_swap_example(m2):
    assert u_mult(m2, {(2,): ONE}, {(1,): ONE}) == straighten(m2, (2, 1))


def test_u_mult_associative_exhaustive_small(kxk, trunc2, m2):
    for A in (kxk, trunc2, m2):
        monos = u_monomials(A.n, 3)
        for wx, wy, wz in itertools.product(monos, repeat=3):
            if len(wx) + len(wy) + len(wz) > 3:
                continue
            x, y, z = {wx: ONE}, {wy: ONE}, {wz: ONE}
            assert u_mult(A, u_mult(A, x, y), z) == u_mult(A, x, u_mult(A, y, z))


def test_u_mult_associative_random_m2(m2):
    rng = random.Random(5)
    monos = u_monomials(4, 2)
    for _ in range(200):
        wx, wy, wz = (rng.choice(monos) for _ in range(3))
        x, y, z = {wx: ONE}, {wy: ONE}, {wz: ONE}
        assert u_mult(m2, u_mult(m2, x, y), z) == u_mult(m2, x, u_mult(m2, y, z))


def test_lie_act_identity(m2):
    x = vec(4, {0: 1, 1: 2, 2: 3, 3: 4})
    assert lie_word_act(m2, (), x) == x


def test_lie_act_single_commutator(m2):
    # {E12, E21} = E11 - E22
    assert lie_word_act(m2, (1,), m2.basis(2)) == vec(4, {0: 1, 3: -1})


def test_lie_act_nested(m2):
    # word (E12, E21) acting on E11: {E21,E11} = E21, then {E12,E21} = E11-E22
    assert lie_word_act(m2, (1, 2), m2.basis(0)) == vec(4, {0: 1, 3: -1})


def test_lie_act_is_module_action(m2):
    # the straightened product wx wy acts as the composed actions
    rng = random.Random(11)
    monos = u_monomials(4, 2)
    for _ in range(100):
        wx, wy = rng.choice(monos), rng.choice(monos)
        a = m2.basis(rng.randrange(4))
        composed = lie_word_act(m2, wx, lie_word_act(m2, wy, a))
        direct = m2.zero()
        for word, c in straighten(m2, wx + wy).items():
            direct = direct + lie_word_act(m2, word, a).scale(c)
        assert composed == direct


def test_lie_act_on_unit_is_counit(kxk, m2, trunc2):
    # the empty word fixes the unit, every other word kills it
    for A in (kxk, m2, trunc2):
        for word in u_monomials(A.n, 2):
            expected = A.zero() if word else A.unit
            assert lie_word_act(A, word, A.unit) == expected


def test_act_on_tensor_identity(m2):
    a, b = vec(4, {0: 1, 1: 2}), vec(4, {2: 3, 3: 1})
    assert act_on_tensor(m2, u_one(), a, b) == tensor_of(a, b)


def test_act_on_tensor_zero_bracket_positive_degree(kxk):
    out = act_on_tensor(kxk, {(0,): ONE}, kxk.basis(0), kxk.basis(1))
    assert out == {}


def test_act_on_tensor_degree_one_is_leibniz(m2):
    # x = single letter: {x,a} (x) b + a (x) {x,b}
    a, b = m2.basis(2), m2.basis(0)
    out = act_on_tensor(m2, {(1,): ONE}, a, b)
    expected = {}
    for key, c in tensor_of(m2.bracket(m2.basis(1), a), b).items():
        expected[key] = expected.get(key, Fraction(0)) + c
    for key, c in tensor_of(a, m2.bracket(m2.basis(1), b)).items():
        expected[key] = expected.get(key, Fraction(0)) + c
    expected = {k: v for k, v in expected.items() if v}
    assert out == expected


def test_module_algebra_degree_one_is_leibniz(kxk, m2, trunc2, ut2):
    for A in (kxk, m2, trunc2, ut2):
        assert module_algebra_failures(A, 1) == []


def test_module_algebra_zero_bracket_degree_three(trunc2):
    assert module_algebra_failures(trunc2, 3) == []


def test_module_algebra_m2_degree_two(m2):
    assert module_algebra_failures(m2, 2) == []



def _module_algebra_failures_reference(A, degree_bound):
    """The module-algebra sweep over every PBW monomial up to the bound and
    every basis pair: the law spelled out for A, for A^op, and for
    A (x) A^op, where tensor_mult multiplies the acted tensors.  Records
    come per word, A then A^op per pair, then every A^e instance."""
    from poissonenv.linalg import accumulate
    from poissonenv.pbw import tensor_mult
    from poissonenv.words import shuffle_coproduct

    failures = []
    monomials = u_monomials(A.n, degree_bound)
    for word in monomials:
        for a in range(A.n):
            for b in range(A.n):
                # on A: x(a . b) = sum x1(a) . x2(b)
                lhs = lie_word_act(A, word, A.mul_basis(a, b))
                rhs = A.zero()
                for (w1, w2), mult in shuffle_coproduct(word).items():
                    term = A.mul(lie_word_act(A, w1, A.basis(a)), lie_word_act(A, w2, A.basis(b)))
                    rhs = rhs + term.scale(mult)
                if lhs != rhs:
                    failures.append({"algebra": "A", "word": word, "pair": (a, b)})
                # on A^op: the same with the reversed product
                lhs = lie_word_act(A, word, A.mul_basis(b, a))
                rhs = A.zero()
                for (w1, w2), mult in shuffle_coproduct(word).items():
                    term = A.mul(lie_word_act(A, w2, A.basis(b)), lie_word_act(A, w1, A.basis(a)))
                    rhs = rhs + term.scale(mult)
                if lhs != rhs:
                    failures.append({"algebra": "A^op", "word": word, "pair": (a, b)})

    acts = {}

    def act(word, p, q):
        if (word, p, q) not in acts:
            acts[word, p, q] = act_on_tensor(A, {word: ONE}, A.basis(p), A.basis(q))
        return acts[word, p, q]

    pairs = [(p, q) for p in range(A.n) for q in range(A.n)]
    prods = {(pq, rs): tensor_mult(A, {pq: ONE}, {rs: ONE}) for pq in pairs for rs in pairs}
    for word in monomials:
        for pq in pairs:
            for rs in pairs:
                lhs = {}
                for key, c in prods[pq, rs].items():
                    for key2, c2 in act(word, *key).items():
                        accumulate(lhs, key2, c * c2)
                rhs = {}
                for (w1, w2), mult in shuffle_coproduct(word).items():
                    for key, c in tensor_mult(A, act(w1, *pq), act(w2, *rs)).items():
                        accumulate(rhs, key, mult * c)
                if lhs != rhs:
                    failures.append({"algebra": "A^e", "word": word, "pair": (pq, rs)})
    return failures


def test_module_algebra_failures_match_the_reference(
    kxk, m2, trunc2, field_k, ut2, ut2_zero, kxk_skew, trunc2_skew, m2_rebased
):
    from poissonenv.fileformat import load_bundled_algebra
    from poissonenv.ncpa import NCPA

    # the bad fixtures fail an axiom, so they are loaded without validation
    bad = {name: NCPA(load_bundled_algebra(f"{name}.alg"))
           for name in ("bad-leibniz", "bad-antisym", "bad-jacobi")}
    cases = dict(bad, kxk=kxk, m2=m2, trunc2=trunc2, field_k=field_k, ut2=ut2,
                 ut2_zero=ut2_zero, kxk_skew=kxk_skew, trunc2_skew=trunc2_skew,
                 m2_rebased=m2_rebased)
    counts, kinds = {}, {}
    for name, A in cases.items():
        for bound in range(3 if name.startswith("m2") else 4):
            reference = _module_algebra_failures_reference(A, bound)
            got = module_algebra_failures(A, bound)
            # the letters' A and A^op records, and the full sweep's verdict
            letters = _module_algebra_failures_reference(A, min(bound, 1))
            assert got == [f for f in letters if f["algebra"] != "A^e"], (name, bound)
            assert bool(got) == bool(reference), (name, bound)
            counts[name, bound] = len(reference)
            kinds[name, bound] = {f["algebra"] for f in reference}
    # the reference sweep fails on all three algebras
    assert kinds["bad-leibniz", 3] == {"A", "A^op", "A^e"}
    # the first cases on which the check fails at all
    assert (counts["bad-leibniz", 2], counts["bad-leibniz", 3]) == (50, 79)
    assert (counts["bad-antisym", 2], counts["bad-antisym", 3]) == (10, 15)
    assert not any(n for (name, _), n in counts.items() if not name.startswith("bad-"))
    assert counts["bad-jacobi", 3] == 0



def _derivations(A):
    """A basis of the derivations of A's product: each a dict sending k to
    the vector D(v_k), solved from D(v_s v_t) = D(v_s) v_t + v_s D(v_t).
    The unknown k * n + r is the coefficient of v_r in D(v_k)."""
    from poissonenv.linalg import solve_nullspace

    n = A.n
    rows = []
    for s, t, r in itertools.product(range(n), repeat=3):
        row = {}
        for k in range(n):
            accumulate(row, k * n + r, A.mul_basis(s, t).get(k))
            accumulate(row, s * n + k, -A.mul_basis(k, t).get(r))
            accumulate(row, t * n + k, -A.mul_basis(s, k).get(r))
        rows.append(row)
    return [{k: vec(n, {r: D.get(k * n + r) for r in range(n)}) for k in range(n)}
            for D in solve_nullspace(rows, n * n).rows]


def _with_letter_brackets(A, maps):
    """A's product with the bracket {v_c, v_k} = maps[c][k], not validated."""
    from poissonenv.ncpa import NCPA, AlgebraPresentation

    p = A.presentation
    bracket = {(c, k): v for c, D in maps.items() for k, v in D.items()}
    return NCPA(AlgebraPresentation(p.name, p.dim, p.basis_labels, p.unit, p.mul, bracket))


def test_module_algebra_law_needs_only_derivations(kxk, ut2, trunc2, m2):
    # Each letter brackets by a random derivation of the product, so each
    # {v_c, -} obeys the Leibniz rule while antisymmetry and Jacobi need
    # not hold: the proof in module_algebra_failures uses neither, and the
    # full sweep agrees at every bound.  (validate's leibniz axiom, in the
    # first slot, need not hold either.)  kxk has no derivation but 0.  The
    # reference at the top bound covers every lower one, since its words
    # include theirs.
    from poissonenv.ncpa import axiom_violations

    rng = random.Random(17)
    seen = set()
    for A in (kxk, ut2, trunc2, m2):
        basis = _derivations(A)
        top = 3 if A.n <= 3 else 2
        for _ in range(2):
            maps = {}
            for c in range(A.n):
                D = {k: A.zero() for k in range(A.n)}
                for E in basis:
                    x = rng.randint(-2, 2)
                    D = {k: D[k] + E[k].scale(x) for k in range(A.n)}
                maps[c] = D
            B = _with_letter_brackets(A, maps)
            seen |= {v.axiom for v in axiom_violations(B.presentation)}
            for bound in range(top + 1):
                assert module_algebra_failures(B, bound) == [], (A.name, bound)
            assert _module_algebra_failures_reference(B, top) == [], A.name
    assert {"antisymmetry", "jacobi"} <= seen
    # a letter that brackets by the identity map, no derivation: v_s v_t
    # against 2 v_s v_t, so both lists fail
    B = _with_letter_brackets(trunc2, {1: {k: trunc2.basis(k) for k in range(3)}})
    for bound in (1, 2):
        assert module_algebra_failures(B, bound)
        assert _module_algebra_failures_reference(B, bound)
