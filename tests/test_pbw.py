import itertools
import random
from fractions import Fraction

import pytest

from poissonenv.limits import DegreeCapExceeded
from poissonenv.pbw import (
    act_on_tensor,
    lie_word_act,
    module_algebra_failures,
    straighten,
    u_monomials,
    u_mult,
)

from conftest import vec

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
