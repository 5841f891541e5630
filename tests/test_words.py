from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poissonenv.limits import DegreeCapExceeded
from poissonenv.words import (
    ordered_partitions,
    shuffle_coproduct,
    subword,
)

ONE = Fraction(1)


def test_square_word_has_four_bipartitions():
    assert len(ordered_partitions(2, 2)) == 4


def test_zero_degree_single_partition():
    parts = ordered_partitions(0, 3)
    assert parts == (((), (), ()),)


def test_three_blocks_count():
    assert len(ordered_partitions(2, 3)) == 9


def test_partition_counts_power():
    for r in range(0, 6):
        for p in (1, 2, 3):
            assert len(ordered_partitions(r, p)) == p**r


def test_partitions_cover_and_disjoint():
    for blocks in ordered_partitions(3, 3):
        seen = [i for b in blocks for i in b]
        assert sorted(seen) == [0, 1, 2]
        for b in blocks:
            assert list(b) == sorted(b)


def test_zero_blocks_rejected():
    with pytest.raises(ValueError):
        ordered_partitions(2, 0)


def test_degree_guard():
    with pytest.raises(DegreeCapExceeded):
        ordered_partitions(11, 2)
    with pytest.raises(DegreeCapExceeded):
        shuffle_coproduct(tuple(range(11)))


def test_degree_guard_configurable(monkeypatch):
    # the guard runs on memo misses only, and no other test enumerates (3, 7)
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", "2")
    with pytest.raises(DegreeCapExceeded, match="^degree 3 exceeds cap 2$"):
        ordered_partitions(3, 7)
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", "3")
    assert len(ordered_partitions(3, 7)) == 7**3


def test_coproduct_of_identity():
    assert shuffle_coproduct(()) == {((), ()): ONE}


def test_coproduct_of_letter():
    assert shuffle_coproduct((1,)) == {((), (1,)): ONE, ((1,), ()): ONE}


def test_coproduct_of_two_letters():
    assert shuffle_coproduct((1, 2)) == {
        ((), (1, 2)): ONE,
        ((1,), (2,)): ONE,
        ((2,), (1,)): ONE,
        ((1, 2), ()): ONE,
    }


def test_coproduct_merges_equal_pairs():
    # the two middle bipartitions of (i, i) coincide
    assert shuffle_coproduct((3, 3)) == {
        ((), (3, 3)): ONE,
        ((3,), (3,)): Fraction(2),
        ((3, 3), ()): ONE,
    }


def all_words(alphabet, max_degree):
    import itertools

    for r in range(max_degree + 1):
        yield from itertools.product(range(alphabet), repeat=r)


def tensor3(pairs_then_split, side):
    """Expand (delta (x) id) or (id (x) delta) of a coproduct dict."""
    out = {}
    for (w1, w2), c in pairs_then_split.items():
        target = w1 if side == "left" else w2
        for (u1, u2), d in shuffle_coproduct(target).items():
            key = (u1, u2, w2) if side == "left" else (w1, u1, u2)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def test_coassociativity_up_to_degree_four():
    for w in all_words(4, 4):
        delta = shuffle_coproduct(w)
        assert tensor3(delta, "left") == tensor3(delta, "right"), w


def test_cocommutativity_up_to_degree_four():
    for w in all_words(4, 4):
        delta = shuffle_coproduct(w)
        flipped = {(b, a): c for (a, b), c in delta.items()}
        assert delta == flipped, w


def test_counit_law_up_to_degree_four():
    for w in all_words(4, 4):
        left = {}
        right = {}
        for (w1, w2), c in shuffle_coproduct(w).items():
            if not w1:  # the counit is 1 on the empty word, 0 on others
                left[w2] = left.get(w2, Fraction(0)) + c
            if not w2:
                right[w1] = right.get(w1, Fraction(0)) + c
        assert left == {w: ONE}
        assert right == {w: ONE}


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), max_size=6).map(tuple)
)
def test_blocks_of_sorted_words_are_sorted(word):
    word = tuple(sorted(word))
    for blocks in ordered_partitions(len(word), 2):
        for b in blocks:
            piece = subword(word, b)
            assert piece == tuple(sorted(piece))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(tuple)
)
def test_coproduct_term_count(word):
    total = sum(shuffle_coproduct(word).values(), Fraction(0))
    assert total == 2 ** len(word)
