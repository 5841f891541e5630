"""Word combinatorics for the tensor algebra: ordered partitions and the
shuffle coproduct.

A word is a plain tuple of basis indices; the empty tuple is the identity
of the tensor algebra.  Everything here is independent of any particular
algebra except for the alphabet size.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Sequence

from .limits import check_degree
from .linalg import ONE, ZERO

Word = tuple  # tuple[int, ...]


@functools.cache
def ordered_partitions(r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All 2^r ordered bipartitions (left, right) of positions 0..r-1.

    Blocks may be empty and their order matters.  Enumeration order is the
    base-2 counter over positions (the block of position 0 is the most
    significant digit, 0 for left), which keeps downstream term order
    stable.  Memoized; the result is a tuple, so callers cannot change the
    cache.  The degree cap is read on a miss only: a hit does no work.
    """
    if r < 0:
        raise ValueError("negative word degree")
    check_degree(r)
    out = []
    for bits in itertools.product((0, 1), repeat=r):  # bit 1 sends a position right
        out.append((tuple(t for t, b in enumerate(bits) if not b),
                    tuple(t for t, b in enumerate(bits) if b)))
    return tuple(out)


def subword(word: Word, positions: Sequence[int]) -> Word:
    return tuple(word[i] for i in positions)


def shuffle_coproduct(word: Word) -> dict[tuple[Word, Word], Fraction]:
    """Sum over ordered bipartitions of the positions, one term each.

    Terms over equal (left, right) pairs merge, e.g. the two middle
    bipartitions of a square word (i, i) give coefficient 2.  Kept for
    perfbench.tracing (TRACED) and the tests' reference sweep.
    """
    out: dict[tuple[Word, Word], Fraction] = {}
    for left_pos, right_pos in ordered_partitions(len(word)):
        key = (subword(word, left_pos), subword(word, right_pos))
        out[key] = out.get(key, ZERO) + ONE
    return out
