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
def ordered_partitions(r: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All p^r ordered partitions of positions 0..r-1 into p blocks.

    Blocks may be empty and their order matters.  Enumeration order is the
    base-p counter over positions (block assignment of position 0 is the
    most significant digit), which keeps downstream term order stable.
    Memoized; the result is a tuple, so callers cannot change the cache.
    The degree cap is read on a miss only: a hit does no work.
    """
    if p < 1:
        raise ValueError("number of blocks must be >= 1")
    if r < 0:
        raise ValueError("negative word degree")
    check_degree(r)
    out = []
    for assignment in itertools.product(range(p), repeat=r):
        blocks: tuple[list[int], ...] = tuple([] for _ in range(p))
        for pos, block in enumerate(assignment):
            blocks[block].append(pos)
        out.append(tuple(tuple(b) for b in blocks))
    return tuple(out)


def subword(word: Word, positions: Sequence[int]) -> Word:
    return tuple(word[i] for i in positions)


def shuffle_coproduct(word: Word) -> dict[tuple[Word, Word], Fraction]:
    """Sum over ordered bipartitions of the positions, one term each.

    Terms over equal (left, right) pairs merge, e.g. the two middle
    bipartitions of a square word (i, i) give coefficient 2.
    """
    out: dict[tuple[Word, Word], Fraction] = {}
    for left_pos, right_pos in ordered_partitions(len(word), 2):
        key = (subword(word, left_pos), subword(word, right_pos))
        out[key] = out.get(key, ZERO) + ONE
    return out
