"""Universal enveloping algebra of the Lie structure of an NCPA:
PBW straightening, multiplication, inherited shuffle coproduct, and the
actions on the algebra and its tensor square.

Elements are dicts mapping PBW monomials (weakly increasing index tuples,
the empty tuple being the identity) to nonzero rational coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from .limits import check_degree
from .linalg import ONE, SparseVector, accumulate
from .ncpa import NCPA
from .words import Word, shuffle_coproduct

UElement = dict  # dict[Word, Fraction], monomial words weakly increasing


def u_monomials(n: int, max_degree: int) -> list[Word]:
    """All PBW monomials of degree <= max_degree, by degree then lex."""
    out: list[Word] = []
    for r in range(max_degree + 1):
        out.extend(itertools.combinations_with_replacement(range(n), r))
    return out


def straighten(A: NCPA, word: Word) -> UElement:
    """PBW normal form of a word in the enveloping algebra.

    Rewrites the leftmost adjacent descent v_b v_a (b > a) into
    v_a v_b + {v_b, v_a}; bracket terms drop the degree and swaps drop the
    inversion count, so the rewriting terminates, and the result does not
    depend on the strategy.  Memoized per algebra.
    """
    cache = A.caches["straighten"]
    hit = cache.get(word)
    if hit is not None:
        return hit
    check_degree(len(word), "word degree")  # on a miss only, as smash plans do
    stack = [word]
    while stack:
        w = stack.pop()
        if w in cache:
            continue
        pos = _first_descent(w)
        if pos is None:
            cache[w] = {w: ONE}
            continue
        swapped = w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2 :]
        bracket = A.bracket_basis(w[pos], w[pos + 1])
        shorter = [
            (w[:pos] + (k,) + w[pos + 2 :], c) for k, c in bracket.data.items()
        ]
        pending = [u for u in [swapped] + [u for u, _ in shorter] if u not in cache]
        if pending:
            stack.append(w)
            stack.extend(pending)
            continue
        result: UElement = dict(cache[swapped])
        for u, c in shorter:
            for mono, d in cache[u].items():
                accumulate(result, mono, c * d)
        cache[w] = result
    return cache[word]


def _first_descent(word: Word) -> int | None:
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            return t
    return None


def u_mult(A: NCPA, x: UElement, y: UElement) -> UElement:
    """Concatenate monomials and straighten; identity is the empty word."""
    if x and y:
        check_degree(max(map(len, x)) + max(map(len, y)), "product degree")
    out: UElement = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            c = cx * cy
            for mono, d in straighten(A, wx + wy).items():
                accumulate(out, mono, c * d)
    return out


def u_coproduct(x: UElement) -> dict[tuple[Word, Word], Fraction]:
    """Shuffle coproduct monomial-wise; both blocks of a weakly increasing
    word are weakly increasing, so no straightening is needed."""
    out: dict[tuple[Word, Word], Fraction] = {}
    for w, c in x.items():
        for pair, mult in shuffle_coproduct(w).items():
            accumulate(out, pair, c * mult)
    return out


def lie_word_on_basis(A: NCPA, word: Word, i: int) -> SparseVector:
    """Nested bracket action of a word on a basis vector, innermost letter
    last: word (a, b) sends v to {v_a, {v_b, v}}.  Cached per algebra."""
    cache = A.caches["lie_word"]
    key = (word, i)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not word:
        out = A.basis(i)
    else:
        inner = lie_word_on_basis(A, word[1:], i)
        out = A.bracket(A.basis(word[0]), inner)
    cache[key] = out
    return out


def lie_word_act(A: NCPA, word: Word, x: SparseVector) -> SparseVector:
    if x.n != A.n:
        raise ValueError("element has wrong dimension for this algebra")
    out = A.zero()
    for i, c in x.data.items():
        out = out + lie_word_on_basis(A, word, i).scale(c)
    return out


def lie_act(A: NCPA, u: UElement, x: SparseVector) -> SparseVector:
    """Action of an enveloping-algebra element on the algebra as a Lie
    module; the identity monomial acts as the identity."""
    out = A.zero()
    for word, c in u.items():
        out = out + lie_word_act(A, word, x).scale(c)
    return out


Tensor = dict  # dict[tuple[int, int], Fraction], element of A (x) A


def act_on_tensor(A: NCPA, u: UElement, a: SparseVector, b: SparseVector) -> Tensor:
    """Diagonal action on A (x) A via the shuffle coproduct: sum over
    ordered bipartitions of each monomial, acting on the two legs."""
    out: Tensor = {}
    for word, c in u.items():
        for (w1, w2), mult in shuffle_coproduct(word).items():
            left = lie_word_act(A, w1, a)
            if left.is_zero():
                continue
            right = lie_word_act(A, w2, b)
            if right.is_zero():
                continue
            coeff = c * mult
            for i, ci in left.data.items():
                for j, cj in right.data.items():
                    accumulate(out, (i, j), coeff * ci * cj)
    return out


def tensor_mult(A: NCPA, s: Tensor, t: Tensor) -> Tensor:
    """Product in A (x) A^op: (a (x) b)(c (x) d) = ac (x) db."""
    out: Tensor = {}
    for (p, q), c1 in s.items():
        for (r, s2), c2 in t.items():
            left = A.mul_basis(p, r)
            if left.is_zero():
                continue
            right = A.mul_basis(s2, q)
            if right.is_zero():
                continue
            c = c1 * c2
            for i, ci in left.data.items():
                for j, cj in right.data.items():
                    accumulate(out, (i, j), c * ci * cj)
    return out


def module_algebra_failures(A: NCPA, degree_bound: int) -> list[dict]:
    """Exhaustive check that the enveloping algebra acts by module-algebra
    maps on A, on A^op, and on A (x) A^op, for all PBW monomials up to the
    bound and all basis pairs.  Returns one record per failed instance."""
    check_degree(degree_bound)  # before any work: the words stop at the cap
    failures: list[dict] = []
    monomials = u_monomials(A.n, degree_bound)

    for word in monomials:
        for a in range(A.n):
            for b in range(A.n):
                # on A: x(a . b) = sum x1(a) . x2(b)
                lhs = lie_word_act(A, word, A.mul_basis(a, b))
                rhs = A.zero()
                for (w1, w2), mult in shuffle_coproduct(word).items():
                    term = A.mul(
                        lie_word_act(A, w1, A.basis(a)),
                        lie_word_act(A, w2, A.basis(b)),
                    )
                    rhs = rhs + term.scale(mult)
                if lhs != rhs:
                    failures.append(
                        {"algebra": "A", "word": word, "pair": (a, b)}
                    )
                # on A^op: same with the reversed product
                lhs = lie_word_act(A, word, A.mul_basis(b, a))
                rhs = A.zero()
                for (w1, w2), mult in shuffle_coproduct(word).items():
                    term = A.mul(
                        lie_word_act(A, w2, A.basis(b)),
                        lie_word_act(A, w1, A.basis(a)),
                    )
                    rhs = rhs + term.scale(mult)
                if lhs != rhs:
                    failures.append(
                        {"algebra": "A^op", "word": word, "pair": (a, b)}
                    )

    # on A^e: check on all pairs of basis tensors; actions of (sub)words on
    # basis tensors repeat massively, so cache them for the sweep
    pairs = [(p, q) for p in range(A.n) for q in range(A.n)]
    act_cache: dict = {}

    def act_basis_tensor(word: Word, p: int, q: int) -> Tensor:
        key = (word, p, q)
        hit = act_cache.get(key)
        if hit is None:
            hit = act_on_tensor(A, {word: ONE}, A.basis(p), A.basis(q))
            act_cache[key] = hit
        return hit

    prod_cache = {
        (pq, rs): tensor_mult(A, {pq: ONE}, {rs: ONE})
        for pq in pairs
        for rs in pairs
    }
    for word in monomials:
        biparts = shuffle_coproduct(word)
        for pq in pairs:
            for rs in pairs:
                lhs: Tensor = {}
                for key, c in prod_cache[(pq, rs)].items():
                    for key2, c2 in act_basis_tensor(word, *key).items():
                        accumulate(lhs, key2, c * c2)
                rhs: Tensor = {}
                for (w1, w2), mult in biparts.items():
                    t1 = act_basis_tensor(w1, *pq)
                    if not t1:
                        continue
                    t2 = act_basis_tensor(w2, *rs)
                    if not t2:
                        continue
                    for key, c in tensor_mult(A, t1, t2).items():
                        accumulate(rhs, key, mult * c)
                if lhs != rhs:
                    failures.append(
                        {"algebra": "A^e", "word": word, "pair": (pq, rs)}
                    )
    return failures
