"""Universal enveloping algebra of the Lie structure of an NCPA:
PBW straightening, multiplication, inherited shuffle coproduct, and the
actions on the algebra and its tensor square.

Elements are dicts mapping PBW monomials (weakly increasing index tuples,
the empty tuple being the identity) to nonzero rational coefficients.
"""

from __future__ import annotations

import functools
import itertools

from .limits import check_degree
from .linalg import ONE, SparseVector, accumulate
from .ncpa import NCPA
from .words import Word, shuffle_coproduct

UElement = dict  # dict[Word, Fraction], monomial words weakly increasing


def u_monomials(n: int, max_degree: int, min_degree: int = 0) -> list[Word]:
    """All PBW monomials of degree min_degree..max_degree, by degree then
    lex."""
    out: list[Word] = []
    for r in range(min_degree, max_degree + 1):
        out.extend(itertools.combinations_with_replacement(range(n), r))
    return out


def straighten(A: NCPA, word: Word) -> UElement:
    """PBW normal form of a word in the enveloping algebra.

    Rewrites the leftmost adjacent descent v_b v_a (b > a) into
    v_a v_b + {v_b, v_a}; bracket terms drop the degree and swaps drop the
    inversion count, so the rewriting terminates, and the result does not
    depend on the strategy.  Memoized per algebra.

    The sorted rule: a word in which at most one distinct letter is not
    central (NCPA.bracket_central) straightens to its sorted self with
    coefficient 1.  Each descent v_b v_a has b != a, so one of the two
    letters is central and {v_b, v_a} = 0; every step of the rewriting
    is then a bare swap, and the swaps of adjacent descents end at the
    sorted word.  Every word the rewriting meets is checked for the rule
    first, so such words are cached with no rewriting.
    """
    cache = A.caches["straighten"]
    hit = cache.get(word)
    if hit is not None:
        return hit
    check_degree(len(word), "word degree", A.degree_cap)  # on a miss only, as q_mono_mult does
    central = A.bracket_central
    stack = [word]
    while stack:
        w = stack.pop()
        if w in cache:
            continue
        if len({a for a in w if not central[a]}) <= 1:
            cache[w] = {tuple(sorted(w)): ONE}
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
    """Concatenate monomials and straighten; identity is the empty word.
    Kept for perfbench.tracing, which wraps it (TRACED)."""
    if x and y:
        check_degree(max(map(len, x)) + max(map(len, y)), "product degree", A.degree_cap)
    out: UElement = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            c = cx * cy
            for mono, d in straighten(A, wx + wy).items():
                accumulate(out, mono, c * d)
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
    bound and all basis pairs.  Returns one record per failed instance: for
    each word and pair, A then A^op; then every A^e instance."""
    check_degree(degree_bound, cap=A.degree_cap)  # before any work: the words stop at the cap
    n = A.n
    mul = {(a, b): A.mul_basis(a, b).data for a in range(n) for b in range(n)}
    op = {(a, b): mul[b, a] for a, b in mul}
    pairs = list(itertools.product(range(n), repeat=2))
    tensor = {(s, t): tensor_mult(A, {s: ONE}, {t: ONE}) for s in pairs for t in pairs}
    # actions of (sub)words on basis tensors repeat massively: table them too
    tensor_act = functools.cache(
        lambda w, st: act_on_tensor(A, {w: ONE}, A.basis(st[0]), A.basis(st[1])))
    failures: list[dict] = []
    for keys, act, algebras in (
        (range(n), lambda w, a: lie_word_on_basis(A, w, a).data, (("A", mul), ("A^op", op))),
        (pairs, tensor_act, (("A^e", tensor),)),
    ):
        for word in u_monomials(n, degree_bound):
            biparts = shuffle_coproduct(word)
            for s, t in itertools.product(keys, repeat=2):
                for name, prod in algebras:
                    if not _law_holds(word, biparts, s, t, prod, act):
                        failures.append({"algebra": name, "word": word, "pair": (s, t)})
    return failures


def _law_holds(word: Word, biparts: dict, s, t, prod: dict, act) -> bool:
    """The module-algebra law x(s t) = sum x1(s) x2(t) for the word x, with
    biparts its shuffle coproduct, on basis elements s and t of an algebra
    given by its products prod[s, t] and its actions act(word, s), both
    {basis element: coefficient}."""
    lhs: dict = {}
    for k, c in prod[s, t].items():
        for k2, c2 in act(word, k).items():
            accumulate(lhs, k2, c * c2)
    rhs: dict = {}
    for (w1, w2), mult in biparts.items():
        left = act(w1, s)
        if not left:
            continue
        right = act(w2, t)
        for k, c in left.items():
            for k2, c2 in right.items():
                terms = prod[k, k2]
                if terms:
                    c12 = mult * c * c2
                    for k3, c3 in terms.items():
                        accumulate(rhs, k3, c12 * c3)
    return lhs == rhs
