"""Universal enveloping algebra of the Lie structure of an NCPA:
PBW straightening, multiplication, the actions on the algebra and its
tensor square, and the module-algebra law, checked on the letters.

Elements are dicts mapping PBW monomials (weakly increasing index tuples,
the empty tuple being the identity) to nonzero rational coefficients.
"""

from __future__ import annotations

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
    """Kept for perfbench.tracing (TRACED) and the tests' reference sweep."""
    if x.n != A.n:
        raise ValueError("element has wrong dimension for this algebra")
    out = A.zero()
    for i, c in x.data.items():
        out = out + lie_word_on_basis(A, word, i).scale(c)
    return out


Tensor = dict  # dict[tuple[int, int], Fraction], element of A (x) A


def act_on_tensor(A: NCPA, u: UElement, a: SparseVector, b: SparseVector) -> Tensor:
    """Diagonal action on A (x) A via the shuffle coproduct: sum over
    ordered bipartitions of each monomial, acting on the two legs.  Kept for
    perfbench.tracing (TRACED) and the tests' reference sweep."""
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
    """Product in A (x) A^op: (a (x) b)(c (x) d) = ac (x) db.  Kept for
    perfbench.tracing (TRACED) and the tests' reference sweep."""
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
    """The module-algebra law of the enveloping algebra on A, A^op and
    A (x) A^op up to the bound, checked on the letters: one record per
    letter c and basis pair (s, t), "A" when ad_c(v_s v_t) !=
    ad_c(v_s) v_t + v_s ad_c(v_t) for ad_c = {v_c, -}, then "A^op" when
    that fails at (t, s); the word is (c,).  Bound 0 gives [], since the
    empty word acts as the identity, with coproduct () (x) ().

    Empty exactly when x(s t) = sum x1(s) x2(t), over the shuffle
    coproduct of x, holds for every monomial x up to the bound on all three
    algebras.  Only if: the records are that law at the letters on A and on
    A^op, whose product s * t is t s.  If: a word w acts on A as
    ad_{w_1} o ... o ad_{w_r} (lie_word_on_basis), and, as shuffle_coproduct
    has one term (w|S, w|S') per set S of positions, S' its complement, on
    A (x) A^op as D_{w_1} o ... o D_{w_r}, D_c = ad_c (x) 1 + 1 (x) ad_c
    (act_on_tensor).  For derivations D_1, ..., D_r of any bilinear
    product, D_1 ... D_r (x y) = sum_S D_S(x) D_S'(y), each D_S composed in
    position order (general Leibniz rule, by induction on r), and that is
    the law's right side.  With no record each ad_c is a derivation of A,
    so of A^op (ad_c(t s) = s * ad_c(t) + ad_c(s) * t), and D_c is one of
    A (x) A^op, whose product (a (x) b)(a' (x) b') = a a' (x) b' b gives
    the same four terms on both sides.  Only bilinearity is used, not
    antisymmetry, Jacobi or associativity, so this holds for presentations
    that were not validated.  The full sweep over every monomial and pair
    (the tests' reference) thus fails at a bound >= 1 exactly when this
    list is nonempty, and at bound 1 its A and A^op records are this list.
    """
    check_degree(degree_bound, cap=A.degree_cap)  # before any work, so the cap behaves at any bound
    if degree_bound == 0:
        return []

    def leibniz(c, s, t):
        ad = A.bracket_basis
        return (A.bracket(A.basis(c), A.mul_basis(s, t))
                == A.mul(ad(c, s), A.basis(t)) + A.mul(A.basis(s), ad(c, t)))

    triples = list(itertools.product(range(A.n), repeat=3))
    holds = {cst: leibniz(*cst) for cst in triples}
    return [{"algebra": name, "word": (c,), "pair": (s, t)}
            for c, s, t in triples
            for name, ok in (("A", holds[c, s, t]), ("A^op", holds[c, t, s])) if not ok]
