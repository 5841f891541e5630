"""The quasi-Poisson enveloping algebra: the smash product of the
bimodule-enveloping algebra A (x) A^op with the universal enveloping
algebra of the Lie structure.

Monomials are triples (i, j, word): i indexes the left algebra factor,
j the opposite factor, and word is a PBW monomial.  Elements are dicts
from such triples to nonzero rational coefficients.  The product is the
ordered-tripartition expansion: letters of the left factor's word either
bracket into the incoming left slot, bracket into the incoming opposite
slot, or pass through to the word slot.

The product works on integers (fraction-free, as the echelon in linalg
does).  Each memoized monomial product is kept as (numerators,
denominator): integer numerators over one positive denominator, in lowest
terms.  q_mono_mult returns the memo entry itself, and q_mult is the one
exit that forms Fractions: it sums the entries it meets with integer
coefficients over the lcm of their denominators (_sum), and returns a new
dict of Fraction coefficients, with one division per coefficient.

There is one product kernel, q_gen_mult: a basis monomial times a
one-term generator i(a), k(a) or j(a), on either side, formed from the
generator's empty or one-letter word alone; its docstring proves that it
equals the tripartition formula.  The ideal closure (truncation)
multiplies only by such generators, and q_mono_mult folds q_gen_mult over
its right factor, which is the right product i(p) k(q) j(w_1) ... j(w_r)
of generators.  The word slots of the products, the integer straightened
form of each word, are memoized once per word per algebra ("q_tail", see
_tail), and so are each word's live bipartitions ("q_split", see
_splits), so a word is enumerated and its subwords tested once.  A
central letter (one whose bracket with every basis vector is zero,
NCPA.bracket_central) never brackets into a slot, since a Lie word that
holds one acts as zero, so only the other letters are enumerated.

An algebra slot may also hold None, which stands for the unit 1 of A
without expanding it over the basis.  This is how the three generators
are written everywhere (GENERATOR_TERM): i(a) is (a, None, ()), k(a) is
(None, a, ()) and j(a) is (None, None, (a,)), and products of them such
as i(p) j(q) = (p, None, (q,)) are single terms too.  expand_unit is the
only code that rewrites None slots over the unit's basis terms.  Inside
q_mono_mult and q_mult a None slot uses 1 . x = x . 1 = x and ad_w(1) = 0
for a nonempty word w, so a product with one such factor equals the
product with the expanded factor, term by term.  The other factor must
hold a basis index in that slot; then the product holds none.
"""

from __future__ import annotations

from math import gcd, lcm

from .limits import check_degree
from .linalg import (
    ONE,
    SparseVector,
    _integral,
    _over,
    accumulate,
    add_terms,
    sub_terms,
)
from .ncpa import NCPA, format_terms
from .pbw import lie_word_on_basis, straighten
from .words import ordered_partitions, subword

QMonomial = tuple  # (i: int, j: int, word: Word)
QElement = dict  # dict[QMonomial, Fraction]


def q_term_key(m: QMonomial):
    """Fixed term order: (degree, word lex, left index, right index)."""
    i, j, word = m
    return (len(word), word, i, j)


# The one-term forms of i(v_a), k(v_a) and j(v_a); None is the unit.
GENERATOR_TERM = {
    "i": lambda a: (a, None, ()),
    "k": lambda a: (None, a, ()),
    "j": lambda a: (None, None, (a,)),
}


def expand_unit(A: NCPA, x: QElement) -> QElement:
    """x with every None slot rewritten over the unit's basis terms."""
    unit = A.unit.data.items()
    out: QElement = {}
    for (i, j, word), c in x.items():
        for p, up in (unit if i is None else ((i, ONE),)):
            for q, uq in (unit if j is None else ((j, ONE),)):
                accumulate(out, (p, q, word), c * up * uq)
    return out


def q_identity(A: NCPA) -> QElement:
    return expand_unit(A, {(None, None, ()): ONE})


def embed(A: NCPA, kind: str, a: SparseVector) -> QElement:
    """i(a) = a (x) 1 # 1, k(a) = 1 (x) a # 1 or j(a) = 1 (x) 1 # a,
    expanded: i and k are algebra maps for the product and the opposite
    product, j is a Lie-algebra map."""
    if kind not in GENERATOR_TERM:
        raise ValueError(f"unknown embedding kind {kind!r}")
    if a.n != A.n:
        raise ValueError("element has wrong dimension for this algebra")
    term = GENERATOR_TERM[kind]
    return expand_unit(A, {term(r): c for r, c in a.data.items()})


# (numerators, denominator) of zero, shared by every memo entry that is zero
# (24 of the 54 q_mono entries of the trunc2-n2 tensor-square roundtrip, 72
# of the 427 of env-dim trunc2-n2 J <= 2), so that none holds a tuple and a
# dict of its own.  Memo entries are never mutated.
_ZERO_TERMS = ({}, 1)


def _factor(A: NCPA, outer, word, inner, left: bool) -> tuple[dict, int]:
    """v_outer . ad_word(v_inner) if left, else ad_word(v_inner) . v_outer,
    as (numerators, denominator) with integer numerators in lowest terms;
    memoized per algebra.  None in either slot is the unit (see the module
    docstring); not both."""
    if inner is None:  # ad_w(1) = 0 unless w is empty
        return _ZERO_TERMS if word else ({outer: 1}, 1)
    cache = A.caches["q_factor"]
    key = (left, outer, word, inner)
    hit = cache.get(key)
    if hit is None:
        out = ad = lie_word_on_basis(A, word, inner).data
        if outer is not None:
            out = {}
            for k, c in ad.items():
                for p, v in (A.mul_basis(outer, k) if left else A.mul_basis(k, outer)).items():
                    accumulate(out, p, c * v)
        hit = cache[key] = _integral(out) if out else _ZERO_TERMS
    return hit


def _splits(A: NCPA, word) -> tuple:
    """The live bipartitions of word: the pairs (w, rest) of the ordered
    bipartitions of its positions, in their order
    (words.ordered_partitions), whose Lie word w acts on some basis vector
    (the empty word is the identity).  Memoized per algebra under
    "q_split", so each word is enumerated and tested once, whatever the
    generator products that read it.

    A central letter (NCPA.bracket_central) always goes to rest: a Lie word
    that holds one acts as zero, since {v_c, x} = 0 for every x kills the
    nested bracket at that letter whatever lies inside it.  So only the
    other positions are enumerated.  The central positions are digits
    fixed at "rest" in the base-2 counter of ordered_partitions, and
    dropping equal digits from every number leaves their order as it was;
    the bipartitions left out are exactly those whose w holds a central
    letter, all dead."""
    cache = A.caches["q_split"]
    hit = cache.get(word)
    if hit is None:
        central = A.bracket_central
        free = [t for t, a in enumerate(word) if not central[a]]
        hit = []
        for part, _ in ordered_partitions(len(free)):
            taken = [free[t] for t in part]  # increasing, as part is
            w = subword(word, taken)
            if not w or any(lie_word_on_basis(A, w, b).data for b in range(A.n)):
                hit.append((w, tuple(a for t, a in enumerate(word) if t not in taken)))
        hit = cache[word] = tuple(hit)
    return hit


def _tail(A: NCPA, word) -> tuple[dict, int]:
    """straighten(word) as (numerators, denominator), in lowest terms;
    memoized per algebra under "q_tail", so each word is converted once,
    whatever the generator products that end in it."""
    cache = A.caches["q_tail"]
    hit = cache.get(word)
    if hit is None:
        hit = cache[word] = _integral(straighten(A, word))
    return hit


def tail_words(A: NCPA, alpha, gw) -> set:
    """The words that the terms of m * g can have, for a monomial m of word
    alpha and a one-term generator g of word gw, whatever the slots: read
    off q_gen_mult's right products.  m * j(a) has the words of
    straighten(alpha a); m * i(a) and m * k(a) those of straighten(rest)
    over the live bipartitions (w, rest) of alpha (_splits)."""
    if gw:
        return set(_tail(A, alpha + gw)[0])
    return {gamma for _, rest in _splits(A, alpha) for gamma in _tail(A, rest)[0]}


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den, with integer nums and den > 0, in lowest terms."""
    g = gcd(den, *nums.values())  # den itself if nums is empty
    if g != 1:
        den //= g
        nums = {mono: v // g for mono, v in nums.items()}
    return (nums, den) if nums else _ZERO_TERMS


def _sum(pairs: list, scale: int = 1) -> tuple[dict, int]:
    """The sum of c * nums / den over the pairs (c, (nums, den)) of an
    integer c and an entry, divided by the integer scale > 0, as
    (numerators, denominator) in lowest terms.  Every entry is brought over
    the lcm of the entries' denominators, so the sum is one integer loop."""
    s = lcm(*[den for _, (_, den) in pairs])
    out: dict = {}
    for c, (nums, den) in pairs:
        if den != s:
            c *= s // den
        for mono, d in nums.items():
            v = out.get(mono, 0) + c * d
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return _lowest(out, s * scale)


def _combine(terms: list) -> tuple[dict, int]:
    """The sum of the terms left (x) right # tail, each factor (numerators,
    denominator) over slot indices (left, right) or words (tail), with
    nonzero slot factors, as (numerators, denominator) over monomials, in
    lowest terms."""
    if not terms:  # most products of basis monomials are zero
        return _ZERO_TERMS
    # every term is brought over the common denominator den
    den = lcm(*[ld * rd * td for (_, ld), (_, rd), (_, td) in terms])
    nums: dict = {}
    for (left, ld), (right, rd), (tail, td) in terms:
        f = den // (ld * rd * td)
        for p, cp in left.items():
            for q, dq in right.items():
                c = f * cp * dq
                for gamma, eg in tail.items():
                    key = (p, q, gamma)
                    v = nums.get(key, 0) + c * eg
                    if v:
                        nums[key] = v
                    else:
                        nums.pop(key, None)
    return _lowest(nums, den)


def q_gen_mult(A: NCPA, m: QMonomial, g: QMonomial, left: bool) -> tuple[dict, int]:
    """g * m if left, else m * g, for a basis monomial m = (i, j, word) and
    a one-term generator g (GENERATOR_TERM: (a, None, ()), (None, a, ()) or
    (None, None, (a,))), as (numerators, denominator) in lowest terms: a
    new entry, built from g's empty or one-letter word alone, with no
    q_mono entry of its own.  The degree cap is checked first, so a product
    above it fills no memo.

    Proof that it is the tripartition formula.  The product m1 * m2 sums,
    over the ordered tripartitions (w1, w2, rest) of m1's word alpha,
    (v_i1 . ad_w1(v_i2)) (x) (ad_w2(v_j2) . v_j1) # straighten(rest beta),
    with 1 . x = x . 1 = x in a None slot and ad_w(1) = 0 for nonempty w,
    so a None slot of m2 kills every part with a nonempty Lie word there.
    A Lie word that acts as zero on the whole basis gives a zero factor,
    so summing over the parts whose Lie words act (_splits) gives the same
    sum.  Here:

      m * j(a): m2 = (None, None, (a,)) kills every nonempty w1 and w2,
        leaving one part: (v_i (x) v_j) # straighten(word a), which is
        the tail over m's slots, in lowest terms as the tail is.
      m * i(a): m2 = (a, None, ()) kills every nonempty w2, leaving the
        bipartitions (w1, rest) of word: v_i . ad_w1(v_a) (x) v_j #
        straighten(rest), summed over _splits(word), the live ones.
      m * k(a): likewise with w1 empty: v_i (x) ad_w2(v_a) . v_j #
        straighten(rest), over _splits(word).
      i(a) * m and k(a) * m: alpha is empty, one part: (v_a . v_i) (x) v_j
        or v_i (x) (v_j . v_a), # straighten(word), the slot product.
      j(a) * m: alpha = (a,) has three tripartitions: ad_a(v_i) (x) v_j #
        straighten(word) and v_i (x) ad_a(v_j) # straighten(word), the
        two bracket terms, and v_i (x) v_j # straighten(a word).

    _combine sums these terms, less those with a zero slot factor, and
    brings the sum to lowest terms."""
    check_degree(len(m[2]) + len(g[2]), "product degree", A.degree_cap)
    return _gen_mult(A, m, g, left)


def _gen_mult(A: NCPA, m: QMonomial, g: QMonomial, left: bool) -> tuple[dict, int]:
    """q_gen_mult without its degree check, for q_mono_mult's fold: every
    step there has at most the product's degree, checked once up front."""
    i, j, word = m
    gi, gj, gw = g
    if gw and not left:
        nums, den = _tail(A, word + gw)
        return {(i, j, w): c for w, c in nums.items()}, den
    one_i, one_j = ({i: 1}, 1), ({j: 1}, 1)
    if not left:
        if gi is not None:
            terms = [(_factor(A, i, w, gi, True), one_j, _tail(A, rest))
                     for w, rest in _splits(A, word)]
        else:
            terms = [(one_i, _factor(A, j, w, gj, False), _tail(A, rest))
                     for w, rest in _splits(A, word)]
    elif gw:
        tail = _tail(A, word)
        terms = [(_factor(A, None, gw, i, True), one_j, tail),
                 (one_i, _factor(A, None, gw, j, False), tail),
                 (one_i, one_j, _tail(A, gw + word))]
    elif gi is not None:
        terms = [(_factor(A, gi, (), i, True), one_j, _tail(A, word))]
    else:
        terms = [(one_i, _factor(A, gj, (), j, False), _tail(A, word))]
    return _combine([t for t in terms if t[0][0] and t[1][0]])


def q_mono_mult(A: NCPA, m1: QMonomial, m2: QMonomial) -> tuple[dict, int]:
    """Product of two basis monomials, as its memo entry (numerators,
    denominator): integers in lowest terms, memoized per algebra.  The
    entry is shared, so callers must not change it; q_mult of one-term
    elements gives the product as a new dict of Fractions.  The degree cap
    is checked before any memo is filled, once: no step of the fold
    exceeds the product's degree, so the steps run q_gen_mult's body
    (_gen_mult) unchecked.

    m2 = (p, q, w) is the right product i(p) k(q) j(w_1) ... j(w_r) of
    one-term generators (GENERATOR_TERM), and a None slot drops its
    generator, the unit.  So the product is folded from q_gen_mult: m1
    times i(p), that times k(q), then times each j(w_t) in turn, each step
    the sum of the q_gen_mult entries of the running product's monomials,
    scaled by its numerators and divided by its denominator (_sum).  This
    is the tripartition formula, since q_gen_mult is the formula for each
    step and smash products are associative (Montgomery, Hopf Algebras and
    Their Actions on Rings, CBMS 82, 1993, ch. 4);
    test_q_mono_mult_matches_direct_formula_to_degree_4 checks it."""
    cache = A.caches["q_mono"]
    hit = cache.get((m1, m2))
    if hit is not None:
        return hit
    i1, j1, alpha = m1
    i2, j2, beta = m2
    if (i1 is None and i2 is None) or (j1 is None and j2 is None):
        raise ValueError("both factors hold the unit in one slot")
    check_degree(len(alpha) + len(beta), "product degree", A.degree_cap)
    gens = [GENERATOR_TERM[kind](a) for kind, a in (("i", i2), ("k", j2)) if a is not None]
    gens += [GENERATOR_TERM["j"](a) for a in beta]
    entry = _gen_mult(A, m1, gens[0], False) if gens else ({m1: 1}, 1)
    for g in gens[1:]:
        nums, den = entry
        entry = _sum([(c, _gen_mult(A, m, g, False)) for m, c in nums.items()], den)
    cache[(m1, m2)] = entry
    return entry


def q_mult(A: NCPA, x: QElement, y: QElement) -> QElement:
    """x * y: the memo entries of the monomial products, each scaled by the
    integer coefficients of x and y (cleared of their denominators), summed
    (_sum) and divided out once."""
    xs, sx = _integral(x)
    ys, sy = _integral(y)
    pairs = []
    for m1, c1 in xs.items():
        for m2, c2 in ys.items():
            entry = q_mono_mult(A, m1, m2)
            if entry[0]:
                pairs.append((c1 * c2, entry))
    return _over(*_sum(pairs, sx * sy))


def generator_relation_failures(A: NCPA) -> list[dict]:
    """Verify the defining relations among the three embeddings on all
    basis pairs: both algebra maps, their mutual commutation, the Lie
    bracket relation, the two cross relations, and unit compatibility."""
    failures: list[dict] = []
    n = A.n

    def check(tag: str, pair, lhs: QElement, rhs: QElement):
        if lhs != rhs:
            failures.append({"relation": tag, "pair": pair})

    one = q_identity(A)
    check("i-unit", None, embed(A, "i", A.unit), one)
    check("k-unit", None, embed(A, "k", A.unit), one)

    for a in range(n):
        ia, ka, ja = (embed(A, kind, A.basis(a)) for kind in "ikj")
        for b in range(n):
            ib, kb, jb = (embed(A, kind, A.basis(b)) for kind in "ikj")
            br = A.bracket_basis(a, b)
            check(
                "i(a)i(b)=i(ab)", (a, b),
                q_mult(A, ia, ib), embed(A, "i", A.mul_basis(a, b)),
            )
            check(
                "k(a)k(b)=k(ba)", (a, b),
                q_mult(A, ka, kb), embed(A, "k", A.mul_basis(b, a)),
            )
            check(
                "i(a)k(b)=k(b)i(a)", (a, b),
                q_mult(A, ia, kb), q_mult(A, kb, ia),
            )
            check(
                "j(a)j(b)-j(b)j(a)=j({a,b})", (a, b),
                sub_terms(q_mult(A, ja, jb), q_mult(A, jb, ja)), embed(A, "j", br),
            )
            check(
                "j(a)i(b)=i(b)j(a)+i({a,b})", (a, b),
                q_mult(A, ja, ib),
                add_terms(q_mult(A, ib, ja), embed(A, "i", br)),
            )
            check(
                "j(a)k(b)=k(b)j(a)+k({a,b})", (a, b),
                q_mult(A, ja, kb),
                add_terms(q_mult(A, kb, ja), embed(A, "k", br)),
            )
    return failures


def format_q_element(A: NCPA, x: QElement) -> str:
    """Round-trippable text form: coeff*ilabel:jlabel:w1.w2 terms."""
    return format_terms(
        (x[m], f"{A.labels[m[0]]}:{A.labels[m[1]]}:" + ".".join(A.labels[t] for t in m[2]))
        for m in sorted(x, key=q_term_key)
    )
