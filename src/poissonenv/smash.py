"""The quasi-Poisson enveloping algebra: the smash product of the
bimodule-enveloping algebra A (x) A^op with the universal enveloping
algebra of the Lie structure.

Monomials are triples (i, j, word): i indexes the left algebra factor,
j the opposite factor, and word is a PBW monomial.  Elements are dicts
from such triples to nonzero rational coefficients.  The product follows
the ordered-tripartition expansion: letters of the left factor's word
either bracket into the incoming left slot, bracket into the incoming
opposite slot, or pass through to the word slot.

The product works on integers (fraction-free, as the echelon in linalg
does).  Each memoized monomial product is kept as (numerators,
denominator): integer numerators over one positive denominator, in lowest
terms.  q_mult_scaled multiplies elements with integer coefficients over
the lcm of the denominators it meets, and returns that lcm beside the
integer result; the ideal closure uses only spans, so it never divides.
q_mono_mult returns the memo entry itself, and q_mult is the one exit
that forms Fractions: it returns a new dict of Fraction coefficients, with
one division per coefficient.

The word work of a monomial product depends on the two words alone, and
most word pairs recur with many slot pairs (the 648 pairs of a monomial
and a generator that the trunc2-n2 tensor-square roundtrip checks share 22
word pairs, whose plans it reads; it forms only 54 of the products, see
EnvAction.generators_multiply).  So it
is done once per word pair and memoized per algebra: the plan ("q_plan")
lists the ordered tripartitions of the left word, each with its
straightened word slot as integers, and the degree cap is read when a plan
is built.  A plan leaves out every part whose Lie word acts as zero on
the whole basis, which gives a zero factor for any slot (see q_mono_mult);
with a zero bracket only the part that passes every letter through is
left.

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
from .linalg import ONE, SparseVector, _integral, _over, accumulate, add_terms, sub_terms
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


def _plan(A: NCPA, alpha, beta) -> tuple:
    """The plan of the word pair (alpha, beta): the ordered tripartitions
    of alpha as ((w1, ((w2, tail), ...)), ...), where w1 brackets into the
    left slot, w2 into the opposite slot, and tail is the straightened
    word of the leftover letters followed by beta, as (numerators,
    denominator), in the order of the terms of q_mono_mult.  Parts whose
    Lie word kills every basis vector are left out (see q_mono_mult).
    Stored under "q_plan"; the degree cap is read here, once per word
    pair."""
    check_degree(len(alpha) + len(beta), "product degree")
    live: dict = {(): True}  # the empty word is the identity

    def acts(w) -> bool:
        hit = live.get(w)
        if hit is None:
            hit = live[w] = any(lie_word_on_basis(A, w, b).data for b in range(A.n))
        return hit

    plan = []
    for part1, rest in ordered_partitions(len(alpha), 2):
        w1 = subword(alpha, part1)
        if acts(w1):
            remainder = subword(alpha, rest)
            rights = []
            for part2, part3 in ordered_partitions(len(remainder), 2):
                w2 = subword(remainder, part2)
                if acts(w2):
                    tail = _integral(straighten(A, subword(remainder, part3) + beta))
                    rights.append((w2, tail))
            plan.append((w1, tuple(rights)))
    plan = A.caches["q_plan"][(alpha, beta)] = tuple(plan)
    return plan


def tail_words(A: NCPA, alpha, beta) -> set:
    """The words of the plan's tails for the word pair (alpha, beta): every
    term of a product of monomials with words alpha and beta has one of
    them as its word, whatever the slots.  Builds the plan on a miss."""
    plan = A.caches["q_plan"].get((alpha, beta))
    if plan is None:
        plan = _plan(A, alpha, beta)
    return {gamma for _, rights in plan for _, (tail, _) in rights for gamma in tail}


def q_mono_mult(A: NCPA, m1: QMonomial, m2: QMonomial) -> tuple[dict, int]:
    """Product of two basis monomials, as its memo entry (numerators,
    denominator): integers in lowest terms, memoized per algebra.  The
    entry is shared, so callers must not change it; q_mult of one-term
    elements gives the product as a new dict of Fractions.

    Walks the word pair's plan (_plan) and multiplies the slot factors of
    each part by its integer tail.  Dropping a part w1 or w2 whose Lie
    word kills every basis vector is exact: ad_w(v_b) = 0 for every b
    makes the factor v_outer . ad_w(v_b) zero for every slot pair, and
    ad_w(1) = 0 for nonempty w makes it zero for a None slot too.  Such
    terms added nothing and the others keep their order, so the sum and
    its term order are unchanged."""
    cache = A.caches["q_mono"]
    hit = cache.get((m1, m2))
    if hit is not None:
        return hit
    i1, j1, alpha = m1
    i2, j2, beta = m2
    if (i1 is None and i2 is None) or (j1 is None and j2 is None):
        raise ValueError("both factors hold the unit in one slot")
    plan = A.caches["q_plan"].get((alpha, beta))
    if plan is None:
        plan = _plan(A, alpha, beta)
    terms = []
    for w1, rights in plan:
        left = _factor(A, i1, w1, i2, True)
        if not left[0]:
            continue
        for w2, tail in rights:
            # opposite product: v_{j1} o w = w . v_{j1}
            right = _factor(A, j1, w2, j2, False)
            if right[0]:
                terms.append((left, right, tail))
    if not terms:  # most products of basis monomials are zero
        cache[(m1, m2)] = _ZERO_TERMS
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
    g = gcd(den, *nums.values())  # den itself if the terms cancel
    if g != 1:
        den //= g
        nums = {mono: v // g for mono, v in nums.items()}
    entry = cache[(m1, m2)] = (nums, den) if nums else _ZERO_TERMS
    return entry


def q_mult_scaled(A: NCPA, x: dict, y: dict) -> tuple[dict, int]:
    """(z, s) with z / s = x * y, for x and y with integer coefficients: z
    has integer coefficients, and s is the lcm of the denominators of the
    monomial products used."""
    cache = A.caches["q_mono"]
    pairs = []
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            entry = cache.get((m1, m2))
            if entry is None:
                entry = q_mono_mult(A, m1, m2)  # the one function that fills the memo
            if entry[0]:
                pairs.append((c1 * c2, entry))
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
    return out, s


def q_mult(A: NCPA, x: QElement, y: QElement) -> QElement:
    xs, sx = _integral(x)
    ys, sy = _integral(y)
    out, s = q_mult_scaled(A, xs, ys)
    return _over(out, s * sx * sy)


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
