"""Degree-truncated linear-algebra probes of two-sided ideal quotients of
the quasi-Poisson enveloping algebra.

Exact membership in an infinite-dimensional ideal is not decidable by
truncation alone: products above the saturation window could cancel down
into the truncated slice.  Window D is the span T_{D-1} of all products
m1 * g * m2 with deg(m1) + deg(m2) <= D - 1; the slice at degree d is its
intersection with the degree-<=d coordinate block, and a stability flag
records whether widening the window from D-1 to D changed the slice.
Quotient dimensions reported this way are upper bounds that in practice
stabilize at the true values for the worked examples.

The windows come from one leveled closure, not from enumerating monomial
pairs: T_0 is the span of the generators closed under multiplication by
i(a) and k(a) on both sides, and T_B adds the j(a) * v and v * j(a) for the
vectors v that T_{B-1} gained, save those the ordered rule below skips;
only T_0 is closed under i and k.  This is sound because F_0 is generated
by the i(a), k(a), F_1 = F_0 + F_0 j(A), and F_B = F_1^B along the PBW
filtration (Bergman, The diamond lemma for ring theory, Adv. Math. 29,
1978); so T_B is exactly the sum of F_a g F_b over a + b <= B once every
T_B is closed under i(b) and k(b) on both sides.  T_0 is by construction.
If T_{B-1} is, take v in T_{B-1}; the generator relations
j(a)i(b) = i(b)j(a) + i({a,b}) and j(a)k(b) = k(b)j(a) + k({a,b}) give

    i(b) * j(a)v = j(a) * i(b)v - i({a,b}) * v
    j(a)v * i(b) = j(a) * v i(b)
    i(b) * v j(a) = i(b)v * j(a)
    v j(a) * i(b) = v i(b) * j(a) + v * i({a,b})

and the same four with k in place of i.  Every term on the right is in
T_{B-1} or is a j image of T_{B-1}.  So T_B is closed as well, and closing
it again would gain no rank, as soon as T_B contains j(A) T_{B-1} and
T_{B-1} j(A); the argument needs no more than that.

The ordered rule.  Each vector a level keeps remembers how it was made: at
level 0, as j(c) * w ("left, c") or as w * j(c) ("right, c").  The next
level forms

    j(a) * v  for v made at level 0, and for v left-made with a <= c;
    v * j(a)  for v made at level 0 or left-made, and for v right-made
              with a <= c.

This is close to Janet/Pommaret involutive division (Gerdt and Blinkov,
Math. Comput. Simul. 45, 1998) and to Buchberger's chain criterion
(Gebauer and Möller, J. Symb. Comput. 6, 1988).  It still gives T_B, so
the same rows and pivot levels.  Let U_B be the span kept through level B
and assume U_b = T_b for every b < B.  The j images of T_{B-2} lie in
T_{B-1}, so it suffices that j(a) v and v j(a) lie in U_B for each vector
v kept at level B-1.  Kept vectors are their products as made, up to a
nonzero scalar, so the identities below, from [j(a), j(b)] = j({a,b}),
hold exactly; w is kept at level B-2, so its j images lie in T_{B-1}.

  Right products, by induction on a.  Take v = w j(c) with a > c.  Then
  v j(a) = (w j(a)) j(c) + w j({c,a}).  The last term lies in T_{B-1}.
  w j(a) lies in T_{B-1}: it is a combination of vectors kept at level
  B-1, whose j(c) images lie in U_B by induction (c < a), plus a part of
  T_{B-2}, whose j(c) image lies in T_{B-1}.

  Left products, by induction on a, once every right product is known to
  lie in U_B.  Take v = j(c) w with a > c.  Then
  j(a) v = j(c) (j(a) w) + j({a,c}) w; as before, j(a) w is a combination
  of kept vectors, whose j(c) images lie in U_B by induction, plus a part
  of T_{B-2}.  A right-made v = w j(d) gives j(a) v = (j(a) w) j(d), a
  combination of right j(d) images of kept vectors plus T_{B-1}.

Rows are kept in descending term order, so those with pivots in the low
block span the slice, and a pivot never moves once taken: the level that
took it tells every narrower window's rank and stable flag.  TruncatedQuotient
is the one reader of the closure; dimension_table and truncated_ideal_span
call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .limits import DegreeCapExceeded, check_degree
from .linalg import (
    Echelon,
    ONE,
    SparseVector,
    Subspace,
    _integral,
    _primitive,
    close_under,
    join_and_reduce,
    remainder,
)
from .ncpa import NCPA
from .pbw import u_monomials
from .smash import GENERATOR_TERM, QElement, QMonomial, expand_unit, q_mult_scaled


@dataclass(frozen=True)
class IdealGens:
    label: str
    gens: tuple

    def __post_init__(self):
        for g in self.gens:
            if not g:
                raise ValueError("zero ideal generator")

    def merged_with(self, other: "IdealGens") -> "IdealGens":
        return IdealGens(f"{self.label}+{other.label}", self.gens + other.gens)


def _nonzero_expansions(A: NCPA, label: str, elements) -> IdealGens:
    """The generators written with unit slots (see smash), expanded."""
    gens = (expand_unit(A, x) for x in elements)
    return IdealGens(label, tuple(g for g in gens if g))


def ideal_j_gens(A: NCPA) -> IdealGens:
    """One generator per basis pair (p, q):
    j(v_p v_q) - i(v_p) j(v_q) - k(v_q) j(v_p)."""
    return _nonzero_expansions(A, "J", (
        {**{(None, None, (r,)): c for r, c in A.mul_basis(p, q).items()},
         (p, None, (q,)): -ONE, (None, q, (p,)): -ONE}
        for p in range(A.n) for q in range(A.n)))


def ideal_i_gens(A: NCPA) -> IdealGens:
    """One generator per basis element: j(a) - i(a) + k(a)."""
    return _nonzero_expansions(A, "I", (
        {(None, None, (a,)): ONE, (a, None, ()): -ONE, (None, a, ()): ONE}
        for a in range(A.n)))


def ideal_oh_gens(A: NCPA) -> IdealGens:
    """One generator per basis element: (a (x) 1 - 1 (x) a) # 1."""
    return _nonzero_expansions(A, "OH", (
        {(a, None, ()): ONE, (None, a, ()): -ONE} for a in range(A.n)))


def ideal_gens_by_label(A: NCPA, label: str) -> IdealGens:
    parts = label.split("+")
    out = None
    for part in parts:
        if part == "J":
            gens = ideal_j_gens(A)
        elif part == "I":
            gens = ideal_i_gens(A)
        elif part == "OH":
            gens = ideal_oh_gens(A)
        else:
            raise ValueError(f"unknown ideal label {part!r}")
        out = gens if out is None else out.merged_with(gens)
    return out


def env_monomials(A: NCPA, max_degree: int) -> list[QMonomial]:
    """Monomial basis of the enveloping algebra up to the given degree, in
    the fixed term order (q_term_key: u_monomials runs by degree, then word);
    monomials of degree <= d form a prefix."""
    n = A.n
    return [(i, j, word) for word in u_monomials(n, max_degree)
            for i in range(n) for j in range(n)]


def qelem_to_vector(x: QElement, index: dict, n_coords: int) -> SparseVector:
    data = {}
    for mono, c in x.items():
        idx = index.get(mono)
        if idx is None:
            raise ValueError(f"monomial {mono} outside coordinate window")
        data[idx] = c
    v = SparseVector(n_coords)
    v.data = data
    return v


def _product(A: NCPA, x: QElement, y: QElement) -> QElement:
    """x * y for integer x, y, up to a nonzero scalar: a primitive integer
    vector."""
    return _primitive(q_mult_scaled(A, x, y)[0])


def _both_sides(A: NCPA, factors: list) -> list:
    """Left and right multiplication by each integer factor (_product)."""
    return [op for x in factors for op in (
        lambda y, x=x: _product(A, x, y), lambda y, x=x: _product(A, y, x))]


class _LeveledClosure:
    """The spans T_0 <= T_1 <= ... of one generator set, grown on demand.

    Coordinates are negated positions in the ascending term order, so a
    row's pivot, its least coordinate, is its largest monomial, and a wider
    window adds coordinates without renumbering; Echelon(0) takes pivots at
    every negative coordinate.  Holds no reference to the algebra, whose
    memo holds it: a cycle would outlive each call until collected.
    """

    def __init__(self, A: NCPA, gens: IdealGens):
        # one-term generators, the unit kept as a None slot (see smash);
        # i(1), k(1) act as the identity
        ik = [a for a in range(A.n) if A.basis(a) != A.unit]
        i, k, j = (GENERATOR_TERM[kind] for kind in "ikj")
        self.ik = [{i(a): 1} for a in ik] + [{k(a): 1} for a in ik]
        self.j = [{j(a): 1} for a in range(A.n)]
        # seeds level 0, then the last level's gain, each as (vector, l, r):
        # the next level forms j(a) * vector for a <= l and vector * j(a) for
        # a <= r (see the module docstring).  Only spans are used, so the
        # vectors are primitive integer vectors.
        top = A.n - 1
        self.frontier = [(_primitive(_integral(g)[0]), top, top) for g in gens.gens]
        self.level = -1
        self.ech = Echelon(0)
        self.coord: dict[QMonomial, int] = {}
        self.pivot_level: dict[int, int] = {}  # level that took each pivot
        # per level, the j products formed and skipped (none at level 0)
        self.j_formed: list[int] = []
        self.j_skipped: list[int] = []

    def extend_to(self, A: NCPA, D: int) -> None:
        """Grow the span to T_{D-1}, window D."""
        if self.level >= D - 1:
            return
        for t, mono in enumerate(env_monomials(A, D)):
            self.coord.setdefault(mono, -1 - t)
        top = A.n - 1

        def add(x: QElement):
            return self.ech.add_data(qelem_to_vector(x, self.coord, 0).data)

        while self.level < D - 1:
            self.level += 1
            if self.level == 0:
                seeds = (y for y, _, _ in self.frontier)
                gained = close_under(add, seeds, _both_sides(A, self.ik))
                self.frontier = [(y, top, top) for y in gained]
                formed = skipped = 0
            else:
                # above level 0 the generator relations carry T_{B-1}'s i/k
                # closure to the j images, and the ordered rule forms only
                # the j images the others do not span (module docstring)
                gained, formed = [], 0
                for y, left, right in self.frontier:
                    for a, x in enumerate(self.j):
                        if a <= left:
                            v = _product(A, x, y)
                            if add(v) is not None:
                                gained.append((v, a, top))
                        if a <= right:
                            v = _product(A, y, x)
                            if add(v) is not None:
                                gained.append((v, -1, a))
                    formed += left + right + 2
                skipped = 2 * A.n * len(self.frontier) - formed
                self.frontier = gained
            self.j_formed.append(formed)
            self.j_skipped.append(skipped)
            for p in self.ech.pivot_row:
                self.pivot_level.setdefault(p, self.level)

    def low_rows(self, n_low: int) -> dict[int, dict[int, int]]:
        """Copies of the rows that span the current span met with the first
        n_low monomials, at monomial positions and keyed by their pivots:
        each row's largest monomial, zero in every other row."""
        return {-1 - p: {-1 - c: x for c, x in row.items()}
                for p, row in self.ech.pivot_row.items() if p >= -n_low}


def _leveled_closure(A: NCPA, gens: IdealGens, D: int) -> _LeveledClosure:
    """The generators' closure grown to window D, memoized per algebra so
    that calls with non-decreasing windows share one leveled pass."""
    memo = A.caches["ideal_slice"]
    key = tuple(tuple(g.items()) for g in gens.gens)
    # stored back only once extended, so an error leaves no torn entry
    closure = memo.pop(key, None)
    if closure is None or closure.level >= D:
        # past window D, T_{D-1} is no longer at hand: start over
        closure = _LeveledClosure(A, gens)
    closure.extend_to(A, D)
    memo[key] = closure
    return closure


def truncated_ideal_span(
    A: NCPA, gens: IdealGens, d: int, D: int
) -> tuple[Subspace, bool]:
    """Ideal slice at degree d with saturation window D, plus a stability
    flag comparing against the window D - 1."""
    q = TruncatedQuotient(A, gens, d, D)
    return q.ideal_slice, q.stable


class TruncatedQuotient:
    """Finite slice of an enveloping-algebra quotient.

    The one reader of the leveled closure.  The ideal slice is spanned by
    the closure's rows whose pivots, each row's largest monomial, lie at
    degree <= d.  The coset representatives are the other monomials of
    degree <= d, so the degree <= d block is the slice plus their span, and
    each element has one decomposition: reduce() clears the pivots and reads
    off the rest.  The dimension and stable flag need no elimination, but
    ideal_slice does (a Subspace pivots at each row's least monomial), so it
    is built on first read.
    """

    def __init__(self, A: NCPA, gens: IdealGens, degree: int, saturation: int):
        if saturation < degree:
            raise ValueError("saturation bound must be >= truncation degree")
        check_degree(saturation, "saturation degree")
        self.algebra = A
        self.gens = gens
        self.degree = degree
        self.saturation = saturation
        self.monomials = env_monomials(A, degree)
        self.index = {m: t for t, m in enumerate(self.monomials)}
        n_low = len(self.monomials)
        if saturation == 0:  # window 0 holds no products
            self._slice_rows, self.stable = {}, True
        else:
            closure = _leveled_closure(A, gens, saturation)
            # copied: a later, wider window reworks the closure's rows
            self._slice_rows = closure.low_rows(n_low)
            # stable: no pivot in the block is new at window D; window D - 1
            # has no degree-D block, so d = D counts as unstable
            self.stable = degree < saturation and all(
                B < saturation - 1 for p, B in closure.pivot_level.items() if p >= -n_low
            )
        coset = [t for t in range(n_low) if t not in self._slice_rows]
        self._coset_position = {t: k for k, t in enumerate(coset)}
        self.coset_basis: list[QMonomial] = [self.monomials[t] for t in coset]

    @cached_property
    def ideal_slice(self) -> Subspace:
        """The slice as a Subspace, eliminated on first read."""
        n_low = len(self.monomials)
        rows = [SparseVector(n_low, row) for row in self._slice_rows.values()]
        out = join_and_reduce(rows, n_low)
        if out.rank != len(self._slice_rows):
            raise RuntimeError("coset basis bookkeeping failed")
        return out

    @property
    def dimension(self) -> int:
        return len(self.coset_basis)

    def reduce(self, x: QElement) -> SparseVector:
        """Coordinates of x over the coset basis, modulo the ideal slice."""
        for mono in x:
            if len(mono[2]) > self.degree:
                raise DegreeCapExceeded(
                    f"element degree {len(mono[2])} exceeds truncation {self.degree}"
                )
        vec = qelem_to_vector(x, self.index, len(self.monomials))
        rest = remainder(vec.data, self._slice_rows)
        out = SparseVector(len(self.coset_basis))
        out.data = {self._coset_position[t]: c for t, c in rest.items()}
        return out


def truncated_quotient(
    A: NCPA, gens: IdealGens, d: int, D: int | None = None
) -> TruncatedQuotient:
    return TruncatedQuotient(A, gens, d, d + 2 if D is None else D)


def dimension_table(
    A: NCPA, gens: IdealGens, max_degree: int, saturation: int | None = None
) -> list[dict]:
    """Quotient dimension and stability flag for each degree 0..max_degree.

    Windows never shrink as the degree grows, so one leveled pass serves
    every degree."""
    quotients = (truncated_quotient(A, gens, d, saturation) for d in range(max_degree + 1))
    return [{"degree": q.degree, "saturation": q.saturation, "dimension": q.dimension,
             "stable": q.stable} for q in quotients]
