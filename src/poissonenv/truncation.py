"""Degree-truncated linear-algebra probes of two-sided ideal quotients of
the quasi-Poisson enveloping algebra.

Exact membership in an infinite-dimensional ideal is not decidable by
truncation alone: products above the saturation window could cancel down
into the truncated slice.  Window D is the span T_{D-1} of all products
m1 * g * m2 with deg(m1) + deg(m2) <= D - 1; the slice at degree d is its
intersection with the degree-<=d coordinate block, and a stability flag
records whether widening the window from D-1 to D changed the slice.
Quotient dimensions reported this way are upper bounds that in practice
stabilize at the true values for the worked examples.  Dimensions and
stable flags do not depend on the basis of the algebra (the argument is in
ncpa.unit_first's docstring), so env-dim computes them in a basis that
holds the unit.

The windows come from one leveled closure, not from enumerating monomial
pairs: T_0 is the span of the generators closed under multiplication by
i(a) and k(a) on both sides, and T_B adds the j(a) * v and v * j(a) for the
vectors v that T_{B-1} gained, save those the ordered and central rules
below skip; only T_0 is closed under i and k.  This is sound because F_0 is
generated by the i(a), k(a), F_1 = F_0 + F_0 j(A), and F_B = F_1^B along the
PBW filtration (Bergman, The diamond lemma for ring theory, Adv. Math. 29,
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

The central rule.  j(a) is central when {v_a, A} = 0 (the algebra's
bracket_central flags, which the smash products and straighten read too), and
i(a), k(a) are when v_a also commutes with A.  Proof: the commutators
i({a,b}), k({a,b}) and j({a,b}) of j(a) with i(b), k(b), j(b) then vanish,
and so do i([a,b]) and -k([a,b]) (i(a) with i(b), k(a) with k(b); i and k
always commute), while the generators' products span the algebra.  A
central g has g v = v g, so only v g is formed: at level 0 for central i(a)
and k(a), and above it for central j(a), since the ordered rule admits
j(a) * v only for v made at level 0 or left-made, and forms v * j(a) for
those at every a.  The vector kept is then right-made, and the proof above
holds as it stands: where it takes j(c) x in U_B for c < a, a central c
gives j(c) x = x j(c), a right product of a kept vector.

The family rule.  Level 0 closes under four operator families in a fixed
order: right k, right i, left k, left i, where a family's steps multiply
by the k(a) or i(a) of one side for every a but the unit's index, and the
left families leave out the central letters.  A seed gets every family,
and a vector made by family f gets only the families before f.  This is
a chain criterion of the ordered rule's kind, and it still gives T_0, so
the same rows and pivot levels.  Three facts carry it:

  (a) two steps of one family collapse to one step of it: for instance
      w i(c) i(a) = w i(v_c v_a) = sum_e m^e_{ca} w i(e), likewise for k
      and on the left, and i(1), k(1) are the identity;
  (b) any two families commute: i(a) and k(b) commute, and a left
      product commutes with a right one;
  (c) the left step of a central letter equals its right step.

Let U be the span of the vectors level 0 keeps.  Each kept v but a seed
is T u up to a nonzero scalar, for a step T of the family f that made v
and a kept u made before v that gets f.  Claim: T' v lies in U for every
kept v and every step T' of every family g; a central left step is a
right one by (c), so the steps the families leave out follow.  By
induction on g, and for each g on the order in which vectors were made.
If v gets g, T' v was formed, so it lies in U.  Otherwise v = T u with
f <= g.  If f = g, then by (a) T' T u is a combination of u and of steps
of family f applied to u, which u gets (a central left letter by (c) is
a right step of an earlier family, which u gets too), so it lies in U.
If f < g, then T' T u = T (T' u) by (b); T' u lies in U by induction on
the order, a combination of kept vectors, and their T images lie in U by
induction on the family.  So U is closed under every i(a) and k(a) on
both sides; it holds the seeds and lies in T_0, hence U = T_0.

Rows are kept in descending term order, each pivot at its row's largest
monomial, so those with pivots in the low block lie in it and span the
slice, and a pivot never moves once taken: the level that took it tells
every narrower window's rank and stable flag.  The echelon keeps its rows
triangular and never rewrites one, so the closure does no back-substitution:
the pivots alone give dimensions and stable flags, and a slice's rows are
reduced only when read.  One reader, _LeveledClosure.block, gives the
degree <= d block at any window D the closure has reached: its rows taken
below level D are exactly those the closure held at window D.  Each
TruncatedQuotient builds its own closure, and dimension_table reads every
degree off the closure of one quotient at its top degree and widest window.

Every product the closure forms multiplies a kept vector by one generator
i(a), k(a) or j(a) on one side, so it works in its own integer
coordinates: a vector is a primitive {coordinate: int} dict, and its
product with g is the integer combination of g's columns, the products of
the monomials at its coordinates with g.  A product reads only the word
and the slots g touches, and passes the others through, so the monomials
that agree there share one column, kept as coordinate offsets and built
once per closure from smash.q_gen_mult; the product of a one-coordinate
vector is its column's primitive form, shifted.  The products formed and
their order are those of multiplying the vectors' monomial forms in the
smash product, each up to a nonzero scalar, which the echelon divides
out, and every nonempty one is inserted, so the rows and pivot levels are
the same (_LeveledClosure).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, lcm

from .limits import DegreeCapExceeded, check_degree
from .linalg import (
    Echelon,
    ONE,
    SparseVector,
    Subspace,
    _integral,
    _primitive,
    join_and_reduce,
    reduced_rows,
    remainder,
)
from .ncpa import NCPA
from .pbw import u_monomials
from .smash import GENERATOR_TERM, QElement, QMonomial, expand_unit, q_gen_mult


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


def env_monomials(A: NCPA, max_degree: int, min_degree: int = 0) -> list[QMonomial]:
    """Monomial basis of the enveloping algebra in degrees min_degree to
    max_degree, in the fixed term order (q_term_key: u_monomials runs by
    degree, then word); monomials of degree <= d form a prefix."""
    n = A.n
    return [(i, j, word) for word in u_monomials(n, max_degree, min_degree)
            for i in range(n) for j in range(n)]


def _coordinates(x: dict, index: dict) -> dict:
    """x with each monomial replaced by its index; ValueError for a
    monomial that has none."""
    data = {}
    for mono, c in x.items():
        idx = index.get(mono)
        if idx is None:
            raise ValueError(f"monomial {mono} outside coordinate window")
        data[idx] = c
    return data


def _slots(n: int, g: QMonomial, left: bool) -> tuple[int, int]:
    """(wide, narrow) for the product with g on one side: the monomial at
    position t = w n^2 + i n + j keeps its columns under t - t % wide +
    t % narrow, its position with the slots the product passes through set
    to 0 (see _LeveledClosure).  y * j(a) reads the word alone, i(a) on
    either side passes the j slot through, k(a) the i slot, and j(a) * y
    reads both."""
    gi, _, gw = g
    if gw:
        return (1, 1) if left else (n * n, 1)
    return (n, 1) if gi is not None else (n * n, n)


def qelem_to_vector(x: QElement, index: dict, n_coords: int) -> SparseVector:
    v = SparseVector(n_coords)
    v.data = _coordinates(x, index)
    return v


class _LeveledClosure:
    """The spans T_0 <= T_1 <= ... of one generator set, grown on demand.

    Coordinates are negated positions in the ascending term order, so a
    row's pivot, its least coordinate, is its largest monomial, and a wider
    window adds coordinates without renumbering; Echelon(0) takes pivots at
    every negative coordinate.  Every vector the closure keeps is a
    primitive integer {coordinate: int} dict, since only spans are used.

    The closure multiplies only by one generator g at a time, so it keeps
    g's columns: the product of the monomial m = (i, j, w) at coordinate c
    with g on one side, as integer numerators over a denominator, built
    from smash.q_gen_mult.  The product passes some slots of m through
    unchanged (q_gen_mult's case analysis): y * j(a) is (i, j) # the
    straightened w a, so both; y * i(a) sums v_i . ad_w1(v_a) (x) v_j and
    i(a) * y is (v_a . v_i) (x) v_j, so the j slot; y * k(a) and k(a) * y
    likewise the i slot; and j(a) * y neither, since its bracket terms
    ad_a(v_i) (x) v_j and v_i (x) ad_a(v_j) read both.  Each term
    (i', j', w') then keeps every passed slot, and its coefficient depends
    on the word and the slots read alone.  Coordinates are
    c = -1 - (p n^2 + i n + j), with p the position of w among the words
    (env_monomials runs word-major, then i, then j), so the term's
    coordinate minus c is -(p' - p) n^2 - (i' - i) n - (j' - j), in which
    each passed slot's difference is 0: every monomial that agrees with m
    in w and the slots read has the same terms, moved by the same offsets.
    The degree cap reads w alone, and a window holds all n^2 slot pairs of
    each word it holds, so the terms of one member lie in the window when
    those of another do.  So the column is kept once per class, as
    {offset: numerator} over its denominator, under the class's coordinate
    with the passed slots set to 0 (_slots), and read at c + offset.  A
    product y * g or g * y is the integer combination of the columns of
    y's coordinates, over the lcm of their denominators, made primitive: a
    positive multiple of the product q_mult forms from the monomials at
    those coordinates, hence the same primitive vector.  A one-coordinate
    y needs no lcm and no gcd: each column also keeps its primitive form,
    with a positive entry at its least offset, and the product is that
    form moved to y's coordinate, the same vector up to its sign, which
    the echelon normalises.
    """

    def __init__(self, A: NCPA, gens: IdealGens):
        self.algebra = A
        # one-term generators, the unit kept as a None slot (see smash);
        # i(1), k(1) act as the identity
        ik = [a for a in range(A.n) if A.basis(a) != A.unit]
        i, k, j = (GENERATOR_TERM[kind] for kind in "ikj")
        # the central generators, by basis index (see the module docstring)
        basis = range(A.n)
        self.j_central = A.bracket_central
        self.ik_central = tuple(
            c and all(A.mul_basis(a, b) == A.mul_basis(b, a) for b in basis)
            for a, c in zip(basis, self.j_central))
        # level 0's operator families, in the family rule's order (module
        # docstring), each as (left, generators): right k, right i, then
        # left k and left i without the central letters
        self.families = [(left, [g(a) for a in ik if not (left and self.ik_central[a])])
                         for left in (False, True) for g in (k, i)]
        self.j = [j(a) for a in basis]
        # the generators, as primitive integer vectors over monomials until
        # level 0 gives them coordinates
        self.seeds = [_primitive(_integral(g)[0]) for g in gens.gens]
        # the last level's gain, each as (vector, l, r): the next level
        # forms j(a) * vector for a <= l, save central j(a), and
        # vector * j(a) for a <= r (see the module docstring)
        self.frontier: list[tuple[dict[int, int], int, int]] = []
        self.level = -1
        self.ech = Echelon(0)
        self.window = -1  # the degree the monomials reach
        self.monomials: list[QMonomial] = []  # by position, -1 - coordinate
        self.coord: dict[QMonomial, int] = {}
        # per (g, left): the slot moduli of _slots and the columns by key
        self.columns: dict[tuple, tuple[int, int, dict]] = {}
        self.pivot_level: dict[int, int] = {}  # level that took each pivot
        # per level, the j products formed and skipped (none at level 0)
        self.j_formed: list[int] = []
        self.j_skipped: list[int] = []

    def extend_to(self, D: int) -> None:
        """Grow the span to T_{D-1}, window D."""
        A = self.algebra
        if D > self.window:
            # the new window's monomials come after the old ones
            self.monomials += env_monomials(A, D, self.window + 1)
            self.window = D
            for t in range(len(self.coord), len(self.monomials)):
                self.coord[self.monomials[t]] = -1 - t
        top = A.n - 1
        add_data = self.ech.add_data
        times = self._times

        def add(v: dict[int, int]) -> bool:
            # a gained row's pivot, its least coordinate, is taken here;
            # an empty product is not inserted
            row = add_data(v) if v else None
            if row is None:
                return False
            self.pivot_level[min(row)] = self.level
            return True

        while self.level < D - 1:
            self.level += 1
            if self.level == 0:
                # each kept vector with the number of families it gets: a
                # seed every one, a vector made by family f those before f
                # (the family rule, module docstring)
                families = self.families
                gained = [y for y in (_coordinates(y, self.coord) for y in self.seeds)
                          if add(y)]
                queue = [(y, len(families)) for y in gained]
                while queue:
                    y, f = queue.pop()
                    for e in range(f):
                        left, gens = families[e]
                        for g in gens:
                            v = times(y, g, left)
                            if add(v):
                                gained.append(v)
                                queue.append((v, e))
                self.frontier = [(y, top, top) for y in gained]
                formed = skipped = 0
            else:
                # above level 0 the generator relations carry T_{B-1}'s i/k
                # closure to the j images, and the ordered and central rules
                # form only the j images the others do not span (module
                # docstring)
                gained, formed = [], 0
                for y, left, right in self.frontier:
                    for a, g in enumerate(self.j):
                        if a <= left and not self.j_central[a]:
                            v = times(y, g, True)
                            formed += 1
                            if add(v):
                                gained.append((v, a, top))
                        if a <= right:
                            v = times(y, g, False)
                            formed += 1
                            if add(v):
                                gained.append((v, -1, a))
                skipped = 2 * A.n * len(self.frontier) - formed
                self.frontier = gained
            self.j_formed.append(formed)
            self.j_skipped.append(skipped)

    def _times(self, y: dict[int, int], g: QMonomial, left: bool) -> dict[int, int]:
        """g * y if left, else y * g, up to a nonzero scalar: the primitive
        integer combination of g's columns, and for a one-coordinate y its
        column's primitive form, shifted (see the class docstring)."""
        memo = self.columns.get((g, left))
        if memo is None:
            memo = self.columns[(g, left)] = (*_slots(self.algebra.n, g, left), {})
        wide, narrow, columns = memo
        cols = []
        for c in y:
            t = ~c  # the position, -1 - c
            key = c + t % wide - t % narrow
            col = columns.get(key)
            if col is None:
                col = columns[key] = self._column(t, g, left)
            cols.append(col)
        if len(cols) == 1:
            c = next(iter(y))
            return {c + o: x for o, x in cols[0][2].items()}
        s = lcm(*[den for _, den, _ in cols])
        out: dict[int, int] = {}
        for (c, v), (offsets, den, _) in zip(y.items(), cols):
            if den != s:
                v *= s // den
            for o, d in offsets.items():
                k = c + o
                x = out.get(k, 0) + v * d
                if x:
                    out[k] = x
                else:
                    out.pop(k, None)
        return _primitive(out)

    def _column(self, t: int, g: QMonomial, left: bool) -> tuple[dict, int, dict]:
        """The column of the monomial at position t: (offsets, den, prim),
        its numerators over den by offset from its coordinate, and their
        primitive form with a positive entry at the least offset."""
        nums, den = q_gen_mult(self.algebra, self.monomials[t], g, left)
        c = -1 - t
        offsets = {k - c: x for k, x in _coordinates(nums, self.coord).items()}
        prim = _primitive(offsets)
        if prim and prim[min(prim)] < 0:
            prim = {o: -x for o, x in prim.items()}
        return offsets, den, prim

    def block(self, d: int, D: int) -> tuple[int, dict[int, dict[int, int]], bool]:
        """(n_low, rows, stable) of the degree <= d block at a window D grown:
        n_low monomials, n^2 slot pairs for each of the comb(n + d, d) words;
        the echelon's own rows taken below level D with pivots, their largest
        monomials, in the block, by pivot, which span T_{D-1} met with it;
        stable if no pivot in it is new at window D.  Window 0 holds no
        products, and window D - 1 has no degree-D block, so d = D is unstable."""
        n = self.algebra.n
        n_low = n * n * comb(n + d, d)
        level = self.pivot_level
        rows = {p: row for p, row in self.ech.pivot_row.items()
                if p >= -n_low and level[p] < D}
        stable = D == 0 or (d < D and all(level[p] < D - 1 for p in rows))
        return n_low, rows, stable


def truncated_ideal_span(
    A: NCPA, gens: IdealGens, d: int, D: int
) -> tuple[Subspace, bool]:
    """Ideal slice at degree d with saturation window D, plus a stability
    flag comparing against the window D - 1.  Kept for perfbench.tracing,
    whose truncation.products counts the products formed under it."""
    q = TruncatedQuotient(A, gens, d, D)
    return q.ideal_slice, q.stable


class TruncatedQuotient:
    """Finite slice of an enveloping-algebra quotient.

    Builds the leveled closure to its window and reads its block.  The
    ideal slice is spanned by the closure's rows whose pivots, each row's
    largest monomial, lie at degree <= d.  The coset representatives are
    the other monomials of degree <= d, so that block is the slice plus
    their span, and each element has one decomposition: reduce() clears the
    pivots and reads off the rest.  The dimension, coset basis and stable
    flag need only the pivots; reduce() and ideal_slice need the rows in
    reduced form, and ideal_slice a second elimination (a Subspace pivots at
    each row's least monomial), so each is built on first read.  The window
    defaults to degree + 2.
    """

    def __init__(self, A: NCPA, gens: IdealGens, degree: int, saturation: int | None = None):
        if saturation is None:
            saturation = degree + 2
        if saturation < degree:
            raise ValueError("saturation bound must be >= truncation degree")
        check_degree(saturation, "saturation degree", A.degree_cap)
        self.algebra = A
        self.gens = gens
        self.degree = degree
        self.saturation = saturation
        self.closure = _LeveledClosure(A, gens)
        self.closure.extend_to(saturation)
        n_low, self._low_rows, self.stable = self.closure.block(degree, saturation)
        # the monomials of degree <= d, a prefix of the closure's
        self.monomials = self.closure.monomials[:n_low]
        coset = [t for t in range(len(self.monomials)) if -1 - t not in self._low_rows]
        self._coset_position = {t: k for k, t in enumerate(coset)}
        self.coset_basis: list[QMonomial] = [self.monomials[t] for t in coset]

    @cached_property
    def index(self) -> dict[QMonomial, int]:
        """Each monomial's position; reduce() reads it."""
        return {m: t for t, m in enumerate(self.monomials)}

    @cached_property
    def _slice_rows(self) -> dict[int, dict[int, int]]:
        """The low rows in reduced form, at monomial positions and keyed by
        their pivots, each zero in every other row."""
        return {-1 - p: {-1 - c: x for c, x in row.items()}
                for p, row in reduced_rows(self._low_rows).items()}

    @cached_property
    def ideal_slice(self) -> Subspace:
        """The slice as a Subspace, eliminated on first read.  Kept for
        lower bounds and module morphisms (ROADMAP items 3 and 10)."""
        n_low = len(self.monomials)
        rows = [SparseVector(n_low, row) for row in self._slice_rows.values()]
        out = join_and_reduce(rows, n_low)
        if out.rank != len(self._low_rows):
            raise RuntimeError("coset basis bookkeeping failed")
        return out

    @property
    def dimension(self) -> int:
        return len(self.coset_basis)

    def reduce(self, x: QElement) -> SparseVector:
        """Coordinates of x over the coset basis, modulo the ideal slice; kept
        for lower bounds and module morphisms (ROADMAP items 3 and 10)."""
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


def dimension_table(
    A: NCPA, gens: IdealGens, max_degree: int, saturation: int | None = None
) -> list[dict]:
    """Quotient dimension and stability flag for each degree 0..max_degree.

    Windows never shrink as the degree grows, so the closure of the quotient
    at the top degree and the widest window serves every degree through its
    blocks; the widest window is checked against the cap before any closure
    work."""
    top = max_degree + 2 if saturation is None else saturation
    check_degree(top, "saturation degree", A.degree_cap)
    if max_degree < 0:
        return []
    closure = TruncatedQuotient(A, gens, max_degree, top).closure
    table = []
    for d in range(max_degree + 1):
        D = d + 2 if saturation is None else saturation
        n_low, rows, stable = closure.block(d, D)
        table.append({"degree": d, "saturation": D, "dimension": n_low - len(rows),
                      "stable": stable})
    return table
