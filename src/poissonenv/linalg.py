"""Exact rational sparse vectors, echelon subspaces, and matrices.

Everything is over Q; no floating point anywhere.  Vectors and subspaces
hold fractions.Fraction entries at the public surface, but the arithmetic
runs on integers.  The one elimination kernel works on primitive integer
rows: a vector's denominators are cleared on entry, and Fractions are
formed again only on the way out, by _over (Subspace rows, remainders,
express coefficients and the smash product's results).  A Subspace is
built from an Echelon's integer rows, so it clears no denominators.
Echelon.add_data takes int data as it is; the ideal closure in truncation
feeds it integer vectors from the smash product's integer kernel, and
linear systems (solve_nullspace) are plain {index: value} rows.  A matrix
is held in one canonical integer form, sparse integer rows over one
denominator (see "exact matrices" below), and mat_mul is its one product.
SparseVector, Subspace and matrices are not changed once built (by
convention: SparseVector.data and a matrix's rows are plain dicts), while
Echelon and TrackedEchelon are mutable accumulators.  Nothing here is
locked; the package runs in a single thread.  Subspaces are kept in
reduced row echelon form, which makes subspace equality plain basis-list
equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints / strings like "3/4" to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


class SparseVector:
    """Length-n vector storing only nonzero rational entries."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: Mapping[int, Fraction] | None = None):
        if n < 0:
            raise ValueError("negative length")
        clean: dict[int, Fraction] = {}
        if data:
            for i, v in data.items():
                v = rat(v)
                if v:
                    if not 0 <= i < n:
                        raise ValueError(f"index {i} out of range for length {n}")
                    clean[i] = v
        self.n = n
        self.data = clean

    @classmethod
    def unit(cls, n: int, i: int) -> "SparseVector":
        return cls(n, {i: ONE})

    def get(self, i: int) -> Fraction:
        return self.data.get(i, ZERO)

    def items(self):
        return self.data.items()

    def is_zero(self) -> bool:
        return not self.data

    def support(self) -> list[int]:
        return sorted(self.data)

    def to_dense(self) -> list[Fraction]:
        return [self.data.get(i, ZERO) for i in range(self.n)]

    def scale(self, c) -> "SparseVector":
        c = rat(c)
        if not c:
            return SparseVector(self.n)
        return SparseVector(self.n, {i: c * v for i, v in self.data.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = SparseVector(self.n)
        out.data = add_terms(self.data, other.data)
        return out

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = SparseVector(self.n)
        out.data = sub_terms(self.data, other.data)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and self.n == other.n
            and self.data == other.data
        )

    def __repr__(self) -> str:
        entries = ", ".join(f"{i}: {v}" for i, v in sorted(self.data.items()))
        return f"SparseVector({self.n}, {{{entries}}})"


# -- generic coefficient-dict helpers (terms: hashable key -> Fraction) -----

def add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, ZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def sub_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, ZERO) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def accumulate(out: dict, key, coeff: Fraction) -> None:
    """out[key] += coeff in place; a key whose sum is zero is dropped."""
    s = out.get(key, ZERO) + coeff
    if s:
        out[key] = s
    else:
        out.pop(key, None)


# -- echelon machinery -------------------------------------------------------
#
# Rows are primitive integer vectors (content 1, positive pivot entry), so
# elimination is integer multiply-and-subtract (fraction-free, as in
# Bareiss, Math. Comp. 22, 1968); a vector's denominators are cleared once
# on entry, and Fractions are formed again only on the way out.  An
# Echelon keeps its rows triangular: a row's pivot is its least coordinate
# and no other row's pivot, but a row may have entries at larger pivots.
# An insert reduces a vector by leading term only and never rewrites a
# stored row; the reduced form, each row zero at every other row's pivot,
# is built once where it is read, by reduced_rows, as Gröbner-basis
# practice interreduces once at the end (Faugère, F4, J. Pure Appl. Algebra
# 139, 1999).  All row reduction goes through _eliminate: _top_reduce for
# inserts and TrackedEchelon.express, _clear_pivots for reduced rows and
# remainders.

def _integral(data: Mapping) -> tuple[dict, int]:
    """The integer vector s * data, with s the lcm of its denominators, and s.

    The values may be Fractions or ints (an int is its own numerator, over
    1), so integer data passes through with s = 1."""
    s = lcm(*[v.denominator for v in data.values()])
    return {c: v.numerator * (s // v.denominator) for c, v in data.items()}, s


def _primitive(data: dict) -> dict:
    """The integer vector data divided by the gcd of its entries."""
    g = gcd(*data.values())
    return {c: v // g for c, v in data.items()} if g > 1 else data


def _eliminate(out: dict, p: int, row: Mapping[int, int]) -> int:
    """out := (a/g) * out - (b/g) * row in place, where a = row[p],
    b = out[p] and g = gcd(a, b), so column p cancels; returns a/g."""
    a = row[p]
    b = out[p]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for c in out:
            out[c] *= a
    for c, v in row.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return a


IntRows = Mapping[int, Mapping[int, int]]  # pivot column -> integer row


def _top_reduce(data: Mapping, pivot_row: IntRows, n: int) -> tuple[dict[int, int], int, int]:
    """(r, s, p) with r the integer vector s * (data - w), w in the span of
    triangular rows, s > 0, and p the least coordinate of r, or n if r has
    none; p is no pivot.

    Eliminates the leading coordinate while it is a pivot: each row is zero
    below its pivot, so the leading coordinate only grows."""
    out, s = _integral(data)
    p = min(out, default=n)
    while p in pivot_row:
        s *= _eliminate(out, p, pivot_row[p])
        p = min(out, default=n)
    return out, s, p


def _clear_pivots(data: Mapping, pivot_row: IntRows) -> tuple[dict[int, int], int]:
    """(r, s) with r the integer vector s * (data - w), w in the rows' span,
    zero at every pivot column, and s > 0, for reduced rows.

    A reduced row is zero at every pivot column but its own, so eliminating
    one pivot never introduces entries at the others, and a single pass
    over the initial support works."""
    out, s = _integral(data)
    for p in [c for c in out if c in pivot_row]:
        s *= _eliminate(out, p, pivot_row[p])
    return out, s


def reduced_rows(pivot_row: IntRows) -> dict[int, dict[int, int]]:
    """The reduced form of triangular rows, keyed by pivot in ascending
    order: each row, less the combination of the rows with larger pivots
    that clears their pivot columns, made primitive.

    Rows with larger pivots are reduced first, so each is cleared in a
    single pass; every pivot entry stays positive.  The reduced form with
    primitive rows and positive pivots is unique, so it does not depend on
    the order the rows were inserted in.  Builds new rows and leaves the
    given ones as they are."""
    done: dict[int, dict[int, int]] = {}
    for p in sorted(pivot_row, reverse=True):
        done[p] = _primitive(_clear_pivots(pivot_row[p], done)[0])
    return dict(reversed(done.items()))


def _over(nums: Mapping, den: int) -> dict:
    """The Fractions nums[k] / den: the one place where integers become
    Fractions again."""
    return {k: Fraction(v, den) for k, v in nums.items()}


def remainder(data: Mapping, pivot_row: IntRows) -> dict[int, Fraction]:
    """data minus the combination of the rows that clears every pivot column.

    pivot_row maps each pivot column to an integer row that is zero at
    every other row's pivot column (see reduced_rows); the remainder is
    then unique.  Kept for Subspace.reduce and TruncatedQuotient.reduce, which
    lower bounds and module morphisms (ROADMAP items 3 and 10) will read."""
    return _over(*_clear_pivots(data, pivot_row))


class Echelon:
    """Mutable triangular row-echelon accumulator over raw index->rational
    dicts.

    Rows are primitive integer vectors whose pivot, their least coordinate,
    holds a positive entry and is no other row's pivot.  Rows are stored as
    inserted and never rewritten; to_subspace reduces them (reduced_rows),
    and dividing each reduced row by its pivot entry gives the reduced row
    echelon form, so subspace equality is row-list equality once frozen
    into a Subspace.  Pivots are only taken at coordinates below n.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[dict[int, int]] = []
        self.pivot_row: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _insert(self, data: Mapping[int, Fraction]) -> dict[int, int] | None:
        # Shared by add_data and TrackedEchelon.insert, which stay separate
        # entry points so that per-layer tracing counts each insertion once.
        red, _, p = _top_reduce(data, self.pivot_row, self.n)
        if p >= self.n:
            return None
        g = gcd(*red.values())
        if red[p] < 0:
            g = -g
        row = {c: v // g for c, v in red.items()} if g != 1 else red
        self.rows.append(row)
        self.pivot_row[p] = row
        return row

    def add_data(self, data: Mapping[int, Fraction]) -> dict[int, int] | None:
        """Insert a vector, with Fraction or int values; returns the new
        primitive integer row, or None if the vector is in the span.  The
        row is reduced by leading term only: it may have entries at larger
        pivots."""
        return self._insert(data)

    def to_subspace(self) -> "Subspace":
        return Subspace(self.n, self.pivot_row)


def _normalized(n: int, row: Mapping[int, int]) -> SparseVector:
    """The integer row divided by its pivot (least) entry."""
    out = SparseVector(n)
    out.data = _over(row, row[min(row)])
    return out


class TrackedEchelon(Echelon):
    """Echelon that remembers how each row combines the inserted vectors.

    Rows live in augmented coordinates: the t-th inserted vector carries a
    tag 1 at coordinate n + t.  Every row is a combination of tagged
    vectors, so its entries at n + t are the coefficients of that
    combination.  Pivots are only taken below n, so a vector whose data part
    reduces to zero adds no row (but still uses up its tag).  Reducing an
    untagged target v by leading term leaves s * (v - sum(lam_k * row_k));
    when its data part is zero, v = sum_t c_t * (t-th vector) with c_t the
    negated entry at n + t divided by s.  Only the vectors that raised the
    rank carry tags in the rows, and they are independent, so the
    coefficients are unique.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.count = 0  # tags inserted so far

    def insert(self, data: Mapping[int, Fraction]) -> bool:
        """Insert the next tagged vector; True if the rank grew."""
        tagged = {**data, self.n + self.count: 1}
        self.count += 1
        return self._insert(tagged) is not None

    def express(self, v: SparseVector) -> dict[int, Fraction] | None:
        """Coefficients over the inserted vectors, or None if not in span."""
        n = self.n
        if v.n != n:
            raise ValueError("dimension mismatch")
        red, s, p = _top_reduce(v.data, self.pivot_row, n)
        if p < n:
            return None
        return _over({c - n: -x for c, x in red.items()}, s)


class Subspace:
    """Immutable subspace of Q^n in reduced row echelon form, built from an
    Echelon's triangular rows keyed by pivot, which it reduces into new rows
    (reduced_rows); rows holds each divided by its pivot entry."""

    __slots__ = ("ambient_dim", "rows", "pivots", "_pivot_row")

    def __init__(self, ambient_dim: int, pivot_row: IntRows | None = None):
        self.ambient_dim = ambient_dim
        self._pivot_row = reduced_rows(pivot_row or {})
        self.pivots = tuple(self._pivot_row)
        self.rows = tuple(_normalized(ambient_dim, row) for row in self._pivot_row.values())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: SparseVector) -> SparseVector:
        """Remainder of v after eliminating all pivot coordinates; kept for quotient_module."""
        if v.n != self.ambient_dim:
            raise ValueError("dimension mismatch")
        out = SparseVector(self.ambient_dim)
        out.data = remainder(v.data, self._pivot_row)
        return out

    def contains(self, v: SparseVector) -> bool:
        """Kept for quotient_module's closure check."""
        return self.reduce(v).is_zero()

    def __eq__(self, other) -> bool:
        """Kept for annihilator's closure check."""
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and list(self.rows) == list(other.rows)
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.ambient_dim}, rank={self.rank})"


def join_and_reduce(vectors: Iterable[SparseVector], ambient_dim: int) -> Subspace:
    """Echelonized span of the given vectors; kept for TruncatedQuotient.ideal_slice."""
    ech = Echelon(ambient_dim)
    for v in vectors:
        if v.n != ambient_dim:
            raise ValueError("dimension mismatch")
        ech.add_data(v.data)
    return ech.to_subspace()


def close_under(add: Callable, vectors: Iterable, operators: Sequence[Callable]) -> list:
    """Feed vectors to add, which returns None for a vector already in the
    span, then the operator images of every vector that was not, until no
    image is new.  Those vectors span what was added, so by linearity the
    span they add is invariant.  Terminates because the rank is bounded.
    Returns those vectors, as given: the images of an echelon's rows, which
    carry the elimination's fill-in, would be denser.
    """
    added = [v for v in vectors if add(v) is not None]
    queue = list(added)
    while queue:
        v = queue.pop()
        for op in operators:
            w = op(v)
            if add(w) is not None:
                added.append(w)
                queue.append(w)
    return added


def saturate_closure(
    seed: Iterable[SparseVector],
    operators: Sequence[Callable[[SparseVector], SparseVector]],
    ambient_dim: int,
) -> Subspace:
    """Smallest subspace containing seed and invariant under the operators."""
    ech = Echelon(ambient_dim)
    close_under(lambda v: ech.add_data(v.data), seed, operators)
    return ech.to_subspace()


def solve_nullspace(rows: Iterable[Mapping[int, Fraction]], dim: int) -> Subspace:
    """Solution space of the homogeneous system whose rows are the given
    {index: value} dicts, nonzero values only; an empty row adds nothing."""
    ech = Echelon(dim)
    for row in rows:
        ech.add_data(row)
    s = ech.to_subspace()
    basis = Echelon(dim)
    for free in range(dim):
        if free not in s.pivots:
            data = {free: ONE}
            for p, row in zip(s.pivots, s.rows):
                c = row.data.get(free)
                if c:
                    data[p] = -c
            basis.add_data(data)
    return basis.to_subspace()


def complement_conditions(s: Subspace) -> list[SparseVector]:
    """Basis of {w : w . b = 0 for all b in s}; v in s iff all w . v = 0."""
    return list(solve_nullspace([r.data for r in s.rows], s.ambient_dim).rows)


# -- exact matrices ------------------------------------------------------------
#
# A Matrix is the canonical form (rows, den) of a rational matrix: a tuple of
# sparse {column: int} rows over one positive denominator, in lowest terms
# (the gcd of den and every entry is 1, and the zero matrix has den 1).  Each
# rational matrix has exactly one form, so two matrices of one shape are
# equal exactly when their forms are.  Products and combinations stay
# integral and walk only nonzero entries; the column count is not stored,
# since every caller knows it.

Matrix = tuple  # (rows: tuple[dict[int, int], ...], den: int)


def mat_from_rows(rows: Sequence[Mapping[int, Fraction]]) -> Matrix:
    """The form of the matrix whose r-th row is the sparse row rows[r], a
    {column: value} dict of Fractions or ints; zero values are dropped.

    den is the lcm of the entries' denominators, so no prime divides den
    and every scaled entry: the form is in lowest terms as built."""
    den = lcm(*[x.denominator for row in rows for x in row.values()])
    return tuple(
        {j: x.numerator * (den // x.denominator) for j, x in row.items() if x} for row in rows
    ), den


def mat_from_columns(cols: Sequence[Mapping[int, Fraction]], rows: int) -> Matrix:
    """The form of the rows x len(cols) matrix whose j-th column is the
    sparse column cols[j], a {row: value} dict."""
    out: list[dict] = [{} for _ in range(rows)]
    for j, col in enumerate(cols):
        for r, x in col.items():
            out[r][j] = x
    return mat_from_rows(out)


def mat_identity(m: int) -> Matrix:
    return tuple({i: 1} for i in range(m)), 1


def is_form(a, r: int, c: int) -> bool:
    """True iff a is the canonical form of an r x c matrix."""
    if not (isinstance(a, tuple) and len(a) == 2):
        return False
    rows, den = a
    if not (isinstance(rows, tuple) and len(rows) == r and type(den) is int and den > 0):
        return False
    g = den
    for row in rows:
        if not isinstance(row, dict):
            return False
        for j, v in row.items():
            if not (type(j) is int and 0 <= j < c and type(v) is int and v):
                return False
            g = gcd(g, v)
    return g == 1


def _lowest(rows: list[dict[int, int]], den: int) -> Matrix:
    """The form of rows / den: divided by the gcd of den and every entry."""
    g = den
    for row in rows:
        if g == 1:
            break
        if row:
            g = gcd(g, *row.values())
    if g != 1:
        den //= g
        rows = [{j: v // g for j, v in row.items()} for row in rows]
    return tuple(rows), den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a . b; walks only nonzero entries."""
    b_rows, db = b
    out = []
    try:
        for row in a[0]:
            if not row:  # empty, as most rows of a module's action matrices are
                out.append(row)
                continue
            acc: dict[int, int] = {}
            for k, x in row.items():
                for j, y in b_rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: v for j, v in acc.items() if v})
    except IndexError:
        raise ValueError("matrix shape mismatch") from None
    return _lowest(out, a[1] * db)


def mat_lincomb(pairs: Iterable[tuple[int, Matrix]], r: int, den: int = 1) -> Matrix:
    """(sum of c * m over pairs) / den, for integer coefficients c, r-row
    matrices m and den > 0."""
    pairs = [(c, m) for c, m in pairs if c]
    s = lcm(*[d for _, (_, d) in pairs])
    acc: list[dict[int, int]] = [{} for _ in range(r)]
    for c, (rows, d) in pairs:
        if len(rows) != r:
            raise ValueError("matrix shape mismatch")
        if d != s:
            c *= s // d
        for out, row in zip(acc, rows):
            for j, v in row.items():
                out[j] = out.get(j, 0) + c * v
    return _lowest([{j: v for j, v in row.items() if v} if row else row for row in acc], s * den)


def mat_numerators(a: Matrix, cols: int) -> dict[int, int]:
    """The numerators of a flattened row-major: entry (r, c) goes to
    coordinate r * cols + c."""
    return {r * cols + c: v for r, row in enumerate(a[0]) for c, v in row.items()}


def minimal_polynomial(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, coefficients low to high.

    Each power a^t enters the echelon as its numerators, dens[t] * a^t, so
    a combination found for the numerators of a^k is rescaled by
    dens[t] / dens[k]."""
    m = len(a[0])
    tracked = TrackedEchelon(m * m)
    power = mat_identity(m)
    dens = []
    k = 0
    while True:
        flat = SparseVector(m * m)
        flat.data = mat_numerators(power, m)
        combo = tracked.express(flat)
        if combo is not None:
            # dens[k] a^k = sum combo[t] dens[t] a^t, so
            # minpoly = x^k - sum (combo[t] dens[t] / dens[k]) x^t
            coeffs = [-combo.get(t, ZERO) * dens[t] / power[1] for t in range(k)]
            coeffs.append(ONE)
            return coeffs
        tracked.insert(flat.data)
        dens.append(power[1])
        power = mat_mul(power, a)
        k += 1
        if k > m * m + 1:  # cannot happen; minpoly degree <= m
            raise RuntimeError("minimal polynomial search failed to terminate")
