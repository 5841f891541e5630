"""Degree-truncated linear-algebra probes of two-sided ideal quotients of
the quasi-Poisson enveloping algebra.

Exact membership in an infinite-dimensional ideal is not decidable by
truncation alone: products above the saturation window could cancel down
into the truncated slice.  The slice computed here is the span of all
products m1 * g * m2 with deg(m1) + 1 + deg(m2) bounded by the saturation
degree, intersected with the low-degree coordinate block; a stability
flag records whether widening the window from D-1 to D changed the slice.
Quotient dimensions reported this way are upper bounds that in practice
stabilize at the true values for the worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .limits import DegreeCapExceeded, degree_cap
from .linalg import (
    Echelon,
    ONE,
    SparseVector,
    Subspace,
    TrackedEchelon,
    join_and_reduce,
)
from .ncpa import NCPA
from .pbw import u_monomials
from .smash import (
    QElement,
    QMonomial,
    embed_left,
    embed_lie,
    embed_right,
    q_mult,
    q_sub,
    q_term_key,
)


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


def ideal_j_gens(A: NCPA) -> IdealGens:
    """One generator per basis pair (p, q):
    1 (x) 1 # (v_p v_q)  -  v_p (x) 1 # v_q  -  1 (x) v_q # v_p."""
    gens = []
    for p in range(A.n):
        ip = embed_left(A, A.basis(p))
        for q in range(A.n):
            g = q_sub(
                q_sub(
                    embed_lie(A, A.mul_basis(p, q)),
                    q_mult(A, ip, embed_lie(A, A.basis(q))),
                ),
                q_mult(A, embed_right(A, A.basis(q)), embed_lie(A, A.basis(p))),
            )
            if g:
                gens.append(g)
    return IdealGens("J", tuple(gens))


def ideal_i_gens(A: NCPA) -> IdealGens:
    """One generator per basis element: j(a) - i(a) + k(a)."""
    gens = []
    for p in range(A.n):
        v = A.basis(p)
        g = q_sub(embed_lie(A, v), embed_left(A, v))
        for mono, c in embed_right(A, v).items():
            g = q_sub(g, {mono: -c})
        if g:
            gens.append(g)
    return IdealGens("I", tuple(gens))


def ideal_oh_gens(A: NCPA) -> IdealGens:
    """One generator per basis element: (a (x) 1 - 1 (x) a) # 1."""
    gens = []
    for p in range(A.n):
        v = A.basis(p)
        g = q_sub(embed_left(A, v), embed_right(A, v))
        if g:
            gens.append(g)
    return IdealGens("OH", tuple(gens))


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
    the fixed term order; monomials of degree <= d form a prefix."""
    out = []
    for word in u_monomials(A.n, max_degree):
        for i in range(A.n):
            for j in range(A.n):
                out.append((i, j, word))
    out.sort(key=q_term_key)
    return out


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


def _slice_echelon(A: NCPA, gens: IdealGens, d: int, D: int) -> Subspace:
    """Span of budgeted products, intersected with the degree <= d block.

    Coordinates are taken in descending term order so that the echelon rows
    with pivots in the low-degree block are exactly the intersection."""
    monos = env_monomials(A, D)
    big = len(monos)
    # descending order: index 0 is the largest monomial
    index_desc = {m: big - 1 - t for t, m in enumerate(monos)}
    low = [m for m in monos if len(m[2]) <= d]
    n_low = len(low)
    cutoff = big - n_low  # descending indices >= cutoff form the low block

    ech = Echelon(big)
    seen: set = set()
    by_degree: dict[int, list[QMonomial]] = {}
    for m in monos:
        by_degree.setdefault(len(m[2]), []).append(m)

    for g in gens.gens:
        for deg2 in range(0, D):
            for m2 in by_degree.get(deg2, []):
                right = q_mult(A, g, {m2: ONE})
                if not right:
                    continue
                for deg1 in range(0, D - deg2):
                    for m1 in by_degree.get(deg1, []):
                        prod = q_mult(A, {m1: ONE}, right)
                        if not prod:
                            continue
                        vec = qelem_to_vector(prod, index_desc, big)
                        key = tuple(sorted(vec.data.items()))
                        if key in seen:
                            continue
                        seen.add(key)
                        ech.add(vec)

    asc_index = {m: t for t, m in enumerate(low)}
    rows = []
    for p, row in sorted(ech.pivot_row.items()):
        if p < cutoff:
            continue
        data = {}
        for c, v in row.items():
            mono = monos[big - 1 - c]
            data[asc_index[mono]] = v
        v2 = SparseVector(n_low)
        v2.data = data
        rows.append(v2)
    return join_and_reduce(rows, n_low)


def truncated_ideal_span(
    A: NCPA, gens: IdealGens, d: int, D: int
) -> tuple[Subspace, bool]:
    """Ideal slice at degree d with saturation window D, plus a stability
    flag comparing against the window D - 1."""
    if D < d:
        raise ValueError("saturation bound must be >= truncation degree")
    if D > degree_cap():
        raise DegreeCapExceeded(
            f"saturation degree {D} exceeds cap {degree_cap()}"
        )
    current = _slice_echelon(A, gens, d, D)
    previous = _slice_echelon(A, gens, d, D - 1) if D >= 1 else current
    return current, current == previous


class TruncatedQuotient:
    """Finite slice of an enveloping-algebra quotient.

    Coset representatives are monomials chosen greedily in the fixed term
    order; reduce() rewrites an element of degree <= d as coordinates over
    those representatives modulo the ideal slice.
    """

    def __init__(self, A: NCPA, gens: IdealGens, degree: int, saturation: int):
        self.algebra = A
        self.gens = gens
        self.degree = degree
        self.saturation = saturation
        self.ideal_slice, self.stable = truncated_ideal_span(
            A, gens, degree, saturation
        )
        self.monomials = env_monomials(A, degree)
        self.index = {m: t for t, m in enumerate(self.monomials)}
        n_low = len(self.monomials)
        n_ideal = self.ideal_slice.rank

        # Tags 0..n_ideal-1 are the slice rows; tag n_ideal + t is the
        # monomial t, which is a coset representative iff it raised the rank.
        self._solver = TrackedEchelon(n_low)
        for row in self.ideal_slice.rows:
            self._solver.insert(row.data)
        coset: list[QMonomial] = []
        self._coset_position: dict[int, int] = {}
        for t, mono in enumerate(self.monomials):
            if self._solver.insert({t: ONE}):
                self._coset_position[n_ideal + t] = len(coset)
                coset.append(mono)
        self.coset_basis = coset
        if len(coset) + n_ideal != n_low:
            raise RuntimeError("coset basis bookkeeping failed")

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
        combo = self._solver.express(vec)
        if combo is None:
            raise RuntimeError("slice plus coset basis failed to span")
        out = SparseVector(len(self.coset_basis))
        position = self._coset_position
        out.data = {position[t]: c for t, c in combo.items() if t in position}
        return out

    def reduce_to_element(self, x: QElement) -> QElement:
        coords = self.reduce(x)
        return {
            self.coset_basis[t]: c for t, c in coords.data.items()
        }


def truncated_quotient(
    A: NCPA, gens: IdealGens, d: int, D: int | None = None
) -> TruncatedQuotient:
    if D is None:
        D = d + 2
    return TruncatedQuotient(A, gens, d, D)


def dimension_table(
    A: NCPA, gens: IdealGens, max_degree: int, saturation: int | None = None
) -> list[dict]:
    """Quotient dimension and stability flag for each degree 0..max_degree."""
    out = []
    for d in range(max_degree + 1):
        D = (d + 2) if saturation is None else saturation
        quotient = truncated_quotient(A, gens, d, D)
        out.append(
            {
                "degree": d,
                "saturation": D,
                "dimension": quotient.dimension,
                "stable": quotient.stable,
            }
        )
    return out
