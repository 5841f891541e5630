import random
from fractions import Fraction

import pytest

from poissonenv.fileformat import load_bundled_algebra
from poissonenv.linalg import SparseVector, mat_from_rows
from poissonenv.ncpa import AlgebraPresentation, NCPA, standard_ncpa, validate_ncpa


# the algebra fixtures below, save xy_bracket, which tests name apart
ALGEBRAS = ["kxk", "m2", "trunc2", "m2_rebased", "ut2", "trunc2_skew", "trunc2_skew7",
            "field_k", "ut2_zero", "kxk_skew"]


def vec(n, entries) -> SparseVector:
    return SparseVector(n, {i: Fraction(c) for i, c in entries.items()})


# Dense Fraction grids, for references that multiply and combine matrices
# independently of linalg's kernel.

def dense(m, cols=None) -> tuple:
    """The tuple-of-tuples Fraction grid of a Matrix with cols columns
    (default: square)."""
    rows, den = m
    cols = len(rows) if cols is None else cols
    return tuple(tuple(Fraction(row.get(j, 0), den) for j in range(cols)) for row in rows)


def grid_form(grid):
    """The Matrix of a dense grid of rationals."""
    return mat_from_rows([dict(enumerate(row)) for row in grid])


def mono_product(A, m1, m2) -> dict:
    """The product of two basis monomials as a new dict of Fractions: q_mult
    of one-term elements (q_mono_mult returns its integer memo entry)."""
    from poissonenv.smash import q_mult

    return q_mult(A, {m1: Fraction(1)}, {m2: Fraction(1)})


def matrix_units(k: int, upper: bool) -> AlgebraPresentation:
    """M_k, or T_k (the upper-triangular k x k matrices) when upper, on the
    matrix units E_rc in row-major order."""
    pairs = [(r, c) for r in range(k) for c in range(k) if r <= c or not upper]
    index = {rc: t for t, rc in enumerate(pairs)}
    n = len(pairs)
    mul = {(index[r, c], index[c, d]): vec(n, {index[r, d]: 1})
           for r, c in pairs for d in range(k) if (c, d) in index}
    return AlgebraPresentation(f"{'T' if upper else 'M'}_{k}", n,
                               [f"E{r + 1}{c + 1}" for r, c in pairs],
                               vec(n, {index[r, r]: 1 for r in range(k)}), mul, {})


def zero_matrix(dim: int):
    return mat_from_rows([{}] * dim)


def is_zero(m) -> bool:
    return not any(m[0])


@pytest.fixture(scope="session")
def kxk() -> NCPA:
    return validate_ncpa(load_bundled_algebra("kxk.alg"))


@pytest.fixture(scope="session")
def m2() -> NCPA:
    return validate_ncpa(load_bundled_algebra("m2std.alg"))


@pytest.fixture(scope="session")
def trunc2() -> NCPA:
    return validate_ncpa(load_bundled_algebra("trunc2-n2.alg"))


@pytest.fixture(scope="session")
def field_k() -> NCPA:
    pres = AlgebraPresentation(
        "k", 1, ["1"], vec(1, {0: 1}), {(0, 0): vec(1, {0: 1})}, {}
    )
    return validate_ncpa(pres)


@pytest.fixture(scope="session")
def ut2() -> NCPA:
    """Upper-triangular 2x2 matrices with the commutator bracket."""
    mul = {
        (0, 0): vec(3, {0: 1}),
        (0, 1): vec(3, {1: 1}),
        (1, 2): vec(3, {1: 1}),
        (2, 2): vec(3, {2: 1}),
    }
    pres = AlgebraPresentation(
        "ut2std", 3, ["E11", "E12", "E22"], vec(3, {0: 1, 2: 1}), mul, {}
    )
    return standard_ncpa(pres)


@pytest.fixture(scope="session")
def ut2_zero() -> NCPA:
    """Upper-triangular 2x2 matrices with the zero bracket: every j(a) is
    central, but i(E12) and k(E12) are not."""
    mul = {
        (0, 0): vec(3, {0: 1}),
        (0, 1): vec(3, {1: 1}),
        (1, 2): vec(3, {1: 1}),
        (2, 2): vec(3, {2: 1}),
    }
    pres = AlgebraPresentation(
        "ut2zero", 3, ["E11", "E12", "E22"], vec(3, {0: 1, 2: 1}), mul, {}
    )
    return validate_ncpa(pres)


@pytest.fixture(scope="session")
def kxk_skew() -> NCPA:
    """K x K in the basis b1 = e1 + 4 e2, b2 = 2 e1 + e2: same algebra,
    but its idempotents are not probe vectors."""
    pres = AlgebraPresentation(
        "kxk-skew",
        2,
        ["b1", "b2"],
        vec(2, {0: Fraction(1, 7), 1: Fraction(3, 7)}),
        {
            (0, 0): vec(2, {0: Fraction(31, 7), 1: Fraction(-12, 7)}),
            (0, 1): vec(2, {0: Fraction(6, 7), 1: Fraction(4, 7)}),
            (1, 0): vec(2, {0: Fraction(6, 7), 1: Fraction(4, 7)}),
            (1, 1): vec(2, {0: Fraction(-2, 7), 1: Fraction(15, 7)}),
        },
        {},
    )
    return validate_ncpa(pres)


@pytest.fixture(scope="session")
def trunc2_skew() -> NCPA:
    """trunc2-n2 in the envdim-skew benchmark's seed-1 basis, the columns of
    [[2, 0, 0], [-1, 2, 0], [-1, 1, 2]]: a unit that is not a basis vector,
    and structure constants that are not integral."""
    mul = {
        (0, 0): vec(3, {0: 2, 1: -1, 2: Fraction(-1, 2)}),
        (0, 1): vec(3, {1: 2}),
        (0, 2): vec(3, {2: 2}),
        (1, 0): vec(3, {1: 2}),
        (2, 0): vec(3, {2: 2}),
    }
    pres = AlgebraPresentation(
        "trunc2-n2-skew",
        3,
        ["f0", "f1", "f2"],
        vec(3, {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 8)}),
        mul,
        {},
    )
    return validate_ncpa(pres)


@pytest.fixture(scope="session")
def m2_rebased() -> NCPA:
    """m2std in the basis f0 = 1, f1 = E12, f2 = E21, f3 = E11 (so E22 is
    f0 - f3), with the commutator bracket: the unit is a basis vector, and
    j(f0) is the one central generator."""
    unit = {(0, b): {b: 1} for b in range(4)} | {(a, 0): {a: 1} for a in range(4)}
    mul = unit | {(1, 2): {3: 1}, (2, 1): {0: 1, 3: -1}, (2, 3): {2: 1},
                  (3, 1): {1: 1}, (3, 3): {3: 1}}
    pres = AlgebraPresentation(
        "m2std-rebased", 4, ["f0", "f1", "f2", "f3"], vec(4, {0: 1}),
        {ab: vec(4, v) for ab, v in mul.items()}, {}
    )
    return standard_ncpa(pres)


@pytest.fixture(scope="session")
def xy_bracket():
    """k[x, y]/(x^2, y^2) on (1, x, y, xy) with {x, y} = xy: commutative,
    so its center is all of it, but only 1 and xy are Poisson-central."""
    one, x, y, xy = (vec(4, {a: 1}) for a in range(4))
    mul = {(0, b): v for b, v in enumerate((one, x, y, xy))}
    mul |= {(b, 0): v for b, v in enumerate((one, x, y, xy))}
    mul |= {(1, 2): xy, (2, 1): xy}
    bracket = {(1, 2): xy, (2, 1): xy.scale(-1)}
    return validate_ncpa(AlgebraPresentation("xy-bracket", 4, ["1", "x", "y", "xy"],
                                             one, mul, bracket))


# A change of basis kept apart from the package and from perfbench: the
# reference for ncpa.unit_first and for basis-invariance tests.

def inverse(P) -> list[list[Fraction]]:
    """Exact inverse of a square matrix by Gauss-Jordan elimination;
    ZeroDivisionError if it is singular."""
    n = len(P)
    rows = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(P)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def rebase(A, P) -> NCPA:
    """A in the basis f_a = sum_b P[b][a] e_b (the columns of P), validated."""
    return validate_ncpa(rebased_presentation(A.presentation, P))


def rebased_presentation(p, P) -> AlgebraPresentation:
    """The presentation p in the basis f_a = sum_b P[b][a] e_b, whether or
    not p satisfies the axioms."""
    A = NCPA(p)
    n = A.n
    Q = inverse(P)
    cols = [SparseVector(n, {b: P[b][a] for b in range(n)}) for a in range(n)]

    def to_new(v: SparseVector) -> SparseVector:
        return SparseVector(n, {r: sum((Q[r][k] * c for k, c in v.items()), Fraction(0))
                                for r in range(n)})

    def table(op) -> dict:
        return {(a, b): to_new(op(cols[a], cols[b])) for a in range(n) for b in range(n)}

    return AlgebraPresentation(
        f"{A.name}-rebased", n, [f"f{a}" for a in range(n)], to_new(A.unit),
        table(A.mul), table(A.bracket))


def skew_basis(seed: int, n: int) -> list[list[int]]:
    """The envdim-skew benchmark's seeded basis: lower triangular, 2 on the
    diagonal, a random sign below it."""
    rng = random.Random(seed)
    return [[2 if r == c else rng.choice((-1, 1)) if c < r else 0 for c in range(n)]
            for r in range(n)]


@pytest.fixture(scope="session")
def trunc2_skew7(trunc2) -> NCPA:
    """trunc2-n2 in the envdim-skew benchmark's seed-7 basis."""
    return rebase(trunc2, skew_basis(7, trunc2.n))


# Reference constructions that expand the unit over the basis by hand, kept
# independent of smash.expand_unit: the oracle for the embeddings and for the
# ideal generators built from them.

def reference_identity(A) -> dict:
    out = {}
    for p, up in A.unit.data.items():
        for q, uq in A.unit.data.items():
            out[(p, q, ())] = up * uq
    return out


def reference_embed(A, kind: str, a: SparseVector) -> dict:
    """i(a) = a (x) 1 # 1, k(a) = 1 (x) a # 1, j(a) = 1 (x) 1 # a."""
    unit = A.unit.data
    out = {}
    for r, c in a.data.items():
        if kind == "i":
            terms = [((r, q, ()), c * uq) for q, uq in unit.items()]
        elif kind == "k":
            terms = [((p, r, ()), c * up) for p, up in unit.items()]
        else:
            terms = [((p, q, (r,)), c * up * uq)
                     for p, up in unit.items() for q, uq in unit.items()]
        for key, v in terms:
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out
