#!/usr/bin/env python3
"""Regenerate the bundled algebra/module fixture files."""

from fractions import Fraction
from pathlib import Path

from poissonenv.fileformat import serialize_algebra, serialize_module
from poissonenv.linalg import SparseVector, mat_from_rows
from poissonenv.ncpa import AlgebraPresentation, standard_ncpa, validate_ncpa
from poissonenv.poisson_modules import QuasiPoissonModule, regular_module

DATA = Path(__file__).resolve().parent.parent / "src" / "poissonenv" / "data"


def vec(n, entries):
    return SparseVector(n, {i: Fraction(c) for i, c in entries.items()})


def kxk_presentation(name="kxk", bracket=None):
    return AlgebraPresentation(
        name,
        2,
        ["e1", "e2"],
        vec(2, {0: 1, 1: 1}),
        {(0, 0): vec(2, {0: 1}), (1, 1): vec(2, {1: 1})},
        bracket or {},
    )


def m2_presentation():
    # basis order E11 < E12 < E21 < E22; E_{ab} E_{cd} = delta_{bc} E_{ad}
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    mul = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mul[(i, j)] = vec(4, {idx[(a, d)]: 1})
    return AlgebraPresentation(
        "m2std",
        4,
        ["E11", "E12", "E21", "E22"],
        vec(4, {0: 1, 3: 1}),
        mul,
        {},
    )


def trunc2_presentation():
    mul = {
        (0, 0): vec(3, {0: 1}),
        (0, 1): vec(3, {1: 1}),
        (0, 2): vec(3, {2: 1}),
        (1, 0): vec(3, {1: 1}),
        (2, 0): vec(3, {2: 1}),
    }
    return AlgebraPresentation(
        "trunc2-n2", 3, ["1", "x1", "x2"], vec(3, {0: 1}), mul, {}
    )


def bad_jacobi_presentation():
    mul = {(0, i): vec(4, {i: 1}) for i in range(4)}
    mul.update({(i, 0): vec(4, {i: 1}) for i in range(1, 4)})
    bracket = {
        (1, 2): vec(4, {3: 1}),
        (2, 1): vec(4, {3: -1}),
        (2, 3): vec(4, {1: 1}),
        (3, 2): vec(4, {1: -1}),
        (3, 1): vec(4, {1: 1}),
        (1, 3): vec(4, {1: -1}),
    }
    return AlgebraPresentation(
        "bad-jacobi", 4, ["1", "x", "y", "z"], vec(4, {0: 1}), mul, bracket
    )


def main():
    DATA.mkdir(parents=True, exist_ok=True)

    kxk = kxk_presentation()
    (DATA / "kxk.alg").write_text(serialize_algebra(kxk), "utf-8")

    m2 = standard_ncpa(m2_presentation())
    (DATA / "m2std.alg").write_text(serialize_algebra(m2.presentation), "utf-8")

    trunc2 = trunc2_presentation()
    (DATA / "trunc2-n2.alg").write_text(serialize_algebra(trunc2), "utf-8")

    bad_antisym = kxk_presentation("bad-antisym", {(0, 0): vec(2, {0: 1})})
    (DATA / "bad-antisym.alg").write_text(serialize_algebra(bad_antisym), "utf-8")

    (DATA / "bad-jacobi.alg").write_text(
        serialize_algebra(bad_jacobi_presentation()), "utf-8"
    )

    bad_leibniz = kxk_presentation(
        "bad-leibniz", {(0, 1): vec(2, {0: 1}), (1, 0): vec(2, {0: -1})}
    )
    (DATA / "bad-leibniz.alg").write_text(serialize_algebra(bad_leibniz), "utf-8")

    A = validate_ncpa(kxk_presentation())
    reg = regular_module(A)
    (DATA / "kxk-regular.mod").write_text(serialize_module(reg), "utf-8")

    # passes the quasi-Poisson axioms but not the product compatibility
    proj = mat_from_rows([{0: 1}, {}])
    zero = mat_from_rows([{}, {}])
    bad = QuasiPoissonModule(A, 2, reg.left, reg.right, (proj, zero))
    (DATA / "kxk-nonpoisson.mod").write_text(serialize_module(bad), "utf-8")

    for f in sorted(DATA.iterdir()):
        print(f.name)


if __name__ == "__main__":
    main()
