"""Workload inputs and answer checks.

Each workload is one CLI job, run again and again.  Inputs are written
before timing from the seed alone; the program only ever sees the files.
The expected answers come from the repository's own tests: m2std has
quotient dimensions [16, 16] and trunc2-n2 has [9, 15, 22] (22 is the
independent oracle's value, not the published 24).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from poissonenv import cli
from poissonenv.fileformat import (
    bundled_path,
    load_bundled_algebra,
    serialize_algebra,
    serialize_module,
)
from poissonenv.linalg import SparseVector
from poissonenv.ncpa import AlgebraPresentation, validate_ncpa
from poissonenv.poisson_modules import tensor_square_module

DEFAULT_SEED = 1

M2_DIMS = [16, 16]
TRUNC2_DIMS = [9, 15, 22]


class SetupError(Exception):
    """A generated input is not what the workload needs."""


@dataclass(frozen=True)
class Job:
    """One CLI call and the files it reads."""

    argv: tuple[str, ...]
    algebra: str
    modules: tuple[str, ...] = ()


Check = Callable[[int, dict], "str | None"]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and NOTES.md."""

    name: str
    prepare: Callable[[Path, int], Job]
    check: Check


def run_cli(argv) -> tuple[int, dict]:
    """Call the CLI entry point in-process; return exit code and JSON report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    return code, json.loads(buf.getvalue())


# -- answer checks ----------------------------------------------------------------

def _status_problem(code: int, report: dict) -> str | None:
    if code != 0 or report.get("status") != "pass":
        return f"exit code {code}, status {report.get('status')!r}: {report.get('findings')}"
    return None


def expect_dimensions(expected: list[int]) -> Check:
    """Exit 0, one stable finding per degree, dimensions equal to expected."""

    def check(code: int, report: dict) -> str | None:
        problem = _status_problem(code, report)
        if problem:
            return problem
        rows = report.get("findings", [])
        dims = [row.get("dimension") for row in rows]
        if dims != expected:
            return f"dimensions {dims}, expected {expected}"
        unstable = [row.get("degree") for row in rows if row.get("stable") is not True]
        if unstable:
            return f"degrees {unstable} not stable"
        return None

    return check


def expect_pass(code: int, report: dict) -> str | None:
    """Exit 0, status pass and no findings."""
    problem = _status_problem(code, report)
    if problem:
        return problem
    if report.get("findings"):
        return f"unexpected findings {report['findings']}"
    return None


# -- seeded change of basis -----------------------------------------------------

def random_basis_change(rng: random.Random, n: int) -> list[list[int]]:
    """Lower-triangular integer matrix with 2 on the diagonal and a random
    sign below it.  Its inverse has entries k/2^m, so the rebased constants
    are dense and non-integral.  The magnitudes are fixed so that the work
    of a job does not depend on the seed: with random entries the cost of
    one job varied several-fold from seed to seed."""
    return [
        [2 if r == c else rng.choice((-1, 1)) if c < r else 0 for c in range(n)]
        for r in range(n)
    ]


def invert(matrix: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
        for r, row in enumerate(matrix)
    ]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def rebase(p: AlgebraPresentation, P: list[list[int]]) -> AlgebraPresentation:
    """The same algebra in the basis f_a = sum_b P[b][a] e_b (columns of P)."""
    n = p.dim
    Q = invert(P)

    def to_new(v: list[Fraction]) -> dict[int, Fraction]:
        out = {r: sum((Q[r][k] * v[k] for k in range(n)), Fraction(0)) for r in range(n)}
        return {r: c for r, c in out.items() if c}

    def table(old: dict) -> dict:
        out = {}
        for a in range(n):
            for b in range(n):
                v = [Fraction(0)] * n
                for (i, j), vec in old.items():
                    w = P[i][a] * P[j][b]
                    if w:
                        for k, c in vec.data.items():
                            v[k] += w * c
                data = to_new(v)
                if data:
                    out[(a, b)] = SparseVector(n, data)
        return out

    return AlgebraPresentation(
        f"{p.name}-skew",
        n,
        [f"f{a}" for a in range(n)],
        SparseVector(n, to_new(p.unit.to_dense())),
        table(p.mul),
        table(p.bracket),
    )


def write_skew_algebra(path: Path, seed: int) -> None:
    """trunc2-n2 in a seeded basis, checked with `poissonenv validate`."""
    p = load_bundled_algebra("trunc2-n2.alg")
    P = random_basis_change(random.Random(seed), p.dim)
    path.write_text(serialize_algebra(rebase(p, P)), "utf-8")
    code, report = run_cli(["validate", str(path)])
    if code != 0 or report["status"] != "pass":
        raise SetupError(f"rebased algebra for seed {seed} fails validate: {report['output']}")


# -- workloads --------------------------------------------------------------------

def _bundled(name: str) -> str:
    return str(bundled_path(name))


def _envdim_m2(workdir: Path, seed: int) -> Job:
    alg = _bundled("m2std.alg")
    return Job(("env-dim", alg, "--ideal", "J", "--degree", "1"), alg)


def _envdim_skew(workdir: Path, seed: int) -> Job:
    alg = workdir / "trunc2-skew.alg"
    write_skew_algebra(alg, seed)
    return Job(("env-dim", str(alg), "--ideal", "J", "--degree", "2"), str(alg))


def _roundtrip_sq(workdir: Path, seed: int) -> Job:
    alg = _bundled("trunc2-n2.alg")
    mod = workdir / "trunc2-square.mod"
    A = validate_ncpa(load_bundled_algebra("trunc2-n2.alg"))
    mod.write_text(serialize_module(tensor_square_module(A)), "utf-8")
    return Job(("roundtrip", alg, str(mod), "--degree", "2"), alg, (str(mod),))


def _modalg_m2(workdir: Path, seed: int) -> Job:
    alg = _bundled("m2std.alg")
    return Job(("module-alg", alg, "--degree", "5"), alg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("envdim-m2", _envdim_m2, expect_dimensions(M2_DIMS)),
        Workload("envdim-skew", _envdim_skew, expect_dimensions(TRUNC2_DIMS)),
        Workload("roundtrip-sq", _roundtrip_sq, expect_pass),
        Workload("modalg-m2", _modalg_m2, expect_pass),
    )
}
