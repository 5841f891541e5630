#!/usr/bin/env python3
"""Run a fixed list of CLI jobs and write their --json reports to one file.

Each report is kept as the CLI printed it, minus its `elapsed` field, next
to the job's arguments and exit code.  Two checkouts give byte-identical
files exactly when every job answered the same, so an engine change that
must not move any output is checked with

    python3 scripts/compare_reports.py --repo OLD_CHECKOUT old.json
    python3 scripts/compare_reports.py new.json
    cmp old.json new.json

`--repo` names the checkout whose `src/` is imported (default: the one
holding this script).  Fixture paths are relative to that checkout, so the
recorded commands do not depend on where it lives.  The tensor-square
modules of SQUARES, trunc2-n2 in the `envdim-skew` benchmark's seed-1
basis (a unit that is not a basis vector, and non-integral constants), the
tensor square of that algebra, the regular module of m2std and the
2-dimensional quotient module of trunc2-n2 by the Poisson ideal generated
by x1 are written by that checkout into a temporary directory, which the
recorded commands and reports name `<tmp>`, and so is m2std in the basis
(1, E12, E21, E11), whose unit is a basis vector and whose j(f0) is
central.  The square of m2std (16 dimensions, a nonzero bracket) is the
one square whose Lie action adds both legs into one entry; it fails the
Poisson check.
In that basis every i(a) and k(a) expands over 3 terms and every j(a) over
9, so its `relations`, `module-check` and `roundtrip` jobs check the unit's
expansion (`env-dim` runs its closure in a basis that holds the unit, see
`ncpa.unit_first`), and its `q-mul`, `mul` and `bracket` jobs, with
fractional coefficients, check that products come out over the right
denominators.  Q(sqrt 2), in the basis (1, s) with s s = 2 and a zero
bracket, is written there too: it is Poisson-simple, and `simple` proves
it only in its third stage, where the minimal polynomial x^2 - 2 of
multiplication by s is irreducible.  The dual numbers k[x]/(x^2) in the
basis (1, 1 + x) and k x k in the basis (1, e1 + 2 e2) are written there
too: neither is Poisson-simple, but no basis vector or sum of two
generates a proper ideal, so `simple` finds one only in its second stage
(the radical, for the dual numbers) or in the kernel branch of its third
(a reducible minimal polynomial, for k x k).  Every command has a job;
`std` runs with and without `--out`, and `module-alg` runs on zero
brackets (kxk, the skew basis) and on a nonzero one (m2std in both
bases).  Jobs run in-process, one after another; each loads a fresh
algebra, so no memo cache is shared between jobs.  The
heaviest jobs are `env-dim` on m2std with J to degree 3 and OH to degree 3
(window 5, a nonzero bracket) and on the skew basis with J to degree 4
(window 6), each under a second; most of their work lies above level 0 of
the ideal closure, where the ordered j rule skips products.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

DATA = "src/poissonenv/data"
FIXTURES = ("kxk", "trunc2-n2", "m2std")
BAD = ("bad-antisym", "bad-jacobi", "bad-leibniz")
MODULES = ("kxk-regular", "kxk-nonpoisson")
SQUARES = ("kxk", "trunc2-n2", "m2std")
TMP = "<tmp>"
SKEW = f"{TMP}/trunc2-skew.alg"
# m2std in the basis (1, E12, E21, E11), whose unit is the basis vector f0
M2_UNIT = f"{TMP}/m2std-unit.alg"
# Q(sqrt 2) in the basis (1, s), s s = 2, zero bracket
QSQRT2 = f"{TMP}/qsqrt2.alg"
# the dual numbers k[x]/(x^2) in the basis (1, 1 + x), zero bracket
DUAL = f"{TMP}/dual-numbers.alg"
# k x k in the basis (1, e1 + 2 e2)
KXK_UNIT = f"{TMP}/kxk-unit.alg"
# --degree per fixture for each ideal; m2std J also runs to degrees 2 and 3 (jobs()).
ENV_DIM_DEGREE = {"kxk": 3, "trunc2-n2": 2, "m2std": 1}


def alg(name: str) -> str:
    return f"{DATA}/{name}.alg"


def jobs() -> list[list[str]]:
    out = [["validate", alg(name)] for name in FIXTURES + BAD]
    for cmd in ("simple", "derivations", "relations"):
        out += [[cmd, alg(name)] for name in FIXTURES]
    for name in FIXTURES:
        for ideal in ("J", "J+I", "OH"):
            out.append(
                ["env-dim", alg(name), "--ideal", ideal, "--degree", str(ENV_DIM_DEGREE[name])]
            )
    out.append(["env-dim", alg("m2std"), "--ideal", "J", "--degree", "2"])
    out.append(["env-dim", alg("m2std"), "--ideal", "J", "--degree", "3"])
    out.append(["env-dim", alg("kxk"), "--ideal", "J+I", "--degree", "4"])
    # windows 5 and 6, where the ordered j rule skips the most products: a
    # nonzero bracket, and non-integral constants
    out.append(["env-dim", alg("m2std"), "--ideal", "OH", "--degree", "3"])
    out.append(["env-dim", SKEW, "--ideal", "J", "--degree", "4"])
    out.append(["relations", SKEW])
    # the other readers of the echelon's reduced form, on non-integral
    # constants: to_subspace, through saturate_closure and solve_nullspace
    for cmd in ("simple", "derivations"):
        out += [[cmd, path] for path in (SKEW, M2_UNIT)]
    for ideal in ("J", "J+I", "OH"):
        out.append(["env-dim", SKEW, "--ideal", ideal, "--degree", "2"])
    # a fixed window, whose last row is unstable; a window above the degree
    out.append(["env-dim", SKEW, "--ideal", "J", "--degree", "2", "--saturate", "2"])
    out.append(["env-dim", SKEW, "--ideal", "OH", "--degree", "1", "--saturate", "3"])
    # j(f0) is the one central generator
    for ideal in ("J", "OH"):
        out.append(["env-dim", M2_UNIT, "--ideal", ideal, "--degree", "2"])
    for name, ideal, degree, saturate in (
        ("kxk", "J", 2, 2),
        ("kxk", "J", 1, 1),
        ("kxk", "J", 0, 0),
        ("kxk", "J+I", 1, 3),
        ("kxk", "OH", 1, 2),
        ("trunc2-n2", "J", 2, 2),
        ("trunc2-n2", "J+I", 1, 3),
        ("kxk", "J", 1, 9),  # above the default degree cap: exit 2
    ):
        out.append(
            ["env-dim", alg(name), "--ideal", ideal, "--degree", str(degree),
             "--saturate", str(saturate)]
        )
    # a zero bracket makes every nonempty word act as zero (kxk, the skew
    # basis, whose unit is not a basis vector); m2std's does not
    out.append(["module-alg", alg("kxk")])
    out.append(["module-alg", alg("m2std"), "--degree", "3"])
    out += [["module-alg", path, "--degree", "2"] for path in (M2_UNIT, SKEW)]
    for mod in MODULES:
        path = f"{DATA}/{mod}.mod"
        out.append(["module-check", alg("kxk"), path, "--poisson"])
        out.append(["module-check", alg("kxk"), path])
        out.append(["roundtrip", alg("kxk"), path])
        out.append(["roundtrip", alg("kxk"), path, "--degree", "3"])
    # above the default degree cap: exit 2 before any work
    out.append(["roundtrip", alg("kxk"), f"{DATA}/kxk-regular.mod", "--degree", "9"])
    squares = [(alg(name), f"{TMP}/{name}-square.mod") for name in SQUARES]
    for algebra, path in squares + [(SKEW, f"{TMP}/trunc2-skew-square.mod")]:
        out.append(["module-check", algebra, path, "--poisson"])
        out.append(["roundtrip", algebra, path, "--degree", "2"])
    # deeper words on the non-integral square: products of degree 3
    out.append(["roundtrip", SKEW, f"{TMP}/trunc2-skew-square.mod", "--degree", "3"])
    # zero brackets: every monomial with a nonempty word acts as zero, so the
    # multiplicativity check skips most of its products at degree 3
    for name in ("trunc2-n2", "kxk"):
        out.append(["roundtrip", alg(name), f"{TMP}/{name}-square.mod", "--degree", "3"])
    # a nonzero bracket: the regular module of m2std keeps several parts of
    # each word pair's tripartitions
    out.append(["module-check", alg("m2std"), f"{TMP}/m2std-regular.mod", "--poisson"])
    out.append(["roundtrip", alg("m2std"), f"{TMP}/m2std-regular.mod", "--degree", "2"])
    # no dead word there, so the generator check forms every product it
    # checks: the heaviest case for it
    out.append(["roundtrip", alg("m2std"), f"{TMP}/m2std-regular.mod", "--degree", "3"])
    out.append(["module-check", alg("trunc2-n2"), f"{TMP}/trunc2-n2-quotient.mod", "--poisson"])
    out.append(["roundtrip", alg("trunc2-n2"), f"{TMP}/trunc2-n2-quotient.mod", "--degree", "2"])
    # a module smaller than the algebra on which every nonempty word acts as
    # zero: the multiplicativity check forms no product of two such words
    out.append(["roundtrip", alg("trunc2-n2"), f"{TMP}/trunc2-n2-quotient.mod", "--degree", "3"])
    out.append(["q-mul", alg("kxk"), "e1:e1:e2", "e1:e1:e1"])
    out.append(["q-mul", alg("m2std"), "E12:E21:E11.E12", "E21:E11:E22"])
    # above the default degree cap: a product of degree 9, a word of degree 9
    out.append(["q-mul", alg("kxk"), "e1:e1:e1.e2.e1.e2.e1", "e1:e1:e2.e1.e2.e1"])
    out.append(["q-mul", alg("kxk"), "e1:e1:e1.e2.e1.e2.e1.e2.e1.e2.e1", "e1:e1:"])
    # non-integral constants and coefficients, words on both sides
    out.append(["q-mul", SKEW, "1/2*f0:f1:f2.f1 + 3*f2:f0:f0", "2/3*f1:f0:f1 - 5/4*f0:f2:f2.f0"])
    out.append(["q-mul", SKEW, "1/6*f0:f0:f2 - 7/3*f1:f2:f0", "3/5*f2:f1:f1.f2.f0 + f0:f1:f1"])
    # the commands on elements of A, by labels and by coordinates
    for op in ("mul", "bracket"):
        out.append([op, alg("kxk"), "1/2*e1 + 3*e2", "2/3*e1 - e2"])
        out.append([op, alg("m2std"), "E12 + 1/2*E11", "3/4*E21 - E22"])
        out.append([op, alg("m2std"), "1,-1/3,2,0", "0,5/2,1,-1"])
        out.append([op, SKEW, "1/2*f0 - 2/3*f2", "f1 + 5/4*f2"])
    out.append(["mul", alg("kxk"), "e1", "e3"])  # an unknown label: exit 2
    # std prints the file, or writes it to be read back
    out.append(["std", alg("kxk")])
    out.append(["std", alg("m2std"), "--out", f"{TMP}/m2std-std.alg"])
    out.append(["validate", f"{TMP}/m2std-std.alg"])
    out.append(["bracket", f"{TMP}/m2std-std.alg", "1/2*E12", "E21 - 2/3*E11"])
    out.append(["std", SKEW, "--out", f"{TMP}/trunc2-skew-std.alg"])
    out.append(["validate", f"{TMP}/trunc2-skew-std.alg"])
    out.append(["std", alg("kxk"), "--out", f"{TMP}/no-such-dir/kxk.alg"])  # exit 2
    # the third stage of simple: a minimal polynomial that is irreducible
    for cmd in ("validate", "simple", "derivations"):
        out.append([cmd, QSQRT2])
    out.append(["env-dim", QSQRT2, "--ideal", "J", "--degree", "2"])
    # ideals that no probe of simple's first stage generates: its second
    # stage (a nonzero radical) and the kernel branch of its third (a
    # reducible minimal polynomial) find them
    for path in (DUAL, KXK_UNIT):
        out += [[cmd, path] for cmd in ("validate", "simple", "derivations")]
    # an invalid algebra loaded by a command other than validate: exit 2 with
    # the axiom summary, which bad-jacobi's violations overflow
    for name, (x, y) in zip(BAD, (("e1", "e2"), ("x", "y"), ("e1", "e2"))):
        out += [["env-dim", alg(name)], ["simple", alg(name)], ["mul", alg(name), x, y]]
    return out


def write_inputs(tmp: str) -> None:
    from perfbench.workloads import rebase, write_skew_algebra
    from poissonenv.fileformat import (
        load_bundled_algebra,
        parse_algebra_file,
        serialize_algebra,
        serialize_module,
    )
    from poissonenv.linalg import SparseVector
    from poissonenv.ncpa import AlgebraPresentation, poisson_ideal_closure, validate_ncpa
    from poissonenv.poisson_modules import quotient_module, regular_module, tensor_square_module

    skew = Path(tmp, "trunc2-skew.alg")
    write_skew_algebra(skew, 1)
    algebras = {name: load_bundled_algebra(f"{name}.alg") for name in SQUARES}
    algebras["trunc2-skew"] = parse_algebra_file(skew.read_text(encoding="utf-8"))
    for name, pres in algebras.items():
        M = tensor_square_module(validate_ncpa(pres))
        Path(tmp, f"{name}-square.mod").write_text(serialize_module(M), encoding="utf-8")
    m2_unit = rebase(algebras["m2std"], [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
    Path(tmp, "m2std-unit.alg").write_text(serialize_algebra(m2_unit), encoding="utf-8")
    m2std = validate_ncpa(algebras["m2std"])
    Path(tmp, "m2std-regular.mod").write_text(
        serialize_module(regular_module(m2std)), encoding="utf-8"
    )
    trunc2 = validate_ncpa(algebras["trunc2-n2"])
    quotient = quotient_module(trunc2, poisson_ideal_closure(trunc2, [trunc2.basis(1)]))  # x1
    Path(tmp, "trunc2-n2-quotient.mod").write_text(serialize_module(quotient), encoding="utf-8")
    one, s = (SparseVector(2, {a: 1}) for a in range(2))
    qsqrt2 = AlgebraPresentation("Q(sqrt2)", 2, ["1", "s"], one,
                                 {(0, 0): one, (0, 1): s, (1, 0): s, (1, 1): one.scale(2)}, {})
    Path(tmp, "qsqrt2.alg").write_text(serialize_algebra(qsqrt2), encoding="utf-8")
    x = SparseVector(2, {1: 1})
    dual = AlgebraPresentation("dual", 2, ["1", "x"], one, {(0, 0): one, (0, 1): x, (1, 0): x}, {})
    Path(tmp, "dual-numbers.alg").write_text(
        serialize_algebra(rebase(dual, [[1, 1], [0, 1]])), encoding="utf-8"
    )
    kxk_unit = rebase(algebras["kxk"], [[1, 1], [1, 2]])
    Path(tmp, "kxk-unit.alg").write_text(serialize_algebra(kxk_unit), encoding="utf-8")


def run_jobs(repo: Path) -> list[dict]:
    sys.path[:0] = [str(repo / "src"), str(repo)]
    os.chdir(repo)
    from poissonenv import cli

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for argv in jobs():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["--json", *(arg.replace(TMP, tmp) for arg in argv)])
            report = json.loads(buf.getvalue().replace(tmp, TMP))
            report.pop("elapsed", None)
            results.append({"argv": argv, "exit": code, "report": report})
            print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument(
        "--repo",
        default=str(Path(__file__).resolve().parent.parent),
        help="checkout whose src/ is run (default: this one)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    results = run_jobs(Path(args.repo).resolve())
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
