"""Command-line interface: validation, products, enveloping-algebra
probes, and module checks over algebra/module files.

Exit codes: 0 all checks passed, 1 a mathematical check failed,
2 usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .fileformat import (
    FileFormatError,
    parse_algebra_file,
    parse_module_file,
    parse_rational,
    serialize_algebra,
)
from .limits import DegreeCapExceeded
from .linalg import SparseVector, accumulate
from .ncpa import (
    NCPA,
    NcpaValidationError,
    PresentationError,
    axiom_violations,
    is_poisson_simple,
    regular_poisson_structures,
    standard_ncpa,
    unit_first as unit_first_copy,
    validate_ncpa,
)
from .pbw import module_algebra_failures
from .poisson_modules import (
    ActionError,
    ModuleShapeError,
    poisson_violations,
    quasi_violations,
    roundtrip_report,
)
from .smash import QElement, format_q_element, q_mult
from .truncation import dimension_table, ideal_gens_by_label


class UsageError(Exception):
    pass


@dataclass
class Report:
    command: list
    status: str
    findings: list = field(default_factory=list)
    output: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "findings": self.findings,
            "output": self.output,
            "elapsed": self.elapsed,
        }


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def load_algebra(path: str, unit_first: bool = False) -> NCPA:
    """The algebra of an algebra file, validated in the file's basis, so
    that axiom violations name the file's basis vectors.  With unit_first,
    the isomorphic copy of ncpa.unit_first, whose basis holds the unit:
    env-dim runs its ideal closure there, since no number it reports
    depends on the basis."""
    A = validate_ncpa(parse_algebra_file(_read_text(path)))
    return unit_first_copy(A) if unit_first else A


# -- element syntax -----------------------------------------------------------

def parse_element(A: NCPA, text: str) -> SparseVector:
    """Either comma-separated coordinates ("1,0") or a linear combination
    of basis labels ("e1 + 2*e2")."""
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != A.n:
            raise UsageError(
                f"expected {A.n} coordinates, got {len(parts)} in {text!r}"
            )
        return SparseVector(
            A.n, {i: parse_rational(p) for i, p in enumerate(parts)}
        )
    total = SparseVector(A.n)
    for coeff, body in _signed_terms(text):
        total = total + _parse_label_term(A, body).scale(coeff)
    return total


def _signed_terms(text: str):
    """Split "t1 + t2 - t3" into (sign, term) pairs.  One sign may lead the
    text; every sign needs a term after it."""
    out = []
    sign = 1
    term = ""
    signed = False
    for ch in text + "+":  # the sentinel flushes the last term
        if ch in "+-":
            if term.strip():
                out.append((sign, term.strip()))
            elif signed:
                raise UsageError(f"sign with no term after it in {text!r}")
            sign = 1 if ch == "+" else -1
            term = ""
            signed = True
        else:
            term += ch
    if not out:
        raise UsageError("empty element expression")
    return out


def _parse_label_term(A: NCPA, body: str) -> SparseVector:
    if "*" in body:
        coeff_text, _, label = body.partition("*")
        coeff = parse_rational(coeff_text.strip())
        label = label.strip()
    else:
        coeff = None
        label = body
    v = A.basis(_label_index(A, label))
    return v if coeff is None else v.scale(coeff)


def _label_index(A: NCPA, label: str) -> int:
    label = label.strip()
    try:
        return A.labels.index(label)
    except ValueError:
        raise UsageError(f"unknown basis label {label!r}")


def parse_q_element(A: NCPA, text: str) -> QElement:
    """Terms like "c*i:j:w1.w2" joined with + and -; the third field is a
    dot-separated word of basis labels and may be empty."""
    from .pbw import straighten

    total: QElement = {}
    for sign, body in _signed_terms(text):
        if "*" in body:
            coeff_text, _, mono = body.partition("*")
            coeff = parse_rational(coeff_text.strip()) * sign
            mono = mono.strip()
        else:
            coeff = parse_rational(str(sign))
            mono = body
        fields = mono.split(":")
        if len(fields) != 3:
            raise UsageError(f"monomial {mono!r} must have form i:j:word")
        i, j = _label_index(A, fields[0]), _label_index(A, fields[1])
        word = tuple(_label_index(A, t) for t in fields[2].split(".") if t.strip())
        for gamma, c in straighten(A, word).items():
            accumulate(total, (i, j, gamma), coeff * c)
    return total


# -- subcommand handlers --------------------------------------------------------

def cmd_validate(args):
    pres = parse_algebra_file(_read_text(args.algebra))
    violations = axiom_violations(pres)
    findings = [
        dict(kind="violation", **v.to_dict(pres.basis_labels)) for v in violations
    ]
    if findings:
        out = [f"{len(findings)} axiom violation(s) in {pres.name!r}:"]
        out += [f"  {f['axiom']} at basis {tuple(f['basis'])}" for f in findings]
    else:
        out = [f"valid NCPA {pres.name!r} (dim {pres.dim})"]
    return findings, out


def cmd_std(args):
    pres = parse_algebra_file(_read_text(args.algebra))
    A = standard_ncpa(pres)
    text = serialize_algebra(A.presentation)
    if args.out:
        try:
            Path(args.out).write_text(text, "utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
        out = [f"wrote standard NCPA to {args.out}"]
    else:
        out = [text.rstrip("\n")]
    return [{"kind": "info", "detail": "standard bracket attached"}], out


def cmd_mul(args):
    A = load_algebra(args.algebra)
    x = parse_element(A, args.x)
    y = parse_element(A, args.y)
    result = A.mul(x, y) if args.op == "mul" else A.bracket(x, y)
    out = [A.format_element(result)]
    return [{"kind": "info", "result": A.format_element(result)}], out


def cmd_q_mul(args):
    A = load_algebra(args.algebra)
    x = parse_q_element(A, args.x)
    y = parse_q_element(A, args.y)
    result = q_mult(A, x, y)
    out = [format_q_element(A, result)]
    return [{"kind": "info", "result": format_q_element(A, result)}], out


def cmd_relations(args):
    from .smash import generator_relation_failures

    A = load_algebra(args.algebra)
    failures = generator_relation_failures(A)
    findings = [dict(kind="violation", **f) for f in failures]
    out = (
        ["all generator relations hold"]
        if not findings
        else [f"{len(findings)} relation failure(s)"]
    )
    return findings, out


def cmd_module_alg(args):
    A = load_algebra(args.algebra)
    failures = module_algebra_failures(A, args.degree)
    findings = [
        {"kind": "violation", "algebra": f["algebra"], "word": list(f["word"]),
         "pair": list(map(list, f["pair"])) if f["algebra"] == "A^e" else list(f["pair"])}
        for f in failures
    ]
    out = (
        [f"module-algebra law holds up to degree {args.degree}"]
        if not findings
        else [f"{len(findings)} module-algebra failure(s)"]
    )
    return findings, out


def cmd_env_dim(args):
    if args.saturate is not None and args.saturate < args.degree:
        raise UsageError("saturation bound must be >= truncation degree")
    A = load_algebra(args.algebra, unit_first=True)
    gens = ideal_gens_by_label(A, args.ideal)
    table = dimension_table(A, gens, args.degree, args.saturate)
    findings = [dict(kind="info", **row) for row in table]
    out = []
    for row in table:
        stable = " (stable)" if row["stable"] else " (unstable)"
        out.append(f"d={row['degree']}: {row['dimension']}{stable}")
    return findings, out


def cmd_simple(args):
    A = load_algebra(args.algebra)
    report = is_poisson_simple(A)
    out = [f"Poisson-simple: {'true' if report.simple else 'false'}"]
    finding = {"kind": "info", "poisson_simple": report.simple}
    if report.witness is not None:
        witness = [A.format_element(v) for v in report.witness.rows]
        finding["witness"] = witness
        out.append("proper ideal witness: span{" + ", ".join(witness) + "}")
    return [finding], out


def cmd_derivations(args):
    A = load_algebra(args.algebra)
    structures = regular_poisson_structures(A)
    out = [
        f"Poisson derivations: rank {structures.derivations.rank}",
        f"regular-structure derivations: rank {structures.space.rank}",
    ]
    findings = [
        {
            "kind": "info",
            "derivation_rank": structures.derivations.rank,
            "regular_rank": structures.space.rank,
        }
    ]
    return findings, out


def cmd_module_check(args):
    A = load_algebra(args.algebra)
    M = parse_module_file(_read_text(args.module), A)
    failures = poisson_violations(M) if args.poisson else quasi_violations(M)
    findings = [
        {"kind": "violation", "axiom": f["axiom"], "indices": list(f["indices"])}
        for f in failures
    ]
    label = "Poisson" if args.poisson else "quasi-Poisson"
    if not findings:
        out = [f"valid {label} module (dim {M.dim})"]
    else:
        out = [f"{len(findings)} {label} axiom failure(s):"]
        out += [f"  {f['axiom']} at {tuple(f['indices'])}" for f in findings]
    return findings, out


def cmd_roundtrip(args):
    A = load_algebra(args.algebra)
    M = parse_module_file(_read_text(args.module), A)
    report = roundtrip_report(A, M, args.degree)
    findings = []
    if not report["module_roundtrip_equal"]:
        findings.append({"kind": "violation", "check": "module-roundtrip"})
    for m in report["action_roundtrip_mismatches"]:
        findings.append(
            {"kind": "violation", "check": "action-roundtrip", "monomial": str(m)}
        )
    for pair in report["associativity_failures"]:
        findings.append(
            {"kind": "violation", "check": "action-associativity", "pair": str(pair)}
        )
    out = (
        [f"roundtrips hold on {report['monomials_checked']} monomials"]
        if report["ok"]
        else ["roundtrip failures found"]
    )
    return findings, out


# -- driver ---------------------------------------------------------------------

def _degree(text: str) -> int:
    """argparse type for degree bounds: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonenv",
        description="Exact computation in quasi-Poisson enveloping algebras "
        "of finite-dimensional non-commutative Poisson algebras.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the NCPA axioms of an algebra file")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("std", help="attach the commutator bracket and emit the file")
    p.add_argument("algebra")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_std)

    for op in ("mul", "bracket"):
        p = sub.add_parser(op, help=f"{op} of two elements")
        p.add_argument("algebra")
        p.add_argument("x")
        p.add_argument("y")
        p.set_defaults(handler=cmd_mul, op=op)

    p = sub.add_parser("q-mul", help="product in the quasi-Poisson enveloping algebra")
    p.add_argument("algebra")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=cmd_q_mul)

    p = sub.add_parser("relations", help="verify the embedding generator relations")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_relations)

    p = sub.add_parser("module-alg", help="verify the module-algebra law")
    p.add_argument("algebra")
    p.add_argument("--degree", type=_degree, default=2)
    p.set_defaults(handler=cmd_module_alg)

    p = sub.add_parser("env-dim", help="truncated quotient dimensions")
    p.add_argument("algebra")
    p.add_argument("--ideal", default="J", choices=["J", "I", "OH", "J+I"])
    p.add_argument("--degree", type=_degree, default=2)
    p.add_argument("--saturate", type=_degree, default=None)
    p.set_defaults(handler=cmd_env_dim)

    p = sub.add_parser("simple", help="decide Poisson-simplicity")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_simple)

    p = sub.add_parser("derivations", help="Poisson derivation spaces")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_derivations)

    p = sub.add_parser("module-check", help="validate a module file")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--poisson", action="store_true")
    p.set_defaults(handler=cmd_module_check)

    p = sub.add_parser("roundtrip", help="module/action roundtrip checks")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--degree", type=_degree, default=2)
    p.set_defaults(handler=cmd_roundtrip)

    return parser


def run_command(argv) -> Report:
    """The Report of one command line, unprinted; kept for the tests."""
    return _run(build_parser().parse_args(argv), argv)


def _run(args: argparse.Namespace, argv) -> Report:
    t0 = time.perf_counter()
    try:
        findings, output = args.handler(args)
        status = "fail" if any(
            f.get("kind") == "violation" for f in findings
        ) else "pass"
    except (
        UsageError,
        FileFormatError,
        PresentationError,
        NcpaValidationError,
        DegreeCapExceeded,
        ModuleShapeError,
        ActionError,
    ) as exc:
        findings = [{"kind": "error", "detail": str(exc)}]
        output = [f"error: {exc}"]
        status = "error"
    return Report(
        command=list(argv),
        status=status,
        findings=findings,
        output=output,
        elapsed=round(time.perf_counter() - t0, 6),
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        # no local keeps the parser: its reference cycles would wait for a
        # full collection while the job runs
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code not in (0,) else 0
    report = _run(args, argv)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for line in report.output:
            print(line)
        print(f"status: {report.status} ({report.elapsed}s)")
    return {"pass": 0, "fail": 1, "error": 2}[report.status]


if __name__ == "__main__":
    sys.exit(main())
