"""JSON interchange formats for algebras and modules.

Rationals travel as strings "p" or "p/q" so nothing is ever rounded;
unreduced or negative-denominator inputs are accepted and canonicalized.
Structure constants are sparse quadruple lists [i, j, k, coeff] meaning
the coefficient of basis k in the product (or bracket) of basis i and j;
omitted triples are zero and duplicate (i, j, k) keys are rejected.
Basis labels must be nonempty, hold none of + - * , : . (the separators
of the element syntax, cli.parse_element and parse_q_element) and have
no leading or trailing whitespace, so that every label can be named.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Mapping

from .linalg import SparseVector, mat_from_rows
from .ncpa import NCPA, AlgebraPresentation
from .poisson_modules import QuasiPoissonModule


class FileFormatError(Exception):
    """Bad syntax or bad content in an interchange file."""


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise FileFormatError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"malformed rational {value!r}: {exc}")
    raise FileFormatError(f"expected a rational string, got {value!r}")


def format_rational(x: Fraction) -> str:
    return str(x)


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise FileFormatError("top-level value must be an object")
    return doc


def _check_label(label: str) -> None:
    if not label or label != label.strip():
        problem = "is empty or has leading or trailing whitespace"
    else:
        bad = [ch for ch in "+-*,:." if ch in label]
        if not bad:
            return
        problem = f"contains {bad[0]!r}, a separator of the element syntax"
    raise FileFormatError(f"basis label {label!r} {problem}")


def _parse_constants(entries, dim: int, tag: str) -> dict:
    if not isinstance(entries, list):
        raise FileFormatError(f"{tag} must be an array of [i, j, k, coeff] quadruples")
    table: dict[tuple, dict] = {}
    seen = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise FileFormatError(f"{tag} entry {entry!r} is not a quadruple")
        i, j, k, coeff = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise FileFormatError(f"{tag} entry {entry!r} has a non-integer index")
            if not 0 <= idx < dim:
                raise FileFormatError(
                    f"{tag} index {idx} out of range for dimension {dim}"
                )
        if (i, j, k) in seen:
            raise FileFormatError(f"duplicate {tag} key ({i}, {j}, {k})")
        seen.add((i, j, k))
        c = parse_rational(coeff)
        if c:
            table.setdefault((i, j), {})[k] = c
    return {
        key: SparseVector(dim, data) for key, data in table.items()
    }


def parse_algebra_file(text: str) -> AlgebraPresentation:
    doc = _load_json(text)
    for key in ("name", "dim", "basis", "unit", "mul", "bracket"):
        if key not in doc:
            raise FileFormatError(f"missing key {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise FileFormatError("name must be a string")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError("dim must be a positive integer")
    basis = doc["basis"]
    if not (isinstance(basis, list) and all(isinstance(b, str) for b in basis)):
        raise FileFormatError("basis must be an array of strings")
    if len(basis) != dim:
        raise FileFormatError(f"expected {dim} basis labels, got {len(basis)}")
    for label in basis:
        _check_label(label)
    unit_raw = doc["unit"]
    if not (isinstance(unit_raw, list) and len(unit_raw) == dim):
        raise FileFormatError(f"unit must be an array of {dim} rationals")
    unit = SparseVector(
        dim, {i: parse_rational(v) for i, v in enumerate(unit_raw)}
    )
    mul = _parse_constants(doc["mul"], dim, "mul")
    bracket = _parse_constants(doc["bracket"], dim, "bracket")
    return AlgebraPresentation(name, dim, basis, unit, mul, bracket)


def serialize_algebra(p: AlgebraPresentation) -> str:
    def constants(table: Mapping) -> list:
        out = []
        for (i, j), vec in sorted(table.items()):
            for k in vec.support():
                out.append([i, j, k, format_rational(vec.get(k))])
        return out

    doc = {
        "name": p.name,
        "dim": p.dim,
        "basis": list(p.basis_labels),
        "unit": [format_rational(x) for x in p.unit.to_dense()],
        "mul": constants(p.mul),
        "bracket": constants(p.bracket),
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_matrix_list(entries, count: int, dim: int, tag: str) -> tuple:
    if not (isinstance(entries, list) and len(entries) == count):
        raise FileFormatError(f"{tag} must be an array of {count} matrices")
    out = []
    for idx, triples in enumerate(entries):
        if not isinstance(triples, list):
            raise FileFormatError(f"{tag}[{idx}] must be an array of triples")
        rows: list[dict] = [{} for _ in range(dim)]
        seen = set()
        for entry in triples:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise FileFormatError(f"{tag}[{idx}] entry {entry!r} is not a triple")
            r, c, coeff = entry
            for x in (r, c):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise FileFormatError(
                        f"{tag}[{idx}] entry {entry!r} has a non-integer index"
                    )
                if not 0 <= x < dim:
                    raise FileFormatError(
                        f"{tag}[{idx}] index {x} out of range for dimension {dim}"
                    )
            if (r, c) in seen:
                raise FileFormatError(f"duplicate {tag}[{idx}] key ({r}, {c})")
            seen.add((r, c))
            rows[r][c] = parse_rational(coeff)
        out.append(mat_from_rows(rows))
    return tuple(out)


def parse_module_file(text: str, A: NCPA) -> QuasiPoissonModule:
    doc = _load_json(text)
    for key in ("algebra", "dim", "left", "right", "lie"):
        if key not in doc:
            raise FileFormatError(f"missing key {key!r}")
    if doc["algebra"] != A.name:
        raise FileFormatError(
            f"module file names algebra {doc['algebra']!r}, expected {A.name!r}"
        )
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise FileFormatError("dim must be a nonnegative integer")
    left = _parse_matrix_list(doc["left"], A.n, dim, "left")
    right = _parse_matrix_list(doc["right"], A.n, dim, "right")
    lie = _parse_matrix_list(doc["lie"], A.n, dim, "lie")
    return QuasiPoissonModule(A, dim, left, right, lie)


def serialize_module(M: QuasiPoissonModule) -> str:
    """Kept as a fixture writer for scripts/compare_reports.py and
    perfbench."""

    def matrices(fam) -> list:
        out = []
        for rows, den in fam:
            out.append([
                [r, c, format_rational(Fraction(row[c], den))]
                for r, row in enumerate(rows) for c in sorted(row)
            ])
        return out

    doc = {
        "algebra": M.algebra.name,
        "dim": M.dim,
        "left": matrices(M.left),
        "right": matrices(M.right),
        "lie": matrices(M.lie),
    }
    return json.dumps(doc, indent=2) + "\n"


def bundled_path(name: str):
    """Path to a data file shipped with the package."""
    return resources.files("poissonenv").joinpath("data", name)


def load_bundled_algebra(name: str) -> AlgebraPresentation:
    """Kept as a fixture loader for the scripts, perfbench and the tests."""
    return parse_algebra_file(bundled_path(name).read_text("utf-8"))
