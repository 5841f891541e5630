from fractions import Fraction

import pytest

from poissonenv.fileformat import (
    FileFormatError,
    bundled_path,
    load_bundled_algebra,
    parse_algebra_file,
    parse_module_file,
    parse_rational,
    serialize_algebra,
    serialize_module,
)
from poissonenv.ncpa import validate_ncpa
from poissonenv.poisson_modules import regular_module

MINIMAL = """
{
  "name": "kxk",
  "dim": 2,
  "basis": ["e1", "e2"],
  "unit": ["1", "1"],
  "mul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
  "bracket": []
}
"""


def test_parse_minimal_and_validate():
    pres = parse_algebra_file(MINIMAL)
    assert pres.dim == 2
    A = validate_ncpa(pres)
    assert A.name == "kxk"


def test_rational_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("1/-2") == Fraction(-1, 2)  # canonicalized
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(FileFormatError):
        parse_rational("1/0")
    with pytest.raises(FileFormatError):
        parse_rational("a/b")
    with pytest.raises(FileFormatError):
        parse_rational(1.5)
    # an optional sign and surrounding whitespace on either side of the /
    assert parse_rational(" +3 / -4 ") == Fraction(-3, 4)
    assert parse_rational("-007") == Fraction(-7)


@pytest.mark.parametrize("text", ["1_000", "\uff11\uff12", "\u0663/\u0664", "1/2_0"])
def test_rational_digits_must_be_ascii_decimal(text):
    # int() reads each of these (1000, fullwidth 12, Arabic-Indic 3/4, 20)
    with pytest.raises(FileFormatError, match="malformed rational"):
        parse_rational(text)


def test_zero_denominator_in_file():
    bad = MINIMAL.replace('[0, 0, 0, "1"]', '[0, 0, 0, "1/0"]')
    with pytest.raises(FileFormatError, match="malformed rational"):
        parse_algebra_file(bad)


def test_index_out_of_range():
    bad = MINIMAL.replace("[1, 1, 1,", "[1, 5, 1,")
    with pytest.raises(FileFormatError, match="out of range"):
        parse_algebra_file(bad)


def test_duplicate_key_rejected():
    bad = MINIMAL.replace(
        '"mul": [[0, 0, 0, "1"],', '"mul": [[0, 0, 0, "1"], [0, 0, 0, "2"],'
    )
    with pytest.raises(FileFormatError, match="duplicate"):
        parse_algebra_file(bad)


def test_syntax_error_reports_position():
    with pytest.raises(FileFormatError, match=r"line \d+"):
        parse_algebra_file("{ not json")


def test_missing_key():
    with pytest.raises(FileFormatError, match="missing key"):
        parse_algebra_file('{"name": "x"}')


def test_unreduced_input_canonicalized():
    text = MINIMAL.replace('[0, 0, 0, "1"]', '[0, 0, 0, "2/2"]')
    pres = parse_algebra_file(text)
    assert pres.mul[(0, 0)].get(0) == 1
    out = serialize_algebra(pres)
    assert '"2/2"' not in out


def test_algebra_roundtrip_bundled():
    for name in (
        "kxk.alg",
        "m2std.alg",
        "trunc2-n2.alg",
        "bad-antisym.alg",
        "bad-jacobi.alg",
        "bad-leibniz.alg",
    ):
        text = bundled_path(name).read_text("utf-8")
        pres = parse_algebra_file(text)
        again = parse_algebra_file(serialize_algebra(pres))
        assert again.name == pres.name
        assert again.dim == pres.dim
        assert again.basis_labels == pres.basis_labels
        assert again.unit == pres.unit
        assert again.mul == pres.mul
        assert again.bracket == pres.bracket


def test_module_roundtrip(kxk):
    M = regular_module(kxk)
    text = serialize_module(M)
    back = parse_module_file(text, kxk)
    assert back.equal_actions(M)


def test_module_wrong_algebra_name(kxk, m2):
    M = regular_module(kxk)
    with pytest.raises(FileFormatError, match="names algebra"):
        parse_module_file(serialize_module(M), m2)


def test_module_bad_matrix_index(kxk):
    import json

    doc = json.loads(serialize_module(regular_module(kxk)))
    doc["left"][0][0][0] = 9
    with pytest.raises(FileFormatError, match="out of range"):
        parse_module_file(json.dumps(doc), kxk)


def test_bundled_violation_fixtures_parse():
    for name in ("bad-antisym.alg", "bad-jacobi.alg", "bad-leibniz.alg"):
        pres = load_bundled_algebra(name)
        assert pres.dim >= 2


def test_module_triples_in_any_order_give_the_same_form_and_bytes(m2):
    import json

    from poissonenv.linalg import is_form
    from poissonenv.poisson_modules import tensor_square_module

    M = tensor_square_module(m2)  # a nonzero bracket: every family has entries
    text = serialize_module(M)
    doc = json.loads(text)
    for fam in ("left", "right", "lie"):
        for triples in doc[fam]:
            triples.reverse()
            for r in range(M.dim):  # explicit zeros, unreduced, are dropped
                if not any(t[:2] == [r, r] for t in triples):
                    triples.append([r, r, "0/3"])
    back = parse_module_file(json.dumps(doc), m2)
    assert all(is_form(m, M.dim, M.dim) for fam in (back.left, back.right, back.lie) for m in fam)
    assert back.equal_actions(M)
    # rows and then columns in ascending order, whatever order the file had
    assert serialize_module(back) == text


def test_make_fixtures_reproduces_every_bundled_file(tmp_path, monkeypatch, capsys):
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "DATA", tmp_path)
    make_fixtures.main()
    capsys.readouterr()
    bundled = bundled_path("kxk.alg").parent
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in bundled.iterdir() if p.suffix in (".alg", ".mod"))
    for name in made:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
