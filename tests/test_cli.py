import json

import pytest

from poissonenv.cli import main, run_command
from poissonenv.fileformat import bundled_path


def path(name):
    return str(bundled_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_pass(capsys):
    code, out = run(capsys, "validate", path("kxk.alg"))
    assert code == 0
    assert "valid NCPA" in out


def test_validate_all_fixtures_fail(capsys):
    for name, axiom in (
        ("bad-antisym.alg", "antisymmetry"),
        ("bad-jacobi.alg", "jacobi"),
        ("bad-leibniz.alg", "leibniz"),
    ):
        code, out = run(capsys, "validate", path(name))
        assert code == 1
        assert axiom in out


def test_validate_json_findings(capsys):
    code, out = run(capsys, "--json", "validate", path("bad-antisym.alg"))
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert any(
        f["kind"] == "violation" and f["axiom"] == "antisymmetry"
        for f in doc["findings"]
    )


def test_json_and_text_findings_agree(capsys):
    code_t, out_t = run(capsys, "validate", path("bad-jacobi.alg"))
    code_j, out_j = run(capsys, "--json", "validate", path("bad-jacobi.alg"))
    assert code_t == code_j == 1
    doc = json.loads(out_j)
    for f in doc["findings"]:
        assert f["axiom"] == "jacobi"
    assert out_t.count("jacobi") >= len(doc["findings"])


def test_missing_file(capsys):
    code, out = run(capsys, "validate", "/nonexistent/file.alg")
    assert code == 2
    assert "error" in out


def test_json_positional_is_not_the_flag(capsys):
    # after "--", "--json" is the algebra path, not the report format
    code, out = run(capsys, "validate", "--", "--json")
    assert code == 2
    assert out.startswith("error: cannot read --json")
    assert "status: error" in out


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_usage_error_no_args():
    assert main([]) == 2


def test_std_emits_commutator_bracket(capsys, tmp_path):
    # strip the bracket from m2std, regenerate it, compare
    src = bundled_path("m2std.alg").read_text("utf-8")
    doc = json.loads(src)
    doc["bracket"] = []
    doc["name"] = "m2"
    assoc = tmp_path / "m2assoc.alg"
    assoc.write_text(json.dumps(doc), "utf-8")
    out_file = tmp_path / "m2new.alg"
    code, _ = run(capsys, "std", str(assoc), "--out", str(out_file))
    assert code == 0
    regenerated = json.loads(out_file.read_text("utf-8"))
    original = json.loads(src)
    assert sorted(map(tuple, regenerated["bracket"])) == sorted(
        map(tuple, original["bracket"])
    )


def assert_error(out, as_json, start):
    """The report is an error whose one finding's detail begins with start."""
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        [finding] = doc["findings"]
        assert finding["kind"] == "error"
        assert finding["detail"].startswith(start)
    else:
        assert out.splitlines()[0].startswith(f"error: {start}")
        assert "status: error" in out


@pytest.mark.parametrize("argv", [
    ["validate", "BAD"],
    ["module-check", "BAD", "kxk-regular.mod"],
    ["module-check", "kxk.alg", "BAD"],
])
@pytest.mark.parametrize("as_json", [False, True])
def test_input_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, argv, as_json):
    bad = tmp_path / "utf16.alg"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte-order mark
    argv = [str(bad) if a == "BAD" else path(a) if "." in a else a for a in argv]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    assert_error(out, as_json, f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("target", ["missing/m2.alg", "."])
@pytest.mark.parametrize("as_json", [False, True])
def test_std_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, target, as_json):
    out_file = tmp_path / target
    code, out = run(
        capsys, *(["--json"] if as_json else []), "std", path("m2std.alg"), "--out", str(out_file)
    )
    assert code == 2
    assert_error(out, as_json, f"cannot write {out_file}: ")
    assert not (tmp_path / "missing").exists()


def test_mul_and_bracket(capsys):
    code, out = run(capsys, "mul", path("kxk.alg"), "e1+e2", "e1")
    assert code == 0
    assert out.splitlines()[0] == "e1"
    code, out = run(capsys, "bracket", path("m2std.alg"), "E12", "E21")
    assert code == 0
    assert out.splitlines()[0] == "E11 - E22"
    code, out = run(capsys, "mul", path("kxk.alg"), "1,0", "0,1")
    assert code == 0
    assert out.splitlines()[0] == "0"


def _field_k(tmp_path) -> str:
    """The 1-dimensional algebra k, basis (one,), zero bracket."""
    doc = {"name": "k", "dim": 1, "basis": ["one"], "unit": ["1"],
           "mul": [[0, 0, 0, "1"]], "bracket": []}
    out = tmp_path / "k.alg"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return str(out)


@pytest.mark.parametrize("x, y, product", [
    ("2,", "3,", "6*one"),
    ("2 ,", " -1/3, ", "-2/3*one"),
    ("2,", "3*one", "6*one"),
])
def test_coordinates_in_dimension_one_take_a_trailing_comma(capsys, tmp_path, x, y, product):
    code, out = run(capsys, "mul", _field_k(tmp_path), x, y)
    assert code == 0
    assert out.splitlines()[0] == product


def test_coordinates_in_dimension_two_may_end_in_one_comma(capsys):
    for x, y in (("1,0,", "0,1"), ("1,0", "0,1,"), ("1,0,", "0,1,")):
        code, out = run(capsys, "mul", path("kxk.alg"), x, y)
        assert code == 0
        assert out.splitlines()[0] == "0"
    code, out = run(capsys, "mul", path("kxk.alg"), "1,1,", "1/2,0,")
    assert code == 0
    assert out.splitlines()[0] == "1/2*e1"


@pytest.mark.parametrize("algebra, x, start", [
    ("k", ",", "malformed rational ''"),
    ("k", "2,,", "expected 1 coordinates, got 2"),
    ("k", "2", "unknown basis label '2'"),
    ("kxk", ",", "expected 2 coordinates, got 1"),
    ("kxk", "1,0,,", "expected 2 coordinates, got 3"),
    ("kxk", "1,", "expected 2 coordinates, got 1"),
    ("kxk", ",1", "malformed rational ''"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_malformed_coordinates_exit_2(capsys, tmp_path, algebra, x, start, as_json):
    alg = _field_k(tmp_path) if algebra == "k" else path("kxk.alg")
    y = "1," if algebra == "k" else "1,0"
    code, out = run(capsys, *(["--json"] if as_json else []), "mul", alg, x, y)
    assert code == 2
    assert_error(out, as_json, start)
    assert "Traceback" not in out


def test_mul_bad_label(capsys):
    code, out = run(capsys, "mul", path("kxk.alg"), "e9", "e1")
    assert code == 2


def test_q_mul(capsys):
    code, out = run(capsys, "q-mul", path("kxk.alg"), "e1:e1:e2", "e1:e1:e1")
    assert code == 0
    assert out.splitlines()[0] == "e1:e1:e1.e2"


@pytest.mark.parametrize(
    "argv",
    [
        ["q-mul", "kxk.alg", "e1:e1:e2 - + e1:e1:e1", "e1:e1:"],
        ["q-mul", "kxk.alg", "e1:e1:e2 +", "e1:e1:"],
        ["q-mul", "kxk.alg", "e1:e1:e2", " --e1:e1:"],
        ["q-mul", "kxk.alg", "e1:e1:e2", " -"],
        ["mul", "kxk.alg", "e1 + - e2", "e1"],
        ["mul", "kxk.alg", "e1", "e2 -"],
        ["mul", "m2std.alg", "+ +E12", "E21"],
    ],
)
def test_dangling_or_doubled_sign_is_a_usage_error(capsys, argv):
    argv = [path(a) if a.endswith(".alg") else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert "error: sign with no term after it" in out


def test_single_leading_sign_is_accepted(capsys):
    # a leading space keeps the argument parser from reading an option
    code, out = run(capsys, "q-mul", path("kxk.alg"), " -e1:e1:e2", "+e1:e1:e1")
    assert code == 0
    assert out.splitlines()[0] == "-e1:e1:e1.e2"
    code, out = run(capsys, "mul", path("m2std.alg"), "- E12 + E21", "E21 + E12")
    assert code == 0
    assert out.splitlines()[0] == "-E11 + E22"


def test_leading_sign_after_double_dash(capsys):
    # without "--" the argument parser reads "-e1:e1:e2" as an option
    code, out = run(capsys, "q-mul", path("kxk.alg"), "--", "-e1:e1:e2", "e1:e1:")
    assert code == 0
    assert out.splitlines()[0] == "-e1:e1:e2"
    code, out = run(capsys, "mul", path("m2std.alg"), "--", "-E12", "E21")
    assert code == 0
    assert out.splitlines()[0] == "-E11"


@pytest.mark.parametrize("value, message", [
    ("abc", "POISSON_ENV_MAX_DEGREE must be an integer, got 'abc'"),
    ("-1", "POISSON_ENV_MAX_DEGREE must be nonnegative, got -1"),
    ("11", "POISSON_ENV_MAX_DEGREE must be at most 10, got 11"),
])
@pytest.mark.parametrize("argv", [
    ["env-dim", "kxk.alg", "--ideal", "J", "--degree", "1"],
    ["q-mul", "kxk.alg", "e1:e1:e2", "e1:e1:e1"],
])
@pytest.mark.parametrize("as_json", [False, True])
def test_bad_degree_cap_variable(capsys, monkeypatch, value, message, argv, as_json):
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", value)
    argv = [path(a) if a.endswith(".alg") else a for a in argv]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["findings"] == [{"kind": "error", "detail": message}]
    else:
        assert out.splitlines()[0] == f"error: {message}"


def test_relations(capsys):
    for name in ("kxk.alg", "m2std.alg", "trunc2-n2.alg"):
        code, out = run(capsys, "relations", path(name))
        assert code == 0
        assert "hold" in out


def test_module_alg(capsys):
    code, out = run(capsys, "module-alg", path("kxk.alg"), "--degree", "2")
    assert code == 0


@pytest.mark.parametrize("as_json", [False, True])
def test_module_alg_degree_above_cap_fails_before_any_work(capsys, monkeypatch, as_json):
    def forbidden(*args):
        raise AssertionError("module-alg acted by a word before checking its degree")

    # the sweep acts through lie_word_on_basis on A and A^op, and through
    # lie_word_act on A^e
    for name in ("lie_word_on_basis", "lie_word_act"):
        monkeypatch.setattr(f"poissonenv.pbw.{name}", forbidden)
    argv = ["module-alg", path("m2std.alg"), "--degree", "11"]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["findings"] == [{"kind": "error", "detail": "degree 11 exceeds cap 8"}]
    else:
        assert out.splitlines()[0] == "error: degree 11 exceeds cap 8"


def test_module_alg_obeys_the_configured_cap(capsys, monkeypatch):
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", "2")
    code, out = run(capsys, "module-alg", path("kxk.alg"), "--degree", "3")
    assert code == 2
    assert out.splitlines()[0] == "error: degree 3 exceeds cap 2"


# Every matrix product goes through linalg.mat_mul, the one matrix kernel: the
# module action and the axiom checks call it through poisson_modules' binding,
# and simple's stages and minimal_polynomial through linalg's and ncpa's.
MATRIX_KERNEL = "poissonenv.linalg.mat_mul"


@pytest.mark.parametrize("argv, target", [
    (["roundtrip", "kxk.alg", "kxk-regular.mod", "--degree", "11"],
     "poissonenv.poisson_modules.mat_mul"),
    (["module-alg", "kxk.alg", "--degree", "11"], "poissonenv.pbw.lie_word_act"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_cap_variable_above_ceiling_fails_before_any_work(
    capsys, monkeypatch, argv, target, as_json
):
    def forbidden(*args):
        raise AssertionError("worked before reading the degree cap")

    # module-alg acts through lie_word_on_basis on A and A^op, before A^e
    for name in (target, MATRIX_KERNEL, "poissonenv.pbw.lie_word_on_basis"):
        monkeypatch.setattr(name, forbidden)
    monkeypatch.setenv("POISSON_ENV_MAX_DEGREE", "12")
    argv = [path(a) if a.endswith((".alg", ".mod")) else a for a in argv]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    message = "POISSON_ENV_MAX_DEGREE must be at most 10, got 12"
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["findings"] == [{"kind": "error", "detail": message}]
    else:
        assert out.splitlines()[0] == f"error: {message}"


@pytest.mark.parametrize("as_json", [False, True])
def test_roundtrip_degree_above_cap_fails_before_any_work(capsys, monkeypatch, as_json):
    def forbidden(*args):
        raise AssertionError("roundtrip multiplied matrices before checking its degree")

    for name in ("poissonenv.poisson_modules.mat_mul", MATRIX_KERNEL):
        monkeypatch.setattr(name, forbidden)
    argv = ["roundtrip", path("kxk.alg"), path("kxk-regular.mod"), "--degree", "9"]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    message = "product degree 9 exceeds cap 8"
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["findings"] == [{"kind": "error", "detail": message}]
    else:
        assert out.splitlines()[0] == f"error: {message}"


@pytest.mark.parametrize("as_json", [False, True])
def test_env_dim_widest_window_above_cap_fails_before_any_work(capsys, monkeypatch, as_json):
    def forbidden(*args):
        raise AssertionError("env-dim grew the closure before checking its widest window")

    monkeypatch.setattr("poissonenv.truncation.q_mult_scaled", forbidden)
    argv = ["env-dim", path("m2std.alg"), "--degree", "7"]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    message = "saturation degree 9 exceeds cap 8"
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["findings"] == [{"kind": "error", "detail": message}]
    else:
        assert out.splitlines()[0] == f"error: {message}"


def test_env_dim_text(capsys):
    code, out = run(
        capsys, "env-dim", path("kxk.alg"), "--ideal", "J", "--degree", "1"
    )
    assert code == 0
    assert "d=0: 4" in out
    assert "d=1: 6" in out
    assert "(stable)" in out


def test_env_dim_json(capsys):
    code, out = run(
        capsys, "--json", "env-dim", path("kxk.alg"),
        "--ideal", "J+I", "--degree", "2",
    )
    assert code == 0
    doc = json.loads(out)
    dims = [f["dimension"] for f in doc["findings"]]
    assert dims == [4, 4, 4]
    assert all(f["stable"] for f in doc["findings"])


def test_env_dim_saturate_flag(capsys):
    code, out = run(
        capsys, "env-dim", path("kxk.alg"),
        "--ideal", "J", "--degree", "0", "--saturate", "3",
    )
    assert code == 0
    assert "d=0: 4" in out


def test_env_dim_closure_runs_in_the_unit_first_copy(capsys, monkeypatch):
    from poissonenv import cli

    loaded = []
    original = cli.load_algebra

    def load(path, unit_first=False):
        A = original(path, unit_first)
        loaded.append((unit_first, A))
        return A

    monkeypatch.setattr(cli, "load_algebra", load)
    code, out = run(capsys, "env-dim", path("kxk.alg"), "--ideal", "J", "--degree", "1")
    assert code == 0 and "d=1: 6 (stable)" in out
    [(unit_first, A)] = loaded
    # kxk's unit e1 + e2 is not a basis vector; in the copy it is e1's place
    assert unit_first and A.unit == A.basis(0)
    assert A.caches["ideal_slice"]


def test_validation_errors_name_the_file_basis(tmp_path, capsys):
    # the copy is made after validation, so env-dim reports a violated axiom
    # at the file's own basis vectors
    doc = json.loads(open(path("kxk.alg"), encoding="utf-8").read())
    doc["bracket"] = [[0, 1, 0, "1"]]
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(doc), "utf-8")
    code, out = run(capsys, "--json", "env-dim", str(bad))
    assert code == 2
    detail = json.loads(out)["findings"][0]["detail"]
    assert "antisymmetry at (0, 1)" in detail


def test_env_dim_bad_ideal():
    assert main(["env-dim", path("kxk.alg"), "--ideal", "Z"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["env-dim", "kxk.alg", "--degree", "-1"], "--degree: must be >= 0"),
        (["env-dim", "kxk.alg", "--saturate", "-1"], "--saturate: must be >= 0"),
        (["module-alg", "kxk.alg", "--degree", "-1"], "--degree: must be >= 0"),
        (
            ["roundtrip", "kxk.alg", "kxk-regular.mod", "--degree", "-2"],
            "--degree: must be >= 0",
        ),
        (["env-dim", "kxk.alg", "--degree", "two"], "--degree: invalid integer"),
    ],
)
def test_bad_degree_rejected(capsys, argv, message):
    argv = [path(a) if a.endswith((".alg", ".mod")) else a for a in argv]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("as_json", [False, True])
def test_env_dim_saturate_below_degree(capsys, as_json):
    argv = ["env-dim", path("kxk.alg"), "--degree", "2", "--saturate", "1"]
    code, out = run(capsys, *(["--json"] if as_json else []), *argv)
    assert code == 2
    assert "saturation bound must be >= truncation degree" in out
    if as_json:
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["findings"][0]["kind"] == "error"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    import poissonenv.cli as cli

    def broken(args):
        raise ValueError("dimension mismatch")

    monkeypatch.setattr(cli, "cmd_relations", broken)
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_command(["relations", path("kxk.alg")])


def test_parser_is_freed_before_the_job_runs(monkeypatch, capsys):
    # a parser kept alive through the job leaves its reference cycles for a
    # full collection to find while the job allocates
    import gc
    import weakref

    import poissonenv.cli as cli

    build, run_job = cli.build_parser, cli._run
    parsers, alive = [], []

    def recording_build_parser():
        parser = build()
        parsers.append(weakref.ref(parser))
        return parser

    def collecting_run(args, argv):
        gc.collect()
        alive.append(parsers[0]() is not None)
        return run_job(args, argv)

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    monkeypatch.setattr(cli, "_run", collecting_run)
    code, out = run(capsys, "validate", path("kxk.alg"))
    assert code == 0
    assert alive == [False]


def test_simple_true(capsys):
    code, out = run(capsys, "simple", path("m2std.alg"))
    assert code == 0
    assert "Poisson-simple: true" in out


def test_simple_false_with_witness(capsys):
    code, out = run(capsys, "simple", path("kxk.alg"))
    assert code == 0
    assert "Poisson-simple: false" in out
    assert "witness" in out


def test_derivations(capsys):
    code, out = run(capsys, "derivations", path("m2std.alg"))
    assert code == 0
    assert "rank 3" in out
    assert "rank 0" in out


def test_module_check_pass(capsys):
    code, out = run(
        capsys, "module-check", path("kxk.alg"), path("kxk-regular.mod")
    )
    assert code == 0
    code, out = run(
        capsys, "module-check", path("kxk.alg"), path("kxk-regular.mod"),
        "--poisson",
    )
    assert code == 0


def test_module_check_nonpoisson_fixture(capsys):
    code, out = run(
        capsys, "module-check", path("kxk.alg"), path("kxk-nonpoisson.mod")
    )
    assert code == 0  # quasi-Poisson axioms hold
    code, out = run(
        capsys, "module-check", path("kxk.alg"), path("kxk-nonpoisson.mod"),
        "--poisson",
    )
    assert code == 1
    assert "product-compat" in out


def test_roundtrip_command(capsys):
    code, out = run(
        capsys, "roundtrip", path("kxk.alg"), path("kxk-regular.mod"),
        "--degree", "2",
    )
    assert code == 0
    assert "roundtrips hold" in out


def test_validate_malformed_algebra_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("{ nope", "utf-8")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2


def test_run_command_report_shape():
    report = run_command(["validate", path("kxk.alg")])
    assert report.status == "pass"
    assert report.command == ["validate", path("kxk.alg")]
    assert report.elapsed >= 0
    doc = report.to_dict()
    assert set(doc) == {"command", "status", "findings", "output", "elapsed"}


def test_q_mono_memo_is_filled_only_by_q_mono_mult_misses(tmp_path, monkeypatch, capsys):
    # A per-layer trace counts q_mono memo entries as the calls of
    # smash.q_mono_mult that missed the memo, through every binding of it;
    # a memo entry made any other way would break that count.
    import importlib
    import pkgutil

    import poissonenv
    from poissonenv import smash
    from poissonenv.fileformat import load_bundled_algebra, serialize_module
    from poissonenv.ncpa import validate_ncpa
    from poissonenv.poisson_modules import tensor_square_module

    original = smash.q_mono_mult
    misses = {}  # id(algebra) -> [algebra, calls that missed the memo]

    def counted(A, m1, m2):
        seen = misses.setdefault(id(A), [A, 0])
        seen[1] += (m1, m2) not in A.caches["q_mono"]
        return original(A, m1, m2)

    modules = [poissonenv] + [
        importlib.import_module(f"poissonenv.{m.name}") for m in pkgutil.iter_modules(poissonenv.__path__)
    ]
    bindings = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
    assert len(bindings) > 1
    for m, key in bindings:
        monkeypatch.setattr(m, key, counted)

    square = tmp_path / "trunc2-n2-square.mod"
    trunc2 = validate_ncpa(load_bundled_algebra("trunc2-n2.alg"))
    square.write_text(serialize_module(tensor_square_module(trunc2)), encoding="utf-8")
    for argv in (
        ["roundtrip", path("trunc2-n2.alg"), str(square), "--degree", "2"],
        ["env-dim", path("trunc2-n2.alg"), "--ideal", "J", "--degree", "2"],
    ):
        misses.clear()
        assert main(["--json", *argv]) == 0
        capsys.readouterr()
        [(A, missed)] = misses.values()  # one algebra per job
        assert missed == len(A.caches["q_mono"]) > 0, argv


BAD_LABELS = ["a+b", "a-b", "a*b", "a,b", "a:b", "a.b", "", " a", "a "]


@pytest.mark.parametrize("label", BAD_LABELS)
def test_basis_label_that_element_syntax_cannot_name_exits_2(label, tmp_path, capsys):
    doc = {"name": "kxk", "dim": 2, "basis": ["e1", label], "unit": ["1", "1"],
           "mul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "bracket": []}
    alg = tmp_path / "labels.alg"
    alg.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(alg)], ["mul", str(alg), "e1", "e1"],
                 ["q-mul", str(alg), "e1:e1:", "e1:e1:"]):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert out.startswith(f"error: basis label {label!r} "), argv
        assert "Traceback" not in out + capsys.readouterr().err
