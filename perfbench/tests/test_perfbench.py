"""Tests of the benchmark's own code; no timing assertions.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import random
from fractions import Fraction

import pytest

from perfbench import tracing, workloads
from poissonenv import smash
from poissonenv.fileformat import bundled_path, parse_algebra_file
from poissonenv.ncpa import axiom_violations


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.start_job(7)
    tracer.open("root")
    tracer.open("a")
    tracer.open("b")
    tracer.close()
    tracer.close()
    tracer.open("c")
    tracer.close()
    tracer.close()
    totals = tracer.jobs[7]
    assert {name: row[2] for name, row in totals.items()} == {
        "root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0,
    }
    assert {name: row[1] for name, row in totals.items()} == {
        "root": 10.0, "a": 3.0, "b": 1.0, "c": 4.0,
    }
    assert tracer.jobs[None] == {}


def test_recursive_spans_count_self_time_once():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.open("f")
    tracer.open("f")
    tracer.close()
    tracer.close()
    calls, _total, self_s = tracer.jobs[None]["f"]
    assert (calls, self_s) == (2, 6.0)


def test_invert_is_exact():
    rng = random.Random(5)
    P = workloads.random_basis_change(rng, 4)
    Q = workloads.invert(P)
    product = [[sum(P[r][k] * Q[k][c] for k in range(4)) for c in range(4)] for r in range(4)]
    assert product == [[Fraction(int(r == c)) for c in range(4)] for r in range(4)]
    assert any(x.denominator > 1 for row in Q for x in row)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 2, 3])
def test_rebased_trunc2_keeps_axioms_and_dimensions(tmp_path, seed):
    path = tmp_path / "skew.alg"
    workloads.write_skew_algebra(path, seed)
    p = parse_algebra_file(path.read_text("utf-8"))
    assert axiom_violations(p) == []
    assert any(c.denominator > 1 for vec in p.mul.values() for c in vec.data.values())
    code, report = workloads.run_cli(["env-dim", str(path), "--ideal", "J", "--degree", "2"])
    assert workloads.expect_dimensions(workloads.TRUNC2_DIMS)(code, report) is None


def test_answer_check_rejects_wrong_answers():
    check = workloads.expect_dimensions([9, 15, 22])
    good = {"status": "pass", "findings": [
        {"degree": d, "dimension": n, "stable": True} for d, n in enumerate([9, 15, 22])
    ]}
    assert check(0, good) is None
    wrong = {"status": "pass", "findings": [
        {"degree": d, "dimension": n, "stable": True} for d, n in enumerate([9, 15, 24])
    ]}
    assert "expected [9, 15, 22]" in check(0, wrong)
    unstable = {"status": "pass", "findings": [dict(r, stable=False) for r in good["findings"]]}
    assert "not stable" in check(0, unstable)
    assert check(2, {"status": "error", "findings": []}) is not None
    assert workloads.expect_pass(1, {"status": "fail", "findings": [{"kind": "violation"}]})
    assert workloads.expect_pass(0, {"status": "pass", "findings": []}) is None


def _traced_kxk_job(tracer, job):
    tracer.start_job(job)
    code, report = workloads.run_cli(
        ["env-dim", str(bundled_path("kxk.alg")), "--ideal", "J", "--degree", "1"]
    )
    assert code == 0
    return report


def test_trace_counts_match_caches_and_bindings_are_restored():
    original = smash.q_mult
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert smash.q_mult is not original
        _traced_kxk_job(tracer, 1)
    assert smash.q_mult is original
    tracing.check_caches(tracer)
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["smash.q_mono.entries"] > 0
    assert metrics["truncation.products"] > 0
    assert metrics["truncation.products"] <= metrics["smash.q_mult.calls"]
    assert 0 < metrics["linalg.echelon.rank_gained"] <= metrics["linalg.echelon.adds"]


def test_missed_binding_fails_the_cache_check():
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        # undo the wrapper on one copied binding, as a missed import would;
        # leaving the context restores it like every other binding
        smash.straighten = smash.straighten.__wrapped__
        _traced_kxk_job(tracer, 1)
    with pytest.raises(tracing.TraceError, match="straighten"):
        tracing.check_caches(tracer)
