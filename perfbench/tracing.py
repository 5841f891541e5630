"""Per-layer tracing of poissonenv from outside the program.

The traced run wraps the public entry points of each layer (the modules of
the package) and records a span around every call: its name, start, end,
parent (the span open when it started) and job id.  A span's self time is
its duration minus the time of its child spans.  An envdim-m2 job opens
over a million spans, so each one is folded into per-(job, name) totals as it
closes instead of being kept.  Helpers that are not wrapped (SparseVector
arithmetic, accumulate, subword) count toward the span that calls them.

`from .smash import q_mult` copies the binding into the importing module,
so every module attribute that holds a wrapped function is replaced, and
`check_caches` compares the counted cache misses with the cache sizes after
each job: a missed binding fails loudly instead of under-counting.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import importlib
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

import poissonenv

# Wrapped entry points, by layer (module of the package).
TRACED = {
    "cli": ("main", "load_algebra"),
    "fileformat": ("parse_algebra_file", "parse_module_file"),
    "ncpa": ("validate_ncpa", "NCPA.mul", "NCPA.bracket"),
    "linalg": (
        "Echelon.add_data",
        "TrackedEchelon.insert",
        "TrackedEchelon.express",
        "mat_mul",
    ),
    "words": ("ordered_partitions", "shuffle_coproduct"),
    "pbw": (
        "straighten",
        "lie_word_act",
        "lie_word_on_basis",
        "u_mult",
        "act_on_tensor",
        "tensor_mult",
        "module_algebra_failures",
    ),
    "smash": ("q_mult", "q_mono_mult"),
    "truncation": ("ideal_gens_by_label", "truncated_ideal_span", "dimension_table"),
    "poisson_modules": (
        "roundtrip_report",
        "module_to_action",
        "action_to_module",
        "EnvAction.matrix",
        "EnvAction.multiplicativity_failures",
    ),
}

ECHELON_SPANS = (
    "linalg.Echelon.add_data",
    "linalg.TrackedEchelon.insert",
    "linalg.TrackedEchelon.express",
)

# Slice products are the q_mult calls made inside this span.
SLICE_SPAN = "truncation.truncated_ideal_span"


class TraceError(Exception):
    """The trace disagrees with the program's own caches."""


class Tracer:
    """Span stack plus, per job id, span totals {name: [calls, total_s, self_s]};
    extra counts and the algebra are kept for the current job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, start, child_s]
        self.jobs: dict[object, dict[str, list]] = {}
        self.start_job(None)

    def start_job(self, job) -> None:
        """Spans closed from now on belong to this job id."""
        self.totals = self.jobs.setdefault(job, {})
        self.counter: Counter = Counter()
        self.algebra = None

    def open(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, start, child = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child

    def count(self, name: str, n: int = 1) -> None:
        self.counter[name] += n

    def wrap(self, name: str, fn: Callable, observe=None) -> Callable:
        """fn inside a span; observe(tracer, args) may return a callback
        that receives the result."""
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            after = observe(self, args) if observe else None
            open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span()
            if after:
                after(result)
            return result

        return functools.wraps(fn)(traced)


# -- observers: extra counts taken at the same boundaries -------------------------

def _observe_q_mono(tracer: Tracer, args):
    A, m1, m2 = args[:3]
    if (m1, m2) in A.caches["q_mono"]:
        tracer.count("q_mono.hits")
    return None


def _observe_straighten(tracer: Tracer, args):
    cache = args[0].caches["straighten"]
    before = len(cache)
    return lambda _result: tracer.count("straighten.fills", len(cache) - before)


def _observe_echelon(tracer: Tracer, args):
    ech = args[0]
    before = len(ech.rows)
    return lambda _result: tracer.count("echelon.rank_gained", len(ech.rows) - before)


def _observe_q_mult(tracer: Tracer, args):
    if any(frame[0] == SLICE_SPAN for frame in tracer.stack):
        tracer.count("truncation.products")
    return None


def _observe_load(tracer: Tracer, args):
    def keep(A):
        tracer.algebra = A

    return keep


OBSERVERS = {
    "smash.q_mono_mult": _observe_q_mono,
    "smash.q_mult": _observe_q_mult,
    "pbw.straighten": _observe_straighten,
    "linalg.Echelon.add_data": _observe_echelon,
    "linalg.TrackedEchelon.insert": _observe_echelon,
    "cli.load_algebra": _observe_load,
}


def _package_modules() -> list:
    names = [poissonenv.__name__] + [
        f"{poissonenv.__name__}.{m.name}" for m in pkgutil.iter_modules(poissonenv.__path__)
    ]
    return [importlib.import_module(n) for n in names]


@contextmanager
def patched(tracer: Tracer):
    """Replace every binding of the TRACED functions with a traced wrapper."""
    modules = _package_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    saved = []
    try:
        for layer, names in TRACED.items():
            for qual in names:
                span = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(by_name[layer], owner_name) if owner_name else by_name[layer]
                original = owner.__dict__[attr]
                wrapper = tracer.wrap(span, original, OBSERVERS.get(span))
                if owner_name:
                    targets = [(owner, attr)]
                else:
                    targets = [
                        (m, key)
                        for m in modules
                        for key, value in vars(m).items()
                        if value is original
                    ]
                for target, key in targets:
                    setattr(target, key, wrapper)
                    saved.append((target, key, original))
        yield tracer
    finally:
        for target, key, original in reversed(saved):
            setattr(target, key, original)


def check_caches(tracer: Tracer) -> None:
    """Counted misses of the current job must equal the sizes of its
    algebra's memo caches."""
    A = tracer.algebra
    if A is None:
        raise TraceError("load_algebra was not traced")
    totals = tracer.totals
    counts = tracer.counter
    q_calls = totals.get("smash.q_mono_mult", [0])[0]
    misses = q_calls - counts.get("q_mono.hits", 0)
    if misses != len(A.caches["q_mono"]):
        raise TraceError(
            f"counted {misses} q_mono misses, cache holds {len(A.caches['q_mono'])}"
        )
    fills = counts.get("straighten.fills", 0)
    if fills != len(A.caches["straighten"]):
        raise TraceError(
            f"counted {fills} straighten fills, cache holds {len(A.caches['straighten'])}"
        )


def layer_metrics(tracer: Tracer, job_s: float) -> dict[str, float]:
    """Per-layer counts and self-time shares of the current job, which took job_s."""
    totals = tracer.totals
    counts = tracer.counter
    A = tracer.algebra

    def calls(span: str) -> int:
        return totals.get(span, [0])[0]

    def self_s(*spans: str) -> float:
        return sum(totals.get(s, [0, 0.0, 0.0])[2] for s in spans)

    def layer_self(layer: str) -> float:
        return self_s(*(f"{layer}.{q}" for q in TRACED[layer]))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    adds = calls("linalg.Echelon.add_data") + calls("linalg.TrackedEchelon.insert")
    gained = counts.get("echelon.rank_gained", 0)
    q_mono = calls("smash.q_mono_mult")
    parse_s = sum(
        totals.get(f"fileformat.{q}", [0, 0.0])[1] for q in TRACED["fileformat"]
    )
    return {
        "cli.self_share": ratio(layer_self("cli"), job_s),
        "fileformat.parse_share": ratio(parse_s, job_s),
        "ncpa.mul.calls": calls("ncpa.NCPA.mul"),
        "ncpa.self_share": ratio(layer_self("ncpa"), job_s),
        "linalg.echelon.adds": adds,
        "linalg.echelon.rank_gained": gained,
        "linalg.echelon.useful_ratio": ratio(gained, adds),
        "linalg.echelon.self_share": ratio(self_s(*ECHELON_SPANS), job_s),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_share": ratio(self_s("linalg.mat_mul"), job_s),
        "words.ordered_partitions.calls": calls("words.ordered_partitions"),
        "words.self_share": ratio(layer_self("words"), job_s),
        "pbw.straighten.calls": calls("pbw.straighten"),
        "pbw.straighten.entries": len(A.caches["straighten"]),
        "pbw.lie_word_act.calls": calls("pbw.lie_word_act"),
        "pbw.self_share": ratio(layer_self("pbw"), job_s),
        "smash.q_mult.calls": calls("smash.q_mult"),
        "smash.q_mult.self_share": ratio(self_s("smash.q_mult"), job_s),
        "smash.q_mono.calls": q_mono,
        "smash.q_mono.self_share": ratio(self_s("smash.q_mono_mult"), job_s),
        "smash.q_mono.entries": len(A.caches["q_mono"]),
        "smash.q_mono.hit_ratio": ratio(counts.get("q_mono.hits", 0), q_mono),
        "truncation.busy_share": ratio(layer_self("truncation"), job_s),
        "truncation.products": counts.get("truncation.products", 0),
        "poisson_modules.matrix.calls": calls("poisson_modules.EnvAction.matrix"),
        "poisson_modules.self_share": ratio(layer_self("poisson_modules"), job_s),
    }


def kernel_profile(run: Callable[[], object]) -> dict[str, float]:
    """Run once under cProfile; calls into the fractions module and its
    share of all self time (including built-ins such as math.gcd that the
    fractions code calls)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    profile.create_stats()
    kernel_file = fractions.__file__
    calls = 0
    kernel_s = 0.0
    total_s = 0.0
    for (filename, _line, _func), (_cc, nc, tt, _ct, callers) in profile.stats.items():
        total_s += tt
        if filename == kernel_file:
            calls += nc
            kernel_s += tt
        elif filename == "~":
            kernel_s += sum(c[2] for caller, c in callers.items() if caller[0] == kernel_file)
    return {
        "kernel.fraction.calls": calls,
        "kernel.self_share": kernel_s / total_s if total_s else 0.0,
    }
