"""perfbench's tracer rebinds the package's entry points by name (TRACED),
so each of them must exist, and every binding must come back as it was."""

import importlib
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def test_tracer_wraps_every_traced_name_and_restores_every_binding():
    import poissonenv
    from perfbench import tracing

    modules = {"poissonenv": poissonenv} | {
        m.name: importlib.import_module(f"poissonenv.{m.name}")
        for m in pkgutil.iter_modules(poissonenv.__path__)
    }
    owners = list(modules.values()) + [
        getattr(modules[layer], qual.rpartition(".")[0])
        for layer, names in tracing.TRACED.items() for qual in names if "." in qual
    ]

    def bindings():
        return [{key: id(value) for key, value in vars(owner).items()} for owner in owners]

    before = bindings()
    with tracing.patched(tracing.Tracer()):
        for layer, names in tracing.TRACED.items():
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(modules[layer], owner_name) if owner_name else modules[layer]
                assert hasattr(vars(owner)[attr], "__wrapped__"), f"{layer}.{qual}"
    assert bindings() == before
