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


def test_traced_mat_mul_counts_every_kernel_product(tmp_path, monkeypatch, capsys):
    # mat_mul is the one matrix kernel, so the traced name sees every product
    # of a roundtrip job: as many as a plain wrapper on every binding counts
    import time

    import poissonenv
    from perfbench import tracing
    from poissonenv import cli, linalg
    from poissonenv.fileformat import bundled_path, load_bundled_algebra, serialize_module
    from poissonenv.ncpa import validate_ncpa
    from poissonenv.poisson_modules import tensor_square_module

    trunc2 = validate_ncpa(load_bundled_algebra("trunc2-n2.alg"))
    square = tmp_path / "trunc2-n2-square.mod"
    square.write_text(serialize_module(tensor_square_module(trunc2)), encoding="utf-8")
    argv = ["--json", "roundtrip", str(bundled_path("trunc2-n2.alg")), str(square),
            "--degree", "2"]

    original = linalg.mat_mul
    products = []

    def counted(*args):
        products.append(1)
        return original(*args)

    modules = [poissonenv] + [
        importlib.import_module(f"poissonenv.{m.name}")
        for m in pkgutil.iter_modules(poissonenv.__path__)
    ]
    with monkeypatch.context() as patch:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, key, counted)
        assert cli.main(argv) == 0
    capsys.readouterr()

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        tracer.start_job(1)
        start = time.perf_counter()
        assert cli.main(argv) == 0
        metrics = tracing.layer_metrics(tracer, time.perf_counter() - start)
    capsys.readouterr()
    assert metrics["linalg.mat_mul.calls"] == len(products) == 234
