"""The benchmark tracer (bench/tracer.py) wraps multifam functions by
name, so a mapped name that src/ no longer defines silently drops a layer
from the traced benchmark.  The tracer is loaded from its file, as the
benchmark loads it, and only read."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("multifam_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_tracer_maps_exists(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert {f"families.{name}" for name in tracer._CONSTRUCTORS} <= set(tracer.LAYER_OF)
    missing = []
    for qualname in tracer.LAYER_OF:
        modname, _, attr = qualname.rpartition(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        if not callable(getattr(module, attr, None)):
            missing.append(qualname)
    assert not missing, f"mapped by bench/tracer.py but not defined: {missing}"
