"""The benchmark's tracer wraps ramlift functions and methods by name; a
name it lists must keep existing, or traced benchmark runs break."""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_target(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    mods = workloads._import()
    originals = (mods["witt"].teichmuller, mods["witt"].WittElem.__dict__["__mul__"])
    tr = tracer.Tracer()
    try:
        tr.install(mods)
        assert mods["witt"].teichmuller is not originals[0]
    finally:
        tr.uninstall()
    assert (mods["witt"].teichmuller, mods["witt"].WittElem.__dict__["__mul__"]) == originals
