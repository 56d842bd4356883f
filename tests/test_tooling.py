"""Tooling contracts.  The benchmark's tracer wraps ramlift functions and
methods by name; a name it lists must keep existing, or traced benchmark
runs break.  Importing ramlift stays free of code-generation modules, and
the library holds no assert statement, which python -O would strip."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "ramlift"


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


def test_import_loads_no_code_generation_modules():
    """Every command-line call imports ramlift afresh, so the import must not
    pull in dataclasses (with inspect, ast and dis behind it) or typing."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import ramlift.cli\n"
        "heavy = {'dataclasses', 'inspect', 'typing', 'ast', 'dis'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_assert_statements_in_src():
    """A correctness gate written as assert vanishes under python -O; the
    library raises instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC_DIR.glob("*.py"))) > 5
    assert found == []
