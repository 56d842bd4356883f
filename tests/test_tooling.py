"""Tooling contracts.  The benchmark's tracer wraps ramlift functions and
methods by name; a name it lists must keep existing, or traced benchmark
runs break.  Importing ramlift stays free of code-generation modules, the
library holds no assert statement, which python -O would strip, and it reads
the environment in one place."""

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


_ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree):
    """(enclosing function, line) of each use of os.environ or os.getenv in a
    module, or of their import from os; the function is None at module
    level."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield owner.get(node), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in _ENV_READS for alias in node.names):
            yield owner.get(node), node.lineno


def test_environment_read_only_by_enumeration_cap():
    """RAMLIFT_ENUM_CAP is the one setting: resfield.enumeration_cap is the
    only code that reads the environment."""
    reads = [
        (path.name, fn, line)
        for path in sorted(SRC_DIR.glob("*.py"))
        for fn, line in _env_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    allowed = [r for r in reads if r[:2] == ("resfield.py", "enumeration_cap")]
    assert allowed
    assert [r for r in reads if r not in allowed] == []
