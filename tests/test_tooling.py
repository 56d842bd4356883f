"""Tooling contracts.  The benchmark's tracer wraps ramlift functions and
methods by name; a name it lists must keep existing, or traced benchmark
runs break, and the CLI must call the command bound under that name when it
runs.  Importing ramlift stays free of code-generation modules, and running
a command loads no argparse, gettext or locale; the library holds no assert
statement, which python -O would strip, and it reads the environment in one
place.  Git tracks no file that .gitignore lists."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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
    pull in dataclasses (with inspect, ast and dis behind it) or typing, and
    running a command must not pull in argparse, gettext or locale."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import ramlift.cli\n"
        "heavy = {'dataclasses', 'inspect', 'typing', 'ast', 'dis'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
        "rc = ramlift.cli.main(['bounds', '3', '2'])\n"
        "parsing = {'argparse', 'gettext', 'locale'}\n"
        "print(rc, sorted(heavy & (set(sys.modules) - before) | parsing & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        '{"basarab_upper": 3, "e": 2, "lower": 3, "p": 3, "tame_exact": 3, "upper": 3}',
        "0 []",
    ]


def test_cli_runs_the_command_bound_at_call_time(monkeypatch, capsys):
    """The tracer times a command by rebinding cli.cmd_<name>; main must look
    that name up when it runs, or the cli.*.s spans read zero."""
    from ramlift import cli

    tracer = _load("tracer", monkeypatch)
    assert {attr for _, mod, attr in tracer.TARGETS if mod == "cli"} == {f"cmd_{n}" for n in cli.COMMANDS}
    assert cli.main(["bounds", "3", "2"]) == 0
    want = capsys.readouterr()
    calls = []
    real = cli.cmd_bounds

    def spy(args):
        calls.append((args.p, args.e))
        return real(args)

    monkeypatch.setattr(cli, "cmd_bounds", spy)
    assert cli.main(["bounds", "3", "2"]) == 0
    assert calls == [(3, 2)]
    assert capsys.readouterr() == want


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


def _record_classes_with_hash():
    """(module, class, defines __hash__) for each class in src/ that derives
    from Record, directly or through another such class."""
    classes = {}
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
                own = any(isinstance(f, ast.FunctionDef) and f.name == "__hash__" for f in node.body)
                classes[node.name] = (path.name, bases, own)
    records = {"Record"}
    while True:
        more = {name for name, (_, bases, _) in classes.items() if bases & records} - records
        if not more:
            break
        records |= more
    return [(classes[name][0], name, classes[name][2]) for name in sorted(records - {"Record"})]


def test_record_classes_keep_the_one_hash_rule():
    """Record caches the hash of the field tuple; a subclass that defines
    its own __hash__ would make a second rule for lru_cache keys."""
    found = _record_classes_with_hash()
    assert len(found) >= 13
    assert [(module, name) for module, name, own in found if own] == []


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


def test_git_tracks_no_ignored_file():
    """A file listed in .gitignore but still tracked (a stale artifact) is
    shipped by git archive.  Skipped outside a git checkout, such as an
    archive copy."""
    root = Path(__file__).resolve().parent.parent
    try:
        proc = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=root,
                              capture_output=True, text=True, timeout=60)
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if proc.returncode != 0 or not (root / ".git").exists():
        pytest.skip("not a git checkout")
    assert proc.stdout.splitlines() == []
