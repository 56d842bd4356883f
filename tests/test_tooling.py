"""Tooling contracts.  The benchmark's tracer wraps ramlift functions and
methods by name; a name it lists must keep existing, or traced benchmark
runs break, and the CLI must call the command bound under that name when it
runs.  Importing ramlift stays free of code-generation modules, and running
a command loads no argparse, gettext or locale; the library holds no assert
statement, which python -O would strip, and it reads the environment in one
place; no root answer is "undecided", and no code but record.py reaches
into an instance's __dict__.  Only the CLI entry point ends the process with
os._exit, and no module leaves work for the interpreter's teardown.  src/
defines no function or class that ramlift itself never runs, and its
lru_caches and cached properties are pinned sets of names.  Git tracks no
file that .gitignore lists.  The README's library quick start
runs and prints the values its comments state.  Every file of src/ and
tests/ parses with the grammar of the oldest Python that pyproject.toml
accepts."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "ramlift"
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_src_parses_at_the_python_floor():
    """pyproject.toml accepts Python >= 3.10.7, whose grammar lacks except*,
    type aliases and generic classes; parsing each file at that feature
    version keeps newer syntax from slipping in under a newer interpreter."""
    root = SRC_DIR.parent.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)\.\d+"$', text, re.M)
    assert floor and floor.group(0) == 'requires-python = ">=3.10.7"'
    files = sorted(SRC_DIR.glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(int(floor[1]), int(floor[2])))


def _record_classes():
    """(module, class, names of the methods it defines) for each class in
    src/ that derives from Record, directly or through another such class."""
    classes = {}
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
                own = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
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
    found = _record_classes()
    assert len(found) >= 13
    assert [(module, name) for module, name, own in found if "__hash__" in own] == []


LRU_CACHED = {
    "_digit_table", "_context", "residue_ring", "teichmuller", "_residues", "_root_set",
    "krasner_bound", "different_val", "lift_precision_bound", "_witt_map",
    "_materialize_poly", "_squarefree_cached",
}


def test_lru_caches_are_the_pinned_set():
    """Every lru_cache in src/ wraps a module-level def or is bound by a
    module-level assignment, and the names are LRU_CACHED, so a cache added
    or removed is a change to this set, made together with the traffic it
    serves.  Any other use of lru_cache is reported by its line."""
    found = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        placed = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                for dec in stmt.decorator_list:
                    placed |= {id(n) for n in ast.walk(dec)}
                    found |= {stmt.name for n in ast.walk(dec) if _is_lru(n)}
            elif isinstance(stmt, ast.Assign) and any(_is_lru(n) for n in ast.walk(stmt.value)):
                placed |= {id(n) for n in ast.walk(stmt.value)}
                found |= {t.id for t in stmt.targets}
        found |= {f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _is_lru(n) and id(n) not in placed}
    assert found == LRU_CACHED


CACHED_PROPERTIES = {"ResidueRingSpec._ctx", "ResidueRingSpec._json", "ResidueHom._matrix"}


def test_cached_properties_are_the_pinned_set():
    """Every cached_property in src/ decorates a method of a module-level
    class, and the names Class.method are CACHED_PROPERTIES, so a value
    kept on an instance after first use is a change to this set, made
    together with the traffic it serves.  Any other use of cached_property
    is reported by its line."""
    found = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        placed = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, ast.FunctionDef):
                        for dec in stmt.decorator_list:
                            placed |= {id(n) for n in ast.walk(dec)}
                            found |= {f"{cls.name}.{stmt.name}" for n in ast.walk(dec) if _is_cached(n)}
        found |= {f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if _is_cached(n) and id(n) not in placed}
    assert found == CACHED_PROPERTIES


def _is_cached(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "cached_property"
            or isinstance(node, ast.Attribute) and node.attr == "cached_property")


MEMO_TABLES = {"_DigitTable", "_TermTable", "_BlockTable"}


def test_memo_tables_are_the_pinned_set():
    """A memo table is a dict subclass that fills itself in __missing__.  The
    classes of src/ that define __missing__ are MEMO_TABLES, so a table added
    or removed is a change to this set, made together with the traffic it
    serves; a __missing__ in a class not based on dict alone is reported by
    its file and name."""
    found = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "__missing__" for f in node.body):
                only_dict = [ast.unparse(b) for b in node.bases] == ["dict"]
                found.add(node.name if only_dict else f"{path.name}:{node.name}")
    assert found == MEMO_TABLES


def _is_lru(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def test_record_fields_are_declared_once():
    """Record builds each constructor from _fields, so the tuple is a class's
    one list of its fields: no subclass defines __init__, and no code but
    record.py stores a field through set_field or reads .__dict__, where a
    frozen Record could keep state outside its fields."""
    found = _record_classes()
    assert len(found) >= 13
    assert [(module, name) for module, name, own in found if "__init__" in own] == []
    nodes = [
        (path.name, node)
        for path in sorted(SRC_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    ]
    uses = {
        module for module, node in nodes
        if isinstance(node, ast.Name) and node.id == "set_field"
        or isinstance(node, ast.alias) and node.name == "set_field"
        or isinstance(node, ast.Attribute) and node.attr == "set_field"
    }
    assert uses == {"record.py"}
    assert {module for module, node in nodes
            if isinstance(node, ast.Attribute) and node.attr == "__dict__"} <= {"record.py"}


_ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _owners(tree) -> dict:
    """The name of the innermost function around each node of a module."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    return owner


def _env_reads(tree):
    """(enclosing function, line) of each use of os.environ or os.getenv in a
    module, or of their import from os; the function is None at module
    level."""
    owner = _owners(tree)
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


def test_no_root_answer_is_undecided():
    """has_root's depth stops at a ceiling worked out from the discriminant,
    so no answer is "undecided"."""
    undecided = [
        (path.name, node.lineno)
        for path in sorted(SRC_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "undecided"
    ]
    assert undecided == []


_TEARDOWN_WORK = {"atexit", "threading", "multiprocessing", "tempfile"}


def _exits_and_teardown_imports(tree):
    """(enclosing function, what) of each os._exit in a module, and of each
    import of a module whose work the interpreter's teardown does: exit
    hooks, threads to join, child processes, temporary files."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_exit"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield owner.get(node), "os._exit"
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name == "_exit" for alias in node.names):
            yield owner.get(node), "os._exit"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            for name in names:
                if name.split(".")[0] in _TEARDOWN_WORK:
                    yield owner.get(node), name


def test_only_the_entry_point_skips_teardown():
    """cli.run ends the process with os._exit, skipping the interpreter's
    teardown.  That is safe only while nothing in src/ leaves teardown work:
    no other code exits that way (main returns its code, for in-process
    callers), and no module registers exit hooks or starts threads, child
    processes or temporary files."""
    found = [
        (path.name, fn, what)
        for path in sorted(SRC_DIR.glob("*.py"))
        for fn, what in _exits_and_teardown_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("cli.py", "run", "os._exit")]


def test_src_defines_only_what_ramlift_runs():
    """Every module-level function and class in src/ is run by ramlift: its
    name is loaded by src/ code outside its own definition, or ramlift's
    __init__ exports it; cli.main calls each cmd_<name> through its
    cli.COMMANDS row.  Code that only the tests use belongs in tests/."""
    from ramlift.cli import COMMANDS

    defined, loaded = [], {f"cmd_{name}" for name in COMMANDS}
    for path in sorted(SRC_DIR.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.name, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    loaded.add(node.id)
                elif isinstance(node, ast.alias) and path.name == "__init__.py":
                    loaded.add(node.name)
    assert len(defined) > 100
    assert [d for d in defined if d[1] not in loaded] == []


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


def test_readme_quick_start_states_its_values():
    """Run the README's "Library quick start" block statement by statement:
    every expression with a trailing comment evaluates to the value that the
    comment opens with."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, stated = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            if comment:
                stated.append((str(value), comment))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert [value for value, _ in stated] == ["1/2", "1", "3", "2", "[]", "(524288, 524288)"]
    for value, comment in stated:
        assert re.match(re.escape(value) + r"(?![\w/])", comment), (value, comment)


def test_readme_cli_hom_example_lifts(capsys):
    """The hom JSON that README documents for the command line parses and
    lifts."""
    from ramlift.cli import main

    section = README.read_text(encoding="utf-8").split("A homomorphism\nis JSON like", 1)[1]
    hom = section.split("```json\n", 1)[1].split("```", 1)[0].strip()
    assert json.loads(hom) == {"psi": {"image_of_generator": [0]}, "beta": "pi:0,1,0,1",
                               "n1": 4, "n2": 4}
    s3 = '{"p":3,"residue":{"d":1,"poly":[0,1]},"eisenstein":[-3,0,1]}'
    assert main(["lift", s3, s3, hom, "8"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == "π:0,1,0,0,0,0,0,0"
