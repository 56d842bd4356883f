"""Query pools of the ramlift benchmark and the code that runs and checks them.

Every workload is a fixed pool of user-level queries.  A query is run through
the public API of ramlift (or, for ``cli``, as a ``python -m ramlift``
subprocess) and its answer is compared with the frozen answer in
``expected.json``, written by ``freeze.py``.  The seed only orders the pool
and, for ``residue-arith``, draws the element batches.

Nothing here imports ramlift at module import time: the import is part of
the measured set-up (see ``build``).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
WORKLOADS = ("homs-scan", "lift-roots", "residue-arith", "cli")
# residue-arith digests are frozen for these seeds; other seeds are checked
# by ring and homomorphism identities alone
REGISTERED_SEEDS = range(10)

F = {
    "F2": (2, [0, 1]),
    "F3": (3, [0, 1]),
    "F5": (5, [0, 1]),
    "F7": (7, [0, 1]),
    "F4": (2, [1, 1, 1]),
    "F9": (3, [1, 0, 1]),
    "F25": (5, [1, 1, 1]),
}


def _spec(field: str, eisenstein: list) -> dict:
    p, poly = F[field]
    return {"p": p, "residue": {"d": len(poly) - 1, "poly": poly}, "eisenstein": eisenstein}


# ring specs in the JSON form the CLI reads
RINGS = {
    "F3:x2-3": _spec("F3", [-3, 0, 1]),
    "F3:x2+3": _spec("F3", [3, 0, 1]),
    "F9:x2-3": _spec("F9", [-3, 0, 1]),
    "F5:x2-5": _spec("F5", [-5, 0, 1]),
    "F7:x2-7": _spec("F7", [-7, 0, 1]),
    "F25:x2-5": _spec("F25", [-5, 0, 1]),
    "F2:x2-2": _spec("F2", [-2, 0, 1]),
    "F2:x2-10": _spec("F2", [-10, 0, 1]),
    "F4:x2-2": _spec("F4", [-2, 0, 1]),
    "F3:x3-3": _spec("F3", [-3, 0, 0, 1]),
    "F3:x4-3": _spec("F3", [-3, 0, 0, 0, 1]),
}

# (op, source ring, target ring, n1, n2); op is homs, isos or count (the
# library side of ``ramlift homs --count``)
HOMS_SCAN = [
    ("homs", "F3:x2-3", "F3:x2-3", 2, 2),
    ("homs", "F3:x2+3", "F3:x2-3", 4, 4),
    ("isos", "F3:x2-3", "F3:x2+3", 2, 2),
    ("homs", "F3:x2-3", "F3:x2-3", 3, 3),
    ("homs", "F3:x2-3", "F3:x2+3", 3, 3),
    ("isos", "F3:x2+3", "F3:x2+3", 4, 4),
    ("homs", "F3:x2-3", "F3:x2-3", 5, 5),
    ("count", "F3:x2+3", "F3:x2+3", 6, 6),
    ("homs", "F9:x2-3", "F9:x2-3", 3, 3),
    ("isos", "F5:x2-5", "F5:x2-5", 3, 3),
    ("homs", "F5:x2-5", "F5:x2-5", 4, 4),
    ("count", "F5:x2-5", "F5:x2-5", 5, 5),
    ("homs", "F7:x2-7", "F7:x2-7", 4, 4),
    ("isos", "F25:x2-5", "F25:x2-5", 2, 2),
    ("isos", "F2:x2-2", "F2:x2-10", 6, 6),
    ("homs", "F2:x2-2", "F2:x2-10", 7, 7),
    ("homs", "F2:x2-2", "F2:x2-2", 8, 8),
    ("count", "F2:x2-2", "F2:x2-10", 9, 9),
    ("homs", "F4:x2-2", "F4:x2-2", 4, 4),
    ("homs", "F3:x3-3", "F3:x3-3", 4, 4),
    ("isos", "F3:x3-3", "F3:x3-3", 5, 5),
    ("homs", "F3:x4-3", "F3:x4-3", 4, 4),
    ("count", "F3:x4-3", "F3:x4-3", 5, 5),
    ("homs", "F3:x2-3", "F9:x2-3", 3, 3),
    ("homs", "F3:x2-3", "F3:x4-3", 3, 6),
]

# residue-ring homomorphisms to lift: (source, target, n1, n2, index into
# enumerate_homs, min_prec); n2 sits at lift_precision_bound
LIFTS = {
    "F3-a": ("F3:x2-3", "F3:x2-3", 3, 3, 0, None),
    "F3-b": ("F3:x2-3", "F3:x2-3", 3, 3, 3, None),
    "F3-deep": ("F3:x2-3", "F3:x2-3", 3, 3, 1, 10),
    "F3+-n4": ("F3:x2+3", "F3:x2+3", 4, 4, 5, None),
    "F5": ("F5:x2-5", "F5:x2-5", 3, 3, 0, None),
    "F5-b": ("F5:x2-5", "F5:x2-5", 3, 3, 7, None),
    "F9-frob": ("F9:x2-3", "F9:x2-3", 3, 3, 5, None),
    "F2-wild": ("F2:x2-2", "F2:x2-2", 7, 7, 0, None),
    "F2-wild-b": ("F2:x2-2", "F2:x2-2", 7, 7, 5, None),
}
# (op, lift ids): lift, roundtrip (lift then project_hom back), compose
# (compose_homs of two lifts); compose entries come last, because the warm-up
# pass runs the pool in this order and they read the lifts it made
LIFT_QUERIES = [
    ("lift", ("F3-a",)),
    ("lift", ("F3-deep",)),
    ("lift", ("F3+-n4",)),
    ("lift", ("F5",)),
    ("lift", ("F9-frob",)),
    ("lift", ("F2-wild",)),
    ("roundtrip", ("F3-b",)),
    ("roundtrip", ("F5-b",)),
    ("roundtrip", ("F2-wild-b",)),
    ("compose", ("F3-a", "F3-b")),
    ("compose", ("F3-b", "F3-deep")),
    ("compose", ("F5", "F5-b")),
    ("compose", ("F2-wild", "F2-wild-b")),
]
# (ring, monic polynomial); the answers (yes/no) are frozen
HAS_ROOT = [
    ("F2:x2-10", [-2, 0, 1]),
    ("F2:x2-2", [-2, 0, 1]),
    ("F2:x2-2", [7, 0, 1]),
    ("F2:x2-2", [-7, 0, 1]),
    ("F3:x2-3", [-3, 0, 1]),
    ("F3:x2-3", [3, 0, 1]),
    ("F3:x2-3", [1, 0, 1]),
    ("F3:x2+3", [3, 0, 1]),
    ("F5:x2-5", [-5, 0, 1]),
    ("F9:x2-3", [1, 0, 1]),
    ("F5:x2-5", [-2, 0, 1]),
    ("F7:x2-7", [-2, 0, 1]),
]

# residue-arith: (op, ring, n, batch size)
RESIDUE_ARITH = [
    ("arith", "F3:x2-3", 4, 12),
    ("arith", "F3:x2+3", 6, 8),
    ("arith", "F9:x2-3", 3, 8),
    ("arith", "F2:x2-2", 8, 6),
    ("arith", "F3:x3-3", 6, 8),
    ("arith", "F5:x2-5", 4, 10),
    ("arith", "F7:x2-7", 3, 10),
    ("arith", "F4:x2-2", 4, 8),
    ("hom", "F3:x2-3", 4, 6),
    ("hom", "F9:x2-3", 3, 4),
    ("hom", "F2:x2-2", 6, 4),
    ("hom", "F3:x3-3", 4, 6),
    ("hom", "F5:x2-5", 4, 6),
    ("compose", "F3:x2-3", 4, 24),
    ("compose", "F2:x2-2", 6, 16),
    ("project", "F3:x2+3", 6, 48),
    ("project", "F4:x2-2", 5, 64),
    ("project", "F3:x4-3", 6, 48),
    ("project", "F2:x2-2", 8, 40),
    ("digits", "F3:x2-3", 12, 24),
    ("digits", "F9:x2-3", 8, 24),
    ("digits", "F2:x2-2", 14, 20),
    ("digits", "F3:x3-3", 12, 20),
    ("digits", "F5:x2-5", 10, 24),
    ("digits", "F4:x2-2", 10, 20),
]


def _hom_json(src: str, tgt: str, psi: list, beta: str, n1: int, n2: int) -> str:
    return json.dumps(
        {
            "psi": {"image_of_generator": psi},
            "beta": beta,
            "source": {**RINGS[src], "n": n1},
            "target": {**RINGS[tgt], "n": n2},
        },
        sort_keys=True,
    )


def _r(name: str) -> str:
    return json.dumps(RINGS[name], sort_keys=True)


# (argv, extra environment); every subcommand, every demo fixture, the --text
# forms, an @file ring spec, and three documented non-zero exits
CLI = [
    (["bounds", "3", "2"], {}),
    (["ring", _r("F3:x2-3")], {}),
    (["--text", "ring", _r("F9:x2-3")], {}),
    (["ring", "@ring-F2-x2-2.json"], {}),
    (["homs", _r("F3:x2-3"), _r("F3:x2+3"), "2", "2", "--iso"], {}),
    (["homs", _r("F2:x2-2"), _r("F2:x2-10"), "6", "6", "--count"], {}),
    (["homs", _r("F3:x2-3"), _r("F3:x2-3"), "6", "6"], {"RAMLIFT_ENUM_CAP": "100"}),
    (["lift", _r("F3:x2-3"), _r("F3:x2-3"),
      _hom_json("F3:x2-3", "F3:x2-3", [0], "π:0,2,0", 3, 3), "8"], {}),
    (["lift", _r("F3:x2-3"), _r("F3:x2-3"),
      _hom_json("F3:x2-3", "F3:x2-3", [0], "π:0,1", 2, 2), "6"], {}),
    (["--text", "hasroot", _r("F3:x2-3"), "x^2+1"], {}),
    (["demo", "ex-2-13-1"], {}),
    (["demo", "ex-2-13-2"], {}),
    (["demo", "wild-2-2"], {}),
    (["demo", "ex-4-12"], {}),
    (["demo", "tame-atlas"], {}),
]
CLI_FILES = {"ring-F2-x2-2.json": RINGS["F2:x2-2"]}

# inputs that crash with a traceback today; the documented outcome is exit 2
# with a one-line message on stderr
CLI_MALFORMED = [
    ("missing-file", ["ring", "@missing.json"], {}),
    ("psi-not-object", ["lift", _r("F3:x2-3"), _r("F3:x2-3"),
                        json.dumps({"psi": 5, "beta": "π:0,1,0", "n1": 3, "n2": 3}), "8"], {}),
    ("zero-length", ["homs", _r("F3:x2-3"), _r("F3:x2-3"), "0", "3"], {}),
    ("bad-enum-cap", ["homs", _r("F3:x2-3"), _r("F3:x2-3"), "2", "2"], {"RAMLIFT_ENUM_CAP": "abc"}),
]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Query:
    """One pool entry: ``run`` does the user-level work and returns its
    answer; ``check`` compares that answer with the frozen one."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    def __init__(self, name: str, seed: int, expected: dict | None):
        self.name = name
        self.seed = seed
        self.expected = expected
        self.queries: list[Query] = []

    def answer(self, qid: str):
        if self.expected is None:
            return None
        return self.expected[self.name].get(qid)

    def matches(self, qid: str, got) -> bool:
        want = self.answer(qid)
        return want is not None and want == got


# ---------------------------------------------------------------------------
# library workloads


def _import():
    """Import the public modules; timed as part of set-up."""
    return {m: importlib.import_module(f"ramlift.{m}")
            for m in ("resfield", "witt", "dvr", "ramification", "homlift", "cli")}


class Library:
    """Namespace access to ramlift functions at call time, so that a tracer
    that rebinds module attributes sees every call the benchmark makes."""

    def __init__(self, mods):
        self.m = mods
        self.rings = {name: mods["dvr"].parse_ring_spec(spec) for name, spec in RINGS.items()}

    def rn(self, ring: str, n: int):
        return self.m["dvr"].residue_ring(self.rings[ring], n)


def homs_answer(homs) -> dict:
    return {"count": len(homs), "digest": digest(sorted(json.dumps(h.to_json(), sort_keys=True) for h in homs))}


def _homs_scan(w: Workload, lib: Library):
    h = lib.m["homlift"]
    for op, a, b, n1, n2 in HOMS_SCAN:
        qid = f"{op}:{a}->{b}:{n1},{n2}"
        src, tgt = lib.rn(a, n1), lib.rn(b, n2)
        if op == "count":
            run = lambda s=src, t=tgt: {"count": len(h.enumerate_homs(s, t))}
        elif op == "isos":
            run = lambda s=src, t=tgt: homs_answer(h.enumerate_isos(s, t))
        else:
            run = lambda s=src, t=tgt: homs_answer(h.enumerate_homs(s, t))
        w.queries.append(Query(qid, run, lambda got, q=qid: w.matches(q, got)))


def lift_answer(g, text) -> dict:
    return {"rho": text(g.rho), "t": g.t, "deriv_val": g.deriv_val}


def _lift_roots(w: Workload, lib: Library):
    h, dvr = lib.m["homlift"], lib.m["dvr"]
    text = dvr.dvr_elem_text
    phis = {}
    for lid, (a, b, n1, n2, idx, _) in LIFTS.items():
        src, tgt = lib.rn(a, n1), lib.rn(b, n2)
        bound = lib.m["ramification"].lift_precision_bound(src.ring, tgt.ring.e)
        if n2 < bound:
            raise ValueError(f"lift {lid}: n2={n2} is below the bound {bound}")
        phis[lid] = h.enumerate_homs(src, tgt)[idx]
    lifted = {}  # the latest lift of each hom, input of the compose queries

    def lift(lid):
        g = h.lift_hom(phis[lid], LIFTS[lid][5])
        lifted[lid] = g
        return g

    for op, lids in LIFT_QUERIES:
        qid = f"{op}:{'+'.join(lids)}"
        if op == "lift":
            run = lambda l=lids[0]: lift_answer(lift(l), text)
        elif op == "roundtrip":
            def run(l=lids[0]):
                g = lift(l)
                _, _, n1, n2, _, _ = LIFTS[l]
                return {**lift_answer(g, text), "back_equals_input": h.project_hom(g, n1, n2) == phis[l]}
        else:
            run = lambda a=lids[0], b=lids[1]: lift_answer(h.compose_homs(lifted[b], lifted[a]), text)
        w.queries.append(Query(qid, run, lambda got, q=qid: w.matches(q, got)))
    for ring, poly in HAS_ROOT:
        qid = f"has_root:{ring}:{poly}"

        def run(R=lib.rings[ring], poly=poly):
            res = h.has_root(R, poly)
            return {"kind": res.kind, "precision": res.precision,
                    "root": None if res.root is None else text(res.root)}

        w.queries.append(Query(qid, run, lambda got, q=qid: w.matches(q, got)))


def _random_elt(rng: random.Random, rspec):
    elems = sorted(rspec.ring.k.elements(), key=lambda a: a.coeffs)
    return rspec.from_digits(tuple(rng.choice(elems) for _ in range(rspec.n)))


def _residue_arith(w: Workload, lib: Library):
    h, dvr = lib.m["homlift"], lib.m["dvr"]
    seeds = (w.expected or {}).get("residue-arith", {}).get(str(w.seed), {})
    for op, ring, n, batch in RESIDUE_ARITH:
        qid = f"{op}:{ring}:{n}"
        rng = random.Random(f"{w.seed}/{qid}")
        rs = lib.rn(ring, n)
        if op == "arith":
            pairs = [(_random_elt(rng, rs), _random_elt(rng, rs), rng.randrange(2, 10)) for _ in range(batch)]

            def run(rs=rs, pairs=pairs):
                out, ok = [], True
                for x, y, k in pairs:
                    s, m = rs.add(x, y), rs.mul(x, y)
                    ok &= rs.sub(s, y) == x and rs.mul(y, x) == m and rs.add(x, rs.neg(x)).is_zero()
                    out.append((s.text(), m.text(), rs.pow(x, k).text()))
                return ok, out
        elif op in ("hom", "compose"):
            isos = h.enumerate_isos(rs, rs)
            if op == "hom":
                hom = isos[rng.randrange(len(isos))]
                pairs = [(_random_elt(rng, rs), _random_elt(rng, rs)) for _ in range(batch)]

                def run(rs=rs, hom=hom, pairs=pairs):
                    out, ok = [], True
                    for x, y in pairs:
                        hx, hy = hom.apply(x), hom.apply(y)
                        ok &= hom.apply(rs.mul(x, y)) == rs.mul(hx, hy)
                        ok &= hom.apply(rs.add(x, y)) == rs.add(hx, hy)
                        out.append((hx.text(), hy.text()))
                    return ok, out
            else:
                pairs = rng.sample([(f, g) for f in isos for g in isos], batch)

                def run(pairs=pairs, group=frozenset(isos)):
                    comps = [h.compose_homs(f, g) for f, g in pairs]
                    return all(c in group for c in comps), [c.beta.text() for c in comps]
        elif op == "project":
            elts = [_random_elt(rng, rs) for _ in range(batch)]

            def run(rs=rs, elts=elts):
                out, ok = [], True
                for x in elts:
                    lifted = rs.lift(x)
                    for m in range(1, rs.n):
                        down = dvr.project(lifted, m)
                        ok &= down == dvr.project_between(x, m)
                        out.append(down.text())
                return ok, out
        else:  # digits: pi_digits <-> from_pi_digits round trips at precision n
            R = lib.rings[ring]
            elems = sorted(R.k.elements(), key=lambda a: a.coeffs)
            vecs = [tuple(rng.choice(elems) for _ in range(n)) for _ in range(batch)]

            def run(R=R, vecs=vecs):
                out, ok = [], True
                for d in vecs:
                    x = dvr.from_pi_digits(d, R)
                    ok &= dvr.pi_digits(x) == d
                    out.append(dvr.dvr_elem_text(x * x))
                return ok, out

        def check(got, q=qid):
            ok, out = got
            want = seeds.get(q)
            return ok and (want is None or want == digest(out))

        w.queries.append(Query(qid, run, check))


def build(name: str, seed: int, expected: dict | None = None) -> Workload:
    """Set-up of a library workload: import, rings, residue rings, query
    inputs.  The warm-up pass is left to the caller."""
    w = Workload(name, seed, expected)
    lib = Library(_import())
    {"homs-scan": _homs_scan, "lift-roots": _lift_roots, "residue-arith": _residue_arith}[name](w, lib)
    return w


# ---------------------------------------------------------------------------
# cli workload


def cli_env(root: Path, extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "RAMLIFT_"))}
    env.update(PYTHONPATH=str(root / "src"), PYTHONUTF8="1", PYTHONIOENCODING="utf-8")
    env.update(extra)
    return env


def run_cli(root: Path, workdir: Path, argv: list, extra_env: dict) -> dict:
    """``python -m ramlift ARGV`` in a child process; returns its exit code,
    stdout and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramlift", *argv],
        cwd=workdir,
        env=cli_env(root, extra_env),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        encoding="utf-8",
    )
    # a timer rather than communicate(timeout=...): with a timeout, the final
    # wait polls with growing sleeps, which adds milliseconds to the query
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr}


def run_cli_inprocess(mods, workdir: Path, argv: list, extra_env: dict) -> dict:
    """``ramlift.cli.main(ARGV)`` in this process, from ``workdir``, with
    stdout and stderr captured; the caller clears ramlift's caches first to
    mimic a cold start."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in extra_env}
    os.environ.update(extra_env)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].main(argv)
    finally:
        os.chdir(cwd)
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_answer(res: dict) -> dict:
    return {"exit": res["exit"], "stdout": res["stdout"]}


def cli_stderr_ok(res: dict) -> bool:
    """Exit 0 prints nothing on stderr; a non-zero exit prints one line and
    no traceback."""
    lines = res["stderr"].splitlines()
    if res["exit"] == 0:
        return not lines
    return len(lines) == 1 and "Traceback" not in res["stderr"]


def cli_query_id(argv: list, env: dict) -> str:
    names = {_r(name): name for name in RINGS}
    shown = [names.get(a) or (a if len(a) < 40 else "hom-" + digest(a)[:8]) for a in argv]
    return " ".join([f"{k}={v}" for k, v in env.items()] + shown)


def prepare_cli(root: Path, workdir: Path, seed: int, expected: dict | None, mods=None) -> Workload:
    """Set-up of the cli workload: write the @file inputs and render the
    argument lists.  With ``mods`` the queries call ``cli.main`` in-process
    (the traced run); without, each query is a child process."""
    w = Workload("cli", seed, expected)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, obj in CLI_FILES.items():
        (workdir / fname).write_text(json.dumps(obj), encoding="utf-8")
    for argv, env in CLI:
        qid = cli_query_id(argv, env)
        if mods is None:
            run = lambda a=argv, e=env: run_cli(root, workdir, a, e)
        else:
            run = lambda a=argv, e=env: run_cli_inprocess(mods, workdir, a, e)
        check = lambda got, q=qid: cli_stderr_ok(got) and w.matches(q, cli_answer(got))
        w.queries.append(Query(qid, run, check))
    return w
