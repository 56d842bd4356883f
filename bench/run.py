#!/usr/bin/env python3
"""Run one workload of the ramlift benchmark and print its metrics.

Usage, from the root of a ramlift checkout:

    python3 bench/run.py --workload homs-scan --seed 1 --seconds 15 --trace 0

Workloads: homs-scan, lift-roots, residue-arith, cli (see bench/README.md).
The program under test is imported from ``src/`` of the current directory.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced pass.  The line before it records the environment and the
raw timings.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import workloads as wl
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
CLI_SETUP_SAMPLES = 9  # a cli set-up is one child process, so take more
MIN_ROUNDS = 3
MIN_QUERIES = 100
MAX_PHASE_S = 100.0  # the timed phase stops at the first round boundary past this
PROBE_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, warm up, print the set-up seconds and exit")
    return ap.parse_args(argv)


def fail(msg: str) -> int:
    print(f"bench/run.py: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# timed phase


@dataclass
class Phase:
    samples: dict  # query id -> scaled seconds of each run
    raw_samples: dict  # query id -> wall seconds of each run
    attempted: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    rounds: int = 0
    probe_median_s: float = 0.0


def run_rounds(queries, seed, seconds, runner, clock, min_rounds=MIN_ROUNDS, min_queries=MIN_QUERIES) -> Phase:
    """Closed loop, one caller: whole rounds over the pool, each round in a
    seeded order, until ``seconds`` have passed and at least ``min_rounds``
    rounds and ``min_queries`` queries have run.  ``clock`` times each query
    and scales it to nominal host speed (see hostspeed.py)."""
    rng = random.Random(seed)
    ph = Phase({q.id: [] for q in queries}, {q.id: [] for q in queries})
    start = time.perf_counter()
    while True:
        order = list(queries)
        rng.shuffle(order)
        for q in order:
            clock.start()
            try:
                got, err = runner(q), None
            except Exception as exc:  # a failed query is counted, not fatal
                got, err = None, exc
            raw, scaled = clock.stop()
            ph.samples[q.id].append(scaled)
            ph.raw_samples[q.id].append(raw)
            ph.attempted += 1
            if err is not None:
                ph.failures.append(f"{q.id}: {type(err).__name__}: {err}")
            elif not q.check(got):
                ph.failures.append(f"{q.id}: wrong answer")
        ph.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_PHASE_S or (
            elapsed >= seconds and ph.rounds >= min_rounds and ph.attempted >= min_queries
        ):
            ph.wall_s = elapsed
            ph.probe_median_s = statistics.median(clock.probes)
            return ph


def latency_metrics(ph: Phase, raw=False) -> dict:
    """Percentiles over every query of the phase.  ``queries_per_s`` counts
    the queries that succeeded, over the time spent inside queries."""
    every = [t for v in (ph.raw_samples if raw else ph.samples).values() for t in v]
    return {
        "query_p50_s": statistics.median(every),
        "query_p90_s": statistics.quantiles(every, n=10, method="inclusive")[8],
        "queries_per_s": (ph.attempted - len(ph.failures)) / sum(every),
    }


def phase_summary(ph: Phase) -> dict:
    return {
        "samples": ph.attempted,
        "rounds": ph.rounds,
        "wall_s": ph.wall_s,
        "probe_median_s": ph.probe_median_s,
        "busy_raw_s": sum(t for v in ph.raw_samples.values() for t in v),
        "busy_scaled_s": sum(t for v in ph.samples.values() for t in v),
        "raw": latency_metrics(ph, raw=True),
        "median_scaled_s_per_query": {qid: statistics.median(v) for qid, v in ph.samples.items() if v},
    }


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    workload: wl.Workload
    failures: list
    attempted: int  # warm-up queries run
    raw_s: float
    scaled_s: float


def setup_library(name, seed, expected) -> Setup:
    """Import, build and one warm-up pass over the pool, in pool order."""
    clock = hostspeed.loop_clock()
    clock.start()
    w = wl.build(name, seed, expected)
    clock.stop()
    failures = []
    for q in w.queries:
        clock.start()
        try:
            if not q.check(q.run()):
                failures.append(f"{q.id}: wrong answer in warm-up")
        except Exception as exc:
            failures.append(f"{q.id}: {type(exc).__name__} in warm-up: {exc}")
        clock.stop()
    return Setup(w, failures, len(w.queries), clock.raw_s, clock.scaled_s)


def setup_cli(seed, root, expected) -> Setup:
    """Write the inputs and run one child process, so that the byte-code
    cache and the page cache are warm."""
    clock = cli_clock(root)
    clock.start()
    w = wl.prepare_cli(root, workdir(root), seed, expected)
    q = w.queries[0]
    failures = [] if q.check(q.run()) else [f"{q.id}: wrong answer in warm-up"]
    clock.stop()
    return Setup(w, failures, 1, clock.raw_s, clock.scaled_s)


def setup_in_child(name, seed, root) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workdir(root: Path) -> Path:
    return root / ".bench_work"


def cli_clock(root: Path) -> hostspeed.Clock:
    workdir(root).mkdir(exist_ok=True)
    return hostspeed.child_clock(workdir(root), wl.cli_env(root, {}))


# ---------------------------------------------------------------------------
# environment


def environment(root: Path, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ramlift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)


def end_to_end(args, root, expected, report):
    """Set up several times (``setup_s`` is the median), then the timed
    phase."""
    if args.workload == "cli":
        setups = [setup_cli(args.seed, root, expected) for _ in range(CLI_SETUP_SAMPLES)]
        w = setups[-1].workload
        clock = cli_clock(root)
    else:
        first = setup_library(args.workload, args.seed, expected)
        children = [setup_in_child(args.workload, args.seed, root) for _ in range(SETUP_SAMPLES - 1)]
        setups = [first] + [Setup(None, c["failures"], c["attempted"], c["raw_s"], c["scaled_s"]) for c in children]
        w = first.workload
        clock = hostspeed.loop_clock()
    ph = run_rounds(w.queries, args.seed, args.seconds, lambda q: q.run(), clock)
    metrics = {
        "setup_s": statistics.median(s.scaled_s for s in setups),
        **latency_metrics(ph),
        "peak_rss_mib": peak_rss_mib(children=args.workload == "cli"),
    }
    failures = [f for s in setups for f in s.failures] + ph.failures
    report.update(setup_raw_s=[s.raw_s for s in setups], setup_scaled_s=[s.scaled_s for s in setups],
                  untraced=phase_summary(ph), untraced_wall_s=ph.wall_s, traced_wall_s=None,
                  failures=failures[:20])
    return metrics, ph.attempted + sum(s.attempted for s in setups), len(failures)


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def _median_child_s(code: str, root: Path) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=wl.cli_env(root, {}),
                       capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_probes(root: Path) -> dict:
    """Interpreter start, import cost, and the malformed inputs."""
    start = _median_child_s("pass", root)
    imported = _median_child_s("import ramlift.cli", root)
    bad = []
    for name, argv, env in wl.CLI_MALFORMED:
        res = wl.run_cli(root, workdir(root), argv, env)
        if res["exit"] != 2 or not wl.cli_stderr_ok(res):
            bad.append(f"{name}: exit {res['exit']}, {len(res['stderr'].splitlines())} stderr lines")
    return {
        "cli.interp_start_s": start,
        "cli.import_s": imported - start,
        "cli.malformed_fail_ratio": len(bad) / len(wl.CLI_MALFORMED),
        "_malformed": bad,
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, n_queries: int) -> dict:
    c, calls, tot = tr.counters, tr.calls, tr.total_s

    def us_per_call(name):
        return _ratio(tot[name], calls[name]) * 1e6

    teich = c["witt.teichmuller.hits"] + c["witt.teichmuller.misses"]
    m = {
        "homlift.candidates": c["homlift.candidates"],
        "homlift.hom_yield": _ratio(c["homlift.homs_found"], c["homlift.candidates"]),
        "homlift.roots_in_dvr.calls": calls["homlift.roots_in_dvr"],
        "homlift.roots_in_dvr.s": tot["homlift.roots_in_dvr"],
        "homlift.lift_hom.s": tot["homlift.lift_hom"],
        "homlift.has_root.prec_steps": _ratio(c["homlift.has_root.dfs_calls"], calls["homlift.has_root"]),
        "homlift.has_root.undecided": c["homlift.has_root.undecided"],
        "homlift.apply.calls": calls["homlift.apply"],
        "homlift.self_s": tr.layer_self_s("homlift"),
        "dvr.mul.calls": calls["dvr.mul"],
        "dvr.mul.per_query": _ratio(calls["dvr.mul"], n_queries),
        "dvr.mul.us_per_call": us_per_call("dvr.mul"),
        "dvr.addsub.calls": calls["dvr.add"] + calls["dvr.sub"],
        "dvr.valuation.calls": calls["dvr.valuation"],
        "dvr.self_s": tr.layer_self_s("dvr"),
        "dvr.pi_digits.calls": calls["dvr.pi_digits"],
        "dvr.pi_digits.us_per_call": us_per_call("dvr.pi_digits"),
        "dvr.from_pi_digits.calls": calls["dvr.from_pi_digits"],
        "dvr.residue_op.calls": calls["dvr.residue_op"],
        "dvr.enumerate_elements.yielded": c["dvr.enumerate_elements.yielded"],
        "witt.mul.calls": calls["witt.mul"],
        "witt.mul.us_per_call": us_per_call("witt.mul"),
        "witt.addsub.calls": calls["witt.add"] + calls["witt.sub"],
        "witt.from_coeffs.calls": calls["witt.from_coeffs"],
        "witt.self_s": tr.layer_self_s("witt"),
        "witt.teichmuller.calls": calls["witt.teichmuller"],
        "witt.teichmuller.miss_ratio": _ratio(c["witt.teichmuller.misses"], teich),
        "witt.teich_digits.calls": calls["witt.teich_digits"],
        "resfield.mul.calls": calls["resfield.mul"],
        "resfield.mul.us_per_call": us_per_call("resfield.mul"),
        "resfield.embed.calls": calls["resfield.embed"],
        "resfield.self_s": tr.layer_self_s("resfield"),
        "ramification.calls": sum(v for k, v in calls.items() if k.startswith("ramification.")),
        "ramification.self_s": tr.layer_self_s("ramification"),
    }
    for sub in ("ring", "homs", "lift", "bounds", "hasroot", "demo"):
        m[f"cli.{sub}.s"] = _ratio(tot[f"cli.{sub}"], calls[f"cli.{sub}"])
    return m


def clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def traced(args, root, expected, report):
    mods = wl._import()
    caches = [v for mod in mods.values() for v in vars(mod).values() if hasattr(v, "cache_clear")]
    is_cli = args.workload == "cli"
    if is_cli:
        # in-process cli.main with ramlift's caches cleared before each query,
        # as in a fresh process; child processes cannot be traced from here
        w = wl.prepare_cli(root, workdir(root), args.seed, expected, mods=mods)
        prepare = lambda: clear_caches(caches)
        failures, warm_up_queries = [], 0
    else:
        st = setup_library(args.workload, args.seed, expected)
        w, failures, warm_up_queries = st.workload, st.failures, st.attempted
        prepare = lambda: None

    def untraced_runner(q):
        prepare()
        return q.run()

    untraced = run_rounds(w.queries, args.seed, args.seconds, untraced_runner, hostspeed.loop_clock())
    tr = Tracer()
    nonzero = []

    def traced_runner(q):
        prepare()
        got = tr.run_query(q.id, q.run)
        if is_cli and got["exit"] != 0:
            nonzero.append(q.id)
        return got

    tr.install(mods)
    try:
        t0 = time.perf_counter()
        traced_ph = run_rounds(w.queries, args.seed + 1, 0.0, traced_runner, hostspeed.loop_clock(),
                               min_rounds=1, min_queries=0)
        traced_wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    tr.dump(workdir(root) / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tr, traced_ph.attempted)
    probes = cli_probes(root) if is_cli else {}
    for name in ("cli.interp_start_s", "cli.import_s", "cli.malformed_fail_ratio"):
        metrics[name] = probes.get(name, 0.0)
    metrics["cli.exit_nonzero"] = len(nonzero)
    all_failures = failures + untraced.failures + traced_ph.failures
    attempted = untraced.attempted + traced_ph.attempted + warm_up_queries
    metrics["fail_ratio"] = len(all_failures) / attempted
    untraced_qps = latency_metrics(untraced)["queries_per_s"]
    traced_qps = latency_metrics(traced_ph)["queries_per_s"]
    metrics["trace.overhead_qps"] = traced_qps - untraced_qps
    report.update(untraced=phase_summary(untraced), untraced_wall_s=untraced.wall_s, traced_wall_s=traced_wall,
                  untraced_qps=untraced_qps, traced_qps=traced_qps,
                  spans_kept=len(tr.spans), spans_dropped=tr.dropped,
                  malformed_failures=probes.get("_malformed"), failures=all_failures[:20])
    return metrics, attempted, len(all_failures)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ramlift" / "__init__.py").is_file():
        return fail(f"no ramlift source under {root / 'src'}; run from the root of a ramlift checkout")
    if not wl.EXPECTED_PATH.is_file():
        return fail(f"missing {wl.EXPECTED_PATH}")
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.find_spec("ramlift")
    if not Path(spec.origin).resolve().is_relative_to((root / "src").resolve()):
        return fail(f"ramlift resolves to {spec.origin}, not to {root / 'src'}")
    expected = wl.load_expected()

    if args.setup_only:
        if args.workload == "cli":
            return fail("--setup-only applies to the library workloads")
        st = setup_library(args.workload, args.seed, expected)
        print(json.dumps({"raw_s": st.raw_s, "scaled_s": st.scaled_s,
                          "attempted": st.attempted, "failures": st.failures}))
        return 0

    # byte code as after a first import, so that set-up times do not depend
    # on whether an earlier run, or PYTHONDONTWRITEBYTECODE, left it behind;
    # compiled in a child so that this process's peak memory stays as it was
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "ramlift")],
                   check=True, capture_output=True, timeout=120)
    report = environment(root, args)
    report["pinned_cpu"] = hostspeed.pin_to_one_cpu()
    run = traced if args.trace else end_to_end
    metrics, attempted, failed = run(args, root, expected, report)
    units = {m["name"]: m["unit"] for m in json.loads((root / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        return fail(f"metrics not produced: {missing}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
