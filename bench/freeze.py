#!/usr/bin/env python3
"""Write bench/expected.json: the frozen answer of every pool entry.

Run from the root of a ramlift checkout whose answers are trusted:

    python3 bench/freeze.py              # answers of all four workloads
    python3 bench/freeze.py --oracle 243 # cross-check homs-scan entries

``--oracle LIMIT`` keeps the frozen answers and only adds oracle records: for
every homs-scan entry whose target ring has at most LIMIT elements, it
recomputes the homomorphisms by brute force with
``tests/oracles.exhaustive_homs_as_tables`` (imported read-only) and records
the entries that agree under ``oracle_checked``.  Entries already recorded
are skipped, and the file is saved after each one, so a long run can be
resumed.  To re-freeze and cross-check, run without ``--oracle`` first.
The oracle builds full addition and multiplication tables, so its cost
grows with the square of the ring size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads as wl


def freeze_library(name: str, root: Path) -> dict:
    w = wl.build(name, 0)
    out = {}
    for q in w.queries:
        out[q.id] = q.run()
    return out


def freeze_residue_arith(root: Path) -> dict:
    per_seed = {}
    for seed in wl.REGISTERED_SEEDS:
        w = wl.build("residue-arith", seed)
        digests = {}
        for q in w.queries:
            ok, out = q.run()
            if not ok:
                raise SystemExit(f"seed {seed}, {q.id}: ring or homomorphism identity fails")
            digests[q.id] = wl.digest(out)
        per_seed[str(seed)] = digests
    return per_seed


def freeze_cli(root: Path) -> dict:
    w = wl.prepare_cli(root, root / ".bench_work", 0, None)
    out = {}
    for q in w.queries:
        res = q.run()
        if not wl.cli_stderr_ok(res):
            raise SystemExit(f"{q.id}: unexpected stderr: {res['stderr']!r}")
        out[q.id] = wl.cli_answer(res)
    return out


def oracle_check(root: Path, limit: int, data: dict) -> None:
    """Cross-check homs-scan entries, saving after each one."""
    sys.path.insert(0, str(root / "tests"))
    from oracles import exhaustive_homs_as_tables, hom_as_table

    w = wl.build("homs-scan", 0)
    lib = wl.Library(wl._import())
    h = lib.m["homlift"]
    checked = data["oracle_checked"]
    for (op, a, b, n1, n2), q in zip(wl.HOMS_SCAN, w.queries):
        src, tgt = lib.rn(a, n1), lib.rn(b, n2)
        if tgt.cardinality > limit or q.id in checked:
            continue
        t0 = time.perf_counter()
        expected, s_elems, t_elems = exhaustive_homs_as_tables(src, tgt)
        if op == "isos":
            expected = [tab for tab in expected if len(set(tab)) == len(tab)]
        t_index = {x: i for i, x in enumerate(t_elems)}
        homs = h.enumerate_isos(src, tgt) if op == "isos" else h.enumerate_homs(src, tgt)
        got = sorted({hom_as_table(x, s_elems, t_index) for x in homs})
        if got != sorted(expected) or len(got) != data["homs-scan"][q.id]["count"]:
            raise SystemExit(f"{q.id}: enumerate_{op} disagrees with the exhaustive oracle")
        checked[q.id] = {"target_elements": tgt.cardinality, "homs": len(got),
                         "oracle_s": round(time.perf_counter() - t0, 1)}
        print(f"oracle agrees: {q.id} ({len(got)} homs)", flush=True)
        save(data)


def save(data: dict) -> None:
    wl.EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                                encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--oracle", type=int, metavar="LIMIT",
                    help="keep the answers; cross-check homs-scan up to LIMIT target elements")
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    old = wl.load_expected() if wl.EXPECTED_PATH.is_file() else {}
    if args.oracle:
        if not old:
            raise SystemExit(f"{wl.EXPECTED_PATH} is missing; run freeze.py without --oracle first")
        oracle_check(root, args.oracle, old)
    else:
        data = {
            "homs-scan": freeze_library("homs-scan", root),
            "lift-roots": freeze_library("lift-roots", root),
            "residue-arith": freeze_residue_arith(root),
            "cli": freeze_cli(root),
        }
        # an oracle record stays valid only while its entry's answer is unchanged
        data["oracle_checked"] = {
            k: v for k, v in old.get("oracle_checked", {}).items()
            if old["homs-scan"].get(k) == data["homs-scan"].get(k)
        }
        save(data)
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
