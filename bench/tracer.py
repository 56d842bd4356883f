"""Span tracing around the public functions and methods of ramlift.

``Tracer.install`` wraps each target listed in ``TARGETS``.  A function is
rebound in every module namespace that holds it (``homlift.pi_digits`` as well
as ``dvr.pi_digits``); a method is replaced on its class.  Every call records a
span (name, start, end, parent, query id).  Aggregates per name (calls, total
and self time) are kept exactly; the raw spans are kept in memory up to
``max_spans`` and written out once by ``dump``.  ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute); "Class.method" patches the class
TARGETS = [
    ("resfield.mul", "resfield", "FqElem.__mul__"),
    ("resfield.embed", "resfield", "FieldEmbedding.__call__"),
    ("resfield.embeddings", "resfield", "embeddings"),
    ("witt.mul", "witt", "WittElem.__mul__"),
    ("witt.add", "witt", "WittElem.__add__"),
    ("witt.sub", "witt", "WittElem.__sub__"),
    ("witt.from_coeffs", "witt", "WittRingSpec.from_coeffs"),
    ("witt.teichmuller", "witt", "teichmuller"),
    ("witt.teich_digits", "witt", "teich_digits"),
    ("witt.unit_inv", "witt", "witt_unit_inv"),
    ("dvr.mul", "dvr", "DvrElem.__mul__"),
    ("dvr.add", "dvr", "DvrElem.__add__"),
    ("dvr.sub", "dvr", "DvrElem.__sub__"),
    ("dvr.valuation", "dvr", "DvrElem.valuation"),
    ("dvr.pi_digits", "dvr", "pi_digits"),
    ("dvr.from_pi_digits", "dvr", "from_pi_digits"),
    ("dvr.project", "dvr", "project"),
    ("dvr.project_between", "dvr", "project_between"),
    ("dvr.residue_op", "dvr", "ResidueRingSpec.add"),
    ("dvr.residue_op", "dvr", "ResidueRingSpec.sub"),
    ("dvr.residue_op", "dvr", "ResidueRingSpec.neg"),
    ("dvr.residue_op", "dvr", "ResidueRingSpec.mul"),
    ("dvr.residue_op", "dvr", "ResidueRingSpec.pow"),
    ("dvr.parse_ring_spec", "dvr", "parse_ring_spec"),
    ("ramification.newton_polygon", "ramification", "newton_polygon"),
    ("ramification.krasner_bound", "ramification", "krasner_bound"),
    ("ramification.different_val", "ramification", "different_val"),
    ("ramification.discriminant_val", "ramification", "discriminant_val"),
    ("ramification.lift_precision_bound", "ramification", "lift_precision_bound"),
    ("ramification.generic_bounds", "ramification", "generic_bounds"),
    ("ramification.nu_of_e", "ramification", "nu_of_e"),
    ("homlift.enumerate_homs", "homlift", "enumerate_homs"),
    ("homlift.enumerate_isos", "homlift", "enumerate_isos"),
    ("homlift.residue_hom", "homlift", "residue_hom"),
    ("homlift.roots_in_dvr", "homlift", "roots_in_dvr"),
    ("homlift.lift_hom", "homlift", "lift_hom"),
    ("homlift.project_hom", "homlift", "project_hom"),
    ("homlift.compose_homs", "homlift", "compose_homs"),
    ("homlift.has_root", "homlift", "has_root"),
    ("homlift.apply", "homlift", "ResidueHom.apply"),
    ("homlift.apply", "homlift", "DvrHom.apply"),
    ("cli.ring", "cli", "cmd_ring"),
    ("cli.homs", "cli", "cmd_homs"),
    ("cli.lift", "cli", "cmd_lift"),
    ("cli.bounds", "cli", "cmd_bounds"),
    ("cli.hasroot", "cli", "cmd_hasroot"),
    ("cli.demo", "cli", "cmd_demo"),
]
# a generator: counted per yielded item, not timed as a span
GENERATORS = [("dvr.enumerate_elements", "dvr", "enumerate_elements")]


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []  # (id, parent, query, name, start, end)
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.query = None
        self._stack: list[list] = []  # [span id, name, child seconds, start]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.teich_cache = None

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, child, start = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent[0] if parent else None, self.query, name, start, end))
        else:
            self.dropped += 1

    def inside(self, name: str) -> bool:
        return any(f[1] == name for f in self._stack)

    def run_query(self, qid: str, fn):
        """Run one query under a root span; its spans share the query id."""
        self.query = qid
        before = self.teich_cache.cache_info()
        frame = self._open("query")
        try:
            return fn()
        finally:
            self._close(frame)
            self.query = None
            after = self.teich_cache.cache_info()
            # a cache_clear between queries resets the counts to zero
            self.counters["witt.teichmuller.hits"] += after.hits - before.hits
            self.counters["witt.teichmuller.misses"] += after.misses - before.misses

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "homlift.roots_in_dvr" and tracer.inside("homlift.has_root"):
                tracer.counters["homlift.has_root.dfs_calls"] += 1
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._observe(name, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            under_scan = tracer.inside("homlift.enumerate_homs")
            for item in fn(*args, **kwargs):
                tracer.counters[name + ".yielded"] += 1
                if under_scan:
                    tracer.counters["homlift.candidates"] += 1
                yield item

        return counted

    def _observe(self, name: str, result) -> None:
        if name == "homlift.enumerate_homs":
            self.counters["homlift.homs_found"] += len(result)
        elif name == "homlift.has_root" and result.kind == "undecided":
            self.counters["homlift.has_root.undecided"] += 1

    def _rebind(self, orig, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ramlift" or modname.startswith("ramlift.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def install(self, mods: dict) -> None:
        """Wrap every target.  Callers outside ramlift must look functions up
        on their module at call time to be traced."""
        self.teich_cache = mods["witt"].teichmuller
        for table, wrap in ((TARGETS, self._wrap), (GENERATORS, self._wrap_generator)):
            for name, modname, attr in table:
                owner = mods[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, wrap(name, orig))
                else:
                    orig = getattr(owner, attr)
                    self._rebind(orig, wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON lines, plus one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kept_spans": len(self.spans), "dropped_spans": self.dropped}) + "\n")
            for sid, parent, query, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "query": query,
                                     "name": name, "start": start, "end": end}) + "\n")
