"""Spans and work counts around the public functions of each stw layer.

The wrappers live in the benchmark, not in the program: `Tracer.install`
replaces every binding of a wrapped function in the loaded `stw` modules,
so calls made through a module's globals (for example `modular` calling
`framed_trace_counts`) are traced too.  Spans are kept in memory as flat
arrays (name, parent span, start, end) and summarised when the run ends.
"""

from __future__ import annotations

import resource
import sys
from array import array
from collections import defaultdict
from functools import wraps
from math import prod
from time import perf_counter

# (module, attribute, span name).  A dotted attribute names a method of a
# class in that module.
TARGETS = (
    ("stw.double", "context_for", "double.context_for"),
    ("stw.braid", "framed_trace_counts", "braid.framed_trace_counts"),
    ("stw.braid", "framed_invariant", "braid.framed_invariant"),
    ("stw.braid", "zero_framed_invariant", "braid.zero_framed_invariant"),
    ("stw.cyclotomic", "CycloNumber.from_root_counts", "cyclotomic.from_root_counts"),
    ("stw.cyclotomic", "CycloNumber.inverse", "cyclotomic.inverse"),
    ("stw.modular", "modular_data", "modular.modular_data"),
    ("stw.modular", "modularity_report", "modular.modularity_report"),
    ("stw.modular", "verlinde_table", "modular.verlinde_table"),
    ("stw.modular", "w_matrix", "modular.w_matrix"),
    ("stw.modular", "w_identities", "modular.w_identities"),
    ("stw.modular", "ba_block_formula_report", "modular.ba_block_formula_report"),
    ("stw.modular", "theory_data", "modular.theory_data"),
    ("stw.modular", "equivalence_search", "modular.equivalence_search"),
    ("stw.quandle", "single_color_check", "quandle.single_color_check"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)

    # ----- recording ----------------------------------------------------

    def _wrap(self, name: str, fn, after=None, rss=False):
        name_id = self.name_ids.setdefault(name, len(self.span_names))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            rss_before = _maxrss_mb() if rss else 0.0
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if rss:
                tracer.counts[name + ".rss_rise_mb"] += _maxrss_mb() - rss_before
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever `stw` modules hold it."""
        double = sys.modules["stw.double"]
        context_for = double.context_for
        dims: dict[tuple, int] = {}

        def basis_tuples(counts, args, result):
            params, word, colors = args[:3]
            key = (params, tuple(colors))
            if key not in dims:
                ctx = context_for(params)
                dims[key] = prod(ctx.tables[ctx.index_of(c)].dim for c in colors)
            counts["braid.basis_tuples"] += dims[key]

        def table_entries(counts, args, result):
            counts["modular.verlinde_table.entries"] += result.size

        def theory_keys(counts, args, result):
            keys = len(result.t_keys) + sum(len(row) for row in result.s_keys)
            if result.w_keys is not None:
                keys += sum(len(row) for row in result.w_keys)
            counts["modular.theory_data.keys"] += keys

        def search_nodes(counts, args, result):
            counts["modular.equivalence_search.nodes"] += result.nodes

        after = {
            "braid.framed_trace_counts": basis_tuples,
            "modular.verlinde_table": table_entries,
            "modular.theory_data": theory_keys,
            "modular.equivalence_search": search_nodes,
        }
        loaded = [m for n, m in sys.modules.items() if n == "stw" or n.startswith("stw.")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(
                name, original, after.get(name), rss=name == "modular.verlinde_table"
            )
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    # ----- summarising ----------------------------------------------------

    def summary(self, setup_end: float, run_end: float) -> dict:
        """Per-layer calls, total and self time, split into the set-up and
        run phases, plus the run-phase wall time that no span covers.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans that start in the run
        phase add up to the root spans' durations, and those plus
        `unattributed_s` add up to `run_s`."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers: dict[str, dict] = {}
        edges: dict[str, dict] = {}
        root_run = 0.0
        for i in range(n):
            name = self.span_names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            phase = "run" if self.start[i] >= setup_end else "setup"
            row = layers.setdefault(
                name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                 "run_calls": 0, "run_self_s": 0.0, "setup_self_s": 0.0},
            )
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row[phase + "_self_s"] += dur - child[i]
            if phase == "run":
                row["run_calls"] += 1
            p = self.parent[i]
            caller = self.span_names[self.name_of[p]] if p >= 0 else "(root)"
            if caller != name:
                row["total_s"] += dur
            if p < 0 and phase == "run":
                root_run += dur
            edge = edges.setdefault(f"{caller} > {name}", {"calls": 0, "total_s": 0.0})
            edge["calls"] += 1
            edge["total_s"] += dur
        run_s = run_end - setup_end
        return {
            "spans": n,
            "run_s": run_s,
            "covered_run_s": root_run,
            "unattributed_s": run_s - root_run,
            "layers": layers,
            "edges": edges,
            "counts": dict(self.counts),
        }
