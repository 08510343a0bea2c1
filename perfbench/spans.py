"""Per-layer spans for one traced materialization, recorded from outside the
program.

``Tracer.install`` wraps the public functions of each layer (listed in
``LAYERS``) and rebinds every ``repro`` module attribute that refers to the
original, so ``repro.core.tgmat.materialize_deltas`` and
``repro.engine.chase.materialize_deltas`` are both traced.  A span of a
layer that can submit Spark jobs sets its own job group on entry and
restores its parent's on exit; after the op the groups are read back from
``statusTracker``, which attributes every Spark job to the innermost such
span.  Jobs submitted
outside any span land in the op's root group, the explicit ``other``
bucket.  Setting a job group is a local property, not a Spark action.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


# (module, public function, span name, submits Spark jobs, counts read from
# the call's arguments and return value).  Driver-only layers set no job
# group, which keeps the cost of tracing their many small calls low.
LAYERS = [
    ("repro.harness.runners", "base_store", "facts.load", True,
     lambda args, r: {"rows": args[1].n_edb}),
    ("repro.engine.facts", "materialize_deltas", "facts.materialize", True,
     lambda args, r: {"delta_rows": sum(n for _, n in r.values())}),
    ("repro.engine.facts", "distinct_new", "facts.distinct_new", True, None),
    ("repro.engine.rule_exec", "execute_rule", "rule_exec", True,
     lambda args, r: {"triggers": max(r.n_triggers, 0)}),
    ("repro.engine.rule_exec", "prefilter_source", "rule_exec.prefilter", True, None),
    ("repro.engine.rule_exec", "restricted_filter", "rule_exec.restricted", True, None),
    ("repro.core.rewrite", "eg_rewriting", "rewrite.eg_rewriting", False,
     lambda args, r: {"capped": int(r is None)}),
    ("repro.core.rewrite", "find_dominating", "rewrite.find_dominating", False,
     lambda args, r: {"dropped": int(r is not None)}),
    ("repro.core.tgmat", "tgmat", "tgmat", True,
     lambda args, r: {"rounds": r.stats.rounds, "tg_nodes": r.stats.tg_nodes}),
    ("repro.engine.chase", "seminaive_chase", "chase", True,
     lambda args, r: {"rounds": r[1].rounds}),
    ("repro.core.tg_linear", "tglinear", "tg_linear.tglinear", False,
     lambda args, r: {"nodes": r.n_nodes}),
    ("repro.core.tg_linear", "min_linear", "tg_linear.min_linear", False,
     lambda args, r: {"nodes": r.n_nodes}),
    ("repro.core.tg_linear", "dominated", "tg_linear.dominated", False, None),
    ("repro.core.tg_linear", "eval_tg_small", "tg_linear.eval_tg_small", False, None),
    ("repro.core.tg_exec", "eval_tg_spark", "tg_exec", True,
     lambda args, r: {"triggers": max(r[1].triggers, 0)}),
    ("repro.core.tg_exec", "subsume_nulls", "tg_exec.subsume_nulls", True, None),
]


@dataclass
class Span:
    name: str
    parent: "Span | None"
    group: str
    t0: float
    t1: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass
class LayerTotals:
    """Sums over all spans of one name: inclusive and self time, inclusive
    and self Spark jobs, and the counts the span's return values gave."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    jobs: int = 0
    self_jobs: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for ops run between ``install`` and ``uninstall``."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._root = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def install(self) -> None:
        for mod_name, fn_name, span_name, spark, counter in LAYERS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, span_name, spark, counter)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def _wrap(self, fn, span_name, spark, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(span_name, spark)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                for k, v in counter(args, result).items():
                    span.counts[k] = span.counts.get(k, 0) + v
            return result

        return traced

    def _enter(self, name: str, spark: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        if spark:
            group = f"{self._root}/{len(self.spans)}"
            self.sc.setJobGroup(group, name)
        else:
            group = parent.group if parent is not None else self._root
        span = Span(name, parent, group, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()
        parent_group = self._stack[-1].group if self._stack else self._root
        if span.parent is not None:
            span.parent.child_s += span.t1 - span.t0
        if span.group != parent_group:
            self.sc.setJobGroup(parent_group, "op")

    # -- one op ---------------------------------------------------------
    def start_op(self, root_group: str) -> None:
        """Begin a new op: spans recorded so far are discarded."""
        self.spans, self._stack, self._root = [], [], root_group
        self.sc.setJobGroup(root_group, "op")

    def totals(self) -> tuple[dict[str, LayerTotals], int, int]:
        """Per-span-name totals, the number of jobs in the ``other`` bucket
        and the number attributed to spans.  Call after the listener bus
        has drained.  No layer function calls itself, so inclusive times and
        job counts of one name never overlap."""
        tracker = self.sc.statusTracker()
        groups = {s.group for s in self.spans} - {self._root}
        jobs_of = {g: len(tracker.getJobIdsForGroup(g)) for g in groups}
        self_jobs = {
            id(s): jobs_of[s.group] if s.group in groups and (
                s.parent is None or s.parent.group != s.group
            ) else 0
            for s in self.spans
        }
        incl_jobs = dict.fromkeys(self_jobs, 0)
        for s in self.spans:
            p = s
            while p is not None:
                incl_jobs[id(p)] += self_jobs[id(s)]
                p = p.parent
        out: dict[str, LayerTotals] = {}
        for s in self.spans:
            t = out.setdefault(s.name, LayerTotals())
            t.calls += 1
            t.s += s.t1 - s.t0
            t.self_s += s.t1 - s.t0 - s.child_s
            t.jobs += incl_jobs[id(s)]
            t.self_jobs += self_jobs[id(s)]
            for k, v in s.counts.items():
                t.counts[k] = t.counts.get(k, 0) + v
        other = len(tracker.getJobIdsForGroup(self._root))
        return out, other, sum(jobs_of.values())
