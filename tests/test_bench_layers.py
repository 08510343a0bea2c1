"""The benchmark's tracer (perfbench/spans.py) wraps program functions by
module path, without editing the program.  A refactor that moves or
renames a wrapped function, or that calls it through a reference the
tracer cannot rebind, must fail here rather than in a traced benchmark."""
import importlib
import os
import sys
import uuid

import pandas as pd
import pytest

from repro.bench_data import Scenario
from repro.core import tg_linear
from repro.core.rules import parse_program
from repro.harness.runners import run_engine, run_linear_tg

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from spans import LAYERS, Tracer  # noqa: E402

from tests.helpers import LINEAR_CASES, P1_TEXT  # noqa: E402


@pytest.mark.parametrize("module,name", [(m, f) for m, f, *_ in LAYERS])
def test_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


class _NoSpark:
    """Stands in for the SparkContext: spans only set job groups."""

    def setJobGroup(self, group, description):
        pass


def _trace(sc, call) -> Tracer:
    """Run ``call`` as one traced op; the tracer holds its spans."""
    for module, *_ in LAYERS:
        importlib.import_module(module)
    tracer = Tracer(sc)
    tracer.install()
    try:
        tracer.start_op(f"op-{uuid.uuid4().hex}")
        call()
    finally:
        tracer.uninstall()
    return tracer


def _traced_span_names(call) -> list[str]:
    """The names of the spans ``call`` records as one traced op."""
    return [s.name for s in _trace(_NoSpark(), call).spans]


def _tc_scenario(extra_rules: str = "") -> Scenario:
    return Scenario(
        "tc",
        parse_program("e(X,Y) -> R(X,Y)\nR(X,Y), R(Y,Z) -> R(X,Z)\n" + extra_rules),
        {"e": pd.DataFrame([("a", "b"), ("b", "c")])},
    )


@pytest.mark.parametrize("engine,span", [("glog-mr", "tgmat"), ("vlog", "chase")])
def test_harness_runs_traced_engine(spark, engine, span):
    scenario = _tc_scenario()
    names = _traced_span_names(lambda: run_engine(spark, engine, scenario))
    assert names[:2] == ["facts.load", span]
    assert {"facts.materialize", "rule_exec"} <= set(names)


def test_driver_min_linear_spans():
    """``min_linear`` reaches ``dominated`` and ``eval_tg_small`` through
    the module attributes the tracer rebinds; inlining either, or calling
    it through a name bound at import time, would silently zero its span
    counts."""
    program = parse_program(P1_TEXT)
    names = _traced_span_names(
        lambda: tg_linear.min_linear(tg_linear.tglinear(program), program)
    )
    assert {
        "tg_linear.min_linear", "tg_linear.dominated", "tg_linear.eval_tg_small"
    } <= set(names)


def _linear_scenario(name: str) -> Scenario:
    text, base = LINEAR_CASES[name]
    rows: dict[str, list] = {}
    for pred, args in base:
        rows.setdefault(pred, []).append(args)
    return Scenario(
        name, parse_program(text), {p: pd.DataFrame(r) for p, r in rows.items()}
    )


@pytest.mark.parametrize(
    "run,allowed",
    [
        # ``Flag(Z)`` has no frontier variable: the keyless restricted check
        (lambda spark: run_engine(spark, "vlog", _tc_scenario("e(X,Y) -> Flag(Z)")),
         set()),
        (lambda spark: run_engine(spark, "glog-mr", _tc_scenario("e(X,Y) -> Flag(Z)")),
         set()),
        # the TG derives a null: the cleaning checkpoints its masked rows
        (lambda spark: run_linear_tg(spark, _linear_scenario("existential")),
         {"tg_exec", "tg_exec.subsume_nulls"}),
        (lambda spark: run_linear_tg(spark, _linear_scenario("chain")),
         {"tg_exec"}),
    ],
    ids=["vlog", "glog-mr", "glog-linear", "glog-linear-null-free"],
)
def test_jobs_only_where_a_run_materializes(spark, run, allowed):
    """A run submits Spark jobs only in the round's one materialization,
    in the linear path's two phases and, when its TG can derive a null, in
    the checkpoint of the null cleaning: loading the base facts, executing
    rules and the restricted check stay lazy, and no job runs outside a
    span."""
    sc = spark.sparkContext
    try:
        tracer = _trace(sc, lambda: run(spark))
        sc._jsc.sc().listenerBus().waitUntilEmpty()  # statusTracker is current
        totals, other, _ = tracer.totals()
    finally:
        for key in ("jobGroup.id", "job.description", "job.interruptOnCancel"):
            sc.setLocalProperty(f"spark.{key}", None)
    with_jobs = {name for name, t in totals.items() if t.self_jobs}
    assert "facts.materialize" in with_jobs
    assert with_jobs <= {"facts.materialize"} | allowed
    assert other == 0
