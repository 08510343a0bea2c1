"""The benchmark's tracer (perfbench/spans.py) wraps program functions by
module path, without editing the program.  A refactor that moves or
renames a wrapped function, or that calls it through a reference the
tracer cannot rebind, must fail here rather than in a traced benchmark."""
import importlib
import os
import sys

import pandas as pd
import pytest

from repro.bench_data import Scenario
from repro.core import tg_linear
from repro.core.rules import parse_program
from repro.harness.runners import run_engine

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from spans import LAYERS, Tracer  # noqa: E402

from tests.helpers import P1_TEXT  # noqa: E402


@pytest.mark.parametrize("module,name", [(m, f) for m, f, *_ in LAYERS])
def test_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


class _NoSpark:
    """Stands in for the SparkContext: spans only set job groups."""

    def setJobGroup(self, group, description):
        pass


def _traced_span_names(call) -> list[str]:
    """Run ``call`` as one traced op; the names of the spans it recorded."""
    for module, *_ in LAYERS:
        importlib.import_module(module)
    tracer = Tracer(_NoSpark())
    tracer.install()
    try:
        tracer.start_op("op")
        call()
    finally:
        tracer.uninstall()
    return [s.name for s in tracer.spans]


@pytest.mark.parametrize("engine,span", [("glog-mr", "tgmat"), ("vlog", "chase")])
def test_harness_runs_traced_engine(spark, engine, span):
    scenario = Scenario(
        "tc",
        parse_program("e(X,Y) -> R(X,Y)\nR(X,Y), R(Y,Z) -> R(X,Z)"),
        {"e": pd.DataFrame([("a", "b"), ("b", "c")])},
    )
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
