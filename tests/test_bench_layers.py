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
from repro.core.rules import parse_program
from repro.harness.runners import run_engine

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from spans import LAYERS, Tracer  # noqa: E402


@pytest.mark.parametrize("module,name", [(m, f) for m, f, *_ in LAYERS])
def test_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


class _NoSpark:
    """Stands in for the SparkContext: spans only set job groups."""

    def setJobGroup(self, group, description):
        pass


@pytest.mark.parametrize("engine,span", [("glog-mr", "tgmat"), ("vlog", "chase")])
def test_harness_runs_traced_engine(spark, engine, span):
    scenario = Scenario(
        "tc",
        parse_program("e(X,Y) -> R(X,Y)\nR(X,Y), R(Y,Z) -> R(X,Z)"),
        {"e": pd.DataFrame([("a", "b"), ("b", "c")])},
    )
    for module, *_ in LAYERS:
        importlib.import_module(module)
    tracer = Tracer(_NoSpark())
    tracer.install()
    try:
        tracer.start_op("op")
        run_engine(spark, engine, scenario)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["facts.load", span]
    assert {"facts.materialize", "rule_exec"} <= set(names)
