"""Table 5 benchmarks: trigger-counted runs (VLog vs GLog variants).

Triggers are counted in each round's one materialization, so counting
adds no Spark job; this runs at 'test' scale to keep the suite short, and
the full-scale numbers come from jobs/table5_triggers.py.
"""
import pytest

from repro.harness.runners import run_engine
from repro.harness.tables import datalog_scenarios

SCENARIOS = {
    s.name: s
    for s in datalog_scenarios("test")
    if s.name in ("LUBM-L", "UOBM-L")
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("engine", ["vlog", "glog-noopt", "glog-mr"])
def test_trigger_counted_runs(once, spark, name, engine):
    r = once(run_engine, spark, engine, SCENARIOS[name], count_triggers=True)
    assert r.triggers > 0
