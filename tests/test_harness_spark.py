"""Harness tests: runners produce consistent RunResults; table builders
emit the expected row structure at tiny scale."""
import pandas as pd
import pytest

from repro.bench_data import Scenario
from repro.bench_data.lubm import lubm
from repro.core.rules import parse_program
from repro.harness.metrics import RunResult, peak_rss_mb
from repro.harness.runners import base_store, run_engine, run_linear_tg


def test_peak_rss_positive():
    assert peak_rss_mb() > 10


def test_run_result_as_row_flattens_extra():
    r = RunResult("s", "e", 1.0, extra={"k": 2})
    row = r.as_row()
    assert row["k"] == 2 and "extra" not in row


@pytest.fixture(scope="module")
def lubm1():
    return lubm("L", 1)


@pytest.mark.parametrize(
    "engine", ["vlog", "rdfox", "com", "webpie", "inferray", "glog-mr"]
)
def test_run_engine_smoke(spark, lubm1, engine):
    r = run_engine(spark, engine, lubm1)
    assert r.engine == engine and r.scenario == "LUBM-L"
    assert r.wall_s > 0 and r.derived > 0 and r.rounds >= 2


def test_engines_agree_on_derived_count(spark, lubm1):
    counts = {
        e: run_engine(spark, e, lubm1).derived
        for e in ("vlog", "rdfox", "glog-noopt", "glog-mr")
    }
    assert len(set(counts.values())) == 1, counts


def test_unknown_engine_raises(spark, lubm1):
    with pytest.raises(ValueError):
        run_engine(spark, "datomic", lubm1)


def test_run_linear_tg_fields(spark):
    r = run_linear_tg(spark, lubm("LI", 1))
    assert r.extra["comp_s"] > 0 and r.extra["reason_s"] > 0
    assert r.extra["total_w_cleaning_s"] >= r.extra["total_wo_cleaning_s"]
    assert r.extra["total_wo_cleaning_s"] >= r.extra["comp_s"]
    assert r.extra["derived_wo_cleaning"] >= r.derived
    assert r.tg_nodes > 0 and r.tg_depth >= 1


def test_trigger_counting_toggles(spark, lubm1):
    off = run_engine(spark, "glog-mr", lubm1)
    on = run_engine(spark, "glog-mr", lubm1, count_triggers=True)
    assert off.triggers == -1 and on.triggers > 0


def test_base_store_registers_all_predicates(spark, lubm1):
    store = base_store(spark, lubm1)
    assert set(lubm1.program.arities) <= set(store.arities)


def test_base_store_rejects_table_of_wrong_width(spark):
    sc = Scenario(
        "bad", parse_program("e(X,Y) -> R(X,Y)"), {"e": pd.DataFrame([("a", "b", "c")])}
    )
    with pytest.raises(ValueError, match="arity clash for e"):
        base_store(spark, sc)
