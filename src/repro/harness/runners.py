"""Uniform entry points: run one engine over one scenario.

``ENGINES`` maps the paper's system names to engine configurations
(DESIGN.md §4 maps each to its simulation), and ``run_linear_tg`` runs
``glog-linear`` (tglinear + minLinear + Definition 5 evaluation).
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from ..bench_data import Scenario
from ..core.tg_exec import eval_tg_spark
from ..core.tg_linear import min_linear, tglinear
from ..core.tgmat import tgmat
from ..engine.chase import naive_chase, seminaive_chase
from ..engine.facts import FactStore
from .metrics import RunResult, peak_rss_mb


def base_store(spark: SparkSession, scenario: Scenario) -> FactStore:
    store = FactStore.from_pandas(spark, scenario.tables)
    store.register_arities(scenario.program.arities)
    store.checkpoint()
    return store


# name -> the engine run's stats.  The ρDF baselines of Table 6 are chase
# configurations: WebPIE re-scans every rule each round and deduplicates in
# a sort phase (naive + re-sort), Inferray filters per rule (semi-naive).
# The entries look the engines up when called, so a wrapper installed on
# this module's attributes (perfbench/spans.py) sees every run.
ENGINES = {
    "vlog": lambda *a, **kw: seminaive_chase(*a, **kw)[1],
    "inferray": lambda *a, **kw: seminaive_chase(*a, **kw)[1],
    "rdfox": lambda *a, **kw: naive_chase(*a, **kw)[1],
    "com": lambda *a, **kw: naive_chase(*a, extra_sort=True, **kw)[1],
    "webpie": lambda *a, **kw: naive_chase(*a, extra_sort=True, **kw)[1],
    "glog-noopt": lambda *a, **kw: tgmat(*a, use_min=False, use_ruleexec=False, **kw).stats,
    "glog-m": lambda *a, **kw: tgmat(*a, use_ruleexec=False, **kw).stats,
    "glog-mr": lambda *a, **kw: tgmat(*a, **kw).stats,
}


def run_engine(
    spark: SparkSession,
    engine: str,
    scenario: Scenario,
    *,
    count_triggers: bool = False,
    max_rounds: int = 100,
) -> RunResult:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    base = base_store(spark, scenario)
    stats = ENGINES[engine](
        spark, scenario.program, base, count_triggers=count_triggers, max_rounds=max_rounds
    )
    return RunResult(
        scenario=scenario.name,
        engine=engine,
        wall_s=round(stats.wall_s, 3),
        rounds=stats.rounds,
        triggers=stats.triggers if count_triggers else -1,
        derived=stats.derived,
        rss_mb=round(peak_rss_mb(), 1),
        tg_nodes=stats.tg_nodes,
        tg_edges=stats.tg_edges,
        tg_depth=stats.tg_depth,
        extra=dict(stats.opt_cost_s),
    )


def run_linear_tg(spark: SparkSession, scenario: Scenario) -> RunResult:
    """The GLog columns of Table 2 from one Definition 5 run: TG
    computation time (tglinear + minLinear), reasoning time (up to the
    materialized raw node instances, without any redundancy filtering),
    and the total with collective cleaning at the end."""
    base = base_store(spark, scenario)
    t0 = time.perf_counter()
    g = tglinear(scenario.program)
    g = min_linear(g, scenario.program)
    comp_s = time.perf_counter() - t0
    _, stats = eval_tg_spark(spark, g, scenario.program, base)
    reason_s = stats.wall_s - stats.clean_s
    return RunResult(
        scenario=scenario.name,
        engine="glog-linear",
        wall_s=round(comp_s + reason_s, 3),  # "w/o cleaning" total
        rounds=stats.rounds,
        triggers=stats.triggers,
        derived=stats.derived,
        rss_mb=round(peak_rss_mb(), 1),
        tg_nodes=g.n_nodes,
        tg_edges=g.n_edges,
        tg_depth=g.graph_depth,
        extra={
            "comp_s": round(comp_s, 4),
            "reason_s": round(reason_s, 3),
            "total_wo_cleaning_s": round(comp_s + reason_s, 3),
            "total_w_cleaning_s": round(comp_s + stats.wall_s, 3),
            # one raw row per trigger: the node instances before cleaning
            "derived_wo_cleaning": stats.triggers,
        },
    )
