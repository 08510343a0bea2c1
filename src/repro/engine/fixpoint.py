"""The one round loop of the Spark engines (paper Algorithm 2, Section 7).

TGmat and the chase baselines run the same round: execute rules, filter
redundancy, add the new facts, stop when a round derives nothing new.
They differ only in *which* facts feed which body atom (Def. 5, Sec. 4)
and in when they deduplicate.  ``fixpoint`` owns the round; an engine
supplies a *plan*: for round k, the rule executions to run, each as
``(rule, per-atom sources, null tag)``.

Every round's delta is checkpointed with one shared action
(``materialize_deltas``), which keeps Catalyst plans bounded.  The same
action counts the round's triggers: the raw head rows of its executions.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.rules import Program, Rule
from .facts import MULT, FactStore, distinct_new, empty_df, materialize_deltas, multiplicities
from .rule_exec import execute_rule

# plan(k, store, delta) -> the executions of round k; ``delta`` holds the
# facts that round k-1 added (non-empty predicates only; {} in round 1)
Plan = Callable[
    [int, FactStore, dict[str, DataFrame]],
    Iterable[tuple[Rule, list[DataFrame], str]],
]


@dataclass
class EngineStats:
    """Uniform measurements reported by every engine run."""

    rounds: int = 0
    triggers: int = 0          # total body instantiations (0 unless counted)
    derived: int = 0           # new IDB facts added to the KB
    rule_execs: int = 0
    wall_s: float = 0.0
    clean_s: float = 0.0       # Definition 5 runs: cleaning, part of wall_s
    tg_nodes: int = 0
    tg_edges: int = 0
    tg_depth: int = 0
    opt_cost_s: dict = field(default_factory=dict)


def prepare(spark: SparkSession, program: Program, base: FactStore) -> FactStore:
    """A copy of ``base`` with an (empty) relation for every IDB predicate."""
    store = base.copy()
    store.register_arities(program.arities)
    for p in program.idb:
        if not store.has(p):
            store.set(p, empty_df(spark, program.arities[p]))
    return store


def fixpoint(
    engine: str,
    spark: SparkSession,
    program: Program,
    base: FactStore,
    plan: Plan,
    *,
    existentials: str,
    count_triggers: bool,
    max_rounds: int,
    per_rule_dedup: bool = False,
    resort: bool = False,
) -> tuple[FactStore, EngineStats]:
    """Run ``plan`` round by round until a round derives nothing new.

    ``existentials`` is the ``execute_rule`` variant of existential rules
    ('skolem' or 'restricted').  Redundancy is filtered once per round with
    one n-way union + anti-join per predicate; ``per_rule_dedup`` also
    filters each execution's output against the KB right away, and
    ``resort`` globally re-sorts each round's delta.

    ``count_triggers`` weights every head row with ``MULT`` = 1 and tallies
    the multiplicities at the first dedup (per execution under
    ``per_rule_dedup``, else per predicate), which shares its aggregate;
    ``materialize_deltas`` sums the tallies in the round's one action.
    Counting off, the round's plan has no extra column or job.
    """
    t0 = time.perf_counter()
    store = prepare(spark, program, base)
    stats = EngineStats()
    delta: dict[str, DataFrame] = {}
    sizes: dict[str, int] = {}
    for k in range(1, max_rounds + 1):
        per_pred: dict[str, list[DataFrame]] = {}
        tallies: list[DataFrame] = []  # multiplicities at the first dedup
        for rule, sources, null_tag in plan(k, store, delta):
            head = rule.head.pred
            out = execute_rule(
                rule,
                sources,
                existing=store.df(head),
                variant=existentials if rule.is_existential else "datalog",
                null_tag=null_tag,
            ).head_df
            stats.rule_execs += 1
            if count_triggers:
                out = out.withColumn(MULT, F.lit(1))
            if per_rule_dedup:
                if count_triggers:
                    tallies.append(multiplicities(out))
                out = distinct_new(out, store.df(head))
            per_pred.setdefault(head, []).append(out)
        lazy = {}
        for pred, dfs in per_pred.items():
            u = functools.reduce(DataFrame.unionByName, dfs)
            if count_triggers and not per_rule_dedup:
                tallies.append(multiplicities(u))
            d = distinct_new(u, store.df(pred))
            lazy[pred] = d.orderBy(d.columns) if resort else d
        new = materialize_deltas(lazy, tallies)
        stats.triggers += new.triggers
        delta = {pred: d for pred, (d, _) in new.items()}
        sizes = {pred: n for pred, (_, n) in new.items()}
        for pred, d in delta.items():
            store.add(pred, d)
        stats.derived += sum(sizes.values())
        stats.rounds = k
        if not new:
            break
    else:
        raise RuntimeError(
            f"{engine} hit max_rounds={max_rounds}; the last round added "
            f"{dict(sorted(sizes.items()))} new facts per predicate"
        )
    stats.wall_s = time.perf_counter() - t0
    return store, stats
