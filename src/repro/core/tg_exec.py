"""TG-guided reasoning over Spark for precomputed (linear) TGs.

Implements Definition 5: traverse the TG topologically; each node's facts
are its rule applied to the union of its parents' facts (the base instance
for root nodes); ``G(B)`` is the union of all node instances plus ``B``.

For linear rules every node is a filter+projection over its single
parent — Catalyst pipelines whole root-to-leaf chains into single stages
over the base relation, which is exactly the paper's *structure sharing*:
derived facts are never materialized unless the caller asks for them.

One run yields both phases of Table 2.  The raw per-predicate unions are
materialized with one action; their row counts are the triggers and the
"w/o cleaning" derived count.  Cleaning then runs from that checkpoint, in
one collective pass over all predicates: global ``distinct`` plus removal
of null-carrying facts that are subsumed by a null-free fact of their
predicate on their non-null positions (the deferred n-way filtering the
paper contrasts with the chase's filter-after-every-rule).

Which positions can hold a null is read off the TG, not the data: facts
that are pattern-isomorphic see identical linear-rule executions
(Section 5), so evaluating the TG on H(P) yields the null pattern of every
fact it derives from a null-free base.  A TG that derives no null skips
the subsumption pass entirely.
"""
from __future__ import annotations

import functools
import time

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..engine.facts import FactStore, materialize_deltas, materialize_tagged
from ..engine.fixpoint import EngineStats, prepare
from ..engine.rule_exec import execute_rule
from .eg import EG, EGNode
from .rules import Program
from .terms import NULL_MARK, is_null
from .tg_linear import eval_tg_small, pattern_facts


def null_patterns(g: EG, program: Program, width: int) -> set[str]:
    """The null masks (``"1"`` at a null position) of the facts ``g``
    derives on H(P), padded with ``"0"`` to ``width`` columns.  For a
    null-free base B these are the masks of every fact ``g`` derives from
    B."""
    return {
        "".join("1" if is_null(t) else "0" for t in args).ljust(width, "0")
        for f in pattern_facts(program)
        for facts in eval_tg_small(g, {f}).values()
        for _, args in facts
    }


def subsume_nulls(df: DataFrame, patterns: set[str]) -> DataFrame:
    """Drop facts containing nulls that a null-free fact subsumes on every
    non-null position (pattern-level redundancy elimination; the general
    core computation is approximated by its by-far most common case).

    ``patterns`` are the null masks the rows can have (``null_patterns``).
    Without a non-zero one this returns ``df`` and runs no Spark job;
    otherwise it checkpoints ``df`` with its masks, once.  A row whose
    mask is not among ``patterns`` (a null in the base) is kept."""
    cols = df.columns
    zero = "0" * len(cols)
    nonzero = sorted(set(patterns) - {zero})
    if not nonzero:
        return df
    mask = F.concat_ws(
        "",
        *[
            F.when(F.col(c).startswith(NULL_MARK), F.lit("1")).otherwise(F.lit("0"))
            for c in cols
        ],
    )
    d = df.withColumn("_mask", mask).localCheckpoint(eager=True)
    null_free = d.where(F.col("_mask") == zero).drop("_mask")
    parts = [d.where(~F.col("_mask").isin(nonzero)).drop("_mask")]
    for m in nonzero:
        part = d.where(F.col("_mask") == m).drop("_mask")
        # all-null rows have no key: any null-free fact subsumes them
        on = [c for c, bit in zip(cols, m) if bit == "0"]
        parts.append(part.join(
            null_free.select(on).dropDuplicates(), on=on or None, how="left_anti"
        ))
    return functools.reduce(DataFrame.unionByName, parts)


def eval_tg_spark(
    spark: SparkSession, g: EG, program: Program, base: FactStore
) -> tuple[FactStore, EngineStats]:
    """Definition 5 over Spark.  Returns the result store (IDB predicates
    hold the cleaned union of node instances) and stats: ``triggers`` is
    the raw row count of all node instances (one row per trigger for
    linear single-head rules), ``derived`` the cleaned IDB rows, and
    ``clean_s`` the part of ``wall_s`` spent cleaning."""
    t0 = time.perf_counter()
    store = prepare(spark, program, base)
    stats = EngineStats()
    node_df: dict[int, DataFrame] = {}
    per_pred: dict[str, list[DataFrame]] = {}
    for node in sorted(g.nodes, key=lambda n: n.depth):
        rule = node.rule
        if node.parents.get(0):
            src = functools.reduce(
                DataFrame.unionByName, [node_df[p.nid] for p in node.parents[0]]
            )
        else:
            src = store.df(rule.body[0].pred)
        # Definition 5 performs no satisfaction checks: existential rules
        # emit one null per trigger, named as ``eval_tg_small`` names it;
        # redundancy is removed by the cleaning pass
        ex = execute_rule(rule, [src], variant="null", null_tag=f"tg_n{node.nid}")
        stats.rule_execs += 1
        node_df[node.nid] = ex.head_df
        per_pred.setdefault(rule.head.pred, []).append(ex.head_df)

    raw = materialize_deltas(
        {
            pred: functools.reduce(DataFrame.unionByName, dfs)
            for pred, dfs in sorted(per_pred.items())
        }
    )
    stats.triggers = sum(n for _, n in raw.values())
    t1 = time.perf_counter()
    if raw:
        # one pass over the checkpoint of all predicates: ``_pred`` is a
        # column without nulls, so a fact is only subsumed within its own
        # predicate (padding columns are equal within one, too)
        patterns = null_patterns(g, program, len(raw.table.columns))
        cleaned = subsume_nulls(raw.table.dropDuplicates(), patterns)
        for pred, (d, n) in materialize_tagged(cleaned, program.arities).items():
            store.set(pred, d)
            stats.derived += n
    stats.rounds = g.graph_depth + 1
    stats.tg_nodes, stats.tg_edges, stats.tg_depth = g.sizes()
    t2 = time.perf_counter()
    stats.wall_s, stats.clean_s = t2 - t0, t2 - t1
    return store, stats
