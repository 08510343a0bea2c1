"""Per-predicate fact storage over Spark DataFrames.

Every predicate maps to a DataFrame with string columns ``a0..a{n-1}``;
terms follow the conventions of :mod:`repro.core.terms`.  All engines
(chase baselines and TG-guided reasoning) share this store, so runtime and
trigger comparisons measure the algorithms, not the storage layer.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StringType, StructField, StructType

from ..core.unify import Fact


def fact_cols(arity: int) -> list[str]:
    return [f"a{i}" for i in range(arity)]


def fact_schema(arity: int) -> StructType:
    return StructType([StructField(c, StringType(), True) for c in fact_cols(arity)])


def empty_df(spark: SparkSession, arity: int) -> DataFrame:
    return spark.createDataFrame([], fact_schema(arity))


def df_from_facts(spark: SparkSession, facts, arity: int) -> DataFrame:
    """Build a fact DataFrame from ``(t1, ..., tn)`` tuples (tests/jobs)."""
    rows = [tuple(str(t) for t in f) for f in facts]
    if not rows:
        return empty_df(spark, arity)
    return spark.createDataFrame(rows, fact_schema(arity))


def df_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Ingest a pandas table: all columns cast to string, renamed a0..an."""
    pdf = pdf.astype(str)
    pdf.columns = fact_cols(len(pdf.columns))
    if len(pdf) == 0:
        return empty_df(spark, len(pdf.columns))
    return spark.createDataFrame(pdf, fact_schema(len(pdf.columns)))


class FactStore:
    """Mutable predicate -> DataFrame map with consistent arities."""

    def __init__(self, spark: SparkSession, arities: dict[str, int] | None = None):
        self.spark = spark
        self.arities: dict[str, int] = dict(arities or {})
        self._dfs: dict[str, DataFrame] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_pandas(cls, spark: SparkSession, tables: dict[str, pd.DataFrame]) -> "FactStore":
        store = cls(spark)
        for pred, pdf in tables.items():
            store.set(pred, df_from_pandas(spark, pdf))
        return store

    @classmethod
    def from_facts(cls, spark: SparkSession, facts) -> "FactStore":
        """From an iterable of (pred, args) tuples (tests)."""
        by_pred: dict[str, list] = {}
        for p, args in facts:
            by_pred.setdefault(p, []).append(args)
        store = cls(spark)
        for p, rows in by_pred.items():
            store.set(p, df_from_facts(spark, rows, len(rows[0])))
        return store

    # -- access ---------------------------------------------------------
    def df(self, pred: str) -> DataFrame:
        if pred not in self._dfs:
            if pred not in self.arities:
                raise KeyError(f"unknown predicate {pred!r} (no arity registered)")
            self._dfs[pred] = empty_df(self.spark, self.arities[pred])
        return self._dfs[pred]

    def set(self, pred: str, df: DataFrame) -> None:
        self.arities.setdefault(pred, len(df.columns))
        self._dfs[pred] = df

    def has(self, pred: str) -> bool:
        return pred in self._dfs

    def add(self, pred: str, df: DataFrame) -> None:
        """Union new rows in (no dedup here; engines dedup per their policy)."""
        self.set(pred, self.df(pred).unionByName(df) if self.has(pred) else df)

    def register_arities(self, arities: dict[str, int]) -> None:
        for p, n in arities.items():
            prev = self.arities.setdefault(p, n)
            if prev != n:
                raise ValueError(f"arity clash for {p}: {prev} vs {n}")

    def copy(self) -> "FactStore":
        c = FactStore(self.spark, self.arities)
        c._dfs = dict(self._dfs)
        return c

    def to_fact_set(self, preds=None) -> set[Fact]:
        """Collect as driver-side fact tuples (tests on small data only)."""
        out: set[Fact] = set()
        for p in preds if preds is not None else list(self._dfs):
            if self.has(p):
                for row in self._dfs[p].collect():
                    out.add((p, tuple(row)))
        return out


# Multiplicity column of a counted round: the number of raw rows behind a
# deduplicated fact.  A rule execution's raw head rows are its triggers
# (``project_head`` does not deduplicate), so a round's trigger count is
# the summed multiplicity of its rows before redundancy filtering.
MULT = "_m"
# ``_pred`` tag of tally rows in the round checkpoint; no predicate name
# starts with '#' (``core.rules``)
TALLY = "#tally"


def distinct_new(delta: DataFrame, existing: DataFrame) -> DataFrame:
    """Rows of ``delta`` not already in ``existing`` (set-semantics dedup).
    Rows weighted by a multiplicity column ``MULT`` merge into one fact that
    keeps the summed weight."""
    cols = [c for c in delta.columns if c != MULT]
    d = multiplicities(delta) if MULT in delta.columns else delta.dropDuplicates()
    return d.join(existing, on=cols, how="left_anti")


def multiplicities(delta: DataFrame) -> DataFrame:
    """Each distinct fact of ``delta`` with its summed ``MULT``: the aggregate
    ``distinct_new`` runs, so Spark shuffles the rows once for both."""
    cols = [c for c in delta.columns if c != MULT]
    return delta.groupBy(cols).agg(F.sum(MULT).alias(MULT))


class Deltas(dict):
    """``{pred: (delta_df, n_rows)}`` for the non-empty deltas; ``triggers``
    is the summed ``MULT`` of the tallies materialized with them, and
    ``table`` the checkpoint all of them are views of."""

    triggers = 0
    table: DataFrame | None = None


def materialize_deltas(
    deltas: dict[str, DataFrame], tallies: Sequence[DataFrame] = ()
) -> Deltas:
    """Materialize all predicates' round deltas with ONE Spark action.

    Iterative engines must truncate lineage and learn each delta's size
    every round; doing that per predicate costs one job per predicate per
    round, which dominates wall time on predicate-rich programs.  Instead:
    pad every delta to the maximum arity, tag it with its predicate, union,
    localCheckpoint once, and read all sizes from a single tagged count.
    Per-predicate views are filters over the shared checkpoint (no action).

    A counted round passes deltas that carry ``MULT`` and ``tallies``: the
    ``multiplicities`` of its raw rows.  Their rows join the checkpoint
    under the ``TALLY`` tag, and the same grouped count sums their ``MULT``.
    """
    parts = list(deltas.items()) + [(TALLY, t.select(MULT)) for t in tallies]
    if not parts:
        return Deltas()
    arity = {p: len([c for c in d.columns if c != MULT]) for p, d in parts}
    max_ar = max(arity.values())
    u = None
    for pred, df in parts:
        cols = [F.col(c) for c in df.columns if c != MULT] + [
            F.lit("") for _ in range(max_ar - arity[pred])
        ]
        part = df.select(
            [c.alias(f"a{i}") for i, c in enumerate(cols)] + ([MULT] if tallies else [])
        ).withColumn("_pred", F.lit(pred))
        u = part if u is None else u.unionByName(part)
    return materialize_tagged(u, arity)


def materialize_tagged(u: DataFrame, arity: dict[str, int]) -> Deltas:
    """Checkpoint ``u``, whose rows carry their predicate in ``_pred``, and
    count the rows per predicate with one grouped count: the second half
    of ``materialize_deltas``.  Views over the checkpoint keep the first
    ``arity[pred]`` columns."""
    out = Deltas()
    out.table = u = u.localCheckpoint(eager=True)
    aggs = [F.count(F.lit(1)).alias("n")] + (
        [F.sum(MULT).alias("m")] if MULT in u.columns else []
    )
    for r in u.groupBy("_pred").agg(*aggs).collect():
        pred, n = r["_pred"], r["n"]
        if pred == TALLY:
            out.triggers = r["m"]
        elif n:
            out[pred] = (u.where(F.col("_pred") == pred).select(fact_cols(arity[pred])), n)
    return out
