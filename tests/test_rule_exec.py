"""Join-based rule execution vs the DuckDB oracle (triggers == SQL joins).

The TPC-H-lite tables from synth_data double as EDB relations so every
binding/projection path is checked against plain SQL.
"""
import re
import time
import uuid

import duckdb
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.core.rules import parse_rule
from repro.core.terms import labelled_null, skolem
from repro.engine import rule_exec
from repro.engine.facts import FactStore, df_from_facts
from repro.engine.rule_exec import (
    atom_bindings,
    body_bindings,
    covering_atom,
    execute_rule,
    head_witness,
    prefilter_source,
    restricted_filter,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def store(spark):
    li = synth_data.lineitem(spark, sf=0.002).select(
        F.col("l_orderkey").cast("string").alias("a0"),
        F.col("l_partkey").cast("string").alias("a1"),
    )
    o = synth_data.orders(spark, sf=0.002).select(
        F.col("o_orderkey").cast("string").alias("a0"),
        F.col("o_custkey").cast("string").alias("a1"),
    )
    s = FactStore(spark)
    s.set("li", li.localCheckpoint(eager=True))
    s.set("ord", o.localCheckpoint(eager=True))
    return s


def test_rule_join_matches_sql_oracle(spark, store):
    rule = parse_rule("li(O,P), ord(O,C) -> Bought(C,P)", "r")
    ex = execute_rule(rule, [store.df("li"), store.df("ord")])
    got = ex.head_df.dropDuplicates().selectExpr("a0 as c", "a1 as p")
    assert_equivalent(
        got,
        "SELECT DISTINCT o.a1 AS c, l.a1 AS p FROM li l JOIN ord o ON l.a0 = o.a0",
        li=store.df("li"),
        ord=store.df("ord"),
    )


def test_trigger_count_matches_sql_join_cardinality(spark, store):
    # project_head does not deduplicate: one head row per trigger
    rule = parse_rule("li(O,P), ord(O,C) -> Bought(C,P)", "r")
    ex = execute_rule(rule, [store.df("li"), store.df("ord")])
    con = duckdb.connect()
    con.register("li", store.df("li").toPandas())
    con.register("ord", store.df("ord").toPandas())
    expected = con.execute(
        "SELECT count(*) FROM li l JOIN ord o ON l.a0 = o.a0"
    ).fetchone()[0]
    con.close()
    assert ex.head_df.count() == expected


def jobs_submitted(spark, fn) -> list[int]:
    """The Spark jobs ``fn`` submits, read from statusTracker.  ``fn`` runs
    in a job group of its own; a marker job after it is seen only once the
    listener bus, which reports jobs in submission order, has passed every
    job of ``fn``."""
    sc, group = spark.sparkContext, f"lazy-{uuid.uuid4().hex}"
    tracker = sc.statusTracker()
    try:
        sc.setJobGroup(group, "laziness guard")
        fn()
        sc.setJobGroup(group + "-marker", "marker")
        spark.range(1).collect()
        deadline = time.monotonic() + 60
        while not tracker.getJobIdsForGroup(group + "-marker"):
            assert time.monotonic() < deadline, "marker job never reported"
            time.sleep(0.05)
    finally:
        for key in ("jobGroup.id", "job.description", "job.interruptOnCancel"):
            sc.setLocalProperty(f"spark.{key}", None)
    return tracker.getJobIdsForGroup(group)


@pytest.mark.parametrize(
    "text,variant",
    [
        ("p(X), q(X,Y) -> Q(Y)", "skolem"),
        ("p(X), q(X,Y) -> Q(Y,Z)", "skolem"),
        ("p(X), q(X,Y) -> Q(Y,Z)", "restricted"),
        ("p(X), q(X,Y) -> Q(Y,Z)", "null"),
        ("p(X) -> Flag(Z)", "restricted"),
    ],
)
def test_execute_rule_submits_no_job(spark, text, variant):
    p = df_from_facts(spark, [("a",), ("b",)], 1)
    q = df_from_facts(spark, [("a", "x"), ("b", "y")], 2)
    existing = df_from_facts(spark, [("x", "w")], 2)
    rule = parse_rule(text, "r")
    assert jobs_submitted(
        spark, lambda: execute_rule(rule, [p, q], existing=existing, variant=variant)
    ) == []


@pytest.mark.parametrize("variant", ["restrictd", "datalog", "Null", ""])
def test_execute_rule_rejects_unknown_variant(spark, variant):
    p = df_from_facts(spark, [("a",)], 1)
    for text in ("p(X) -> Q(X)", "p(X) -> Q(X,Z)"):
        with pytest.raises(ValueError, match=re.escape(repr(variant))):
            execute_rule(parse_rule(text, "r"), [p], existing=p, variant=variant)


def test_atom_bindings_constant_filter(spark):
    df = df_from_facts(spark, [("a", "red"), ("b", "blue")], 2)
    ab = atom_bindings(df, parse_rule("p(X,red) -> Q(X)", "r").body[0])
    assert [r["v_X"] for r in ab.collect()] == ["a"]


def test_atom_bindings_repeated_var(spark):
    df = df_from_facts(spark, [("a", "a"), ("a", "b")], 2)
    ab = atom_bindings(df, parse_rule("p(X,X) -> Q(X)", "r").body[0])
    assert [r["v_X"] for r in ab.collect()] == ["a"]


def test_body_bindings_cross_join(spark):
    d1 = df_from_facts(spark, [("a",), ("b",)], 1)
    d2 = df_from_facts(spark, [("x",)], 1)
    rule = parse_rule("p(X), q(Y) -> R(X,Y)", "r")
    b = body_bindings(rule.body, [d1, d2])
    assert b.count() == 2


def test_head_projection_constant(spark):
    df = df_from_facts(spark, [("a", "b")], 2)
    rule = parse_rule("p(X,Y) -> Q(X,tag)", "r")
    ex = execute_rule(rule, [df])
    assert [tuple(r) for r in ex.head_df.collect()] == [("a", "tag")]


def test_skolem_projection_deterministic(spark):
    df = df_from_facts(spark, [("a",), ("b",)], 1)
    rule = parse_rule("p(X) -> Q(X,Z)", "r")
    e1 = execute_rule(rule, [df], variant="skolem").head_df.collect()
    e2 = execute_rule(rule, [df], variant="skolem").head_df.collect()
    assert sorted(map(tuple, e1)) == sorted(map(tuple, e2))
    # one skolem per frontier value, named as on the driver
    assert {r["a1"] for r in e1} == {skolem("r", "Z", (x,)) for x in "ab"}


def test_null_projection_fresh_per_row(spark):
    df = df_from_facts(spark, [("a",), ("b",)], 1)
    rule = parse_rule("p(X) -> Q(X,Z)", "r")
    rows = execute_rule(rule, [df], variant="null", null_tag="t").head_df.collect()
    # one null per trigger, named as on the driver
    assert sorted(r["a1"] for r in rows) == sorted(
        labelled_null("t", "Z", (x,)) for x in "ab"
    )


def test_repeated_existential_var_in_head(spark):
    df = df_from_facts(spark, [("a",)], 1)
    rule = parse_rule("p(X) -> Q(X,Z,Z)", "r")
    row = execute_rule(rule, [df], variant="skolem").head_df.collect()[0]
    assert row["a1"] == row["a2"]


def test_head_witness_filters_constants(spark):
    existing = df_from_facts(spark, [("a", "red"), ("b", "blue")], 2)
    head = parse_rule("x(X) -> Q(X,red)", "r").head
    w = head_witness(existing, head, ["X"])
    assert [r["v_X"] for r in w.collect()] == ["a"]


def test_restricted_filter_blocks_satisfied_triggers(spark):
    base = df_from_facts(spark, [("a",), ("b",)], 1)
    existing = df_from_facts(spark, [("a", "w")], 2)
    rule = parse_rule("p(X) -> Q(X,Z)", "r")
    b = body_bindings(rule.body, [base])
    kept = restricted_filter(b, rule, existing)
    assert [r["v_X"] for r in kept.collect()] == ["b"]


def test_restricted_filter_fully_existential_head(spark):
    base = df_from_facts(spark, [("a",)], 1)
    rule = parse_rule("p(X) -> Flag(Z)", "r")
    b = body_bindings(rule.body, [base])
    empty = df_from_facts(spark, [], 1)
    assert restricted_filter(b, rule, empty).count() == 1
    witness = df_from_facts(spark, [("w",)], 1)
    assert restricted_filter(b, rule, witness).count() == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p(X,Y) -> Q(X)", 0),
        ("p(X), q(X,Y) -> Q(Y)", 1),
        ("p(X,Y), q(Y,Z) -> Q(X,Z)", None),
        ("p(X,Y) -> Q(X,Y)", 0),
    ],
)
def test_covering_atom(text, expected):
    assert covering_atom(parse_rule(text, "r")) == expected


def test_prefilter_source_drops_already_derived(spark):
    src = df_from_facts(spark, [("a", "b"), ("c", "d")], 2)
    rule = parse_rule("p(X,Y) -> Q(X)", "r")
    existing = df_from_facts(spark, [("a",)], 1)
    out = prefilter_source(src, rule.body[0], rule, existing)
    assert [tuple(r) for r in out.collect()] == [("c", "d")]


def test_prefilter_preserves_constants(spark):
    src = df_from_facts(spark, [("a", "red"), ("b", "red")], 2)
    rule = parse_rule("p(X,red) -> Q(X)", "r")
    existing = df_from_facts(spark, [("a",)], 1)
    out = prefilter_source(src, rule.body[0], rule, existing)
    assert [tuple(r) for r in out.collect()] == [("b", "red")]


def test_prefilter_repeated_head_variable(spark, monkeypatch):
    """A head that repeats a variable keeps one witness column for it, so
    the anti-join names each column once."""
    witnesses = []

    def spy(*args):
        witnesses.append(head_witness(*args))
        return witnesses[-1]

    monkeypatch.setattr(rule_exec, "head_witness", spy)
    src = df_from_facts(spark, [("a", "b"), ("c", "d")], 2)
    rule = parse_rule("e(X,Y) -> R(X,X,Y)", "r")
    existing = df_from_facts(spark, [("a", "a", "b"), ("c", "x", "d")], 3)
    out = prefilter_source(src, rule.body[0], rule, existing)
    assert [w.columns for w in witnesses] == [["v_X", "v_Y"]]
    assert [tuple(r) for r in out.collect()] == [("c", "d")]
