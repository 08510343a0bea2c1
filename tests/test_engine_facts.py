"""FactStore substrate tests."""
import pandas as pd
import pytest

from repro.engine.facts import (
    FactStore,
    df_from_facts,
    df_from_pandas,
    distinct_new,
    empty_df,
    fact_cols,
    fact_schema,
)


def test_fact_cols_and_schema():
    assert fact_cols(3) == ["a0", "a1", "a2"]
    assert [f.name for f in fact_schema(2).fields] == ["a0", "a1"]


def test_empty_df(spark):
    df = empty_df(spark, 2)
    assert df.columns == ["a0", "a1"] and df.count() == 0


def test_df_from_facts_casts_to_string(spark):
    df = df_from_facts(spark, [(1, "x"), (2, "y")], 2)
    rows = {tuple(r) for r in df.collect()}
    assert rows == {("1", "x"), ("2", "y")}


def test_df_from_pandas(spark):
    pdf = pd.DataFrame({"k": [1, 2], "v": ["a", "b"]})
    df = df_from_pandas(spark, pdf)
    assert df.columns == ["a0", "a1"] and df.count() == 2


def test_store_from_facts_roundtrip(spark):
    facts = {("p", ("a", "b")), ("q", ("c",))}
    store = FactStore.from_facts(spark, facts)
    assert store.to_fact_set() == facts


def test_store_unknown_pred_raises(spark):
    store = FactStore(spark)
    with pytest.raises(KeyError):
        store.df("nope")


def test_store_registered_arity_gives_empty(spark):
    store = FactStore(spark, {"p": 2})
    assert not store.has("p")
    assert store.df("p").count() == 0


def test_store_add_unions(spark):
    store = FactStore.from_facts(spark, [("p", ("a", "b"))])
    store.add("p", df_from_facts(spark, [("c", "d")], 2))
    assert store.df("p").count() == 2


def test_store_copy_is_shallow_snapshot(spark):
    store = FactStore.from_facts(spark, [("p", ("a", "b"))])
    snap = store.copy()
    store.add("p", df_from_facts(spark, [("c", "d")], 2))
    assert snap.df("p").count() == 1 and store.df("p").count() == 2


def test_register_arities_clash(spark):
    store = FactStore.from_facts(spark, [("p", ("a", "b"))])
    with pytest.raises(ValueError):
        store.register_arities({"p": 3})


def test_distinct_new(spark):
    existing = df_from_facts(spark, [("a", "b")], 2)
    delta = df_from_facts(spark, [("a", "b"), ("c", "d"), ("c", "d")], 2)
    out = distinct_new(delta, existing)
    assert [tuple(r) for r in out.collect()] == [("c", "d")]

