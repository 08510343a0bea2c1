"""Definition 5 evaluation over Spark: the precomputed linear TG must
derive the same facts as the chase baselines, and the collective-cleaning
pass must remove exactly the redundant duplicates/nulls."""
import pytest

from repro.core.chase_small import chase
from repro.core.tg_exec import eval_tg_spark, subsume_nulls
from repro.core.tg_linear import min_linear, tglinear
from repro.core.terms import fresh_null, is_null
from repro.core.unify import homomorphisms, instances_equivalent
from repro.engine.facts import FactStore, df_from_facts

from tests.helpers import LINEAR_CASES, prog


def null_free(facts):
    return {f for f in facts if not any(is_null(t) for t in f[1])}


@pytest.fixture(scope="module")
def runs(spark):
    out = {}
    for name, (text, base) in sorted(LINEAR_CASES.items()):
        p = prog(text)
        g = min_linear(tglinear(p), p)
        store = FactStore.from_facts(spark, base)
        store.register_arities(p.arities)
        cleaned, st = eval_tg_spark(spark, g, p, store)
        ref = chase(p, set(base))
        out[name] = (p, g, ref, cleaned, st)
    return out


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_cleaned_equivalent_to_chase(runs, name):
    p, _, ref, cleaned, *_ = runs[name]
    got = cleaned.to_fact_set(p.idb) | {f for f in ref.facts if f[0] in p.edb}
    assert instances_equivalent(got, ref.facts)


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_null_free_facts_exact(runs, name):
    p, _, ref, cleaned, *_ = runs[name]
    assert null_free(cleaned.to_fact_set(p.idb)) == null_free(
        {f for f in ref.facts if f[0] in p.idb}
    )


def raw_node_rows(g, base) -> int:
    """Definition 5 under bag semantics on the driver: the rows of all node
    instances before cleaning, one per trigger of a linear rule."""
    rows = {}
    for node in sorted(g.nodes, key=lambda n: n.depth):
        rule, parents = node.rule, node.parents.get(0)
        src = [f for p in parents for f in rows[p]] if parents else base
        rows[node] = []
        for f in src:
            for h in homomorphisms(rule.body, [f]):
                args = [fresh_null() if t in rule.existentials else h.get(t, t)
                        for t in rule.head.args]
                rows[node].append((rule.head.pred, tuple(args)))
    return sum(len(r) for r in rows.values())


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_raw_mode_counts_all_node_rows(runs, name):
    # triggers are the raw node rows, materialized before cleaning
    _, g, *_, st = runs[name]
    assert st.triggers == raw_node_rows(g, LINEAR_CASES[name][1])
    assert st.triggers >= st.derived and 0 < st.clean_s < st.wall_s


def test_cleaning_removes_duplicates(runs):
    # 'chain': two base facts through a 4-rule chain, 2 rows per node and
    # nothing to clean.  'existential': E(a,n1), E(b,n2), E(a,w), then
    # D(a), D(b), D(a), 6 raw rows; cleaning drops the second D(a) and
    # E(a,n1), which E(a,w) subsumes.
    got = {name: (runs[name][-1].triggers, runs[name][-1].derived)
           for name in ("chain", "existential")}
    assert got == {"chain": (8, 8), "existential": (6, 4)}


def test_cleaning_removes_redundant_nulls(runs):
    # 'existential': n(a) creates E(a,null) but m(a,w) gives E(a,w); the
    # null fact for a is subsumed, b's null is not
    p, _, ref, cleaned, *_ = runs["existential"]
    e_facts = {f for f in cleaned.to_fact_set(p.idb) if f[0] == "E"}
    with_null = {f for f in e_facts if any(is_null(t) for t in f[1])}
    assert ("E", ("a", "w")) in e_facts
    assert len(with_null) == 1 and next(iter(with_null))[1][0] == "b"


def test_subsume_nulls_unit(spark):
    df = df_from_facts(
        spark,
        [("a", "w"), ("a", "_:n1"), ("b", "_:n2"), ("_:n3", "w")],
        2,
    )
    kept = {tuple(r) for r in subsume_nulls(df).collect()}
    assert kept == {("a", "w"), ("b", "_:n2")}


def test_subsume_nulls_all_ground(spark):
    df = df_from_facts(spark, [("a", "b"), ("c", "d")], 2)
    assert subsume_nulls(df).count() == 2


def test_subsume_nulls_all_null_column(spark):
    df = df_from_facts(spark, [("_:n1", "_:n2")], 2)
    assert subsume_nulls(df).count() == 1


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_tg_sizes_consistent(runs, name):
    _, g, *_ = runs[name]
    assert g.n_nodes >= 1 and g.graph_depth <= g.n_nodes
