"""Cross-engine equivalence on Datalog programs (paper Theorem 24 and the
fact that all chase variants coincide on Datalog): for every case, the
driver-side reference chase, both Spark chase baselines, and every TGmat
variant must produce exactly the same IDB facts."""
import duckdb
import pytest

from repro.core.chase_small import chase
from repro.core.tgmat import tgmat
from repro.engine.chase import naive_chase, seminaive_chase
from repro.engine.facts import FactStore

from tests.helpers import DATALOG_CASES, TC_TEXT, prog

ENGINES = ["seminaive", "naive", "glog-noopt", "glog-m", "glog-mr"]


@pytest.fixture(scope="module")
def results(spark):
    """Run every engine on every case once; tests assert over the cache."""
    out = {}
    for name, (text, base) in sorted(DATALOG_CASES.items()):
        p = prog(text)
        ref = chase(p, set(base))
        store = FactStore.from_facts(spark, base)
        store.register_arities(p.arities)
        runs = {}
        s, st = seminaive_chase(spark, p, store, count_triggers=True)
        runs["seminaive"] = (s.to_fact_set(p.idb), st)
        s, st = naive_chase(spark, p, store, count_triggers=True)
        runs["naive"] = (s.to_fact_set(p.idb), st)
        for eng, (m, r) in {
            "glog-noopt": (False, False),
            "glog-m": (True, False),
            "glog-mr": (True, True),
        }.items():
            res = tgmat(
                spark, p, store, use_min=m, use_ruleexec=r, count_triggers=True
            )
            runs[eng] = (res.store.to_fact_set(p.idb), res.stats)
        out[name] = (p, {f for f in ref.facts if f[0] in p.idb}, runs)
    return out


@pytest.mark.parametrize("name", sorted(DATALOG_CASES))
@pytest.mark.parametrize("engine", ENGINES)
def test_engine_matches_reference(results, name, engine):
    _, ref, runs = results[name]
    facts, _ = runs[engine]
    assert facts == ref


@pytest.mark.parametrize("name", sorted(DATALOG_CASES))
def test_trigger_ordering_naive_worst(results, name):
    """The naive chase re-enumerates the full instance every round — it
    never performs fewer trigger computations than semi-naive."""
    _, _, runs = results[name]
    assert runs["naive"][1].triggers >= runs["seminaive"][1].triggers


@pytest.mark.parametrize("name", sorted(DATALOG_CASES))
def test_trigger_ordering_tg_partitioning(results, name):
    """TG delta-partitioning (disjoint decomposition) never enumerates
    more triggers than the overlapping semi-naive expansion (paper C4)."""
    _, _, runs = results[name]
    assert runs["glog-noopt"][1].triggers <= runs["seminaive"][1].triggers


@pytest.mark.parametrize("name", sorted(DATALOG_CASES))
def test_minDatalog_never_increases_triggers(results, name):
    _, _, runs = results[name]
    assert runs["glog-m"][1].triggers <= runs["glog-noopt"][1].triggers


@pytest.mark.parametrize("name", sorted(DATALOG_CASES))
def test_tg_sizes_reported(results, name):
    _, _, runs = results[name]
    st = runs["glog-mr"][1]
    assert st.tg_nodes > 0 and st.tg_depth >= 0
    assert runs["glog-m"][1].tg_nodes <= runs["glog-noopt"][1].tg_nodes


def test_tc_against_duckdb_recursive_cte(spark, results):
    """Transitive closure checked against an independent SQL engine."""
    p, _, runs = results["tc_dag"]
    facts, _ = runs["glog-mr"]
    got = sorted(args for pred, args in facts if pred == "R")
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE e(s TEXT, t TEXT); INSERT INTO e VALUES "
        "('a','b'),('a','c'),('b','d'),('c','d'),('d','e')"
    )
    want = sorted(
        map(
            tuple,
            con.execute(
                """
        WITH RECURSIVE r(s, t) AS (
            SELECT s, t FROM e
            UNION SELECT r.s, e.t FROM r JOIN e ON r.t = e.s
        ) SELECT s, t FROM r
        """
            ).fetchall(),
        )
    )
    con.close()
    assert got == want


@pytest.mark.parametrize("name", ["tc_chain", "hierarchy"])
def test_rounds_match_reference(results, name):
    p, _, runs = results[name]
    ref = chase(p, set(DATALOG_CASES[name][1]))
    # breadth-first engines need the same number of productive rounds
    # (+1 terminating round with no derivation)
    assert runs["seminaive"][1].rounds in (ref.rounds, ref.rounds + 1)
    assert runs["glog-noopt"][1].rounds in (ref.rounds, ref.rounds + 1)


def test_trigger_counts_by_hand(spark):
    """TC over the chain a->b->c->d (e = ab, bc, cd), counted by hand.
    r1 = e(X,Y) -> R(X,Y); r2 = R(X,Y), R(Y,Z) -> R(X,Z).

    naive chase, every rule over the whole store each round:
      1: r1 3, r2 0 (R empty)                          new ab bc cd
      2: r1 3, r2 2 (ab.bc, bc.cd)                     new ac bd
      3: r1 3, r2 4 (ab.bc, ab.bd, bc.cd, ac.cd)       new ad
      4: r1 3, r2 4 (as in 3; ad joins nothing)        nothing new
      = 22
    semi-naive chase, pivot atom on the delta, the other on the full store
    (its per-rule dedup does not change the count):
      1: r1 3 (round 1 runs each rule once over EDB)
      2: Δ = ab bc cd: pivot 0 2, pivot 1 2
      3: Δ = ac bd: pivot 0 1 (ac.cd), pivot 1 1 (ab.bd)
      4: Δ = ad: 0
      = 9
    TGmat without optimizations, left of the pivot the full store, the
    pivot the delta, right of it the store before the previous round:
      1: r1 3
      2: Δ = ab bc cd: pivot 0 joins an empty R, 0; pivot 1 2
      3: Δ = ac bd: pivot 0 over ab bc cd 1 (ac.cd); pivot 1 1 (ab.bd)
      4: Δ = ad: 0
      = 7
    """
    p = prog(TC_TEXT)
    store = FactStore.from_facts(
        spark, [("e", ("a", "b")), ("e", ("b", "c")), ("e", ("c", "d"))]
    )
    store.register_arities(p.arities)
    got = {
        "naive": naive_chase(spark, p, store, count_triggers=True)[1].triggers,
        "seminaive": seminaive_chase(spark, p, store, count_triggers=True)[1].triggers,
        "glog-noopt": tgmat(
            spark, p, store, use_min=False, use_ruleexec=False, count_triggers=True
        ).stats.triggers,
    }
    assert got == {"naive": 22, "seminaive": 9, "glog-noopt": 7}
