"""End-to-end scenario integration: on tiny instances of every benchmark
scenario, the TG-guided engine and the chase baselines must agree."""
import pytest

from repro.bench_data.chasebench import ont256, stb128
from repro.bench_data.lubm import lubm
from repro.bench_data.ontologies import claros, dbpedia, reactome, uobm
from repro.bench_data.rdfs_data import lubm_triples, yago_lite
from repro.core.terms import is_null
from repro.core.tg_linear import min_linear, tglinear
from repro.core.tg_exec import eval_tg_spark
from repro.core.tgmat import tgmat
from repro.engine.chase import seminaive_chase
from repro.harness.runners import base_store


def null_free(facts):
    return {f for f in facts if not any(is_null(t) for t in f[1])}


DATALOG_SCENARIOS = {
    "lubm-l": lambda: lubm("L", 1),
    "lubm-le": lambda: lubm("LE", 1),
    "uobm-l": lambda: uobm("L", 2),
    "dbpedia-l": lambda: dbpedia("L", 400),
    "claros-l": lambda: claros("L", 60),
    "claros-le": lambda: claros("LE", 48),
    "rdfs-yago": lambda: yago_lite(150, depth=4),
    "rdfs-lubm": lambda: lubm_triples(1),
}


@pytest.mark.parametrize("name", sorted(DATALOG_SCENARIOS))
def test_tgmat_equals_seminaive_on_scenario(spark, name):
    sc = DATALOG_SCENARIOS[name]()
    base = base_store(spark, sc)
    s1, st1 = seminaive_chase(spark, sc.program, base)
    r = tgmat(spark, sc.program, base)
    assert r.store.to_fact_set(sc.program.idb) == s1.to_fact_set(sc.program.idb)
    assert r.stats.derived == st1.derived


LINEAR_SCENARIOS = {
    "lubm-li": lambda: lubm("LI", 1),
    "uobm-li": lambda: uobm("LI", 2),
    "dbpedia-li": lambda: dbpedia("LI", 300),
    "claros-li": lambda: claros("LI", 60),
    "reactome-li": lambda: reactome(15),
}


@pytest.mark.parametrize("name", sorted(LINEAR_SCENARIOS))
def test_linear_tg_equals_chase_on_scenario(spark, name):
    sc = LINEAR_SCENARIOS[name]()
    base = base_store(spark, sc)
    g = min_linear(tglinear(sc.program), sc.program)
    cleaned, _ = eval_tg_spark(spark, g, sc.program, base)
    ref, _ = seminaive_chase(spark, sc.program, base)
    assert null_free(cleaned.to_fact_set(sc.program.idb)) == null_free(
        ref.to_fact_set(sc.program.idb)
    )


EXISTENTIAL_SCENARIOS = {
    "stb128": lambda: stb128(30),
    "ont256": lambda: ont256(40),
}


@pytest.mark.parametrize("name", sorted(EXISTENTIAL_SCENARIOS))
def test_chasebench_engines_agree_null_free(spark, name):
    sc = EXISTENTIAL_SCENARIOS[name]()
    base = base_store(spark, sc)
    s1, _ = seminaive_chase(spark, sc.program, base)
    r = tgmat(spark, sc.program, base, use_min=False, use_ruleexec=False)
    assert null_free(s1.to_fact_set(sc.program.idb)) == null_free(
        r.store.to_fact_set(sc.program.idb)
    )


def test_rdfs_expected_inferences(spark):
    sc = lubm_triples(1)
    base = base_store(spark, sc)
    r = tgmat(spark, sc.program, base)
    facts = r.store.to_fact_set(["T"])
    # an undergrad is transitively typed Person via Undergrad ⊑ Student ⊑ Person
    some_ug = sc.tables["t"].query("a1 == 'type' and a2 == 'Undergrad'").iloc[0]["a0"]
    assert ("T", (some_ug, "type", "Person")) in facts
    # headOf ⊑ worksFor ⊑ memberOf property inheritance
    head = sc.tables["t"].query("a1 == 'headOf'").iloc[0]
    assert ("T", (head["a0"], "memberOf", head["a2"])) in facts
    # domain of memberOf types the head as Person
    assert ("T", (head["a0"], "type", "Person")) in facts
