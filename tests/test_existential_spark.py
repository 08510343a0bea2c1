"""Existential rules on the distributed path: restricted vs skolem chase
vs TGmat-with-existentials must agree on null-free facts and be
homomorphically equivalent on small instances (ChaseBench code path)."""
import pytest

from repro.core.chase_small import chase
from repro.core.rules import parse_program
from repro.core.terms import is_null
from repro.core.tgmat import tgmat
from repro.core.unify import instances_equivalent
from repro.engine.chase import naive_chase, seminaive_chase
from repro.engine.facts import FactStore

from tests.helpers import repartitioned

CASES = {
    "invent_join": (
        """
        s(N,A) -> P(N,Z)
        P(N,I), s(N,A) -> Addr(I,A)
        """,
        [("s", ("n1", "a1")), ("s", ("n2", "a2"))],
    ),
    "blocked_invention": (
        """
        n(X) -> E(X,Z)
        m(X,Y) -> E(X,Y)
        E(X,Y) -> D(X)
        """,
        [("n", ("a",)), ("m", ("a", "w")), ("n", ("b",))],
    ),
    "recursive_weakly_acyclic": (
        """
        s(X,Y) -> R(X,Y)
        R(X,Y), R(Y,Z) -> R(X,Z)
        R(X,Y) -> Tag(X,W)
        """,
        [("s", ("a", "b")), ("s", ("b", "c"))],
    ),
    "blocked_by_pattern": (
        """
        m(X,Y,Z) -> R(X,Y,Z)
        R(X,Y,Z) -> A(X)
        A(X) -> R(X,W,W)
        A(X) -> R(X,k,W)
        """,
        [("m", ("1", "b", "c")), ("m", ("2", "d", "d")), ("m", ("3", "k", "e"))],
    ),
}


def null_free(facts):
    return {f for f in facts if not any(is_null(t) for t in f[1])}


@pytest.fixture(scope="module")
def runs(spark):
    out = {}
    for name, (text, base) in sorted(CASES.items()):
        p = parse_program(text)
        store = FactStore.from_facts(spark, base)
        store.register_arities(p.arities)
        sn, _ = seminaive_chase(spark, p, store)
        nv, _ = naive_chase(spark, p, store)
        tg = tgmat(spark, p, store, use_min=False, use_ruleexec=False)
        ref = chase(p, set(base))
        out[name] = (p, ref, sn.to_fact_set(p.idb), nv.to_fact_set(p.idb),
                     tg.store.to_fact_set(p.idb))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_null_free_agree_restricted_vs_skolem(runs, name):
    _, ref, sn, nv, tg = runs[name]
    assert null_free(sn) == null_free(nv) == null_free(tg)


@pytest.mark.parametrize("name", sorted(CASES))
def test_homomorphic_equivalence_to_reference(runs, name):
    p, ref, sn, nv, tg = runs[name]
    ref_idb = {f for f in ref.facts if f[0] in p.idb}
    base = {f for f in ref.facts if f[0] in p.edb}
    assert instances_equivalent(sn | base, ref_idb | base)
    assert instances_equivalent(tg | base, ref_idb | base)


@pytest.mark.parametrize("name", sorted(CASES))
def test_skolem_chase_equivalent_too(runs, name):
    p, ref, _, nv, _ = runs[name]
    ref_idb = {f for f in ref.facts if f[0] in p.idb}
    base = {f for f in ref.facts if f[0] in p.edb}
    assert instances_equivalent(nv | base, ref_idb | base)


@pytest.mark.parametrize("name", sorted(CASES))
def test_skolem_chase_same_facts_as_driver(runs, name):
    # one recipe names skolem terms on Spark and on the driver
    p, _, _, nv, _ = runs[name]
    ref = chase(p, set(CASES[name][1]), variant="skolem")
    assert nv == {f for f in ref.facts if f[0] in p.idb}


def test_tgmat_independent_of_partitioning(spark):
    # same base in 1 and in 3 partitions: same facts, null names included
    text, base = CASES["invent_join"]
    p = parse_program(text)
    got = [
        tgmat(spark, p, repartitioned(spark, base, n, p), use_min=False,
              use_ruleexec=False).store.to_fact_set(p.idb)
        for n in (1, 3)
    ]
    assert got[0] == got[1] and any(is_null(t) for _, args in got[0] for t in args)


def test_restricted_blocks_invention_on_spark(runs):
    """The E(a,·) null must be blocked for the restricted engines when a
    concrete witness exists in the same KB (eventually: after dedup the
    only a-null that can survive is the round-1 race, same as the
    reference breadth-first chase)."""
    p, ref, sn, _, tg = runs["blocked_invention"]
    ref_nulls = {f for f in ref.facts if f[0] == "E" and any(is_null(t) for t in f[1])}
    sn_nulls = {f for f in sn if f[0] == "E" and any(is_null(t) for t in f[1])}
    assert len(sn_nulls) == len(ref_nulls) == 2  # a-race null + b's null


def test_restricted_check_repeated_existential_and_constant(runs):
    """R(2,d,d) satisfies the head R(X,W,W) for X=2 (repeated existential)
    and R(3,k,e) satisfies R(X,k,W) for X=3 (constant): every restricted
    engine invents nulls for exactly the four other triggers."""
    _, ref, sn, _, tg = runs["blocked_by_pattern"]

    def invented(facts):
        return {
            (pred, tuple("*" if is_null(t) else t for t in args))
            for pred, args in facts
            if any(is_null(t) for t in args)
        }

    want = {
        ("R", ("1", "*", "*")), ("R", ("3", "*", "*")),
        ("R", ("1", "k", "*")), ("R", ("2", "k", "*")),
    }
    assert invented(ref.facts) == invented(sn) == invented(tg) == want


@pytest.mark.parametrize("engine", [naive_chase, seminaive_chase, tgmat])
def test_max_rounds_names_engine_and_last_delta(spark, engine):
    """A non-terminating program fails loudly: the error names the engine
    and the last round's new facts per predicate."""
    p = parse_program("s(X) -> n(X)\nn(X) -> E(X,Z)\nE(X,Y) -> n(Y)")
    store = FactStore.from_facts(spark, [("s", ("a",))])
    store.register_arities(p.arities)
    with pytest.raises(RuntimeError) as err:
        engine(spark, p, store, max_rounds=3)
    msg = str(err.value)
    assert msg.startswith(f"{engine.__name__} hit max_rounds=3;")
    assert "{'n': 1}" in msg
