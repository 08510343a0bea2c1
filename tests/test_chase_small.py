"""Driver-side chase reference implementation tests (paper Sections 2–3)."""
import re

import pytest

from repro.core.chase_small import chase
from repro.core.rules import parse_program
from repro.core.terms import is_null
from repro.core.unify import entails, instances_equivalent

from tests.helpers import DATALOG_CASES, P1_TEXT, TC_TEXT, prog


def idb_facts(program, facts):
    return {f for f in facts if f[0] in program.idb}


class TestExample1:
    """The paper's running example, Section 2."""

    def setup_method(self):
        self.p = prog(P1_TEXT)
        self.base = {("r", ("c1", "c2"))}

    def test_restricted_result(self):
        res = chase(self.p, self.base)
        ground = {f for f in res.facts if not any(is_null(t) for t in f[1])}
        assert ground == {
            ("r", ("c1", "c2")),
            ("R", ("c1", "c2")),
            ("T", ("c2", "c1", "c2")),
        }

    def test_restricted_one_null(self):
        res = chase(self.p, self.base)
        nulls = [f for f in res.facts if any(is_null(t) for t in f[1])]
        assert len(nulls) == 1 and nulls[0][0] == "T"  # T(c2,c1,n1) from r4

    def test_two_rounds(self):
        # round 1: r1, r4; round 2: r2; round 3 derives nothing new
        assert chase(self.p, self.base).rounds == 2

    def test_r3_blocked(self):
        # r3's derivation R(c1,c2) already exists — no chase edge for r3
        res = chase(self.p, self.base)
        assert all(e.rule.rid != "r2" or e.derived[0] == "R" for e in res.edges)
        assert {e.rule.rid for e in res.edges} == {"r0", "r1", "r3"}

    def test_skolem_variant_terminates_same_ground(self):
        r1 = chase(self.p, self.base, variant="restricted")
        r2 = chase(self.p, self.base, variant="skolem")
        g = lambda res: {
            f for f in res.facts if not any(is_null(t) for t in f[1])
        }
        assert g(r1) == g(r2)


@pytest.mark.parametrize("name", sorted(DATALOG_CASES))
def test_datalog_variants_agree(name):
    """For Datalog all chase variants coincide (paper Section 3)."""
    text, base = DATALOG_CASES[name]
    p = prog(text)
    base = set(base)
    res_r = chase(p, base, variant="restricted")
    res_s = chase(p, base, variant="skolem")
    assert res_r.facts == res_s.facts


def test_tc_chain_closure_size():
    p = prog(TC_TEXT)
    base = {("e", (f"n{i}", f"n{i+1}")) for i in range(5)}
    res = chase(p, base)
    assert len(idb_facts(p, res.facts)) == 5 * 6 // 2  # all pairs i<j


def test_tc_cycle_closure_complete():
    p = prog(TC_TEXT)
    base = {("e", (f"n{i}", f"n{(i + 1) % 3}")) for i in range(3)}
    res = chase(p, base)
    assert len(idb_facts(p, res.facts)) == 9


def test_chase_graph_edges_round_order():
    p = prog(TC_TEXT)
    res = chase(p, {("e", ("a", "b")), ("e", ("b", "c"))})
    assert all(e.round >= 1 for e in res.edges)
    assert any(e.rule.rid == "r1" and e.round == 2 for e in res.edges)


def test_trigger_count_counts_all_instantiations():
    p = prog("a(X) -> B(X)\nB(X) -> C(X)")
    res = chase(p, {("a", ("x",)), ("a", ("y",))})
    # round1: a-rule 2; round2: a 2 + B 2; round3: a 2 + B 2 + C? no C rule.
    assert res.triggers == 2 + 4 + 4


def test_nontermination_guard():
    p = parse_program("E(X,Z) -> E(Z,W)\na(X) -> E(X,Z)")
    with pytest.raises(RuntimeError):
        chase(p, {("a", ("s",))}, variant="skolem", max_rounds=10)


def test_restricted_blocks_with_existing_witness():
    p = parse_program("n(X) -> E(X,Z)\nm(X,Y) -> E(X,Y)")
    res = chase(p, {("n", ("a",)), ("m", ("a", "w"))})
    # E(a,w) exists in round 1; the null for n(a) is still created in the
    # same breadth-first round (checks run against the round-start KB)
    e_facts = {f for f in res.facts if f[0] == "E"}
    assert ("E", ("a", "w")) in e_facts and len(e_facts) == 2


def test_equivalent_results_restricted_vs_skolem_existential():
    p = parse_program("n(X) -> E(X,Z)\nE(X,Z) -> D(X)")
    base = {("n", ("a",)), ("n", ("b",))}
    r1, r2 = chase(p, base), chase(p, base, variant="skolem")
    assert instances_equivalent(r1.facts, r2.facts)
    assert entails(r1.facts, {("D", ("a",)), ("D", ("b",))})


def test_restricted_nulls_name_their_trigger():
    # same input, same facts, null names included, however often it runs
    p = parse_program("n(X) -> E(X,Z)\nE(X,Y), m(Y,W) -> G(X,W)\nE(X,Y) -> F(Y,V)")
    base = {("n", ("a",)), ("n", ("b",)), ("m", ("c", "d"))}
    r1, r2 = chase(p, base), chase(p, base)
    assert r1.facts == r2.facts
    assert len({t for _, args in r1.facts for t in args if is_null(t)}) == 4


@pytest.mark.parametrize("variant", ["restrictd", "null", "datalog", ""])
def test_unknown_variant_rejected(variant):
    p = parse_program("n(X) -> E(X,Z)")
    with pytest.raises(ValueError, match=re.escape(repr(variant))):
        chase(p, {("n", ("a",))}, variant=variant)


def test_empty_base():
    p = prog(TC_TEXT)
    res = chase(p, set())
    assert res.facts == set() and res.rounds == 0


def test_base_preserved():
    p = prog(TC_TEXT)
    base = {("e", ("a", "b"))}
    assert base <= chase(p, base).facts
