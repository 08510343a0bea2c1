"""Instance-independent TGs for linear programs (paper Section 5):
Algorithm 1, preserving-homomorphism minimization, and Theorem 10
(TG-guided reasoning ≡ chase) on driver-side instances."""
import pytest

from repro.core.chase_small import chase
from repro.core.tg_linear import (
    eval_tg_small,
    min_linear,
    pattern_facts,
    set_partitions,
    tglinear,
)
from repro.core.unify import instances_equivalent
from repro.harness.tables import linear_scenarios

from tests.helpers import LINEAR_CASES, P1_TEXT, prog


def tg_result(g, program, base):
    inst = eval_tg_small(g, set(base))
    out = set(base)
    for facts in inst.values():
        out |= facts
    return out


# ------------------------------------------------- H(P) / partitions

@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)])
def test_set_partitions_bell_numbers(n, count):
    parts = set_partitions(n)
    assert len(parts) == count == len(set(parts))


def test_pattern_facts_example1():
    p = prog(P1_TEXT)
    hp = pattern_facts(p)
    assert hp == [("r", ("⊥0", "⊥0")), ("r", ("⊥0", "⊥1"))]


def test_pattern_facts_multiple_preds():
    p = prog("a(X) -> B(X)\ne(X,Y) -> R(X,Y)")
    assert len(pattern_facts(p)) == 1 + 2


def test_pattern_facts_no_pattern_isomorphic_pair():
    p = prog("t(X,Y,Z) -> Q(X)")
    hp = pattern_facts(p)
    # 5 partitions of 3 positions, pairwise non-isomorphic
    assert len(hp) == 5 and len({f[1] for f in hp}) == 5


# ------------------------------------------------------ Example 1 / 16

class TestExample16:
    def setup_method(self):
        self.p = prog(P1_TEXT)

    def test_tglinear_is_figure_1b_per_fact(self):
        g = tglinear(self.p)
        # per canonical fact: nodes for r1, r4, r2 (paper names); r3 never
        rids = sorted(n.rule.rid for n in g.nodes)
        assert rids == ["r0", "r0", "r1", "r1", "r3", "r3"]

    def test_min_linear_is_figure_1c(self):
        g = min_linear(tglinear(self.p), self.p)
        # G2: r1 -> r2 chain only; the r4 node is dominated (Example 16)
        assert sorted(n.rule.rid for n in g.nodes) == ["r0", "r1"]
        assert g.sizes() == (2, 1, 1)

    def test_minimized_tg_answers_match_chase(self):
        g = min_linear(tglinear(self.p), self.p)
        base = {("r", ("c1", "c2"))}
        got = tg_result(g, self.p, base)
        want = chase(self.p, base).facts
        assert instances_equivalent(got, want)


# ------------------------------------------------------- Theorem 10

@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_tg_equivalent_to_chase(name):
    text, base = LINEAR_CASES[name]
    p = prog(text)
    g = tglinear(p)
    got = tg_result(g, p, set(base))
    want = chase(p, set(base)).facts
    assert instances_equivalent(got, want)


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_minimized_tg_equivalent_to_chase(name):
    text, base = LINEAR_CASES[name]
    p = prog(text)
    g = min_linear(tglinear(p), p)
    got = tg_result(g, p, set(base))
    want = chase(p, set(base)).facts
    assert instances_equivalent(got, want)


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_min_linear_never_grows(name):
    text, _ = LINEAR_CASES[name]
    p = prog(text)
    g = tglinear(p)
    before = g.n_nodes
    assert min_linear(g, p).n_nodes <= before


def test_chain_depth_matches_program_depth():
    p = prog(LINEAR_CASES["chain"][0])
    g = min_linear(tglinear(p), p)
    assert g.graph_depth == 3 and g.n_nodes == 4


def test_min_linear_sizes_on_linear_scenarios():
    """Table 2's TG columns (#N, #E, D) at ``test`` scale."""
    sizes = {
        sc.name: min_linear(tglinear(sc.program), sc.program).sizes()
        for sc in linear_scenarios("test")
    }
    assert sizes == {
        "LUBM-LI": (45, 20, 4),
        "UOBM-LI": (16, 4, 1),
        "DBpedia-LI": (518, 398, 5),
        "Claros-LI": (102, 99, 20),
        "Reactome-LI": (20, 12, 2),
    }


def test_duplicate_chains_merged():
    # two pattern facts for e/2 produce twin chains; minimization merges
    p = prog(LINEAR_CASES["flip"][0])
    g = min_linear(tglinear(p), p)
    assert g.n_nodes == 3


def test_min_linear_keeps_node_dominated_only_by_its_descendant():
    """The p(X,X) node dominates its parent p(X,Z), but redirecting the
    parent's children to its own child would make a cycle, so both stay."""
    p = prog("e(X,Y) -> p(X,Z)\np(X,Y) -> p(X,X)")
    g = min_linear(tglinear(p), p)
    assert g.sizes() == (2, 1, 1)
    base = {("e", ("a", "b"))}
    assert instances_equivalent(tg_result(g, p, base), chase(p, base).facts)


def test_eval_on_instance_independence():
    """An instance-independent TG works for *any* base instance."""
    p = prog(P1_TEXT)
    g = min_linear(tglinear(p), p)
    for base in [
        {("r", ("x", "y"))},
        {("r", ("q", "q"))},
        {("r", ("a", "b")), ("r", ("b", "a")), ("r", ("z", "z"))},
    ]:
        assert instances_equivalent(tg_result(g, p, base), chase(p, base).facts)


def test_tglinear_rejects_nonlinear():
    p = prog("e(X,Y) -> R(X,Y)\nR(X,Y), R(Y,Z) -> R(X,Z)")
    with pytest.raises(ValueError):
        tglinear(p)


def test_existential_tg_preserves_certain_facts():
    text, base = LINEAR_CASES["existential"]
    p = prog(text)
    g = min_linear(tglinear(p), p)
    got = tg_result(g, p, set(base))
    assert ("D", ("a",)) in got and ("D", ("b",)) in got
