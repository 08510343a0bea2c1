"""Property-based tests (driver-side, fast): random linear programs and
instances satisfy Theorem 10 (tglinear + minLinear ≡ chase), minLinear
reaches a Definition 14 fixpoint, and random Datalog hierarchies satisfy
chase-variant agreement."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chase_small import chase
from repro.core.rules import Program, mk_rule
from repro.core.tg_linear import (
    dominated,
    eval_tg_small,
    min_linear,
    pattern_facts,
    tglinear,
)
from repro.core.unify import instances_equivalent

from tests.helpers import LINEAR_CASES, prog

settings.register_profile("repro", max_examples=25, deadline=None)
settings.load_profile("repro")


@st.composite
def linear_programs(draw):
    """Random FES linear programs: an acyclic layering of unary/binary
    predicates with copy/flip/project/existential rules."""
    n_layers = draw(st.integers(2, 4))
    rules = []
    rid = 0
    preds = [("e0", 2)]
    for layer in range(n_layers):
        new_preds = []
        for k in range(draw(st.integers(1, 2))):
            src, ar = draw(st.sampled_from(preds))
            kind = draw(st.sampled_from(["copy", "flip", "proj", "exist"]))
            dst = f"P{layer}_{k}"
            if ar == 1 or kind == "proj":
                body = [(src, ("X",) if ar == 1 else ("X", "Y"))]
                rules.append(mk_rule(body, (dst, ("X",)), f"r{rid}"))
                new_preds.append((dst, 1))
            elif kind == "flip":
                rules.append(
                    mk_rule([(src, ("X", "Y"))], (dst, ("Y", "X")), f"r{rid}")
                )
                new_preds.append((dst, 2))
            elif kind == "exist":
                rules.append(
                    mk_rule([(src, ("X", "Y"))], (dst, ("X", "Z")), f"r{rid}")
                )
                new_preds.append((dst, 2))
            else:
                rules.append(
                    mk_rule([(src, ("X", "Y"))], (dst, ("X", "Y")), f"r{rid}")
                )
                new_preds.append((dst, 2))
            rid += 1
        preds += new_preds
    return Program(rules)


@st.composite
def base_instances(draw):
    consts = ["a", "b", "c"]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(consts), st.sampled_from(consts)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return {("e0", p) for p in pairs}


def _tg_facts(g, base):
    out = set(base)
    for facts in eval_tg_small(g, set(base)).values():
        out |= facts
    return out


@given(linear_programs(), base_instances())
def test_tglinear_theorem10(program, base):
    g = tglinear(program)
    assert instances_equivalent(_tg_facts(g, base), chase(program, base).facts)


@given(linear_programs(), base_instances())
def test_minlinear_preserves_equivalence(program, base):
    g = min_linear(tglinear(program), program)
    assert instances_equivalent(_tg_facts(g, base), chase(program, base).facts)


def assert_min_linear_fixpoint(program):
    """Definition 14 holds after ``min_linear``: on fresh H(P) instances no
    kept node is dominated by a same-head peer it is not an ancestor of,
    and a second ``min_linear`` removes nothing."""
    g = min_linear(tglinear(program), program)
    insts = [eval_tg_small(g, {f}) for f in pattern_facts(program)]
    for u in g.nodes:
        for v in g.nodes:
            if v is u or v.rule.head.pred != u.rule.head.pred or u in v.ancestors():
                continue
            assert not dominated(u, v, insts), (u.nid, v.nid)
    kept = list(g.nodes)
    assert min_linear(g, program).nodes == kept


@given(linear_programs())
def test_minlinear_is_fixpoint(program):
    assert_min_linear_fixpoint(program)


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_minlinear_is_fixpoint_on_case(name):
    assert_min_linear_fixpoint(prog(LINEAR_CASES[name][0]))


@given(base_instances(), st.integers(0, 5))
def test_datalog_chase_variants_agree(base, salt):
    rules = [
        mk_rule([("e0", ("X", "Y"))], ("R", ("X", "Y")), "r0"),
        mk_rule([("R", ("X", "Y")), ("R", ("Y", "Z"))], ("R", ("X", "Z")), "r1"),
        mk_rule([("R", ("X", "X"))], ("Loop", ("X",)), "r2"),
    ]
    p = Program(rules)
    assert (
        chase(p, base, variant="restricted").facts
        == chase(p, base, variant="skolem").facts
    )
