"""Driver-side chase over tiny instances (paper Section 3).

This is the reference implementation the distributed engines are tested
against, and the substrate of Algorithm 1 (``tglinear`` chases each
canonical fact of H(P) and reads off the chase graph).  Variants:

- ``restricted``: a trigger fires only if no extension of it maps the head
  into the current instance (the VLog default);
- ``skolem``: existentials become deterministic skolem terms, facts are
  added under set semantics (the RDFox/COM default);
- for Datalog programs all variants coincide (paper Section 3).

Each round indexes the instance once; the round's triggers and the
restricted check (the head matched with the trigger's frontier bound) are
both searches of ``unify.match`` over that index.

Instances here are Python sets of ``(pred, args)`` tuples — never use this
on real data; the Spark engines live in ``repro.engine``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .rules import Program, Rule
from .terms import is_var, labelled_null, skolem
from .unify import Fact, fact_index, match


@dataclass
class ChaseEdge:
    """chaseGraph edge: ``src_facts -> (rule) -> derived`` (paper Sec. 3)."""

    src: tuple[Fact, ...]
    rule: Rule
    derived: Fact
    round: int


@dataclass
class ChaseResult:
    facts: set[Fact]
    rounds: int
    edges: list[ChaseEdge] = field(default_factory=list)
    triggers: int = 0


def instantiate_head(rule: Rule, h: dict[str, str], null_tag: str | None) -> Fact:
    """h_s(head(r)): extend the trigger with a skolem term (``null_tag``
    None) or the trigger's labelled null under ``null_tag`` for each
    existential variable."""
    ext = dict(h)
    for z in rule.existentials:
        ext[z] = (
            skolem(rule.rid, z, tuple(h[v] for v in rule.frontier))
            if null_tag is None
            else labelled_null(null_tag, z, tuple(h[v] for v in rule.body_vars))
        )
    return (rule.head.pred, tuple(ext.get(t, t) for t in rule.head.args))


def chase(
    program: Program,
    base: set[Fact],
    *,
    variant: str = "restricted",
    max_rounds: int = 200,
) -> ChaseResult:
    """Breadth-first chase: each round executes every rule over the current
    instance (the paper's round semantics, with SNE-free trigger counting).
    A restricted trigger fires at most once, so its nulls are tagged by
    the rule alone.  Raises if ``max_rounds`` is hit (non-terminating /
    non-FES input)."""
    if variant not in ("restricted", "skolem"):
        raise ValueError(f"unknown chase variant {variant!r} (restricted, skolem)")
    facts: set[Fact] = set(base)
    edges: list[ChaseEdge] = []
    triggers = 0
    for rnd in range(1, max_rounds + 1):
        new: set[Fact] = set()
        idx = fact_index(facts)
        for rule in program:
            null_tag = None if variant == "skolem" else rule.rid
            head = [(rule.head.pred, rule.head.args)]
            body = [(a.pred, a.args) for a in rule.body]
            for h in match(body, idx, {}, is_var):
                triggers += 1
                if variant == "restricted":
                    frontier = {v: h[v] for v in rule.frontier}
                    if next(match(head, idx, frontier, is_var), None) is not None:
                        continue
                derived = instantiate_head(rule, h, null_tag)
                if derived in facts or derived in new:
                    continue
                src = tuple(
                    (a.pred, tuple(h.get(t, t) for t in a.args)) for a in rule.body
                )
                edges.append(ChaseEdge(src, rule, derived, rnd))
                new.add(derived)
        if not new:
            return ChaseResult(facts, rnd - 1, edges, triggers)
        facts |= new
    raise RuntimeError(f"chase did not terminate within {max_rounds} rounds")
