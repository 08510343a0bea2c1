"""Instance-independent TGs for linear programs (paper Section 5).

- ``pattern_facts`` builds H(P): one canonical fact per extensional
  predicate per *pattern* (set partition of argument positions), so that no
  two facts are pattern-isomorphic — the paper's key insight that
  pattern-isomorphic facts see identical linear-rule executions.
- ``tglinear`` is Algorithm 1: chase each ``{f}``, turn every chase-graph
  edge into a TG node, and connect consecutive rule executions.
- ``eval_tg_small`` is Definition 5 on driver-side instances (used by the
  minimizer and by tests; the distributed evaluation lives in
  ``tg_exec.py``).
- ``min_linear`` is Definition 14: exhaustively remove nodes dominated via
  *preserving homomorphisms* (Def. 12), checked on H(P) only (Lemma 13).
"""
from __future__ import annotations

from .chase_small import chase, instantiate_head
from .eg import EG, EGNode
from .rules import Program
from .terms import is_null
from .unify import Fact, fact_homomorphism, homomorphisms


def set_partitions(n: int):
    """All set partitions of range(n) as position->block-index tuples
    (restricted growth strings)."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], nmax: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for b in range(nmax + 2):
            grow(prefix + [b], max(nmax, b))

    grow([], -1)
    return out


def pattern_facts(program: Program) -> list[Fact]:
    """H(P): canonical, pairwise non-pattern-isomorphic EDB facts.  The
    constants ``⊥i`` are reserved and never occur in rules or data."""
    facts: list[Fact] = []
    for pred in sorted(program.edb):
        n = program.arities[pred]
        for pat in set_partitions(n) if n else [()]:
            facts.append((pred, tuple(f"⊥{b}" for b in pat)))
    return facts


def tglinear(program: Program, *, variant: str = "restricted", max_rounds: int = 200) -> EG:
    """Algorithm 1: one TG node per chase-graph edge observed while chasing
    each canonical fact, with node u -> node v when v's source fact is u's
    derived fact."""
    if not program.is_linear:
        raise ValueError("tglinear requires a linear program")
    g = EG()
    for f in pattern_facts(program):
        result = chase(program, {f}, variant=variant, max_rounds=max_rounds)
        by_fact: dict[Fact, EGNode] = {}
        # chase edges are produced in round order, so parents exist first
        for e in result.edges:
            src = e.src[0]
            parents = {0: [by_fact[src]]} if src in by_fact else {}
            node = g.add(e.rule, parents)
            # first derivation of a fact wins as "the" producer (restricted
            # chase never rederives an existing fact)
            by_fact.setdefault(e.derived, node)
    return g


def eval_tg_small(g: EG, base: set[Fact]) -> dict[EGNode, set[Fact]]:
    """Definition 5 on a driver-side instance: v(B) for every node, with a
    fresh labelled null per (node, trigger, existential variable)."""
    inst: dict[EGNode, set[Fact]] = {}
    g.recompute_depths()
    for node in sorted(g.nodes, key=lambda n: n.depth):
        rule = node.rule
        source: set[Fact] = base if not node.parents else set().union(
            *(inst[p] for p in node.parents.get(0, []))
        )
        inst[node] = {
            instantiate_head(rule, h, "null")
            for h in homomorphisms(rule.body, source)
        }
    return inst


def _ancestor_nulls(node: EGNode, inst: dict[EGNode, set[Fact]]) -> frozenset[str]:
    nulls = set()
    for a in node.ancestors():
        for _, args in inst.get(a, ()):  # nulls introduced upstream of node
            nulls.update(t for t in args if is_null(t))
    return frozenset(nulls)


def dominated(
    u: EGNode, v: EGNode, insts: list[dict[EGNode, set[Fact]]]
) -> bool:
    """u is dominated by v: for every canonical fact, a preserving
    homomorphism maps u({f}) into v({f}) (Def. 12 + Lemma 13)."""
    for inst in insts:
        fixed = _ancestor_nulls(u, inst)
        if fact_homomorphism(inst[u], inst[v], fixed=fixed) is None:
            return False
    return True


def _profile(node: EGNode, insts) -> tuple:
    """Canonical signature of a node's instances across H(P): nulls are
    replaced by first-occurrence indices, so two nodes with identical
    profiles (same rule chain from different canonical facts) are mutually
    dominating and can be merged cheaply."""
    sig = []
    for inst in insts:
        ren: dict[str, int] = {}
        facts = []
        for p, args in sorted(inst[node]):
            facts.append(
                (p, tuple(
                    f"*{ren.setdefault(t, len(ren))}" if is_null(t) else t
                    for t in args
                ))
            )
        sig.append((node.rule.rid, tuple(facts)))
    return tuple(sig)


def _merge_duplicates(g: EG, insts) -> bool:
    """Collapse nodes with identical profiles (same rule + instance
    pattern) — the bulk of Algorithm 1's cross-Γ redundancy — before the
    quadratic dominance search."""
    by_profile: dict[tuple, EGNode] = {}
    removed = False
    for u in list(g.nodes):
        key = _profile(u, insts)
        v = by_profile.setdefault(key, u)
        if v is u or u in v.ancestors():
            continue
        for child in g.nodes:
            for j, ps in child.parents.items():
                child.parents[j] = [v if p is u else p for p in ps]
        g.remove(u)
        removed = True
    return removed


def min_linear(g: EG, program: Program) -> EG:
    """Definition 14: exhaustively remove dominated nodes, redirecting the
    removed node's children to the dominating node.  Redirections that
    would create a cycle (v below u) are skipped."""
    hp = pattern_facts(program)
    insts = [eval_tg_small(g, {f}) for f in hp]
    while _merge_duplicates(g, insts):
        insts = [eval_tg_small(g, {f}) for f in hp]
    changed = True
    while changed:
        changed = False
        insts = [eval_tg_small(g, {f}) for f in hp]
        for u in list(g.nodes):
            for v in g.nodes:
                if u is v or u.rule.head.pred != v.rule.head.pred:
                    continue
                if u in v.ancestors():  # avoid creating cycles on redirect
                    continue
                if dominated(u, v, insts):
                    for child in g.nodes:
                        for j, ps in child.parents.items():
                            child.parents[j] = [v if p is u else p for p in ps]
                    g.remove(u)
                    changed = True
                    break
            if changed:
                break
    g.recompute_depths()
    return g
