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
- ``min_linear`` is Definition 14: remove nodes dominated via *preserving
  homomorphisms* (Def. 12), checked on H(P) only (Lemma 13), in sweeps
  that each evaluate H(P) once, visit the nodes in reverse insertion order
  and skip the nodes below a removal (*stale*) until the next sweep.
"""
from __future__ import annotations

from .chase_small import chase, instantiate_head
from .eg import EG, EGNode
from .rules import Program
from .terms import is_null, is_var
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


def tglinear(program: Program) -> EG:
    """Algorithm 1: one TG node per chase-graph edge observed while chasing
    each canonical fact, with node u -> node v when v's source fact is u's
    derived fact."""
    if not program.is_linear:
        raise ValueError("tglinear requires a linear program")
    # H(P) holds only the reserved ``⊥i``, so a body constant never matches
    for r in program:
        if not all(is_var(t) for a in r.body for t in a.args):
            raise ValueError(
                f"tglinear requires rule bodies without constants: {r.rid} is {r}"
            )
    g = EG()
    for f in pattern_facts(program):
        result = chase(program, {f})
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
    labelled null per (node, trigger, existential variable), named as
    ``eval_tg_spark`` names it.  Reads the node depths as they are:
    ``EG.add`` sets them, and code that rewires edges recomputes them."""
    inst: dict[EGNode, set[Fact]] = {}
    for node in sorted(g.nodes, key=lambda n: n.depth):
        rule = node.rule
        source: set[Fact] = base if not node.parents else set().union(
            *(inst[p] for p in node.parents.get(0, []))
        )
        inst[node] = {
            instantiate_head(rule, h, f"tg_n{node.nid}")
            for h in homomorphisms(rule.body, source)
        }
    return inst


def dominated(
    u: EGNode, v: EGNode, insts: list[dict[EGNode, set[Fact]]]
) -> bool:
    """u is dominated by v: for every canonical fact, a preserving
    homomorphism maps u({f}) into v({f}) (Def. 12 + Lemma 13).  Nulls
    introduced upstream of u must map to themselves; an empty u({f}) maps
    trivially."""
    ancestors = u.ancestors()
    for inst in insts:
        if not inst[u]:
            continue
        fixed = frozenset(
            t for a in ancestors for _, args in inst[a] for t in args if is_null(t)
        )
        if fact_homomorphism(inst[u], inst[v], fixed=fixed) is None:
            return False
    return True


def min_linear(g: EG, program: Program) -> EG:
    """Definition 14: remove every node dominated by a same-head peer,
    redirecting its children to the dominating node, in sweeps until one
    removes nothing.

    A sweep evaluates H(P) once and visits the nodes in reverse insertion
    order.  It removes ``u`` when the first peer ``v`` with ``u`` not among
    ``v``'s ancestors (so the redirect makes no cycle) dominates it.  The
    descendants of ``u`` are then *stale*: their instances changed, so the
    sweep skips them, as ``u`` and as ``v``, and the next sweep
    re-evaluates them.  Algorithm 1 adds each node after its parent, so in
    reverse order a node's descendants come first: a removal stales nodes
    the sweep has already visited rather than the ones still to come, and
    of twin chains the one built last goes."""
    hp = pattern_facts(program)
    while True:
        g.recompute_depths()
        insts = [eval_tg_small(g, {f}) for f in hp]
        anc = {n: n.ancestors() for n in g.nodes}
        peers: dict[str, list[EGNode]] = {}
        for n in g.nodes:
            peers.setdefault(n.rule.head.pred, []).append(n)
        # removed, or below a removed node; any other node keeps the
        # ancestors and instances it had when the sweep began
        stale: set[EGNode] = set()
        for u in g.nodes[::-1]:
            if u in stale:
                continue
            v = next(
                (v for v in peers[u.rule.head.pred]
                 if v is not u and v not in stale and u not in anc[v]
                 and dominated(u, v, insts)),
                None,
            )
            if v is None:
                continue
            stale.update(n for n in g.nodes if n is u or u in anc[n])
            for child in g.nodes:
                for j, ps in child.parents.items():
                    child.parents[j] = [v if p is u else p for p in ps]
            g.remove(u)
        if not stale:
            return g
