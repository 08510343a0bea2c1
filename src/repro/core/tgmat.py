"""TGmat (paper Algorithm 2): instance-dependent TG construction
interleaved with distributed evaluation.

TGmat is a policy over the shared round loop
(:func:`repro.engine.fixpoint.fixpoint`): each round k it plans the
level-k slice of the full EG Φ_P^k (Section 4), one node per (rule, pivot
position) whose delta source is non-empty, with the k-compatible parent
combinations of Def. 9 collapsed into per-position parent *groups*
(DESIGN.md §3):

- positions left of the pivot read the full instance (nodes of depth < k),
- the pivot reads the round-(k-1) delta (nodes of depth k-1),
- positions right of the pivot read the older instance (depth < k-1),

a disjoint decomposition — every instantiation involving at least one new
fact is enumerated exactly once.  This partitioning *is* the TG advantage
over the chase baselines, which either re-enumerate the full instance
(naive) or enumerate overlapping delta combinations (semi-naive).

Optimizations (paper Section 6), applied while planning:
- ``use_min`` — minDatalog (Def. 19): a candidate node whose EG-rewriting
  is contained in a kept node's rewriting is dropped before evaluation;
- ``use_ruleexec`` — ruleExec (Def. 23, m=1): a covering body atom is
  anti-joined against the already-derived head facts before the body join.

Unlike the semi-naive chase, redundancy is filtered only once per round,
by the loop's single n-way union + anti-join per predicate (paper §7.2 C1).
Existential rules are supported with the restricted-chase criterion (used
for ChaseBench); the optimizations auto-skip them, as in the paper.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from ..engine.facts import FactStore
from ..engine.fixpoint import EngineStats, fixpoint
from ..engine.rule_exec import covering_atom, prefilter_source
from .eg import EG, EGNode
from .rewrite import eg_rewriting, find_dominating
from .rules import Program


@dataclass
class TGmatResult:
    store: FactStore
    stats: EngineStats
    eg: EG


def tgmat(
    spark: SparkSession,
    program: Program,
    base: FactStore,
    *,
    use_min: bool = True,
    use_ruleexec: bool = True,
    count_triggers: bool = False,
    max_rounds: int = 100,
) -> TGmatResult:
    g = EG()
    nodes_by_pred: dict[str, list[EGNode]] = {}
    rewritings: dict[int, list] = {}
    kept: list[EGNode] = []
    min_cost = 0.0
    ruleexec_applications = 0
    # adaptive caps: on wide programs the planning budget per node shrinks
    # so opt cost stays a small runtime fraction (paper Table 8b) — capped
    # nodes are kept, never dropped
    caps = dict(max_disjuncts=8, max_atoms=8) if len(program.rules) > 60 else {}
    # F (store) = old ∪ delta: old holds the facts of depth < k-1, i.e. F
    # as round k-1 saw it, which ``seen`` kept.  EDB predicates never
    # change after round 0.
    seen: dict[str, object] = {}

    def parent_group(pred: str, max_depth: int) -> list[EGNode]:
        return [n for n in nodes_by_pred.get(pred, []) if n.depth <= max_depth]

    def plan(k, store, delta):
        nonlocal seen, min_cost, ruleexec_applications
        old, seen = seen, {p: store.df(p) for p in program.arities}
        # ---- this round's candidate nodes -------------------------------
        candidates: list[tuple[EGNode, list]] = []  # (node, sources)
        for rule in program:
            idbs = [i for i, a in enumerate(rule.body) if a.pred in program.idb]
            if k == 1:
                if not idbs:  # rules over intensional facts first fire later
                    node = g.add(rule, {})
                    candidates.append((node, [store.df(a.pred) for a in rule.body]))
                continue
            for i in idbs:
                if rule.body[i].pred not in delta:
                    continue
                parents = {}
                sources = []
                for j, a in enumerate(rule.body):
                    if j not in idbs:
                        sources.append(store.df(a.pred))
                    elif j < i:
                        parents[j] = parent_group(a.pred, k - 2)
                        sources.append(store.df(a.pred))
                    elif j == i:
                        parents[j] = [
                            n for n in nodes_by_pred.get(a.pred, []) if n.depth == k - 2
                        ]
                        sources.append(delta[a.pred])
                    else:
                        parents[j] = parent_group(a.pred, k - 3)
                        sources.append(old[a.pred])
                candidates.append((g.add(rule, parents), sources))

        # ---- minDatalog: drop candidates dominated by kept nodes --------
        accepted: list[tuple[EGNode, list]] = []
        for node, sources in candidates:
            if use_min and not node.rule.is_existential:
                tm = time.perf_counter()
                rewritings[node.nid] = eg_rewriting(node, **caps)
                dominator = find_dominating(node, kept, rewritings)
                min_cost += time.perf_counter() - tm
                if dominator is not None:
                    g.remove(node)
                    continue
            kept.append(node)
            nodes_by_pred.setdefault(node.rule.head.pred, []).append(node)
            accepted.append((node, sources))

        # ---- ruleExec pre-filter, then hand the nodes to the loop -------
        for node, sources in accepted:
            rule = node.rule
            if (
                use_ruleexec
                and not rule.is_existential
                and (ci := covering_atom(rule)) is not None
            ):
                sources = list(sources)
                sources[ci] = prefilter_source(
                    sources[ci], rule.body[ci], rule, store.df(rule.head.pred)
                )
                ruleexec_applications += 1
            yield rule, sources, f"{k}_n{node.nid}"

    store, stats = fixpoint(
        "tgmat", spark, program, base, plan, existentials="restricted",
        count_triggers=count_triggers, max_rounds=max_rounds,
    )
    stats.tg_nodes, stats.tg_edges, stats.tg_depth = g.sizes()
    stats.opt_cost_s = {
        "minDatalog_s": round(min_cost, 4),
        "ruleExec_applications": ruleexec_applications,
    }
    return TGmatResult(store, stats, g)
