"""Execution Graphs (paper Definition 4).

An EG is an acyclic digraph whose nodes carry rules and whose edges carry
the body-atom position they feed.  Two concrete flavours exist in this
reproduction:

- linear TGs from ``tglinear`` — each node has at most one parent
  (position 1), built instance-independently;
- instance-dependent TGs built by ``TGmat`` — each intensional body
  position is fed by a *group* of parents (the k-compatible node
  combinations of Def. 9 collapsed by predicate×age, see DESIGN.md §3).

Both flavours share this node/edge bookkeeping so Tables 2–4 can report
#N (nodes), #E (edges) and D (depth) uniformly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .rules import Rule


@dataclass(eq=False)
class EGNode:
    """A node labelled with a rule; ``parents[j]`` lists the nodes feeding
    the j-th body atom (0-based; empty for extensional atoms).  Nodes hash
    and compare by identity."""

    nid: int
    rule: Rule
    parents: dict[int, list["EGNode"]] = field(default_factory=dict)
    depth: int = 0

    def ancestors(self) -> set["EGNode"]:
        seen: set[EGNode] = set()
        stack = [p for ps in self.parents.values() for p in ps]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(p for ps in n.parents.values() for p in ps)
        return seen


@dataclass
class EG:
    """An execution graph; ``nodes`` is insertion-ordered (roots first)."""

    nodes: list[EGNode] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    def add(self, rule: Rule, parents: dict[int, list[EGNode]] | None = None) -> EGNode:
        parents = parents or {}
        depth = 1 + max(
            (p.depth for ps in parents.values() for p in ps), default=-1
        )
        node = EGNode(nid=next(self._ids), rule=rule, parents=parents, depth=depth)
        self.nodes.append(node)
        return node

    def remove(self, node: EGNode) -> None:
        self.nodes.remove(node)

    # -- size reporting (Tables 2-4: #N, #E, D) -------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(len(ps) for n in self.nodes for ps in n.parents.values())

    @property
    def graph_depth(self) -> int:
        return max((n.depth for n in self.nodes), default=0)

    def sizes(self) -> tuple[int, int, int]:
        return self.n_nodes, self.n_edges, self.graph_depth

    def recompute_depths(self) -> None:
        """Recompute node depths by memoized DFS (valid after node removal
        or edge redirection; the graph is acyclic by construction)."""
        memo: dict[int, int] = {}

        def depth(n: EGNode) -> int:
            if n.nid not in memo:
                memo[n.nid] = 1 + max(
                    (depth(p) for ps in n.parents.values() for p in ps),
                    default=-1,
                )
            return memo[n.nid]

        for n in self.nodes:
            n.depth = depth(n)
