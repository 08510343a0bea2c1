"""Unification, homomorphisms and conjunctive-query containment.

These run driver-side on *small* structures only: canonical single-fact
instances (Algorithm 1 / minLinear), EG-rewritings (minDatalog), and test
fixtures.  The distributed reasoning path never calls into this module.

One matcher, ``match``, is the only backtracking search over an instance
in ``repro.core``: triggers of a rule body (``homomorphisms``, the chase,
Definition 5), preserving homomorphisms between fact sets (Def. 12),
Chandra–Merlin containment (Def. 19) and the restricted chase's
satisfaction check all call it, differing only in which terms may bind.

Facts are ``(pred, (t1, ..., tn))`` tuples of ground strings.
A CQ is ``CQ(head_vars, body_atoms)``; a UCQ is a list of CQs.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .rules import Atom
from .terms import is_null, is_var

Fact = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class CQ:
    """Conjunctive query ``Q(head) <- body``; head entries are variables
    (or constants, which is allowed and treated positionally)."""

    head: tuple[str, ...]
    body: tuple[Atom, ...]

    def __str__(self) -> str:
        return f"Q({','.join(self.head)}) <- {' & '.join(map(str, self.body))}"


# ---------------------------------------------------------------- MGU

def mgu(a1: Atom, a2: Atom) -> dict[str, str] | None:
    """Most general unifier of two atoms (None if they do not unify).

    Ground non-variable terms unify only with themselves or variables.
    Returned as an idempotent substitution over variables.
    """
    if a1.pred != a2.pred or a1.arity != a2.arity:
        return None
    sub: dict[str, str] = {}

    def walk(t: str) -> str:
        while is_var(t) and t in sub:
            t = sub[t]
        return t

    for s, t in zip(a1.args, a2.args):
        s, t = walk(s), walk(t)
        if s == t:
            continue
        if is_var(s):
            sub[s] = t
        elif is_var(t):
            sub[t] = s
        else:
            return None
    # resolve chains so the result is idempotent
    return {v: walk(v) for v in sub}


def apply_sub(atom: Atom, sub: dict[str, str]) -> Atom:
    return Atom(atom.pred, tuple(sub.get(a, a) for a in atom.args))


# ------------------------------------------------------------ matching

Index = dict[str, list[tuple[str, ...]]]


def fact_index(facts) -> Index:
    """Per-predicate index of a fact collection, in iteration order."""
    idx: Index = {}
    for p, args in facts:
        idx.setdefault(p, []).append(args)
    return idx


def match(
    patterns: list[tuple[str, tuple[str, ...]]],
    index: Index,
    binding: dict[str, str],
    movable: Callable[[str], bool],
) -> Iterator[dict[str, str]]:
    """Every extension of ``binding`` that maps each ``(pred, args)``
    pattern onto a fact of ``index``, found by backtracking in pattern
    order.  Terms for which ``movable`` holds bind (consistently); all
    others must equal the fact's term.  Yields a fresh dict per match."""
    return _extend(patterns, index, movable, 0, dict(binding))


def _extend(patterns, index, movable, i, sub):
    """``match`` from pattern ``i`` on; ``sub`` is never mutated, so each
    candidate fact extends a copy and no binding needs undoing."""
    if i == len(patterns):
        yield sub
        return
    pred, args = patterns[i]
    for tup in index.get(pred, ()):
        local: dict[str, str] = {}
        for t, g in zip(args, tup):
            if not movable(t):
                if t != g:
                    break
            elif (bound := sub.get(t, local.get(t))) is None:
                local[t] = g
            elif bound != g:
                break
        else:
            yield from _extend(patterns, index, movable, i + 1, sub | local)


def homomorphisms(
    atoms: tuple[Atom, ...],
    facts,
    seed: dict[str, str] | None = None,
) -> list[dict[str, str]]:
    """All substitutions of the atoms' variables into ground terms such
    that every instantiated atom is a fact — i.e. all triggers of a body
    in a small instance."""
    patterns = [(a.pred, a.args) for a in atoms]
    return list(match(patterns, fact_index(facts), seed or {}, is_var))


def fact_homomorphism(
    src: set[Fact], dst: set[Fact], fixed: frozenset[str] = frozenset()
) -> dict[str, str] | None:
    """A homomorphism from fact set ``src`` into ``dst``: constants map to
    themselves, nulls map to any ground term — except nulls in ``fixed``,
    which must map to themselves (paper Def. 12 "preserving").  Returns one
    witness mapping over the nulls of ``src``, or None."""

    def movable(t: str) -> bool:
        return is_null(t) and t not in fixed

    return next(match(sorted(src), fact_index(dst), {}, movable), None)


def instances_equivalent(a: set[Fact], b: set[Fact]) -> bool:
    """Logical equivalence of two fact sets (homomorphisms both ways)."""
    return (
        fact_homomorphism(a, b) is not None and fact_homomorphism(b, a) is not None
    )


def entails(a: set[Fact], b: set[Fact]) -> bool:
    """a |= b : homomorphism from b into a."""
    return fact_homomorphism(b, a) is not None


# ---------------------------------------------------- CQ/UCQ containment

_freeze_counter = itertools.count()


def cq_contained(q1: CQ, q2: CQ) -> bool:
    """Chandra–Merlin: Q1 ⊆ Q2 iff Q2 maps into Q1's frozen canonical
    database producing Q1's frozen head."""
    if len(q1.head) != len(q2.head):
        return False
    tag = next(_freeze_counter)
    frozen = {
        v: f"⟨{tag}:{v}⟩" for a in q1.body for v in a.vars
    } | {v: f"⟨{tag}:{v}⟩" for v in q1.head if is_var(v)}
    canon = [(a.pred, tuple(frozen.get(t, t) for t in a.args)) for a in q1.body]
    target = tuple(frozen.get(t, t) for t in q1.head)
    patterns = [(a.pred, a.args) for a in q2.body]
    return any(
        tuple(h.get(t, t) for t in q2.head) == target
        for h in match(patterns, fact_index(canon), {}, is_var)
    )


def ucq_contained(u1: list[CQ], u2: list[CQ]) -> bool:
    """Sagiv–Yannakakis: U1 ⊆ U2 iff every disjunct of U1 is contained in
    some disjunct of U2."""
    return all(any(cq_contained(q1, q2) for q2 in u2) for q1 in u1)
