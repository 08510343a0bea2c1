"""Atoms, rules and programs (paper Section 3), plus a text parser.

A rule follows form (1) of the paper:

    P1(X1,Y1) ∧ ... ∧ Pn(Xn,Yn) -> ∃Z P(Y,Z)

written in text as ``p1(X,Y), p2(Y,Z) -> P(X,Z)``; head variables that do
not occur in the body are the existential variables Z.  Predicates are
*extensional* (EDB) iff they never occur in a rule head — matching the
paper's convention that EDP and IDP are disjoint.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .terms import is_var

_ATOM_RE = re.compile(r"\s*([A-Za-z_][\w.:#-]*)\s*\(([^()]*)\)\s*")


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms (variables or constants)."""

    pred: str
    args: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple(a for a in self.args if is_var(a))

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class Rule:
    """A single-head rule; existential head variables are implicit (head
    variables absent from the body)."""

    body: tuple[Atom, ...]
    head: Atom
    rid: str

    @cached_property
    def body_vars(self) -> frozenset[str]:
        return frozenset(v for a in self.body for v in a.vars)

    @cached_property
    def frontier(self) -> tuple[str, ...]:
        """Head variables that also occur in the body (universally bound)."""
        return tuple(v for v in dict.fromkeys(self.head.vars) if v in self.body_vars)

    @cached_property
    def existentials(self) -> tuple[str, ...]:
        return tuple(
            v for v in dict.fromkeys(self.head.vars) if v not in self.body_vars
        )

    @property
    def is_existential(self) -> bool:
        return bool(self.existentials)

    @property
    def is_linear(self) -> bool:
        return len(self.body) == 1

    def __str__(self) -> str:
        return f"{', '.join(map(str, self.body))} -> {self.head}"


@dataclass
class Program:
    """A set of rules with derived EDB/IDB classification and per-predicate
    arities (validated to be consistent across all occurrences)."""

    rules: list[Rule]
    arities: dict[str, int] = field(init=False)
    idb: frozenset[str] = field(init=False)
    edb: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        self.arities = {}
        for r in self.rules:
            for a in (*r.body, r.head):
                prev = self.arities.setdefault(a.pred, a.arity)
                if prev != a.arity:
                    raise ValueError(
                        f"inconsistent arity for {a.pred}: {prev} vs {a.arity}"
                    )
        self.idb = frozenset(r.head.pred for r in self.rules)
        self.edb = frozenset(self.arities) - self.idb

    @property
    def is_datalog(self) -> bool:
        return not any(r.is_existential for r in self.rules)

    @property
    def is_linear(self) -> bool:
        return all(r.is_linear for r in self.rules)

    def extensional_rules(self) -> list[Rule]:
        """Rules whose body mentions only EDB predicates (fire in round 1)."""
        return [r for r in self.rules if all(a.pred in self.edb for a in r.body)]

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def parse_atom(text: str) -> Atom:
    m = _ATOM_RE.fullmatch(text)
    if not m:
        raise ValueError(f"cannot parse atom: {text!r}")
    pred, argstr = m.group(1), m.group(2).strip()
    args = tuple(a.strip() for a in argstr.split(",")) if argstr else ()
    if any(not a for a in args):
        raise ValueError(f"empty argument in atom: {text!r}")
    return Atom(pred, args)


def _parse_atoms(text: str) -> tuple[Atom, ...]:
    atoms = tuple(
        Atom(m.group(1), tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ())
        for m in _ATOM_RE.finditer(text)
    )
    if not atoms:
        raise ValueError(f"no atoms in: {text!r}")
    return atoms


def parse_rule(text: str, rid: str) -> Rule:
    """Parse ``b1(..), b2(..) -> h(..)``."""
    parts = text.split("->")
    if len(parts) != 2:
        raise ValueError(f"rule needs exactly one '->': {text!r}")
    body_s, head_s = parts
    heads = _parse_atoms(head_s)
    if len(heads) != 1:
        raise ValueError(f"rules must have a single head atom: {text!r}")
    return Rule(body=_parse_atoms(body_s), head=heads[0], rid=rid)


def parse_program(text: str) -> Program:
    """Parse a newline/semicolon-separated list of rules; '#' comments."""
    rules = []
    i = 0
    for raw in re.split(r"[\n;]+", text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rules.append(parse_rule(line.rstrip("."), rid=f"r{i}"))
        i += 1
    return Program(rules)


def mk_rule(body: list[tuple], head: tuple, rid: str) -> Rule:
    """Programmatic constructor: ('p', ('X','Y')) tuples."""
    return Rule(
        body=tuple(Atom(p, tuple(a)) for p, a in body),
        head=Atom(head[0], tuple(head[1])),
        rid=rid,
    )
