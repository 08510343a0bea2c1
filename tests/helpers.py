"""Shared fixtures: small programs and instances used across test modules."""
from __future__ import annotations

from repro.core.rules import parse_program
from repro.core.terms import is_null
from repro.core.tg_exec import null_patterns
from repro.core.tg_linear import eval_tg_small, min_linear, tglinear
from repro.engine.facts import FactStore

# Paper Example 1 (Section 2)
P1_TEXT = """
r(X,Y) -> R(X,Y)
R(X,Y) -> T(Y,X,Y)
T(Y,X,Y) -> R(X,Y)
r(X,Y) -> T(Y,X,Z)
"""

# Paper Example 44 (Section 4 / appendix F)
P3_TEXT = """
a(X) -> A(X)
r(X,Y) -> R(X,Y)
R(X,Y), A(Y) -> A(X)
R(X,Y), R(Y,Z) -> A(X)
"""

TC_TEXT = """
e(X,Y) -> R(X,Y)
R(X,Y), R(Y,Z) -> R(X,Z)
"""

SAME_GEN_TEXT = """
flat(X,Y) -> SG(X,Y)
up(X,A), SG(A,B), down(B,Y) -> SG(X,Y)
"""

# Datalog programs paired with base instances for engine-equivalence tests
DATALOG_CASES = {
    "tc_chain": (TC_TEXT, [("e", (f"n{i}", f"n{i+1}")) for i in range(6)]),
    "tc_cycle": (TC_TEXT, [("e", (f"n{i}", f"n{(i+1) % 4}")) for i in range(4)]),
    "tc_dag": (
        TC_TEXT,
        [("e", p) for p in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]],
    ),
    "same_gen": (
        SAME_GEN_TEXT,
        [("flat", ("a", "b"))]
        + [("up", p) for p in [("x", "a"), ("y", "a"), ("z", "b")]]
        + [("down", p) for p in [("b", "u"), ("a", "v")]],
    ),
    "hierarchy": (
        """
        cat(X) -> Cat(X)
        dog(X) -> Dog(X)
        Cat(X) -> Animal(X)
        Dog(X) -> Animal(X)
        Animal(X) -> Thing(X)
        owns(X,Y), Animal(Y) -> Owner(X)
        """,
        [("cat", ("felix",)), ("dog", ("rex",)), ("owns", ("ann", "felix")),
         ("owns", ("bob", "rex")), ("owns", ("bob", "car1"))],
    ),
    "diamond_redundant": (
        """
        a(X) -> B(X)
        a(X) -> C(X)
        B(X) -> D(X)
        C(X) -> D(X)
        a(X) -> D(X)
        D(X) -> E(X)
        """,
        [("a", (f"k{i}",)) for i in range(5)],
    ),
    "mixed_body": (
        """
        e(X,Y) -> R(X,Y)
        e(X,Y), R(Y,Z) -> R2(X,Z)
        R2(X,Y), e(Y,Z) -> R3(X,Z)
        """,
        [("e", p) for p in [("a", "b"), ("b", "c"), ("c", "d")]],
    ),
    "constants": (
        """
        p(X,red) -> Red(X)
        p(X,Y) -> Any(X)
        Red(X), Any(X) -> Both(X)
        """,
        [("p", ("i1", "red")), ("p", ("i2", "blue")), ("p", ("i3", "red"))],
    ),
}

LINEAR_CASES = {
    "p1": (P1_TEXT, [("r", ("c1", "c2")), ("r", ("d", "d"))]),
    "chain": (
        """
        s(X) -> A0(X)
        A0(X) -> A1(X)
        A1(X) -> A2(X)
        A2(X) -> A3(X)
        """,
        [("s", ("u",)), ("s", ("v",))],
    ),
    "flip": (
        """
        e(X,Y) -> F(Y,X)
        F(X,Y) -> G(Y,X)
        G(X,Y) -> H(X)
        """,
        [("e", ("a", "b")), ("e", ("b", "b"))],
    ),
    "existential": (
        """
        n(X) -> E(X,Z)
        E(X,Z) -> D(X)
        m(X,Y) -> E(X,Y)
        """,
        [("n", ("a",)), ("m", ("a", "w")), ("n", ("b",))],
    ),
    "diag": (
        """
        e(X,X) -> Self(X)
        e(X,Y) -> Edge(X,Y)
        Self(X) -> Node(X)
        """,
        [("e", ("a", "a")), ("e", ("a", "b"))],
    ),
}


def prog(text: str):
    return parse_program(text)


def repartitioned(spark, base, n: int, program) -> FactStore:
    """``base`` as a store whose tables have ``n`` partitions each."""
    store = FactStore.from_facts(spark, base)
    store.register_arities(program.arities)
    for pred in {p for p, _ in base}:
        store.set(pred, store.df(pred).repartition(n))
    return store


def assert_null_patterns_cover(program, base) -> None:
    """Every null mask of a fact the minimized TG derives from ``base``
    (padded as in the tagged table, whose last column is ``_pred``) is
    among the masks ``null_patterns`` reads off H(P)."""
    g = min_linear(tglinear(program), program)
    width = max(program.arities.values()) + 1
    derived = {
        "".join("1" if is_null(t) else "0" for t in args).ljust(width, "0")
        for facts in eval_tg_small(g, set(base)).values()
        for _, args in facts
    }
    assert derived <= null_patterns(g, program, width)
