"""Rule/program parsing and classification (paper Section 3 conventions)."""
import re

import pytest

from repro.core.rules import (
    Atom,
    mk_rule,
    parse_atom,
    parse_program,
    parse_rule,
)

from tests.helpers import P1_TEXT


def test_parse_atom_basic():
    a = parse_atom("takes(X,Y)")
    assert a.pred == "takes" and a.args == ("X", "Y") and a.arity == 2


def test_parse_atom_constants():
    a = parse_atom("t(S,sp,O)")
    assert a.args == ("S", "sp", "O") and a.vars == ("S", "O")


def test_parse_atom_nullary_rejected_gracefully():
    a = parse_atom("q()")
    assert a.args == ()


@pytest.mark.parametrize("bad", ["nope", "p(", "p(a,)", "(X)"])
def test_parse_atom_bad(bad):
    with pytest.raises(ValueError):
        parse_atom(bad)


def test_parse_rule_two_body_atoms():
    r = parse_rule("R(X,Y), R(Y,Z) -> R(X,Z)", "t")
    assert len(r.body) == 2 and r.head.args == ("X", "Z")
    assert r.frontier == ("X", "Z") and not r.is_existential


def test_parse_rule_existential():
    r = parse_rule("r(X,Y) -> T(Y,X,Z)", "r4")
    assert r.existentials == ("Z",) and r.frontier == ("Y", "X")
    assert r.is_existential and r.is_linear


@pytest.mark.parametrize(
    "bad",
    ["R(X,Y), R(Y,Z)", "a(X) -> B(X), C(X)", "a(X) -> b(X) -> c(X)"],
    ids=["missing-arrow", "multi-head", "two-arrows"],
)
def test_parse_rule_bad(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        parse_rule(bad, "x")


def test_program_edb_idb_split():
    p = parse_program(P1_TEXT)
    assert p.edb == {"r"} and p.idb == {"R", "T"}
    assert p.arities == {"r": 2, "R": 2, "T": 3}


def test_program_linear_datalog_flags():
    p = parse_program(P1_TEXT)
    assert p.is_linear and not p.is_datalog  # r4 is existential


def test_program_nonlinear():
    p = parse_program("e(X,Y) -> R(X,Y)\nR(X,Y), R(Y,Z) -> R(X,Z)")
    assert not p.is_linear and p.is_datalog


def test_program_arity_clash():
    with pytest.raises(ValueError):
        parse_program("p(X) -> Q(X)\np(X,Y) -> Q(Y)")


def test_program_comments_and_blank_lines():
    p = parse_program("# comment\n\na(X) -> B(X)  # trailing\n")
    assert len(p) == 1


def test_extensional_rules():
    p = parse_program("a(X) -> B(X)\nB(X) -> C(X)\na(X), B(X) -> D(X)")
    assert [r.head.pred for r in p.extensional_rules()] == ["B"]


def test_mk_rule_matches_parse():
    r1 = mk_rule([("e", ("X", "Y"))], ("R", ("Y", "X")), "r")
    r2 = parse_rule("e(X,Y) -> R(Y,X)", "r")
    assert r1.body == r2.body and r1.head == r2.head


def test_rule_str_roundtrip():
    r = parse_rule("a(X,c1), B(X) -> C(X)", "r")
    assert parse_rule(str(r), "r") == r


def test_atom_str():
    assert str(Atom("p", ("X", "c"))) == "p(X,c)"


def test_rule_ids_sequential():
    p = parse_program("a(X) -> B(X)\nB(X) -> C(X)")
    assert [r.rid for r in p.rules] == ["r0", "r1"]


def test_frontier_order_follows_head():
    r = parse_rule("e(X,Y,Z) -> H(Z,X)", "r")
    assert r.frontier == ("Z", "X")


def test_repeated_head_var_frontier_once():
    r = parse_rule("e(X,Y) -> H(X,X)", "r")
    assert r.frontier == ("X",)
