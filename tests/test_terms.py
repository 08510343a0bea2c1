"""Term taxonomy unit tests."""
import hashlib

import pytest

from repro.core import terms


@pytest.mark.parametrize("t", ["X", "Y1", "Zvar", "ABC"])
def test_vars(t):
    assert terms.is_var(t) and not terms.is_null(t)


@pytest.mark.parametrize("t", ["c1", "red", "u0d1p2", "42", "⊥0", "felix"])
def test_consts(t):
    # a constant is what is neither a variable nor a null
    assert not terms.is_var(t) and not terms.is_null(t)


@pytest.mark.parametrize("t", ["_:n0", "_:n12_Z_7", "_:sk_r1_Z_abc"])
def test_nulls(t):
    assert terms.is_null(t) and not terms.is_var(t)


def test_labelled_null_deterministic():
    a = terms.labelled_null("tg_n3", "Z", ("a", "b"))
    assert a == terms.labelled_null("tg_n3", "Z", ("a", "b"))
    assert a.startswith("_:ntg_n3_Z_") and terms.is_null(a)


@pytest.mark.parametrize(
    "k1,k2",
    [
        (("t1", "Z", ("a",)), ("t2", "Z", ("a",))),
        (("t1", "Z", ("a",)), ("t1", "W", ("a",))),
        (("t1", "Z", ("a",)), ("t1", "Z", ("b",))),
        (("t1", "Z", ("a", "b")), ("t1", "Z", ("b", "a"))),
        (("t1", "Z", ("a", "b")), ("t1", "Z", ("ab",))),
    ],
)
def test_labelled_null_distinct(k1, k2):
    assert terms.labelled_null(*k1) != terms.labelled_null(*k2)


def test_invented_recipe():
    # the digest Spark's sha2(concat_ws(KEY_SEP, ...), 256) computes
    digest = hashlib.sha256("a␟b".encode()).hexdigest()
    assert terms.skolem("r1", "Z", ("a", "b")) == "_:sk_r1_Z_" + digest
    assert terms.labelled_null("t", "Z", ("a", "b")) == "_:nt_Z_" + digest


def test_skolem_deterministic():
    assert terms.skolem("r1", "Z", ("a", "b")) == terms.skolem("r1", "Z", ("a", "b"))


@pytest.mark.parametrize(
    "k1,k2",
    [
        (("r1", "Z", ("a",)), ("r2", "Z", ("a",))),
        (("r1", "Z", ("a",)), ("r1", "W", ("a",))),
        (("r1", "Z", ("a",)), ("r1", "Z", ("b",))),
        (("r1", "Z", ("a", "b")), ("r1", "Z", ("ab",))),
    ],
)
def test_skolem_distinct(k1, k2):
    assert terms.skolem(*k1) != terms.skolem(*k2)


def test_empty_string_not_var():
    assert not terms.is_var("")
