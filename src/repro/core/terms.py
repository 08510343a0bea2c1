"""Term taxonomy for the Datalog/existential-rule substrate.

Terms are plain strings everywhere (driver-side tuples and Spark columns
alike), discriminated by prefix:

- variables:  start with an uppercase ASCII letter (only inside rules/queries);
- labelled nulls: start with ``_:n`` (fresh nulls introduced for existential
  variables by the restricted/equivalent chase and by TG reasoning);
- skolem terms: start with ``_:sk`` (deterministic functional terms used by
  the skolem chase: one term per (rule, existential var, frontier binding));
- constants: everything else.

Nulls and skolems are both "ground non-constants" — homomorphisms may map
them to constants or other nulls, while constants map only to themselves.
"""
from __future__ import annotations

import itertools

NULL_MARK = "_:"  # shared by labelled nulls and skolem terms
NULL_PREFIX = f"{NULL_MARK}n"
SKOLEM_PREFIX = f"{NULL_MARK}sk"

_fresh_counter = itertools.count()


def is_var(t: str) -> bool:
    """True for rule/query variables (uppercase-initial tokens)."""
    return bool(t) and t[0].isupper() and t[0].isascii()


def is_null(t: str) -> bool:
    """True for any ground non-constant (labelled null or skolem term)."""
    return t.startswith(NULL_MARK)


def is_const(t: str) -> bool:
    return not is_var(t) and not is_null(t)


def fresh_null() -> str:
    """A globally fresh labelled null (driver-side chase / TG reasoning)."""
    return f"{NULL_PREFIX}{next(_fresh_counter)}"


def skolem(rule_id: str, var: str, frontier: tuple[str, ...]) -> str:
    """Deterministic skolem term: same (rule, var, frontier) -> same term."""
    return f"{SKOLEM_PREFIX}_{rule_id}_{var}_" + "␟".join(frontier)
