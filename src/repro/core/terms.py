"""Term taxonomy for the Datalog/existential-rule substrate.

Terms are plain strings everywhere (driver-side tuples and Spark columns
alike), discriminated by prefix:

- variables:  start with an uppercase ASCII letter (only inside rules/queries);
- labelled nulls: ``_:n{tag}_{var}_{hash}``, one per (node or rule tag,
  existential variable, trigger binding): the restricted chase and
  Definition 5 invent one null per trigger;
- skolem terms: ``_:sk_{rule}_{var}_{hash}``, one per (rule, existential
  variable, frontier binding): the skolem chase;
- constants: everything else.

Both kinds of invented term follow one recipe (``invented``): a head naming
what invents it, then the SHA-256 hex digest of its key values joined by
``KEY_SEP``.  The driver hashes with ``hashlib``; Spark builds the same
string with ``sha2`` (``engine.rule_exec.project_head``), so a term's name
depends only on its trigger, never on partitioning or evaluation order.

Nulls and skolems are both "ground non-constants" — homomorphisms may map
them to constants or other nulls, while constants map only to themselves.
"""
from __future__ import annotations

import hashlib

NULL_MARK = "_:"  # shared by labelled nulls and skolem terms
NULL_PREFIX = f"{NULL_MARK}n"
SKOLEM_PREFIX = f"{NULL_MARK}sk"
KEY_SEP = "␟"


def is_var(t: str) -> bool:
    """True for rule/query variables (uppercase-initial tokens)."""
    return bool(t) and t[0].isupper() and t[0].isascii()


def is_null(t: str) -> bool:
    """True for any ground non-constant (labelled null or skolem term)."""
    return t.startswith(NULL_MARK)


def skolem_head(rule_id: str, var: str) -> str:
    return f"{SKOLEM_PREFIX}_{rule_id}_{var}_"


def null_head(tag: str, var: str) -> str:
    return f"{NULL_PREFIX}{tag}_{var}_"


def invented(head: str, key: tuple[str, ...]) -> str:
    """The one recipe for invented terms: ``head`` + sha256(key joined)."""
    return head + hashlib.sha256(KEY_SEP.join(key).encode()).hexdigest()


def skolem(rule_id: str, var: str, frontier: tuple[str, ...]) -> str:
    """Skolem term of (rule, var, frontier binding in ``rule.frontier`` order)."""
    return invented(skolem_head(rule_id, var), frontier)


def labelled_null(tag: str, var: str, binding: tuple[str, ...]) -> str:
    """The null a trigger invents for ``var``: (tag, var, body binding in
    ``rule.body_vars`` order)."""
    return invented(null_head(tag, var), binding)
