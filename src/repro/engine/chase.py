"""Chase baselines over Spark (paper Section 3 + the engines of Section 7).

Each baseline is a policy over the shared round loop
(:func:`repro.engine.fixpoint.fixpoint`), so differences measure
algorithmic choices, not storage (see DESIGN.md §4 for the substitution
rationale):

- ``seminaive_chase`` — "VLog-like": semi-naive evaluation, **restricted**
  chase for existential rules, redundancy filtering **right after each
  rule execution** (the per-rule dedup the paper contrasts GLog against).
  Its delta expansion is the overlapping one (pivot atom from Δ, all other
  atoms from the full instance), which re-enumerates instantiations that
  bind several Δ-facts — the redundancy TG partitioning removes.
- ``naive_chase`` — "RDFox-like": skolem chase, every round executes every
  rule over the *entire* current instance (no SNE), per-round dedup.
- ``naive_chase(extra_sort=True)`` — "COM-like": adds a global re-sort of
  each round's delta, emulating the commercial engine's heavier per-round
  bookkeeping.

The ρDF baselines of Table 6 are the same configurations under other
names (``harness.runners.ENGINES``): WebPIE-like is the naive chase with
the re-sort, Inferray-like the semi-naive chase.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core.rules import Program
from .facts import FactStore
from .fixpoint import EngineStats, fixpoint


def naive_chase(
    spark: SparkSession,
    program: Program,
    base: FactStore,
    *,
    count_triggers: bool = False,
    extra_sort: bool = False,
    max_rounds: int = 100,
) -> tuple[FactStore, EngineStats]:
    """Skolem chase, full-instance rule execution each round."""

    def plan(k, store, delta):
        for rule in program:
            yield rule, [store.df(a.pred) for a in rule.body], ""

    return fixpoint(
        "naive_chase", spark, program, base, plan, existentials="skolem",
        count_triggers=count_triggers, max_rounds=max_rounds, resort=extra_sort,
    )


def seminaive_chase(
    spark: SparkSession,
    program: Program,
    base: FactStore,
    *,
    count_triggers: bool = False,
    max_rounds: int = 100,
) -> tuple[FactStore, EngineStats]:
    """Semi-naive restricted chase with per-rule redundancy filtering."""

    def plan(k, store, delta):
        if k == 1:  # round 1 treats all (non-empty) EDB relations as the delta
            edb = {p: store.df(p) for p in program.edb if store.has(p)}
            delta = {p: d for p, d in edb.items() if not d.isEmpty()}
        for rule in program:
            pivots = [i for i, a in enumerate(rule.body) if a.pred in delta]
            # round 1: Δ == full for every EDB predicate, so one execution
            # covers the rule (pivot enumeration would duplicate it exactly)
            if k == 1:
                pivots = pivots[:1]
            for i in pivots:
                sources = [
                    delta[a.pred] if j == i else store.df(a.pred)
                    for j, a in enumerate(rule.body)
                ]
                yield rule, sources, f"{k}_{rule.rid}_{i}"

    return fixpoint(
        "seminaive_chase", spark, program, base, plan, existentials="restricted",
        count_triggers=count_triggers, max_rounds=max_rounds, per_rule_dedup=True,
    )
