"""Join-based execution of one rule over per-atom source DataFrames.

This is the distributed realization of a *trigger* (paper Sec. 3): the
binding relation of a rule body is the natural join of its atoms' sources
(constants and repeated variables become Catalyst filters), and
``#triggers`` is its row count — the paper's implementation-robust
performance measure.  The same machinery serves the chase baselines and
TG-guided reasoning; they differ only in *which* sources they pass per atom
(full KB vs delta vs TG-parent instances) and in when they deduplicate.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.rules import Atom, Rule
from ..core.terms import KEY_SEP, is_var, null_head, skolem_head


def vcol(v: str) -> str:
    return f"v_{v}"


def atom_bindings(df: DataFrame, atom: Atom) -> DataFrame:
    """Bindings of one atom: constant/repeated-variable filters, then one
    column per distinct variable (renamed ``v_<var>``)."""
    first_pos: dict[str, str] = {}
    conds = []
    for i, t in enumerate(atom.args):
        c = f"a{i}"
        if is_var(t):
            if t in first_pos:
                conds.append(F.col(c) == F.col(first_pos[t]))
            else:
                first_pos[t] = c
        else:
            conds.append(F.col(c) == F.lit(t))
    for cond in conds:
        df = df.where(cond)
    return df.select([F.col(c).alias(vcol(v)) for v, c in first_pos.items()])


def body_bindings(atoms: tuple[Atom, ...], sources: list[DataFrame]) -> DataFrame:
    """Natural join of the atoms' binding relations (cross join when two
    atoms share no variable — rare, but legal)."""
    acc = atom_bindings(sources[0], atoms[0])
    for atom, src in zip(atoms[1:], sources[1:]):
        nxt = atom_bindings(src, atom)
        common = [c for c in acc.columns if c in nxt.columns]
        acc = acc.join(nxt, on=common) if common else acc.crossJoin(nxt)
    return acc


def head_witness(existing: DataFrame, head: Atom, keep_vars) -> DataFrame:
    """The head's bindings in the existing head-predicate facts, projected
    to ``keep_vars`` and deduplicated.  Used for the restricted-chase
    satisfaction check (frontier variables) and the Def. 23 pre-filter
    (all head variables)."""
    return atom_bindings(existing, head).select(
        [vcol(v) for v in keep_vars]
    ).dropDuplicates()


def restricted_filter(
    bindings: DataFrame, rule: Rule, existing: DataFrame
) -> DataFrame:
    """Keep only *active* triggers (restricted chase): those with no
    extension mapping the head into ``existing``.  With single-atom heads
    this is an anti-join on the frontier variables.  A head without them
    anti-joins a witness of zero columns: one witness fact satisfies every
    trigger, and the keyless join stays lazy."""
    witness = head_witness(existing, rule.head, rule.frontier)
    on = [vcol(v) for v in rule.frontier]
    return bindings.join(witness, on=on or None, how="left_anti")


def covering_atom(rule: Rule) -> int | None:
    """Index of the first body atom whose variables cover all head
    variables (the m=1 case of Def. 23), or None."""
    need = set(rule.head.vars)
    for i, a in enumerate(rule.body):
        if need <= set(a.vars):
            return i
    return None


def prefilter_source(
    df: DataFrame, atom: Atom, rule: Rule, existing: DataFrame
) -> DataFrame:
    """Def. 23 rule-execution strategy (``ruleExec``): restrict a covering
    atom's source to rows whose induced head tuple is not already derived —
    the anti-join of step (v)/(vi) in paper Figure 2.  Returns a *fact*
    DataFrame (same shape as ``df``)."""
    ab = atom_bindings(df, atom)
    witness = head_witness(existing, rule.head, dict.fromkeys(rule.head.vars))
    on = [c for c in witness.columns if c in ab.columns]
    kept = ab.join(witness, on=on, how="left_anti") if on else ab
    # map binding columns back to fact columns (constants re-materialized)
    cols = []
    for i, t in enumerate(atom.args):
        if is_var(t):
            cols.append(F.col(vcol(t)).alias(f"a{i}"))
        else:
            cols.append(F.lit(t).alias(f"a{i}"))
    return kept.select(cols)


def project_head(
    bindings: DataFrame, rule: Rule, *, null_tag: str | None = None
) -> DataFrame:
    """h_s(head(r)) for every trigger: select head columns, inventing each
    existential term as ``terms.invented`` does on the driver: a skolem
    term of the frontier (``null_tag`` None) or the trigger's labelled
    null under ``null_tag``, keyed by every body variable."""
    ex_cols: dict[str, F.Column] = {}
    for z in rule.existentials:
        if null_tag is None:
            head, key = skolem_head(rule.rid, z), rule.frontier
        else:
            head, key = null_head(null_tag, z), rule.body_vars
        key_col = F.concat_ws(KEY_SEP, *[F.col(vcol(v)) for v in key])
        ex_cols[z] = F.concat(F.lit(head), F.sha2(key_col, 256))
    out = []
    for i, t in enumerate(rule.head.args):
        if t in ex_cols:
            out.append(ex_cols[t].alias(f"a{i}"))
        elif is_var(t):
            out.append(F.col(vcol(t)).alias(f"a{i}"))
        else:
            out.append(F.lit(t).alias(f"a{i}"))
    return bindings.select(out)


@dataclass
class RuleExec:
    """One rule execution: its head facts, one row per trigger.

    ``n_triggers`` is always -1: triggers are counted by the round's one
    materialization (``engine.fixpoint``), never here.  The field stays
    because the benchmark's tracer (``perfbench/spans.py``) reads it."""

    head_df: DataFrame
    n_triggers: int = -1


def execute_rule(
    rule: Rule,
    sources: list[DataFrame],
    *,
    existing: DataFrame | None = None,
    variant: str = "skolem",
    null_tag: str = "",
) -> RuleExec:
    """Execute ``rule`` with per-atom ``sources``; lazy, runs no Spark job.

    ``variant`` says how an existential rule invents terms: 'skolem',
    'restricted' (active triggers only, labelled nulls; needs
    ``existing``) or 'null' (labelled nulls, no satisfaction check —
    Definition 5).  A Datalog rule ignores it.
    """
    if variant not in ("skolem", "restricted", "null"):
        raise ValueError(f"unknown variant {variant!r} (skolem, restricted, null)")
    b = body_bindings(rule.body, sources)
    if variant == "restricted" and rule.is_existential:
        assert existing is not None
        b = restricted_filter(b, rule, existing)
    tag = None if variant == "skolem" else null_tag
    return RuleExec(project_head(b, rule, null_tag=tag))
