"""The benchmark's workloads: one (scenario, engine) pair each, generated
from a seed, plus the independent reference each op's output is checked
against.

An op is one harness call: ``run_engine`` or ``run_linear_tg`` from
``repro.harness.runners``, the entry points the table builders and
``jobs/`` use.  The program only ever sees the generated tables.

Each scenario comes from the repository's generator at its recorded
default seed; the benchmark seed draws a random renaming of every constant
in the tables.  Different seeds thus give different inputs of one shape:
the same rounds, nodes and derived-fact count.  The generator's own seed
changes the shape (on STB-128 at 30 people, seeds 2 and 7 run 66 and 57
Spark jobs), which at this size would be most of the run-to-run spread.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench_data import Scenario
from repro.bench_data.chasebench import stb128
from repro.bench_data.ontologies import dbpedia_rules, dbpedia_tables
from repro.core.chase_small import chase
from repro.core.rules import parse_program
from repro.harness import runners


@dataclass(frozen=True)
class Workload:
    name: str
    generator_seed: int
    generate: Callable[[int], Scenario]
    op: Callable  # (spark, scenario) -> RunResult
    # Traced runs only: a second harness call on the same input, so that a
    # layer the op bypasses is still measured.
    aux: Callable | None = None

    def make(self, seed: int) -> Scenario:
        return relabel(self.generate(self.generator_seed), seed)


def relabel(scenario: Scenario, seed: int) -> Scenario:
    """The scenario with every table constant renamed by a random
    bijection drawn from ``seed``.  Constants of the program keep their
    names."""
    keep = {t for r in scenario.program for a in (*r.body, r.head) for t in a.args} - {
        v for r in scenario.program for a in (*r.body, r.head) for v in a.vars
    }
    values = sorted(
        {v for t in scenario.tables.values() for col in t.columns for v in t[col].astype(str)}
        - keep
    )
    order = np.random.default_rng(seed).permutation(len(values))
    names = {v: f"c{i}" for v, i in zip(values, order)}
    tables = {
        pred: t.astype(str).apply(lambda col: col.map(lambda v: names.get(v, v)))
        for pred, t in scenario.tables.items()
    }
    return Scenario(scenario.name, scenario.program, tables)


def _dbpedia_li(seed: int) -> Scenario:
    """DBpedia-LI with 4 infobox properties and 3 classes over 300 facts."""
    return Scenario(
        "DBpedia-LI",
        parse_program(dbpedia_rules("LI", n_props=4, n_classes=3)),
        dbpedia_tables(300, n_props=4, seed=seed),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stb128-p30-glog",
            7,
            lambda seed: stb128(30, seed=seed),
            lambda spark, sc: runners.run_engine(spark, "glog-mr", sc),
            aux=lambda spark, sc: runners.run_engine(
                spark, "vlog", sc, count_triggers=True
            ),
        ),
        Workload(
            "dbpedia-li-p4-linear",
            2,
            _dbpedia_li,
            lambda spark, sc: runners.run_linear_tg(spark, sc),
        ),
    )
}


def reference_derived(scenario: Scenario) -> int:
    """Derived facts by the driver-side breadth-first restricted chase, which
    shares no code with the Spark evaluation (``tglinear`` runs it, but only
    on single canonical facts).  On these programs every engine derives the
    same number of facts (Theorem 24; Tables 2 and 4)."""
    base = {
        (pred, tuple(str(v) for v in row))
        for pred, table in scenario.tables.items()
        for row in table.itertuples(index=False)
    }
    return len(chase(scenario.program, base, variant="restricted").facts) - len(base)
