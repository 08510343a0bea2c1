"""Substrate: a Datalog/existential-rule engine over Spark DataFrames —
fact storage, join-based rule execution, the shared round loop and the
chase baselines."""
