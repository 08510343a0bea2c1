"""Materialization benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One run starts a pinned local SparkSession, generates the workload's input
from the seed, runs one untimed warm-up op, then times ops until ``S``
seconds have passed (at least ``MIN_OPS``).  Every op's output is checked
against an independent reference, outside the timed window.  The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one extra traced op with
``--trace 1``.  Progress goes to standard error.  The run reads and writes
only inside the repository, in ``.perfbench_work/``, which it removes.
"""
from __future__ import annotations

T_PROCESS = __import__("time").perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_OPS = 2
GEN_REPEATS = 3
CORES = min(2, os.cpu_count() or 1)

# Pinned session settings.  Retention is far above the jobs of any run, so
# statusTracker never drops a job or stage that an op needs.
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.retainedJobs": "100000",
    "spark.ui.retainedStages": "100000",
    "spark.sql.warehouse.dir": os.path.join(WORK, "warehouse"),
}
SUBMIT_CONF = {
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.local.dir": WORK,
}
DRIVER_MEMORY = "1g"
# C1 only and the serial collector: with the default C2 compiler and G1 a
# warm JVM spent 14-23 CPU-seconds per 8-second op and its op times kept
# falling for several ops.  With these flags it spends 9-10 and settles
# after the warm-up op.
JVM_OPTIONS = "-XX:TieredStopAtLevel=1 -XX:+UseSerialGC -XX:-UsePerfData"


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def start_spark():
    os.environ["SPARK_LOCAL_DIRS"] = WORK
    os.environ["TMPDIR"] = WORK
    conf = " ".join(f"--conf {shlex.quote(f'{k}={v}')}" for k, v in SUBMIT_CONF.items())
    java = shlex.quote(f"{JVM_OPTIONS} -Djava.io.tmpdir={WORK}")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {java} {conf} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SESSION_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it: the gateway JVM
    exits when its standard input closes."""
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


class SparkCounts:
    """Jobs, stages and tasks of one op, from statusTracker."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self._jsc = self.sc._jsc.sc()

    def next_job_id(self) -> int:
        return self._jsc.dagScheduler().nextJobId()

    def drain(self) -> None:
        """Wait until the listener bus has recorded every finished job."""
        self._jsc.listenerBus().waitUntilEmpty()

    def of_jobs(self, job_ids) -> dict:
        tracker = self.sc.statusTracker()
        stages = set()
        for j in job_ids:
            info = tracker.getJobInfo(j)
            if info is None:
                raise RuntimeError(f"statusTracker dropped job {j}")
            stages.update(info.stageIds)
        tasks = failed = ran = 0
        for s in stages:
            info = tracker.getStageInfo(s)
            if info is None:
                raise RuntimeError(f"statusTracker dropped stage {s}")
            tasks += info.numCompletedTasks
            failed += info.numFailedTasks
            ran += info.numCompletedTasks > 0
        return {"jobs": len(job_ids), "stages": ran, "tasks": tasks, "failed_tasks": failed}

    def jvm_hwm_mb(self) -> float:
        pid = self.sc._jvm.java.lang.ProcessHandle.current().pid()
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported for the JVM")


def run_op(spark, counts: SparkCounts, fn, scenario, group: str, tracer=None) -> dict:
    """One timed harness call in its own job group; the Spark counts, and
    with a tracer the per-layer metrics, are read after the clock stops."""
    if tracer is None:
        spark.sparkContext.setJobGroup(group, "op")
    else:
        tracer.start_op(group)
    first_job = counts.next_job_id()
    t0 = time.perf_counter()
    try:
        result, error = fn(spark, scenario), None
    except Exception:
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    counts.drain()
    rec = {"wall_s": wall, "result": result, "error": error}
    rec["all_jobs"] = counts.next_job_id() - first_job
    groups = {group} | ({s.group for s in tracer.spans} if tracer else set())
    tracker = spark.sparkContext.statusTracker()
    rec.update(counts.of_jobs([j for g in groups for j in tracker.getJobIdsForGroup(g)]))
    if tracer is not None:
        rec["layers"] = layer_metrics(*tracer.totals())
    return rec


def signature(rec: dict) -> tuple:
    """Output counts that must repeat exactly on every op of one input.
    Spark job and task counts are not among them: AQE re-planning made them
    differ by one between ops of one process."""
    r = rec["result"]
    return (r.derived, r.rounds, r.triggers, r.tg_nodes)


def check(rec: dict, reference: int, expected: tuple | None) -> str | None:
    """Why an op failed, or None.  Failure: it raised, derived differs from
    the reference, a count differs from the warm-up op, or a job ran
    outside the op's job group."""
    if rec["error"]:
        return rec["error"].strip().splitlines()[-1]
    if rec["result"].derived != reference:
        return f"derived {rec['result'].derived} != reference {reference}"
    if expected is not None and signature(rec) != expected:
        return f"counts {signature(rec)} != warm-up {expected}"
    if rec["all_jobs"] != rec["jobs"]:
        return f"{rec['all_jobs'] - rec['jobs']} jobs outside the op's job group"
    return None


def layer_metrics(totals: dict, other: int, attributed: int) -> dict:
    """The per-layer metrics, from the span totals of one traced op."""
    from spans import LayerTotals

    def t(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def c(name: str, key: str) -> int:
        return t(name).counts.get(key, 0)

    return {
        "facts.load_s": t("facts.load").s,
        "facts.load_rows": c("facts.load", "rows"),
        "facts.materialize_calls": t("facts.materialize").calls,
        "facts.materialize_s": t("facts.materialize").s,
        "facts.materialize_jobs": t("facts.materialize").jobs,
        "facts.delta_rows": c("facts.materialize", "delta_rows"),
        "facts.distinct_new_calls": t("facts.distinct_new").calls,
        "rule_exec.calls": t("rule_exec").calls,
        "rule_exec.s": t("rule_exec").s,
        "rule_exec.jobs": t("rule_exec").jobs,
        "rule_exec.prefilter_calls": t("rule_exec.prefilter").calls,
        "rule_exec.restricted_calls": t("rule_exec.restricted").calls,
        "rewrite.eg_rewriting_calls": t("rewrite.eg_rewriting").calls,
        "rewrite.eg_rewriting_s": t("rewrite.eg_rewriting").s,
        "rewrite.capped": c("rewrite.eg_rewriting", "capped"),
        "rewrite.find_dominating_s": t("rewrite.find_dominating").s,
        "rewrite.candidates": t("rewrite.find_dominating").calls,
        "rewrite.dropped": c("rewrite.find_dominating", "dropped"),
        "tgmat.s": t("tgmat").s,
        "tgmat.self_s": t("tgmat").self_s,
        "tgmat.rounds": c("tgmat", "rounds"),
        "tgmat.jobs": t("tgmat").jobs,
        "tgmat.other_jobs": t("tgmat").self_jobs,
        "tgmat.tg_nodes": c("tgmat", "tg_nodes"),
        "chase.s": t("chase").s,
        "chase.self_s": t("chase").self_s,
        "chase.rounds": c("chase", "rounds"),
        "chase.jobs": t("chase").jobs,
        "chase.other_jobs": t("chase").self_jobs,
        # every rule execution of a chase run happens inside it
        "chase.triggers": c("rule_exec", "triggers") if "chase" in totals else 0,
        "chase.rule_exec_jobs": t("rule_exec").jobs if "chase" in totals else 0,
        "tg_linear.tglinear_s": t("tg_linear.tglinear").s,
        "tg_linear.nodes_built": c("tg_linear.tglinear", "nodes"),
        "tg_linear.min_linear_s": t("tg_linear.min_linear").s,
        "tg_linear.nodes_kept": c("tg_linear.min_linear", "nodes"),
        "tg_linear.dominated_calls": t("tg_linear.dominated").calls,
        "tg_linear.dominated_s": t("tg_linear.dominated").s,
        "tg_linear.eval_tg_small_calls": t("tg_linear.eval_tg_small").calls,
        "tg_exec.eval_calls": t("tg_exec").calls,
        "tg_exec.s": t("tg_exec").s,
        "tg_exec.triggers": c("tg_exec", "triggers"),
        "tg_exec.jobs": t("tg_exec").jobs,
        "tg_exec.subsume_nulls_s": t("tg_exec.subsume_nulls").s,
        "spark.span_jobs": attributed,
        "spark.other_jobs": other,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from workloads import WORKLOADS, reference_derived
    except ImportError as e:
        log(f"cannot import the program from {os.path.join(ROOT, 'src')}: {e}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.generator_seed if args.seed is None else args.seed

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    spark = None
    try:
        spark = start_spark()
        session_s = time.perf_counter() - T_PROCESS
        counts = SparkCounts(spark)

        gen_times = []
        for _ in range(GEN_REPEATS):
            t0 = time.perf_counter()
            scenario = wl.make(seed)
            gen_times.append(time.perf_counter() - t0)
        gen_s = statistics.median(gen_times)
        setup_s = session_s + gen_s

        t0 = time.perf_counter()
        warm = run_op(spark, counts, wl.op, scenario, "warmup")
        warmup_s = time.perf_counter() - t0
        log(f"{wl.name} seed={seed} edb={scenario.n_edb} session={session_s:.2f}s "
            f"warm-up={warmup_s:.2f}s jobs={warm['jobs']}")

        ops = []
        t_loop = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - t_loop < args.seconds:
            ops.append(run_op(spark, counts, wl.op, scenario, f"op{len(ops)}"))
            log(f"op {len(ops) - 1}: {ops[-1]['wall_s']:.3f}s jobs={ops[-1]['jobs']}")
        driver_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = []
        if args.trace:
            from spans import Tracer

            tracer = Tracer(spark.sparkContext)
            tracer.install()
            try:
                traced.append(run_op(spark, counts, wl.op, scenario, "traced", tracer))
                if wl.aux is not None:
                    traced.append(run_op(spark, counts, wl.aux, scenario, "aux", tracer))
            finally:
                tracer.uninstall()
            jvm_hwm_mb = counts.jvm_hwm_mb()

        reference = reference_derived(scenario)
        warm_why = check(warm, reference, None)
        expected = signature(warm) if warm_why is None else None
        failed = 0
        for i, rec in enumerate(ops):
            why = check(rec, reference, expected) if expected else "warm-up failed"
            if why:
                failed += 1
                log(f"op {i} failed: {why}")
        traced_ok = True
        for i, rec in enumerate(traced):
            # the traced op must repeat the warm-up's counts exactly: tracing
            # adds no Spark action; the auxiliary run is checked on derived
            why = check(rec, reference, expected if i == 0 else None)
            if why:
                traced_ok = False
                log(f"traced run {i} failed: {why}")
        if warm_why:
            log(f"warm-up failed: {warm_why}")

        times = [r["wall_s"] for r in ops]
        materialize_s = statistics.median(times)
        if args.trace:
            rec = traced[0]
            metrics = rec["layers"]
            if len(traced) > 1:
                # the auxiliary vlog run supplies the chase layer, including
                # its trigger counting (one job per rule execution)
                aux = traced[1]["layers"]
                metrics.update({k: v for k, v in aux.items() if k.startswith("chase.")})
            r = rec["result"]
            metrics.update({
                "bench_data.gen_s": gen_s,
                "setup.session_s": session_s,
                "setup.warmup_s": warmup_s,
                "spark.jobs": rec["jobs"],
                "spark.stages": rec["stages"],
                "spark.tasks": rec["tasks"],
                "spark.failed_tasks": rec["failed_tasks"],
                "spark.jobs_per_round": rec["jobs"] / r.rounds if r and r.rounds else 0.0,
                "spark.jvm_hwm_mb": jvm_hwm_mb,
                "trace_overhead_s": rec["wall_s"] - materialize_s,
            })
            if metrics["spark.span_jobs"] + metrics["spark.other_jobs"] != rec["jobs"]:
                traced_ok = False
                log("traced op: span jobs + other != spark.jobs")
        else:
            metrics = {
                "materialize_s": materialize_s,
                "derived_per_s": reference / materialize_s,
                "setup_s": setup_s,
                "driver_rss_mb": driver_rss_mb,
            }
        units = metric_units("per_layer" if args.trace else "end_to_end")
        out = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        log(f"median op {materialize_s:.3f}s over {len(ops)} ops, derived={reference}, "
            f"failed={failed}")
        result = {
            "correct": failed == 0 and warm_why is None and traced_ok,
            "attempted": len(ops),
            "failed": failed,
            "metrics": out,
        }
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
