"""The bftorus benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
its ``src`` directory on the pure-Python kernel backend.  The workload's
task list is generated from ``--seed`` (see ``workloads.py``) and timed
in a closed loop on one thread: a task starts when the previous one
ends.  A fixed bftorus-free probe job (``speed.py``) is timed between
every two tasks, and each task time is scaled to the reference speed
by the probe times on either side of it.  On a shared machine whose
speed changes by up to 2x for minutes at a time, that cancels the
machine's speed and leaves the library's.  A task's time is the median
of its scaled runs.  The runs are split over WORKERS processes that run
one after another, each for an equal share of ``--seconds``; each makes
one whole pass, so that it checks every output, then goes on round-robin
until its share is up.  Every output is checked outside the timed
section.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced passes with passes traced by ``spans.Tracer`` in this process
and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first, among them the unscaled fastest-run
times; the last line of standard output is one JSON object.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import spans as tracing
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
WORKERS = 4
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170
SPANS_DIR = ROOT / ".perfbench_out"


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy report."""


def say(text):
    print(text, flush=True)


def check_inputs(workload, seed, tasks):
    text = [json.dumps(t) for t in tasks]
    if len(set(text)) != len(text):
        raise BenchmarkError("generated tasks are not distinct")
    digest = workloads.digest(tasks)
    say(f"inputs: {len(tasks)} distinct tasks, seed {seed}, sha256 {digest}")
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text())[workload.name]
        if digest != recorded:
            raise BenchmarkError(
                f"inputs for the default seed changed: sha256 {digest}, recorded {recorded}")


def import_library():
    """Import bftorus from the checkout's src directory."""
    package = importlib.import_module("bftorus")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"bftorus was imported from {package.__file__}, not src/")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"bftorus.{m}") for m in tracing.LAYERS})


def set_up(workload, warm):
    """Import bftorus and run one untimed warm-up task.

    The warm-up task is the same for every seed, so set-up time does
    not depend on the inputs being measured."""
    t0 = perf_counter()
    lib = import_library()
    workload.run(lib, warm)
    return lib, perf_counter() - t0


def probe_median(count=5):
    return statistics.median(speed.probe_ms() for _ in range(count))


def load_library(workload):
    """The library on the pure backend, and its set-up time.

    The set-up time is scaled to the reference speed by the probe job,
    timed just before and just after it."""
    os.environ["BFTORUS_PURE"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    warm = workloads.inputs(workload, "warm-up", count=1)[0]
    speed.probe_ms()  # the probe's own first call is not a measurement
    before = probe_median()
    lib, setup_s = set_up(workload, warm)
    setup_s *= speed.REFERENCE_MS / ((before + probe_median()) / 2)
    # A library without the attribute has only the pure backend.
    backend = getattr(lib.kernels, "BACKEND", "python")
    if backend != "python":
        raise BenchmarkError(f"kernel backend is {backend!r}, not the pure 'python' one")
    return lib, setup_s, backend


class Checker:
    """Checks every output outside the timed section.

    The first good output of a task gets the workload's full check;
    later passes must reproduce its canonical summary exactly."""

    def __init__(self, workload, tasks):
        self.workload = workload
        self.tasks = tasks
        self.summaries = [None] * len(tasks)
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, i, out, err):
        self.attempted += 1
        try:
            if err is not None:
                raise err
            summary = hashlib.sha256(self.workload.summary(out).encode()).hexdigest()
            if self.summaries[i] is None:
                self.workload.check(self.tasks[i], out)
                self.summaries[i] = summary
            elif summary != self.summaries[i]:
                raise workloads.CheckFailed("output differs from an earlier pass")
        except Exception as exc:  # any failure of a task or its check is counted
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"task {i}: {type(exc).__name__}: {exc}")


def untraced_pass(workload, lib, tasks, checker, record, order=None, deadline=None):
    """Run the tasks numbered in ``order`` (default: all, once), with the
    probe job timed between tasks, until ``deadline`` if one is given.

    ``record(i, dt, probe_ms)`` gets each task's time and the mean of
    the probe times just before and just after it.  Returns the number
    of tasks run."""
    runs = 0
    before = speed.probe_ms()
    for i in range(len(tasks)) if order is None else order:
        if deadline is not None and perf_counter() >= deadline:
            break
        task = tasks[i]
        runs += 1
        t0 = perf_counter()
        try:
            out, err = workload.run(lib, task), None
        except Exception as exc:  # a failing task is counted, the run goes on
            out, err = None, exc
        dt = perf_counter() - t0
        after = speed.probe_ms()
        record(i, dt, (before + after) / 2)
        checker(i, out, err)
        before = after
    return runs


def traced_pass(workload, lib, tasks, best, checker, tracer):
    """One traced pass; returns the number of orders found (lattice only)."""
    nodes = 0
    tracer.install()
    try:
        for i, task in enumerate(tasks):
            out, err, dt = tracer.run_task(i, workload.run, lib, task)
            best[i] = min(best[i], dt)
            checker(i, out, err)
            if workload.name == "lattice" and out is not None:
                nodes += len(out[0].nodes)
    finally:
        tracer.uninstall()
    return nodes


def run_passes(seconds, min_rounds, one_round):
    """Whole rounds until the next one would overrun ``seconds``."""
    start = perf_counter()
    durations = []
    while len(durations) < min_rounds or (
            perf_counter() - start + statistics.mean(durations) <= seconds):
        t0 = perf_counter()
        one_round()
        durations.append(perf_counter() - t0)
    return len(durations)


def task_stats(times):
    ms = [1000 * t for t in times]
    return {
        "tasks_per_s": len(times) / sum(times),
        "task_p50_ms": statistics.median(ms),
        "task_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def worker(workload, index, seconds):
    """Time the task list read from stdin; print one JSON line.

    One whole pass first, so that this worker checks every output, then
    tasks in round-robin order from the ``index``-th share of the list on,
    until ``seconds`` are up.  Workers start at different places, so the
    extra runs spread evenly over the tasks."""
    tasks = json.loads(sys.stdin.read())
    lib, setup_s, backend = load_library(workload)
    start = perf_counter()
    checker = Checker(workload, tasks)
    scaled = [[] for _ in tasks]
    best = [float("inf")] * len(tasks)

    def record(i, dt, probe_ms):
        scaled[i].append(dt * speed.REFERENCE_MS / probe_ms)
        best[i] = min(best[i], dt)

    runs = untraced_pass(workload, lib, tasks, checker, record)
    first = index * len(tasks) // WORKERS
    order = itertools.cycle(list(range(first, len(tasks))) + list(range(first)))
    runs += untraced_pass(workload, lib, tasks, checker, record, order, start + seconds)
    print(json.dumps({
        "scaled": scaled, "best": best, "passes": runs / len(tasks), "setup_s": setup_s,
        "backend": backend,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checker.attempted, "failed": checker.failed,
        "messages": checker.messages, "summaries": checker.summaries,
    }))


def end_to_end(workload, tasks, seconds, started):
    checker = Checker(workload, tasks)
    scaled = [[] for _ in tasks]
    best = [float("inf")] * len(tasks)
    reports = []
    for k in range(WORKERS):
        left = RUN_LIMIT_S - (perf_counter() - started)
        if left <= 0:
            raise BenchmarkError("out of time before every worker ran")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--worker", str(k), "--workload", workload.name,
                 "--seconds", str(seconds / WORKERS)],
                input=json.dumps(tasks), capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker {k + 1} ran out of time") from None
        if proc.returncode:
            raise BenchmarkError(f"worker {k + 1} failed: {proc.stderr.strip()[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        reports.append(rep)
        best = [min(a, b) for a, b in zip(best, rep["best"])]
        for mine, theirs in zip(scaled, rep["scaled"]):
            mine += theirs
        checker.attempted += rep["attempted"]
        checker.failed += rep["failed"]
        checker.messages += rep["messages"]
        # Every worker must reproduce the outputs of the others.
        for i, summary in enumerate(rep["summaries"]):
            if summary is None:
                continue
            if checker.summaries[i] is None:
                checker.summaries[i] = summary
            elif summary != checker.summaries[i]:
                checker.failed += 1
                checker.messages.append(f"task {i}: worker {k + 1} output differs")
    passes = [rep["passes"] for rep in reports]
    say(f"backend: {reports[0]['backend']}")
    say(f"passes: {sum(passes):.2f} over {WORKERS} worker processes "
        f"{[round(p, 2) for p in passes]}; per-task time is "
        f"the median over passes of its time scaled to the reference speed; p50 and p90 "
        f"over {len(tasks)} task samples; setup_s is the median of {WORKERS} set-ups, "
        f"one per worker, scaled the same way")
    raw = task_stats(best)
    say("unscaled fastest-pass times: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    metrics = task_stats([statistics.median(s) for s in scaled])
    metrics["setup_s"] = statistics.median(rep["setup_s"] for rep in reports)
    metrics["peak_rss_mb"] = max(rep["rss_mb"] for rep in reports)
    metrics["ok_frac"] = 1 - checker.failed / checker.attempted
    units = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
    return checker, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


PER_LAYER = (
    [(f"{layer}.{k}", unit) for layer in tracing.LAYERS
     for k, unit in (("calls", "count"), ("self_s", "s"))]
    + [("bench.self_s", "s")]
    + [(f"kernels.{fn}.{k}", unit) for fn in ("snf_rows", "hnf_cols")
       for k, unit in (("calls", "count"), ("self_s", "s"), ("max_entry_bits", "bits"))]
    + [(f"{fn}.{k}", unit)
       for fn in ("kernels.mat_mul_rows", "kernels.solve_upper_cols",
                  "exactmat.eval_poly_at_matrix", "polyring.poly_mod",
                  "polyring.is_irreducible", "numberfield.FieldElement.mul", "ideals.colon")
       for k, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"ratlin.{fn}.self_s", "s") for fn in ("inverse", "mat_mul", "det")]
    + [("numberfield.FieldElement.inverse.calls", "count"),
       ("orders.enumerate_order_lattice.self_s", "s"),
       ("orders.enumerate_order_lattice.solve_calls", "count"),
       ("orders.enumerate_order_lattice.nodes_per_ksolve", "per_1000"),
       ("invariants.bf_refute.candidates", "count"),
       ("invariants.bf_group.nonintegral", "count"),
       ("invariants.matrix_to_ideal.self_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def per_layer(workload, lib, tasks, seconds, seed):
    checker = Checker(workload, tasks)
    tracer = tracing.Tracer()
    plain = [float("inf")] * len(tasks)
    traced = [float("inf")] * len(tasks)
    stats = []

    def record(i, dt, probe_ms):
        plain[i] = min(plain[i], dt)

    def one_round():
        untraced_pass(workload, lib, tasks, checker, record)
        tracer.reset()
        nodes = traced_pass(workload, lib, tasks, traced, checker, tracer)
        stats.append(tracer.pass_stats())
        stats[-1]["nodes"] = nodes

    rounds = run_passes(seconds, MIN_TRACED_PASSES, one_round)
    say(f"rounds: {rounds}, each an untraced and a traced pass over {len(tasks)} tasks; "
        f"{len(tracer)} spans in the last traced pass")
    # Pass invariance: the fastest-pass estimator must not reward work
    # that one pass leaves behind for the next (a cache across calls).
    for k, s in enumerate(stats[1:], start=2):
        for key in ("calls", "solve_calls", "candidates", "nonintegral", "nodes"):
            if s[key] != stats[0][key]:
                raise BenchmarkError(f"traced pass {k} differs from pass 1 in {key}")
    say(f"pass invariance: call counts identical in all {rounds} traced passes")
    say(f"span accounting: self times add up to the traced duration of every task")

    first = stats[0]

    def median_self(match):
        return statistics.median(
            sum(v for k, v in s["self_s"].items() if match(k)) for s in stats)

    def value(name):
        key, _, what = name.rpartition(".")
        if name == "trace.overhead_frac":
            return sum(traced) / sum(plain) - 1
        if name == "bench.self_s":
            return median_self(lambda k: k in (tracing.ROOT, tracing.BITS_SPAN))
        if what == "solve_calls":
            return first["solve_calls"]
        if what == "nodes_per_ksolve":
            return 1000 * first["nodes"] / first["solve_calls"] if first["solve_calls"] else 0
        if what in ("candidates", "nonintegral"):
            return first[what]
        if what == "max_entry_bits":
            return max(s["max_bits"][key] for s in stats)
        layer = key in tracing.LAYERS
        if what == "calls":
            if layer:
                return sum(v for k, v in first["calls"].items() if k.startswith(key + "."))
            return first["calls"][key]
        if layer:
            return median_self(lambda k: k.startswith(key + "."))
        return median_self(lambda k: k == key)

    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(path)
    say(f"spans of the last traced pass written to {path.relative_to(ROOT)}")
    return checker, {name: {"value": value(name), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bftorus").is_dir():
        raise BenchmarkError("no src/bftorus here: run from the root of a source checkout")
    workload = workloads.WORKLOADS[args.workload]
    if args.worker is not None:
        worker(workload, args.worker, args.seconds)
        return

    tasks = workloads.inputs(workload, args.seed)
    check_inputs(workload, args.seed, tasks)
    if args.trace:
        lib, _, backend = load_library(workload)
        say(f"backend: {backend}")
        checker, metrics = per_layer(workload, lib, tasks, args.seconds, args.seed)
    else:
        checker, metrics = end_to_end(workload, tasks, args.seconds, started)
    failed_frac = checker.failed / checker.attempted
    say(f"failed_frac: {failed_frac} ({checker.failed} of {checker.attempted} task runs)")
    for msg in checker.messages[:5]:
        say(f"  {msg}")
    for name, m in metrics.items():
        say(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills a running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        main()
    except (BenchmarkError, tracing.TraceCheckFailed) as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        sys.exit(2)
