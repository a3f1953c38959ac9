"""Passes, checks and metrics of one benchmark run.

``run.py`` pins the thread counts and puts ``src/`` on the import path
before this module loads numpy and readmit.
"""

import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy

from perfbench import checks, tracing, workloads
from perfbench.run import BLAS_THREADS, ROOT, THREAD_VARS

OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 3
MIN_PAIRS = 2
# Units of the figures a run prints and stores but BENCHMARK.json does not gate.
EXTRA_UNITS = {"select_s": "s", "holdout_auc": "ratio", "oracle_auc_gap": "ratio",
               "select_recall": "ratio", "kfold_s": "s", "failed_share": "ratio",
               "spans": "count"}


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def machine(workload, seed):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": workload.processes,
        "oversubscribed": BLAS_THREADS * workload.processes > nproc,
        "dtype": "float64",
        "git_sha": git_sha(),
        "seed": seed,
        "platform": platform.platform(),
    }


def peak_rss_mb(workload):
    """Peak RSS of this process, plus each fold worker at the largest worker's peak.

    The fold workers are forked and alive together, so ``jobs`` times the
    largest child peak bounds them from above; pages they share with the
    parent are counted more than once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.processes == 1:
        return own
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own + workload.sizes.jobs * child


class Run:
    """Checked passes of one workload: results, failures and counts."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = None       # first good pass; later passes must repeat it
        self.results = []           # good timed passes
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, timed=True):
        """One checked pass; returns (result or None if it failed, wall seconds).

        The untimed first pass is the warm-up: it fills allocator and page
        caches and is checked like every other pass.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = self.workload.run_pass(self.seed, self.workload.sizes, self.workdir)
        except Exception:  # a failed pass is counted, and the run goes on
            self._fail([traceback.format_exc()])
            return None, time.perf_counter() - started
        wall = time.perf_counter() - started
        problems = checks.check_pass(self.workload, result)
        if self.reference is not None:
            problems += checks.check_repeat(self.reference, result)
        gc.collect()
        if problems:
            self._fail(problems)
            return None, wall
        if self.reference is None:
            self.reference = result
        if timed:
            self.results.append(result)
        return result, wall

    def _fail(self, problems):
        self.failed += 1
        for p in problems:
            print(f"FAILED pass {self.attempted}: {p}", file=sys.stderr)
        self.failures.append({"pass": self.attempted, "problems": problems})


def keep_going(n, durations, elapsed, seconds, minimum):
    """Start another pass while it is expected to end within ``seconds``."""
    if n < minimum:
        return True
    return elapsed + statistics.median(durations) <= seconds


def measure(run, seconds):
    """Untraced passes; returns end-to-end figures by name, gated or not."""
    durations = []
    started = time.perf_counter()
    while keep_going(len(durations), durations, time.perf_counter() - started,
                     seconds, MIN_PASSES):
        _, wall = run.run_pass()
        durations.append(wall)
    if not run.results:
        return {}
    values = workloads.end_to_end(run.results)
    values["peak_rss_mb"] = peak_rss_mb(run.workload)
    first = run.results[0]
    values["holdout_auc"] = first.holdout_auc
    values["oracle_auc_gap"] = first.oracle_auc - first.holdout_auc
    values["select_recall"] = first.select_recall
    if run.workload.expects_members > 1:
        values["kfold_s"] = min(r.stages["train"] for r in run.results)
    return values


def measure_traced(run, seconds, spans_path):
    """Pairs of untraced and traced passes; returns per-layer figures by name.

    Pairs alternate which pass runs first, so a drift in machine speed does
    not land on one side of the overhead estimate.
    """
    tracer = tracing.Tracer()
    layers, overhead, share, pair_walls = [], [], [], []
    started = time.perf_counter()
    while keep_going(len(pair_walls), pair_walls, time.perf_counter() - started,
                     seconds, MIN_PAIRS):
        first_span = tracer.begin_trace(f"{run.workload.name}-{run.seed}-{os.getpid()}"
                                        f"-{len(pair_walls)}")

        def traced_pass():
            with tracer:
                return run.run_pass()

        if len(pair_walls) % 2:
            (traced, traced_wall), (plain, plain_wall) = traced_pass(), run.run_pass()
        else:
            (plain, plain_wall), (traced, traced_wall) = run.run_pass(), traced_pass()
        pair_walls.append(plain_wall + traced_wall)
        if plain is None or traced is None:
            continue
        layers.append(tracing.layer_metrics(tracer.spans[first_span:],
                                            tracer.gc_collections, tracer.gc_pause_s))
        overhead.append(traced_wall - plain_wall)
        share.append((traced_wall - plain_wall) / plain_wall)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_json()) + "\n")
    if not layers:
        return {}
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(overhead)
    values["trace.overhead_share"] = statistics.median(share)
    values["spans"] = len(tracer.spans)
    return values


def run_workload(args, spec):
    """Run ``args.workload``, print its metrics and write its BENCH file; returns
    the exit code."""
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        run = Run(workload, args.seed, workdir)
        run.run_pass(timed=False)
        if args.trace:
            values = measure_traced(run, args.seconds,
                                    OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
            wanted = spec["per_layer"]
        else:
            values = measure(run, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    extras = {name: value for name, value in values.items() if name not in units}
    problems = checks.validate_metrics(metrics, wanted)
    for p in problems:
        print(f"FAILED run: {p}", file=sys.stderr)
    extras["failed_share"] = run.failed / run.attempted
    correct = run.failed == 0 and not problems

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={run.attempted} failed={run.failed}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"  {name:36s} {value:>14.6g} {EXTRA_UNITS[name]}  (not gated)")
    bench = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine(workload, args.seed),
        "sizes": dataclasses.asdict(workload.sizes),
        "passes": [{"stages": r.stages,
                    **{k: v for k, v in r.deterministic().items() if k != "probs"}}
                   for r in run.results],
        "metrics": metrics, "extras": extras, "failures": run.failures,
        "attempted": run.attempted, "failed": run.failed, "correct": correct,
    }
    with open(OUT / f"BENCH_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1
