"""Run workloads over several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workloads train_short kfold_gru --seeds 1 2 3 4 5

Runs are made one at a time, each in a fresh process. For every workload
and metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and the metric's bound from
BENCHMARK.json. ``--out`` also writes these figures as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
    return result, wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    worst = 0
    for workload in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, args.seconds, 0)
            walls.append(wall)
            print(f"{workload} seed {seed}: {'ok' if result and result['correct'] else 'FAILED'}"
                  f" in {wall:.1f} s", flush=True)
            if result is None or not result["correct"]:
                worst = 1
                continue
            runs.append(result)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) >= 2:
                metrics[name] = summarize(values)
        report[workload] = {"seeds": args.seeds, "run_wall_s": walls, "metrics": metrics}
        print(f"\n{workload}: {len(runs)} correct runs, wall {max(walls):.1f} s max")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for name, s in metrics.items():
            print(f"  {name:18s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bounds[name]:6.2f}")
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
