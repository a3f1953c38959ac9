"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 30 --trace 0

Run it from the root of a readmit checkout; it imports the package from
``src/``. A run makes one warm-up pass, then repeats passes of the
workload (set-up plus measured phase, same seed every time) for about
``--seconds`` seconds. It reports the median set-up time and, for every
other time, the fastest timed pass. With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead. ``--workload all`` runs
every workload in turn, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One BLAS/OpenMP thread per busy process: kfold_gru keeps two fold workers
# busy, so threads x processes stays within nproc on a 2-core machine. With
# default threads, kfold_train(jobs=2) was slower than jobs=1 (README).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Must run before numpy is first imported in this process."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args, spec):
    """Every workload in turn, each in a fresh process."""
    code = 0
    for w in spec["workloads"]:
        proc = subprocess.run([sys.executable, __file__, "--workload", w["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv=None):
    if not (SRC / "readmit" / "__init__.py").is_file():
        print(f"perfbench: no readmit sources under {SRC}; run from a readmit checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)

    pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import readmit

    if Path(readmit.__file__).resolve().parent != SRC / "readmit":
        print(f"perfbench: imported readmit from {readmit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import runner

    return runner.run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
