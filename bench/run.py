"""Benchmark of ``epsim run`` and ``epsim verify``; see README.md.

    python3 bench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Writes the workload's inputs from
the seed under ``bench/out/``, measures the import time of ``epsim.cli`` in
fresh interpreters, then starts one measuring process (``worker.py``)
pinned to one thread and prints one JSON object as the last line of standard
output.  Exits 2 when the checkout has no ``src/epsim``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, TRACE_OVERHEAD  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("EPSIM_MAX_THREADS", None)
    # setup_s is the import an installed package pays: from cached bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> float:
    """Median seconds from starting a fresh interpreter to the end of
    ``import epsim.cli``; one untimed start first writes the bytecode."""
    argv = [sys.executable, "-c", "import time, epsim.cli; print(time.monotonic())"]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_worker(env, root, jobs_file, seconds, trace) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--jobs", str(jobs_file),
            "--seconds", str(seconds), "--trace", str(trace), "--src", str(root / "src")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(worker) -> tuple:
    """Per-layer medians over every traced pass, and the full span table."""
    passes = worker["layers"]
    table = {}
    for name in sorted({fn for stats in passes for fn in stats}):
        table[name] = {
            stat: average(p.get(name, {}).get(stat, 0) for p in passes)
            for stat, average in (("calls", statistics.median_low), ("s", statistics.median),
                                  ("self_s", statistics.median),
                                  ("failed_s", statistics.median))
        }
    metrics = {}
    for metric in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        counts = {p.get(fn, {}).get(stat, 0) for p in passes}
        if stat == "calls" and len(counts) > 1:
            print(f"{metric}: differs between traced passes: {sorted(counts)}",
                  file=sys.stderr)
        if stat == "calls":
            metrics[metric] = {"value": table.get(fn, {}).get(stat, 0), "unit": "count"}
        else:
            metrics[metric] = {"value": table.get(fn, {}).get(stat, 0.0), "unit": "s"}
    overhead = statistics.median(worker["traced_pass_s"]) / statistics.median(worker["pass_s"])
    metrics[TRACE_OVERHEAD] = {"value": overhead, "unit": "ratio"}
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "epsim" / "cli.py").is_file():
        print(f"no epsim sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    jobs = make_jobs(args.workload, args.seed, out)
    jobs_file = out / "jobs.json"
    jobs_file.write_text(json.dumps(jobs, indent=1))
    env = child_env(root)

    setup_s = None if args.trace else measure_setup(env)
    try:
        worker = run_worker(env, root, jobs_file, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    problems = worker["problems"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        metrics, table = layer_metrics(worker)
        (out / "trace.json").write_text(json.dumps(table, indent=1, sort_keys=True))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(worker["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    (out / "worker.json").write_text(json.dumps(worker, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
