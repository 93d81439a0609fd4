"""One measuring process of the benchmark; started by ``run.py``.

Runs a warm-up pass and then timed passes over a workload's job list, each
job one in-process call of ``epsim.cli.main``, until the timed passes add up
to ``--seconds``.  After every pass (outside the timed region) each report is
read back and checked.  With ``--trace 1`` untraced and traced passes
alternate and the traced ones record per-layer spans.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_report
from tracing import Tracer


def run_pass(cli, jobs):
    """Time one pass; return (seconds, exit codes, crash messages)."""
    for job in jobs:
        Path(job["report"]).unlink(missing_ok=True)
    codes, crashes = [], []
    start = time.perf_counter()
    for job in jobs:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(job["argv"]))
        except Exception as exc:  # a traceback instead of a JSON error report
            codes.append(None)
            crashes.append(f"{job['name']}: raised {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, codes, crashes


def read_report(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory epsim must come from")
    args = parser.parse_args(argv)

    import epsim
    import epsim.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(epsim.__file__).resolve().parents:
        print(f"epsim imported from {epsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    jobs = json.loads(Path(args.jobs).read_text())
    tracer = Tracer() if args.trace else None

    attempted = failed = 0
    problems = []
    untraced, traced, layers = [], [], []
    n_pass = 0
    # Start another timed pass while it is expected to end no more than half
    # a pass after --seconds, so the timed passes add up to --seconds on
    # average however long a pass is.
    while (n_pass < 2 or (tracer is not None and not traced)
           or sum(untraced) + sum(traced) + statistics.median(untraced + traced) / 2
           <= args.seconds):
        tracing = tracer is not None and n_pass % 2 == 0 and n_pass > 0
        if tracing:
            tracer.install()
        try:
            seconds, codes, crashes = run_pass(cli, jobs)
        finally:
            if tracing:
                tracer.uninstall()
        problems += crashes
        for job, code in zip(jobs, codes):
            attempted += 1
            report = read_report(job["report"])
            failed += code != 0
            problems += check_report(job, code, report)
        if n_pass > 0:  # pass 0 is the warm-up
            (traced if tracing else untraced).append(seconds)
            if tracing:
                layers.append(tracer.take())
        n_pass += 1

    print(json.dumps({
        "pass_s": untraced,
        "traced_pass_s": traced,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
