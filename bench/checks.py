"""Checks of ``epsim run`` reports and ``epsim verify`` summaries against the
reference values that :mod:`workloads` computed.

Each check returns a list of problems; an empty list means the report is
correct.  A job the workload expects to fail must come back as a JSON error
report; if it succeeds instead (a later change mended it), its value is
checked like any other.
"""

from __future__ import annotations

import math


def _complex(value):
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def check_report(job: dict, code: int, report) -> list:
    """Problems with one job's exit code and report (``None`` if unreadable)."""
    if report is None:
        return [f"{job['name']}: no readable report (exit {code})"]
    if "error" in report:
        err = report["error"]
        if not job["expect_failure"]:
            return [f"{job['name']}: failed with {err.get('type')}: {err.get('message')}"]
        if code == 0 or not err.get("type"):
            return [f"{job['name']}: malformed error report (exit {code})"]
        return []
    if code != 0:
        return [f"{job['name']}: exit {code} without an error report"]
    check = job["check"]
    kind = check["kind"]
    if kind == "verify":
        return _check_verify(job["name"], report)
    if kind == "passed":
        return [] if report.get("passed") is True else [f"{job['name']}: passed is not true"]
    problems = []
    got = _complex(report["value"])
    want = _complex(check["value"])
    if kind == "value":
        if not abs(got - want) <= check["tol"]:
            problems.append(
                f"{job['name']}: |value - reference| = {abs(got - want):.3e} > {check['tol']:.1e}"
            )
    elif kind == "sampled":
        stderr = report.get("stderr")
        if stderr is None or not math.isfinite(stderr) or stderr <= 0:
            problems.append(f"{job['name']}: stderr {stderr!r} is not finite and positive")
        elif not abs(got - want) <= check["sigmas"] * stderr:
            problems.append(
                f"{job['name']}: |estimate - reference| = {abs(got - want):.3e} "
                f"> {check['sigmas']} x stderr {stderr:.3e}"
            )
    else:
        problems.append(f"{job['name']}: unknown check kind {kind!r}")
    if "oracle_tol" in check:
        oracle = report.get("oracle")
        if oracle is None:
            problems.append(f"{job['name']}: report has no oracle value")
        elif not abs(_complex(oracle) - want) <= check["oracle_tol"]:
            problems.append(
                f"{job['name']}: |oracle - reference| = "
                f"{abs(_complex(oracle) - want):.3e} > {check['oracle_tol']:.1e}"
            )
    return problems


def _check_verify(name, summary) -> list:
    checks = summary.get("checks") or []
    problems = [
        f"{name}: check {c.get('suite')}/{c.get('name')} failed"
        for c in checks if c.get("passed") is not True
    ]
    if not checks:
        problems.append(f"{name}: summary lists no checks")
    if summary.get("passed") is not True:
        problems.append(f"{name}: summary passed is not true")
    return problems
