"""Self-test of the benchmark: real reports pass its checks and perturbed
copies fail them; the tracer counts calls made through imported names and
restores every binding; BENCHMARK.json names the metrics run.py prints.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_report  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import make_jobs  # noqa: E402


def run_job(job):
    from epsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job["argv"])
    return code, json.loads(Path(job["report"]).read_text())


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """A few cheap jobs of each kind, keyed by name prefix."""
    picked = {}
    for workload, prefixes in (
        ("dynamics", ("exact-N8-L2", "regions-N8-L3")),
        ("sampled", ("postselect-N2-L1", "corrected-N2-L1")),
        ("estimators", ("thermal-tfim-N3", "entropy", "amplitude-3q-exact",
                        "amplitude-3q-shots", "duality-check")),
        ("verify", ("verify-oqt",)),
    ):
        for job in make_jobs(workload, 7, tmp_path_factory.mktemp(workload)):
            for prefix in prefixes:
                if job["name"].startswith(prefix):
                    picked[prefix] = job
    return picked


@pytest.fixture(scope="module")
def reports(jobs):
    return {prefix: run_job(job) for prefix, job in jobs.items()}


def test_inputs_repeat_for_a_seed(tmp_path):
    first = make_jobs("estimators", 3, tmp_path / "a")
    second = make_jobs("estimators", 3, tmp_path / "b")
    assert [j["check"] for j in first] == [j["check"] for j in second]
    other = make_jobs("estimators", 4, tmp_path / "c")
    assert [j["check"] for j in first] != [j["check"] for j in other]


def test_real_reports_pass(jobs, reports):
    for prefix, (code, report) in reports.items():
        assert check_report(jobs[prefix], code, report) == [], prefix


def _fails(job, code, report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return check_report(job, code, bad) != []


def test_perturbed_dynamics_value_and_oracle_fail(jobs, reports):
    for prefix in ("exact-N8-L2", "regions-N8-L3"):
        code, report = reports[prefix]
        assert _fails(jobs[prefix], code, report,
                      lambda r: r["value"].update(re=r["value"]["re"] + 1e-6))
        assert _fails(jobs[prefix], code, report,
                      lambda r: r["oracle"].update(im=r["oracle"]["im"] + 1e-6))
        assert _fails(jobs[prefix], code, report, lambda r: r.update(oracle=None))


def test_perturbed_sampled_estimate_fails(jobs, reports):
    for prefix in ("postselect-N2-L1", "corrected-N2-L1", "amplitude-3q-shots"):
        code, report = reports[prefix]
        shift = 6 * report["stderr"]
        if isinstance(report["value"], dict):
            edit = lambda r: r["value"].update(re=r["value"]["re"] + shift)  # noqa: E731
        else:
            edit = lambda r: r.update(value=r["value"] + shift)  # noqa: E731
        assert _fails(jobs[prefix], code, report, edit)
        assert _fails(jobs[prefix], code, report, lambda r: r.update(stderr=float("inf")))
        assert _fails(jobs[prefix], code, report, lambda r: r.update(stderr=None))


def test_perturbed_estimator_values_fail(jobs, reports):
    for prefix, delta in (("thermal-tfim-N3", 2e-3), ("entropy", 2e-3)):
        code, report = reports[prefix]
        assert _fails(jobs[prefix], code, report,
                      lambda r: r.update(value=r["value"] + delta))
    code, report = reports["amplitude-3q-exact"]
    assert _fails(jobs["amplitude-3q-exact"], code, report,
                  lambda r: r["value"].update(im=r["value"]["im"] + 1e-9))
    code, report = reports["duality-check"]
    assert _fails(jobs["duality-check"], code, report, lambda r: r.update(passed=False))


def test_failed_verify_check_fails(jobs, reports):
    code, summary = reports["verify-oqt"]
    assert _fails(jobs["verify-oqt"], code, summary,
                  lambda r: r["checks"][0].update(passed=False))
    assert _fails(jobs["verify-oqt"], code, summary, lambda r: r.update(checks=[]))


def test_error_reports(jobs, reports):
    job = jobs["exact-N8-L2"]
    error = {"error": {"type": "SizeGuardError", "message": "refusing"}}
    assert check_report(job, 1, error) != []
    assert check_report(job, 1, None) != []
    expected = dict(job, expect_failure=True)
    assert check_report(expected, 1, error) == []
    assert check_report(expected, 0, error) != []
    # A mended job that now succeeds is checked like any other.
    code, report = reports["exact-N8-L2"]
    assert check_report(expected, code, report) == []
    assert _fails(expected, code, report,
                  lambda r: r["value"].update(re=r["value"]["re"] + 1e-6))


def test_tracer_counts_calls_through_imported_names(jobs):
    from epsim import algorithms, hamiltonians

    original = hamiltonians.exact_unitary
    tracer = Tracer()
    tracer.install()
    try:
        assert algorithms.exact_unitary is hamiltonians.exact_unitary
        assert algorithms.exact_unitary is not original
        run_job(jobs["thermal-tfim-N3"])
    finally:
        tracer.uninstall()
    stats = tracer.take()
    assert hamiltonians.exact_unitary is original
    assert algorithms.exact_unitary is original
    assert stats["cli.main"]["calls"] == 1
    assert stats["hamiltonians.exact_unitary"]["calls"] > 0
    assert stats["algorithms.thermal_value"]["s"] <= stats["cli.main"]["s"]
    assert stats["cli.main"]["self_s"] < stats["cli.main"]["s"]


def test_benchmark_json_names_the_printed_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER) + [run.TRACE_OVERHEAD]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
