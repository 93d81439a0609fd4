"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
all); the underlying property suites live in epsim.verify so the CLI
``epsim verify`` exposes the same checks.
"""

import time

import pytest

from epsim import verify

_SUITE_CACHE = {}
_TIMINGS = {}


def suite(name):
    if name not in _SUITE_CACHE:
        start = time.perf_counter()
        _SUITE_CACHE[name] = {r.name: r for r in verify.run_suite(name)}
        _TIMINGS[name] = time.perf_counter() - start
    return _SUITE_CACHE[name]


def report(number, description, checks, runtime_limit, suite_name):
    ok = all(c.passed for c in checks)
    worst = max((c.metric for c in checks), default=0.0)
    runtime = max(c.seconds for c in checks)
    status = "PASS" if ok and runtime <= runtime_limit else "FAIL"
    print(
        f"ACCEPTANCE {number:>2}: {status}  {description}  "
        f"(worst metric {worst:.3e}, suite time {runtime:.1f}s "
        f"<= {runtime_limit:.0f}s)"
    )
    assert ok, f"criterion {number} failed: " + "; ".join(
        c.line() for c in checks if not c.passed
    )
    assert runtime <= runtime_limit, (
        f"criterion {number} exceeded its runtime budget: "
        f"{runtime:.1f}s > {runtime_limit}s"
    )


def test_criterion_01_channel_state_duality():
    checks = suite("duality")
    report(
        1,
        "channel-state duality: readout within 1e-12, round trip within 1e-10",
        [checks["choi-readout-identity"], checks["choi-roundtrip-action"]],
        runtime_limit=5,
        suite_name="duality",
    )


def test_criterion_02_binary_measurement_reconstruction():
    checks = suite("duality")
    report(
        2,
        "heralded two-branch measurement reconstruction within 1e-10",
        [checks["binary-measurement-reconstruction"]],
        runtime_limit=5,
        suite_name="duality",
    )


def test_criterion_03_bulk_edge_duality():
    checks = suite("mps")
    report(
        3,
        "bulk-edge duality on 200 random MPS within 1e-10",
        [checks["bulk-edge-duality"]],
        runtime_limit=30,
        suite_name="mps",
    )


def test_criterion_04_entanglement_picture_dynamics():
    checks = suite("network")
    report(
        4,
        "network evaluators: exact 1e-8, partitions 1e-10, sampling 19/20 in 4 sigma",
        [
            checks["entanglement-picture-equality"],
            checks["partition-invariance"],
            checks["postselect-sampling-4sigma"],
        ],
        runtime_limit=300,
        suite_name="network",
    )


def test_criterion_05_oqt_identities():
    checks = suite("oqt")
    report(
        5,
        "OQT mixing identity to 1e-14 (d=2..4); preparation plan within 1e-8",
        [checks["mixing-identity"], checks["prepare-plan-expectations"]],
        runtime_limit=10,
        suite_name="oqt",
    )


def test_criterion_06_trotter_scaling():
    checks = suite("network")
    report(
        6,
        "first-order Trotter error halves (within 20%) as R doubles",
        [checks["trotter-first-order-scaling"]],
        runtime_limit=10,
        suite_name="network",
    )


def test_criterion_07_thermal_pipeline():
    checks = suite("thermal")
    report(
        7,
        "thermal values: exact mode 1e-3, Trotterized 5e-3, log truncation growth",
        [
            checks["exact-mode-accuracy"],
            checks["trotter-mode-accuracy"],
            checks["truncation-log-growth"],
        ],
        runtime_limit=120,
        suite_name="thermal",
    )


def test_criterion_08_entropy():
    checks = suite("thermal")
    report(
        8,
        "modular-Hamiltonian entropy within 1e-2 on 20 random two-qubit states",
        [checks["modular-entropy"]],
        runtime_limit=60,
        suite_name="thermal",
    )


def test_criterion_09_transition_amplitudes():
    checks = suite("amplitude")
    report(
        9,
        "reflection-identity amplitudes within 1e-10; degenerate-reference fallback",
        [checks["reflection-assembly"], checks["degenerate-reference-fallback"]],
        runtime_limit=30,
        suite_name="amplitude",
    )


def test_criterion_10_two_unitary_decomposition():
    checks = suite("amplitude")
    report(
        10,
        "two-unitary decomposition: unitarity and reconstruction within 1e-10",
        [checks["two-unitary-unitarity"], checks["two-unitary-reconstruction"]],
        runtime_limit=5,
        suite_name="amplitude",
    )


def test_criterion_11_resource_formulas():
    checks = suite("network")
    report(
        11,
        "resource bookkeeping: floor(N/2) state qudits and 6M with M = L*floor(N/2)",
        [checks["resource-formulas"]],
        runtime_limit=1,
        suite_name="network",
    )


def test_criterion_12_generic_quantities():
    checks = suite("amplitude")
    report(
        12,
        "generic quantities: controlled-swap <a|U|a> within 1e-10, <phi|A|psi> within 1e-8",
        [checks["dqc1-cswap-exact"], checks["general-matrix-element"]],
        runtime_limit=5,
        suite_name="amplitude",
    )


def test_criterion_13_stinespring_and_purified_choi():
    checks = suite("duality")
    report(
        13,
        "Stinespring dilation and purified Choi state within 1e-10",
        [checks["stinespring-dilation"], checks["purified-choi"]],
        runtime_limit=5,
        suite_name="duality",
    )


@pytest.fixture(scope="session", autouse=True)
def summary_line(request):
    yield
    total = sum(_TIMINGS.values())
    print(f"\nacceptance suites total runtime: {total:.1f}s")
