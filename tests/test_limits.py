"""The table of limits: one trace-preservation kernel at one tolerance, one
shot-count bound, and a lint that keeps every tolerance and guard in it."""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import random_kraus
from epsim import algorithms as alg
from epsim import channels as ch
from epsim import limits, network
from epsim.errors import ShapeError
from epsim.linalg import tp_residual
from epsim.mps import MPS, from_statevector
from epsim.rand import haar_unitary, random_state

SRC = Path(limits.__file__).parent
# Divide-by-zero floors that stay next to their division, as (module, value).
FLOORS = sorted([
    ("algorithms.py", 1e-30),  # extract_moments' default grid: a zero norm bound
])


def _scaled(a, factor):
    """``a`` times sqrt(1 + factor * TP_TOL): its sum A^dag A - 1 is then
    factor * TP_TOL times the identity, up to rounding."""
    return a * np.sqrt(1 + factor * limits.TP_TOL)


def _gate(factor):
    u = _scaled(haar_unitary(np.random.default_rng(1), 4), factor)
    return lambda: network.BrickworkCircuit(2, (((0, u),),))


def _compiled(factor):
    u = _scaled(haar_unitary(np.random.default_rng(2), 4), factor)
    return lambda: network.compile_gate(u)


def _hadamard(factor):
    u = _scaled(haar_unitary(np.random.default_rng(3), 2), factor)
    return lambda: alg.hadamard_test(u, [1, 0])


def _channel(factor):
    kraus = _scaled(random_kraus(np.random.default_rng(4), 2, 3, 2), factor)
    return lambda: ch.Channel(tuple(kraus))


def _mps_site(factor):
    psi = from_statevector(random_state(np.random.default_rng(5), 8), [2, 2, 2])
    tensors = list(psi.tensors)
    tensors[1] = _scaled(tensors[1], factor)
    state = MPS(tuple(tensors), psi.boundary, canonical="left")

    def check():  # the gauge test answers False where the others raise
        if not all(np.all(tp_residual(t) <= limits.TP_TOL) for t in state.tensors):
            raise ShapeError("site tensor is not left-canonical")
    return check


@pytest.mark.parametrize("caller,message", [
    (_gate, "^layer 0: gate at site 0 is not unitary$"),
    (_compiled, "^gate is not unitary$"),
    (_hadamard, "^hadamard_test needs a unitary operator$"),
    (_channel, "^Kraus operators are not trace preserving"),
    (_mps_site, "left-canonical"),
], ids=["circuit-gate", "compile-gate", "hadamard-unitary", "kraus-set", "mps-site"])
def test_one_kernel_at_the_shared_tolerance(caller, message):
    with pytest.raises(ShapeError, match=message):
        caller(2.0)()
    caller(0.5)()


@pytest.mark.parametrize("shots", [0, -5, 2**63, limits.MAX_SHOTS + 1])
def test_shot_counts_outside_the_bound_are_refused(shots):
    eye, zero = np.eye(2), [1, 0]
    calls = [
        lambda: alg.hadamard_test(eye, zero, shots=shots),
        lambda: alg.dqc1_cswap_estimate(eye, zero, zero, shots=shots),
        lambda: alg.transition_amplitude(zero, eye, zero, shots=shots),
        lambda: network.sample_cells(np.array([[0.5, 0.5]]), np.array([1.0, -1.0]), 0.0,
                                     shots, 0),
    ]
    for call in calls:
        with pytest.raises(ShapeError, match="shots must be in 1.."):
            call()


def test_largest_shot_count_is_drawn():
    est = alg.hadamard_test(np.eye(2), [1, 0], shots=limits.MAX_SHOTS, seed=0)
    assert est.shots == 2 * limits.MAX_SHOTS and abs(est.value - 1) < 1e-6


def _literals():
    """(module, float literal) for every float literal below 1e-2 outside
    the table and verify's check thresholds, and the SizeGuardError calls
    outside limits.guard, as (module, line)."""
    floats, raises = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "limits.py":
            (guard,) = [n for n in tree.body if getattr(n, "name", None) == "guard"]
            allowed = set(ast.walk(guard))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < 1e-2
                    and path.name not in ("limits.py", "verify.py")):
                floats.append((path.name, node.value))
            name = getattr(node, "func", None)
            name = getattr(name, "id", getattr(name, "attr", None))
            if name == "SizeGuardError" and node not in allowed:
                raises.append((path.name, node.lineno))
    return sorted(floats), raises


def test_every_tolerance_and_guard_lives_in_the_table():
    floats, raises = _literals()
    assert floats == FLOORS, "tolerance literals outside epsim.limits"
    assert raises == [], "SizeGuardError raised outside limits.guard"
