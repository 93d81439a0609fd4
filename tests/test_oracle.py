import math

import numpy as np
import pytest

from conftest import PAULI
from epsim import network, oracle
from epsim.errors import ShapeError, SizeGuardError
from epsim.hamiltonians import build_tfim, exact_unitary
from epsim.mps import from_statevector, product_mps
from epsim.rand import haar_unitary, random_state

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_apply_circuit_basics():
    empty = network.BrickworkCircuit(2, ())
    psi = random_state(0, 4)
    assert np.allclose(oracle.apply_circuit(psi, empty), psi)
    circ = network.BrickworkCircuit(2, (((0, CNOT),),))
    got = oracle.apply_circuit([0, 0, 1, 0], circ)  # |10> -> |11>
    assert np.allclose(got, [0, 0, 0, 1])


def test_apply_circuit_norm_preserved():
    rng = np.random.default_rng(1)
    layers = tuple(
        tuple((s, haar_unitary(rng, 4)) for s in range(l % 2, 4, 2))
        for l in range(3)
    )
    circ = network.BrickworkCircuit(5, layers)
    psi = random_state(rng, 2**5)
    out = oracle.apply_circuit(psi, circ)
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_apply_circuit_stack_matches_columns():
    rng = np.random.default_rng(3)
    layers = tuple(
        tuple((s, haar_unitary(rng, 4)) for s in range(l % 2, 3, 2))
        for l in range(3)
    )
    circ = network.BrickworkCircuit(4, layers)
    states = rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))
    got = oracle.apply_circuit(states, circ)
    assert got.shape == (16, 5)
    for b in range(5):
        assert np.max(np.abs(got[:, b] - oracle.apply_circuit(states[:, b], circ))) < 1e-14
    one = oracle.apply_circuit(states[:, :1], circ)
    assert one.shape == (16, 1) and np.max(np.abs(one[:, 0] - got[:, 0])) < 1e-14
    with pytest.raises(ShapeError):
        oracle.apply_circuit(states[:8], circ)


def test_apply_circuit_flattens_tensor_shaped_state():
    circ = network.BrickworkCircuit(2, (((0, CNOT),),))
    got = oracle.apply_circuit(np.array([[0, 0], [1, 0]]), circ)  # |10> as (2, 2)
    assert got.shape == (4,) and np.allclose(got, [0, 0, 0, 1])


def test_apply_circuit_matches_exact_unitary():
    # The circuit of a one-step splitting equals the product of its layer
    # exponentials applied gate by gate.
    from epsim.hamiltonians import trotter_circuit

    h = build_tfim(4, 1.0, 0.9)
    circ = trotter_circuit(h, 0.3, 1)
    psi = random_state(2, 16)
    got = oracle.apply_circuit(psi, circ)
    u = np.eye(16, dtype=complex)
    for layer in circ.layers:
        step = np.eye(16, dtype=complex)
        for site, gate in layer:
            from epsim.linalg import embed_operator

            step = embed_operator(gate, [site, site + 1], [2] * 4) @ step
        u = step @ u
    assert np.max(np.abs(got - u @ psi)) < 1e-10


def test_thermal_exact_consistency():
    # Eigendecomposition value equals the Taylor series summed to machine
    # convergence.
    h = build_tfim(2, 1.0, 0.8)
    a = np.diag([1.0, -1.0, 0.5, 0.25]).astype(complex)
    beta = 0.6
    direct = oracle.thermal_exact(a, h, beta)
    hd = h.dense()
    series = np.zeros_like(hd)
    power = np.eye(4, dtype=complex)
    for n in range(60):
        series += power * (-beta) ** n / math.factorial(n)
        power = power @ hd
    assert abs(direct - np.real(np.trace(a @ series))) < 1e-10
    assert oracle.thermal_exact(np.eye(4), h, 0.0) == pytest.approx(4.0)


def test_entropy_exact():
    assert oracle.entropy_exact(np.eye(4) / 4) == pytest.approx(np.log(4))
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert oracle.entropy_exact(pure) == pytest.approx(0.0, abs=1e-12)


def test_amplitude_exact():
    phi, psi = random_state(3, 4), random_state(4, 4)
    assert oracle.amplitude_exact(phi, np.eye(4), psi) == pytest.approx(
        complex(np.conj(phi) @ psi)
    )


def test_expectation_matches_dense_embedding():
    from conftest import dense_expectation

    rng = np.random.default_rng(6)
    for n in (1, 3, 8):
        psi = random_state(rng, 2**n)
        sites = rng.choice(n, size=min(n, 3), replace=False)
        ops = {int(s): PAULI["XYZ"[k % 3]] for k, s in enumerate(sites)}
        got = oracle.expectation(psi, ops, [2] * n)
        assert abs(got - dense_expectation(psi, ops, [2] * n)) < 1e-12
    with pytest.raises(ShapeError):
        oracle.expectation(random_state(rng, 4), {0: np.eye(4)}, [2, 2])


def test_size_guards():
    with pytest.raises(SizeGuardError):
        oracle.apply_circuit(np.zeros(2**15), network.BrickworkCircuit(15, ()))
    h = build_tfim(13, 1.0, 0.0)
    with pytest.raises(SizeGuardError):
        exact_unitary(h, 1.0)


def test_circuit_expectation_refuses_mismatched_site_dims():
    circ = network.BrickworkCircuit(2, (((0, CNOT),),))
    qutrits = from_statevector(random_state(5, 9), [3, 3])
    with pytest.raises(ShapeError, match="site dims"):
        oracle.circuit_expectation(qutrits, circ, {0: np.eye(3)})
    three = product_mps([np.array([1, 0])] * 3)
    with pytest.raises(ShapeError, match="site dims"):
        oracle.circuit_expectation(three, circ, {0: PAULI["Z"]})
