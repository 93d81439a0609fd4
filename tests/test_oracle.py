import math

import numpy as np
import pytest

from conftest import PAULI
from epsim import network, oracle
from epsim.errors import ShapeError, SizeGuardError
from epsim.hamiltonians import build_tfim, exact_unitary
from epsim.mps import MPS, from_statevector
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


def test_apply_circuit_stack_matches_rows():
    # A (dim, dim) stack is dim states, one per row, as in every other kernel.
    rng = np.random.default_rng(3)
    layers = tuple(
        tuple((s, haar_unitary(rng, 4)) for s in range(l % 2, 3, 2))
        for l in range(3)
    )
    circ = network.BrickworkCircuit(4, layers)
    states = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    got = oracle.apply_circuit(states, circ)
    assert got.shape == (16, 16)
    for b in range(16):
        assert np.max(np.abs(got[b] - oracle.apply_circuit(states[b], circ))) < 1e-14
    deep = oracle.apply_circuit(states.reshape(2, 8, 16), circ)
    assert deep.shape == (2, 8, 16) and np.max(np.abs(deep.reshape(16, 16) - got)) < 1e-14
    u = oracle.apply_circuit(np.eye(16), circ).T
    assert np.max(np.abs(states @ u.T - got)) < 1e-14
    with pytest.raises(ShapeError):
        oracle.apply_circuit(states[:, :8], circ)


def test_apply_local_takes_per_case_operators():
    rng = np.random.default_rng(4)
    dims = [2, 3, 2, 2]
    states = rng.normal(size=(5, 24)) + 1j * rng.normal(size=(5, 24))
    gates = np.stack([haar_unitary(rng, 6) for _ in range(5)])  # on sites 1, 2
    got = oracle.apply_local(states, gates, 1, dims)
    for b in range(5):
        want = oracle.apply_local(states[b], gates[b], 1, dims)
        assert np.max(np.abs(got[b] - want)) < 1e-14
    dense = np.kron(np.kron(np.eye(2), gates[0]), np.eye(2))
    assert np.max(np.abs(got[0] - dense @ states[0])) < 1e-14


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


def test_thermal_exact_takes_a_stack_from_one_dense_build(monkeypatch):
    h = build_tfim(3, 1.0, 0.7)
    rng = np.random.default_rng(9)
    m = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    a = np.concatenate([m + np.conj(np.swapaxes(m, -1, -2)), np.eye(8)[None]])
    singles = [oracle.thermal_exact(x, h, 0.4) for x in a]
    assert all(isinstance(x, float) for x in singles)
    builds = []
    dense = type(h).dense
    monkeypatch.setattr(type(h), "dense", lambda self: builds.append(1) or dense(self))
    stacked = oracle.thermal_exact(a, h, 0.4)
    assert stacked.shape == (3,) and np.array_equal(stacked, singles)
    assert len(builds) == 1


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


def test_size_guards(monkeypatch):
    with pytest.raises(SizeGuardError):
        oracle.apply_circuit(np.zeros(2**15), network.BrickworkCircuit(15, ()))
    # Priced from the circuit before the statevector is built.
    zero = np.array([1, 0], dtype=complex).reshape(2, 1, 1)
    psi = MPS((zero,) * 15, np.eye(1), canonical="left")  # |0>^15

    def unreachable(self):
        raise AssertionError("statevector built before the size guard")

    monkeypatch.setattr(MPS, "to_statevector", unreachable)
    with pytest.raises(SizeGuardError):
        oracle.circuit_expectation(psi, network.BrickworkCircuit(15, ()), {0: PAULI["Z"]})
    h = build_tfim(13, 1.0, 0.0)
    with pytest.raises(SizeGuardError):
        exact_unitary(h, 1.0)


def test_circuit_expectation_refuses_mismatched_site_dims():
    circ = network.BrickworkCircuit(2, (((0, CNOT),),))
    qutrits = from_statevector(random_state(5, 9), [3, 3])
    with pytest.raises(ShapeError, match="site dims"):
        oracle.circuit_expectation(qutrits, circ, {0: np.eye(3)})
    three = from_statevector(np.eye(8)[0], [2] * 3)
    with pytest.raises(ShapeError, match="site dims"):
        oracle.circuit_expectation(three, circ, {0: PAULI["Z"]})


def test_stacked_circuit_expectation_matches_per_case_calls():
    rng = np.random.default_rng(47)
    states = np.stack([random_state(rng, 2**4) for _ in range(5)])
    gates = np.stack([[haar_unitary(rng, 4) for _ in range(3)] for _ in range(5)])
    layers = (((0, gates[:, 0]), (2, gates[:, 1])), ((1, gates[:, 2]),))
    circ = network.BrickworkCircuit(4, layers)
    psi = from_statevector(states, [2] * 4)
    ops = {1: np.stack([PAULI["XYZIX"[k]] for k in range(5)]), 3: PAULI["Z"]}
    got = oracle.circuit_expectation(psi, circ, ops)
    assert got.shape == (5,)
    for k, single in enumerate(psi.cases()):
        case = network.BrickworkCircuit(4, tuple(tuple((s, g[k]) for s, g in layer)
                                                 for layer in layers))
        want = oracle.circuit_expectation(single, case, {1: ops[1][k], 3: ops[3]})
        assert abs(got[k] - want) <= 1e-14
