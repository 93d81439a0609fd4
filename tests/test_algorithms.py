import numpy as np
import pytest

from conftest import PAULI
from epsim import algorithms as alg
from epsim import hamiltonians as ham
from epsim import oracle
from epsim.errors import (
    BudgetError,
    PositivityError,
    ReferenceStateError,
    ShapeError,
)
from epsim.linalg import dagger, embed_operator
from epsim.rand import haar_unitary, random_density, random_state

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


# --- Hadamard test


def test_hadamard_test_identity_and_pauli():
    assert alg.hadamard_test(np.eye(4), random_state(0, 4)).value == pytest.approx(1)
    val = alg.hadamard_test(PAULI["Z"], PLUS).value
    assert abs(val) < 1e-12


def test_hadamard_test_matches_inner_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        u = haar_unitary(rng, d)
        a = random_state(rng, d)
        want = np.conj(a) @ u @ a
        got = alg.hadamard_test(u, a).value
        assert abs(got - want) < 1e-12


def test_hadamard_test_rejects_non_unitary():
    with pytest.raises(ShapeError, match="unitary"):
        alg.hadamard_test(np.ones((2, 2)), PLUS)


def test_hadamard_test_shot_mode():
    rng = np.random.default_rng(2)
    u = haar_unitary(rng, 4)
    a = random_state(rng, 4)
    want = np.conj(a) @ u @ a
    est = alg.hadamard_test(u, a, shots=200000, seed=11)
    assert est.shots == 400000
    assert abs(est.value - want) < 4 * est.stderr + 1e-12


def test_shot_stderr_scaling():
    rng = np.random.default_rng(3)
    u = haar_unitary(rng, 2)
    a = random_state(rng, 2)
    errs = []
    for shots in (10**3, 10**4, 10**5):
        runs = [
            alg.hadamard_test(u, a, shots=shots, seed=s).stderr for s in range(8)
        ]
        errs.append(np.mean(runs))
    for a_, b in zip(errs, errs[1:]):
        assert 0.8 * np.sqrt(10) <= a_ / b <= 1.2 * np.sqrt(10)


# --- controlled-swap estimator


def test_cswap_identity():
    a = random_state(0, 2)
    lam = np.array([1, 0], dtype=complex)
    assert alg.dqc1_cswap_estimate(np.eye(2), a, lam).value == pytest.approx(1)


def test_cswap_phase_gate():
    theta = 0.73
    u = np.diag([1.0, np.exp(1j * theta)])
    lam = np.array([1, 0], dtype=complex)
    got = alg.dqc1_cswap_estimate(u, PLUS, lam).value
    want = (1 + np.exp(1j * theta)) / 2
    assert abs(got - want) < 1e-12


def test_cswap_matches_hadamard_test():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        u = haar_unitary(rng, d)
        w, v = np.linalg.eig(u)
        lam = v[:, 0] / np.linalg.norm(v[:, 0])
        a = random_state(rng, d)
        got = alg.dqc1_cswap_estimate(u, a, lam).value
        want = alg.hadamard_test(u, a).value
        assert abs(got - want) < 1e-8


def test_cswap_rejects_non_eigenvector():
    rng = np.random.default_rng(5)
    u = haar_unitary(rng, 3)
    with pytest.raises(ShapeError, match="eigenvector"):
        alg.dqc1_cswap_estimate(u, random_state(rng, 3), random_state(rng, 3))


def test_cswap_shot_mode():
    rng = np.random.default_rng(6)
    u = haar_unitary(rng, 2)
    w, v = np.linalg.eig(u)
    lam = v[:, 0]
    a = random_state(rng, 2)
    want = alg.hadamard_test(u, a).value
    est = alg.dqc1_cswap_estimate(u, a, lam, shots=300000, seed=3)
    assert abs(est.value - want) < 5 * est.stderr + 1e-12


def test_encoded_cswap_logical_equivalence():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        assert alg.encoded_cswap_defect(haar_unitary(rng, d), n_rep=3) < 1e-12


# --- moment extraction


def test_moments_of_eigenstate():
    h = ham.build_tfim(2, 1.0, 0.5)
    w, v = np.linalg.eigh(h.dense())
    ms = alg.extract_moments(h, v[:, 0], 5)
    assert np.allclose(ms.moments, [w[0] ** n for n in range(5)], atol=1e-7)
    assert ms.residual < 1e-10


def test_single_order_gives_normalization():
    h = ham.build_tfim(2, 1.0, 0.5)
    ms = alg.extract_moments(h, random_state(0, 4), 1)
    assert abs(ms.moments[0] - 1) < 1e-12


def test_moments_match_dense_oracle():
    rng = np.random.default_rng(8)
    h = ham.build_tfim(3, 1.0, 0.7)
    a = random_state(rng, 8)
    s = 6
    grid = [k * 0.05 for k in range(-s, s + 1)]
    ms = alg.extract_moments(h, a, s, grid=grid, solver_tol=1e-2)
    hd = h.dense()
    cur = a.copy()
    want = []
    for _ in range(s):
        want.append(np.vdot(a, cur))
        cur = hd @ cur
    # Fit-residual propagation: an f-space error of size r moves moment n
    # by about r * n! / t_max^n (times a modest constant).
    import math

    t_max = max(abs(t) for t in grid)
    for n in range(s):
        bound = 50 * ms.residual * math.factorial(n) / t_max**n
        assert abs(ms.moments[n] - want[n]) < max(bound, 1e-4)
    assert np.max(np.abs(ms.moments.imag)) < 1e-7


def test_moments_default_grid_accuracy():
    rng = np.random.default_rng(80)
    h = ham.build_tfim(3, 1.0, 0.7)
    a = random_state(rng, 8)
    s = 6
    ms = alg.extract_moments(h, a, s)
    hd = h.dense()
    cur = a.copy()
    want = []
    for _ in range(s):
        want.append(np.vdot(a, cur))
        cur = hd @ cur
    hn = h.norm_bound()
    for n in range(s):
        assert abs(ms.moments[n] - want[n]) < 1e-4 * max(1.0, hn**n)
    assert np.max(np.abs(ms.moments.imag)) < 1e-4 * max(1.0, hn**s)


def test_moments_trotter_mode():
    h = ham.build_tfim(2, 1.0, 0.5)
    a = random_state(1, 4)
    exact = alg.extract_moments(h, a, 4)
    trot = alg.extract_moments(h, a, 4, mode="trotter", trotter_step=1e-5)
    assert np.max(np.abs(exact.moments - trot.moments)) < 1e-3


def test_moments_reject_bad_grid():
    h = ham.build_tfim(2, 1.0, 0.5)
    a = random_state(2, 4)
    with pytest.raises(ShapeError, match="distinct"):
        alg.extract_moments(h, a, 4, grid=[0.1, 0.1, 0.1, 0.1])
    with pytest.raises(BudgetError, match="remainder"):
        alg.extract_moments(h, a, 3, grid=[1.0, 2.0, 3.0])
    with pytest.raises(ShapeError, match="state dim"):
        alg.extract_moments(h, random_state(3, 2), 2)


# --- truncation order


def test_choose_truncation_trivial_and_example():
    assert alg.choose_truncation(0.0, 5.0, 1e-3) == 1
    # With beta*||H|| = 1 the bound is e/s!; the first order with
    # e/s! <= 1e-3 is s = 7.
    assert alg.choose_truncation(1.0, 1.0, 1e-3) == 7


def test_choose_truncation_log_scaling():
    orders = [alg.choose_truncation(1.0, 1.0, 10.0**-k) for k in range(2, 9)]
    steps = np.diff(orders)
    assert all(0 <= d <= 2 for d in steps)
    assert orders[-1] <= orders[0] + 2 * (len(orders) - 1)


# --- thermal pipeline


def test_thermal_beta_zero_is_trace():
    h = ham.build_tfim(2, 1.0, 1.0)
    a = random_density(0, 4) * 4  # any Hermitian works
    a = (a + dagger(a)) / 2
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.0, epsilon=1e-6, order=1)
    res = alg.thermal_value(job)
    assert abs(res.value - np.trace(a).real) < 1e-12


def test_thermal_partition_function():
    h = ham.build_tfim(2, 1.0, 1.0)
    eye = np.eye(4, dtype=complex)
    s = alg.choose_truncation(1.0, h.norm_bound(), 0.5 * 1e-3 / 4)
    job = alg.ThermalJob(observable=eye, hamiltonian=h, beta=1.0, epsilon=1e-3, order=s)
    res = alg.thermal_value(job)
    assert abs(res.value - oracle.thermal_exact(eye, h, 1.0)) < 1e-3


@pytest.mark.parametrize("mode,tol", [("exact", 1e-3), ("trotter", 5e-3)])
def test_thermal_observable(mode, tol):
    h = ham.build_tfim(3, 1.0, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2, 2, 2])
    s = alg.choose_truncation(0.5, h.norm_bound(), 0.5 * 1e-3 / 8)
    job = alg.ThermalJob(
        observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3, order=s, mode=mode
    )
    res = alg.thermal_value(job)
    want = oracle.thermal_exact(a, h, 0.5)
    assert abs(res.value - want) < tol
    assert res.budget["taylor"] < 0.5 * 1e-3
    assert res.budget["trotter"] <= 0.3 * 1e-3
    assert res.budget["solver"] < 0.2 * 1e-3


def test_thermal_builds_and_diagonalizes_h_once(monkeypatch):
    calls = []
    dense = ham.LocalHamiltonian.dense

    def counted(self):
        calls.append(1)
        return dense(self)

    monkeypatch.setattr(ham.LocalHamiltonian, "dense", counted)
    h = ham.build_tfim(4, 1.0, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2] * 4)
    s = alg.choose_truncation(0.5, h.norm_bound(), 0.5 * 1e-3 / 16)
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3, order=s)
    alg.thermal_value(job)
    assert len(calls) == 1


def test_thermal_budget_infeasible():
    h = ham.build_tfim(2, 1.0, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2, 2])
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=1.0, epsilon=1e-4, order=2)
    with pytest.raises(BudgetError, match="order"):
        alg.thermal_value(job)


def test_thermal_normalized_flag():
    h = ham.build_heisenberg(2, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2, 2])
    s = alg.choose_truncation(0.5, h.norm_bound(), 1e-4 / 4)
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3, order=s)
    res = alg.thermal_value(job, normalized=True)
    z = oracle.thermal_exact(np.eye(4), h, 0.5)
    want = oracle.thermal_exact(a, h, 0.5) / z
    assert abs(res.value - want) < 1e-3


def test_thermal_job_json_roundtrip():
    h = ham.build_tfim(2, 1.0, 0.3)
    a = embed_operator(PAULI["X"], [1], [2, 2])
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.7, epsilon=1e-3, order=9)
    back = alg.ThermalJob.from_dict(job.to_dict())
    assert back.beta == job.beta and back.order == job.order
    assert np.allclose(back.observable, job.observable)
    res = alg.thermal_value(back)
    data = res.to_dict()
    assert set(data) == {"value", "budget", "moments_condition"}
    assert set(data["budget"]) == {"taylor", "trotter", "solver"}


# --- entropy


def test_entropy_maximally_mixed():
    h = ham.LocalHamiltonian(
        1, 2, (((0,), np.log(2) * np.eye(2, dtype=complex)),)
    )
    assert abs(alg.entropy(h, 1e-3) - np.log(2)) < 1e-3


def test_entropy_near_pure():
    # One small eigenvalue, the rest large: rho approaches a pure state.
    e = np.diag([0.01, 6.0]).astype(complex)
    z = np.trace(np.diag(np.exp([-0.01, -6.0])))
    h = ham.LocalHamiltonian(1, 2, (((0,), e + np.log(z) * np.eye(2)),))
    val = alg.entropy(h, 1e-2)
    rho = np.diag(np.exp([-0.01, -6.0])) / z
    assert abs(val - oracle.entropy_exact(rho)) < 1e-2
    assert val < 0.05


def test_entropy_random_two_qubit():
    rng = np.random.default_rng(9)
    import scipy.linalg

    for _ in range(5):
        rho = random_density(rng, 4)
        hm = -scipy.linalg.logm(rho)
        hm = (hm + dagger(hm)) / 2
        h = ham.LocalHamiltonian(2, 2, (((0, 1), hm),))
        val = alg.entropy(h, 1e-2)
        assert abs(val - oracle.entropy_exact(rho)) < 1e-2


def test_entropy_rejects_unnormalized():
    h = ham.LocalHamiltonian(1, 2, (((0,), np.eye(2, dtype=complex)),))
    with pytest.raises(PositivityError, match="modular"):
        alg.entropy(h, 1e-2)


# --- reflections and transition amplitudes


def test_reflection_basic():
    r, u = alg.reflection([1, 0, 0, 0])
    assert np.allclose(r, np.diag([-1, 1, 1, 1]))
    assert np.allclose(u @ np.array([1, 0, 0, 0]), [1, 0, 0, 0])
    r_plus, _ = alg.reflection(PLUS)
    assert np.allclose(r_plus, -PAULI["X"], atol=1e-12)


def test_reflection_properties_random():
    rng = np.random.default_rng(10)
    for _ in range(10):
        psi = random_state(rng, 8)
        r, u = alg.reflection(psi)
        assert np.max(np.abs(r @ r - np.eye(8))) < 1e-12
        assert np.max(np.abs(u @ np.eye(8)[:, 0] - psi)) < 1e-12
        assert np.max(np.abs(dagger(u) @ u - np.eye(8))) < 1e-12
        factor = u @ (np.eye(8) - 2 * np.outer(np.eye(8)[:, 0], np.eye(8)[0])) @ dagger(u)
        assert np.max(np.abs(factor - r)) < 1e-12
        assert abs(np.linalg.det(r) + 1) < 1e-10


def test_transition_amplitude_trivial():
    psi = random_state(0, 4)
    est = alg.transition_amplitude(psi, np.eye(4), psi)
    assert abs(est.value - 1) < 1e-10


def test_transition_amplitude_orthogonal():
    rng = np.random.default_rng(11)
    u = haar_unitary(rng, 4)
    psi = random_state(rng, 4)
    target = u @ psi
    # Build phi orthogonal to U psi but overlapping the basis states.
    other = random_state(rng, 4)
    phi = other - (np.conj(target) @ other) * target
    phi /= np.linalg.norm(phi)
    est = alg.transition_amplitude(phi, u, psi)
    assert abs(est.value) < 1e-10


def test_transition_amplitude_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = 8
        u = haar_unitary(rng, d)
        phi, psi = random_state(rng, d), random_state(rng, d)
        est = alg.transition_amplitude(phi, u, psi)
        want = np.conj(phi) @ u @ psi
        assert abs(est.value - want) < 1e-10


def test_transition_amplitude_degenerate_reference():
    # <0|phi> = 0 by construction: the scan must move to another basis state.
    phi = np.array([0, 1, 0, 0], dtype=complex)
    psi = np.array([0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], dtype=complex)
    u = np.eye(4, dtype=complex)
    est = alg.transition_amplitude(phi, u, psi)
    assert abs(est.value - np.conj(phi) @ psi) < 1e-10
    bad = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ReferenceStateError):
        alg.transition_amplitude(bad, u, np.array([0, 0, 0, 1], dtype=complex))


def test_transition_amplitude_shot_mode():
    rng = np.random.default_rng(13)
    u = haar_unitary(rng, 4)
    phi, psi = random_state(rng, 4), random_state(rng, 4)
    want = np.conj(phi) @ u @ psi
    est = alg.transition_amplitude(phi, u, psi, shots=400000, seed=17)
    assert abs(est.value - want) < 5 * est.stderr + 1e-12


# --- two-unitary decomposition


def test_unitary_decompose_zero():
    shift, scale, up, um = alg.unitary_decompose(np.zeros((3, 3)))
    assert shift == 0 and scale == 1
    assert np.allclose(up, 1j * np.eye(3))
    assert np.allclose(um, -1j * np.eye(3))


def test_unitary_decompose_pauli_z():
    shift, scale, up, um = alg.unitary_decompose(PAULI["Z"])
    assert abs(shift) < 1e-14 and scale == 1
    assert np.max(np.abs(dagger(up) @ up - np.eye(2))) < 1e-12
    assert np.max(np.abs(up + um - PAULI["Z"])) < 1e-12


def test_unitary_decompose_random():
    rng = np.random.default_rng(14)
    for d in (2, 4, 8):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = (m + dagger(m)) / 2
        shift, scale, up, um = alg.unitary_decompose(a)
        for u in (up, um):
            assert np.max(np.abs(dagger(u) @ u - np.eye(d))) < 1e-10
        rebuilt = scale * (up + um) + shift * np.eye(d)
        assert np.max(np.abs(rebuilt - a)) < 1e-10


def test_unitary_decompose_rejects_non_hermitian():
    with pytest.raises(ShapeError, match="Hermitian"):
        alg.unitary_decompose(np.array([[0, 1], [0, 0]]))


def test_general_matrix_element():
    rng = np.random.default_rng(15)
    phi, psi = random_state(rng, 4), random_state(rng, 4)
    assert abs(alg.general_matrix_element(phi, np.eye(4), psi) - np.conj(phi) @ psi) < 1e-8
    zero = np.array([1, 0], dtype=complex)
    assert abs(alg.general_matrix_element(zero, PAULI["Z"], zero) - 1) < 1e-8
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (m + dagger(m)) / 2
        phi, psi = random_state(rng, 4), random_state(rng, 4)
        want = np.conj(phi) @ a @ psi
        got = alg.general_matrix_element(phi, a, psi)
        assert abs(got - want) < 1e-8
