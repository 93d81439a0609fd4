import time

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


def test_moments_chebyshev_order_accuracy():
    # MomentSet.moments converts the Chebyshev fit to monomial moments.
    rng = np.random.default_rng(80)
    h = ham.build_tfim(3, 1.0, 0.7)
    a = random_state(rng, 8)
    ms = alg.extract_moments(h, a, 16)
    hd = h.dense()
    hn = h.norm_bound()
    for n in range(6):
        want = np.vdot(a, np.linalg.matrix_power(hd, n) @ a)
        assert abs(ms.moments[n] - want) < 1e-8 * max(1.0, hn**n)


def test_moments_trotter_mode():
    h = ham.build_tfim(2, 1.0, 0.5)
    a = random_state(1, 4)
    exact = alg.extract_moments(h, a, 4)
    trot = alg.extract_moments(h, a, 4, mode="trotter", trotter_step=1e-5)
    assert np.max(np.abs(exact.moments - trot.moments)) < 1e-3


def test_moments_trotter_step_past_half_pi_refused_before_the_step(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the step circuit was built before the refusal")

    h = ham.build_tfim(2, 1.0, 0.5)
    step = (np.pi / 2) / h.norm_bound()
    monkeypatch.setattr(alg, "trotter_circuit", unreachable)
    with pytest.raises(ShapeError, match=f"trotter step {step:.3e}.*pi/2"):
        alg.extract_moments(h, random_state(1, 4), 4, mode="trotter", trotter_step=step)


def test_trotter_spectrum_takes_the_callers_norm_bound(monkeypatch):
    # Each call prices ||H|| once and hands it to _spectrum's pi/2 refusal.
    calls = []
    norm_bound = ham.LocalHamiltonian.norm_bound
    monkeypatch.setattr(ham.LocalHamiltonian, "norm_bound",
                        lambda self: calls.append(1) or norm_bound(self))
    h = ham.build_tfim(3, 1.0, 0.5)
    alg.extract_moments(h, random_state(1, 8), 4, mode="trotter", trotter_step=1e-3)
    assert len(calls) == 1
    calls.clear()
    a = embed_operator(PAULI["Z"], [0], [2] * 3)
    alg.thermal_value(alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3,
                                     mode="trotter"))
    assert len(calls) == 1


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


@pytest.mark.parametrize("mode", ["exact", "trotter"])
@pytest.mark.parametrize("normalized", [False, True])
def test_thermal_beta_zero_is_trace(mode, normalized):
    h = ham.build_tfim(2, 1.0, 1.0)
    a = random_density(0, 4) * 4  # any Hermitian works
    a = (a + dagger(a)) / 2
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.0, epsilon=1e-6, mode=mode)
    res = alg.thermal_value(job, normalized=normalized)
    assert abs(res.value - np.trace(a).real / (4 if normalized else 1)) < 1e-12
    assert res.order == 1


def test_thermal_partition_function():
    h = ham.build_tfim(2, 1.0, 1.0)
    eye = np.eye(4, dtype=complex)
    job = alg.ThermalJob(observable=eye, hamiltonian=h, beta=1.0, epsilon=1e-3)
    res = alg.thermal_value(job)
    assert abs(res.value - oracle.thermal_exact(eye, h, 1.0)) < 1e-3


@pytest.mark.parametrize("mode,tol", [("exact", 1e-3), ("trotter", 5e-3)])
def test_thermal_observable(mode, tol):
    h = ham.build_tfim(3, 1.0, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2, 2, 2])
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3, mode=mode)
    res = alg.thermal_value(job)
    want = oracle.thermal_exact(a, h, 0.5)
    assert abs(res.value - want) < tol
    assert res.budget["taylor"] < 0.5 * 1e-3
    assert res.budget["trotter"] <= 0.3 * 1e-3
    assert res.budget["solver"] < 0.2 * 1e-3


def test_thermal_chebyshev_order_forms_no_monomials(monkeypatch):
    def refuse(c):
        raise AssertionError("thermal_value converted a fit to monomials")

    monkeypatch.setattr(np.polynomial.chebyshev, "cheb2poly", refuse)
    h = ham.build_tfim(3, 1.0, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2, 2, 2])
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.25, epsilon=1e-3)
    res = alg.thermal_value(job)
    assert res.order <= 12  # an order the fit once took in scaled monomials
    assert abs(res.value - oracle.thermal_exact(a, h, 0.25)) < 1e-3


def test_thermal_imaginary_part_is_budget_error(monkeypatch):
    amplitudes = alg._amplitudes
    monkeypatch.setattr(alg, "_amplitudes", lambda *args: amplitudes(*args) + 0.1j)
    h = ham.build_tfim(2, 1.0, 1.0)
    job = alg.ThermalJob(observable=np.eye(4), hamiltonian=h, beta=0.5, epsilon=1e-3)
    with pytest.raises(BudgetError, match="imaginary part"):
        alg.thermal_value(job)


def test_thermal_builds_and_diagonalizes_h_once(monkeypatch):
    calls = []
    dense = ham.LocalHamiltonian.dense

    def counted(self):
        calls.append(1)
        return dense(self)

    monkeypatch.setattr(ham.LocalHamiltonian, "dense", counted)
    h = ham.build_tfim(4, 1.0, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2] * 4)
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3)
    for normalized in (False, True):
        calls.clear()
        alg.thermal_value(job, normalized=normalized)
        assert len(calls) == 1


def test_thermal_budget_infeasible():
    # The order fits the tail here, but the continuation's rounding, machine
    # epsilon times sum |T_n(z)|, exceeds epsilon.
    h2 = ham.build_heisenberg(2, 1.0)
    a2 = embed_operator(PAULI["Z"], [0], [2] * 2)
    job = alg.ThermalJob(observable=a2, hamiltonian=h2, beta=2.0, epsilon=1e-8)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="order"):
        alg.thermal_value(job)
    assert time.perf_counter() - start < 1.0
    # Here the Chebyshev tail alone needs an order past the cap.
    h = ham.build_heisenberg(3, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2] * 3)
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=20.0, epsilon=1e-3)
    with pytest.raises(BudgetError, match="order"):
        alg.thermal_value(job)


# Heisenberg cases at order 35, the largest of these tests at epsilon 1e-3:
# (sites, beta, site, Pauli, mode).
OVER_EPSILON_AT_TAIL_ORDER = [
    (5, 0.5, 0, "X", "exact"),
    (5, 0.5, 0, "Y", "exact"),
    (5, 0.5, 0, "Z", "exact"),
    (3, 1.0, 1, "X", "trotter"),
    (3, 1.0, 1, "Y", "trotter"),
    (3, 1.0, 1, "Z", "trotter"),
    (3, 1.0, 0, "Z", "trotter"),
    (3, 1.0, 0, "Z", "exact"),
]


@pytest.mark.parametrize("n,beta,site,pauli,mode", OVER_EPSILON_AT_TAIL_ORDER)
def test_thermal_budget_sum_within_epsilon(n, beta, site, pauli, mode):
    h = ham.build_heisenberg(n, 1.0)
    a = embed_operator(PAULI[pauli], [site], [2] * n)
    res = alg.thermal_value(
        alg.ThermalJob(observable=a, hamiltonian=h, beta=beta, epsilon=1e-3, mode=mode)
    )
    assert sum(res.budget.values()) <= 1e-3
    assert abs(res.value - oracle.thermal_exact(a, h, beta)) < 1e-3


@pytest.mark.parametrize("pauli", "XYZ")
def test_thermal_trotter_mode_matches_oracle_closely(pauli):
    # The step's eigenphases are about 1e-8; read from the step's skew part
    # they keep full relative precision, so the value lands far inside the
    # 1e-3 budget, whose Trotter share only bounds the step's own error.
    h = ham.build_heisenberg(3, 1.0)
    a = embed_operator(PAULI[pauli], [1], [2] * 3)
    res = alg.thermal_value(
        alg.ThermalJob(observable=a, hamiltonian=h, beta=1.0, epsilon=1e-3, mode="trotter")
    )
    assert abs(res.value - oracle.thermal_exact(a, h, 1.0)) < 1e-9


# (model, sites, beta, epsilon, Pauli on site 0, mode, normalized): a subset
# of the models, sizes, temperatures and targets the order rule was sized on.
ORACLE_TABLE = [
    (model, n, beta, eps, pauli, mode, normalized)
    for model, n in (("tfim", 2), ("tfim", 4), ("heisenberg", 3))
    for beta in (0.25, 1.0, 2.0)
    for eps in (1e-3, 1e-5, 1e-8)
    for pauli, mode, normalized in (("Z", "exact", False), ("X", "trotter", True))
]


@pytest.mark.parametrize("model,n,beta,eps,pauli,mode,normalized", ORACLE_TABLE)
def test_thermal_oracle_table(model, n, beta, eps, pauli, mode, normalized):
    h = ham.build_tfim(n, 1.0, 0.7) if model == "tfim" else ham.build_heisenberg(n, 1.0)
    a = embed_operator(PAULI[pauli], [0], [2] * n)
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=beta, epsilon=eps, mode=mode)
    try:
        res = alg.thermal_value(job, normalized=normalized)
    except BudgetError:
        return
    want = oracle.thermal_exact(a, h, beta)
    if normalized:
        want /= oracle.thermal_exact(np.eye(2**n), h, beta)
    assert abs(res.value - want) <= sum(res.budget.values()) <= eps


@pytest.mark.parametrize("eps", [1e-5, 1e-8])
def test_thermal_heisenberg_n3_at_tight_epsilon_is_answered(eps):
    h = ham.build_heisenberg(3, 1.0)
    a = embed_operator(PAULI["Z"], [0], [2] * 3)
    res = alg.thermal_value(alg.ThermalJob(observable=a, hamiltonian=h, beta=1.0, epsilon=eps))
    assert abs(res.value - oracle.thermal_exact(a, h, 1.0)) <= sum(res.budget.values()) <= eps


def test_thermal_value_fits_once(monkeypatch):
    fits = []
    fit = alg._fit_moments

    def counted(*args):
        fits.append(1)
        return fit(*args)

    monkeypatch.setattr(alg, "_fit_moments", counted)
    h = ham.build_heisenberg(5, 1.0)
    for mode, normalized in (("exact", False), ("trotter", True)):
        a = embed_operator(PAULI["Z"], [0], [2] * 5)
        fits.clear()
        alg.thermal_value(alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3,
                                         mode=mode), normalized=normalized)
        assert len(fits) == 1


@pytest.mark.parametrize("mode", ["exact", "trotter"])
@pytest.mark.parametrize("beta", [1e3, 1e308])
def test_thermal_hopeless_order_refused_before_any_dense_array(monkeypatch, mode, beta):
    def refuse(*args):
        raise AssertionError("a dense array was built before the refusal")

    monkeypatch.setattr(ham.LocalHamiltonian, "dense", refuse)
    monkeypatch.setattr(alg, "trotter_circuit", refuse)
    h = ham.build_tfim(3, 1.0, 1.0)
    job = alg.ThermalJob(observable=embed_operator(PAULI["Z"], [0], [2] * 3), hamiltonian=h,
                         beta=beta, epsilon=1e-3, mode=mode)
    with pytest.raises(BudgetError, match="order"):
        alg.thermal_value(job)


@pytest.mark.parametrize("observable", [np.triu(np.ones((4, 4))), np.ones((4, 5))])
def test_thermal_job_refuses_non_hermitian_observable(observable):
    h = ham.build_tfim(2, 1.0, 0.5)
    with pytest.raises(ShapeError, match="Hermitian"):
        alg.ThermalJob(observable=observable, hamiltonian=h, beta=0.5, epsilon=1e-3)


@pytest.mark.parametrize(
    "beta,epsilon",
    [(0.5, 0.0), (0.5, -1e-3), (0.5, float("inf")), (0.5, float("nan")),
     (-0.5, 1e-3), (float("inf"), 1e-3), (float("nan"), 1e-3)],
)
def test_thermal_job_refuses_nonfinite_or_out_of_range(monkeypatch, beta, epsilon):
    def refuse(*args):
        raise AssertionError("decomposed before validating the job")

    h = ham.build_tfim(2, 1.0, 1.0)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(ShapeError, match="beta|epsilon"):
        alg.ThermalJob(observable=np.eye(4), hamiltonian=h, beta=beta, epsilon=epsilon)


@pytest.mark.parametrize("mode,tol", [("exact", 1e-3), ("trotter", 5e-3)])
def test_thermal_normalized_flag(mode, tol):
    # Z0 Z1: a single Z has a zero thermal value under the Heisenberg model.
    h = ham.build_heisenberg(2, 1.0)
    a = embed_operator(np.kron(PAULI["Z"], PAULI["Z"]), [0, 1], [2, 2])
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3, mode=mode)
    res = alg.thermal_value(job, normalized=True)
    z = oracle.thermal_exact(np.eye(4), h, 0.5)
    want = oracle.thermal_exact(a, h, 0.5) / z
    assert abs(res.value - want) < tol


def test_thermal_normalized_budget_ignores_the_mean_energy():
    # A shift of H by mu cancels in the ratio: the order and the budget must
    # not shrink with e^{-beta mu}, or a large mu reads off order 1.
    base = ham.build_tfim(3, 1.0, 1.0)
    h = ham.LocalHamiltonian(3, 2, base.terms + (((0,), 50.0 * np.eye(2, dtype=complex)),))
    a = embed_operator(PAULI["X"], [0], [2] * 3)
    job = alg.ThermalJob(observable=a, hamiltonian=h, beta=0.5, epsilon=1e-3)
    res = alg.thermal_value(job, normalized=True)
    want = oracle.thermal_exact(a, h, 0.5) / oracle.thermal_exact(np.eye(8), h, 0.5)
    assert abs(res.value - want) <= sum(res.budget.values()) <= 1e-3


# --- entropy


def test_entropy_maximally_mixed():
    h = ham.LocalHamiltonian(
        1, 2, (((0,), np.log(2) * np.eye(2, dtype=complex)),)
    )
    assert abs(alg.entropy(h, 1e-3).value - np.log(2)) < 1e-3


def test_entropy_near_pure():
    # One small eigenvalue, the rest large: rho approaches a pure state.
    e = np.diag([0.01, 6.0]).astype(complex)
    z = np.trace(np.diag(np.exp([-0.01, -6.0])))
    h = ham.LocalHamiltonian(1, 2, (((0,), e + np.log(z) * np.eye(2)),))
    val = alg.entropy(h, 1e-2).value
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
        res = alg.entropy(h, 1e-2)
        assert sum(res.budget.values()) <= 1e-2
        val = res.value
        assert abs(val - oracle.entropy_exact(rho)) < 1e-2


def test_entropy_rejects_unnormalized():
    h = ham.LocalHamiltonian(1, 2, (((0,), np.eye(2, dtype=complex)),))
    with pytest.raises(PositivityError, match="modular"):
        alg.entropy(h, 1e-2)


# --- reflections and transition amplitudes


def test_reflection_basic():
    r = alg.reflection([1, 0, 0, 0])
    assert np.allclose(r, np.diag([-1, 1, 1, 1]))
    r_plus = alg.reflection(PLUS)
    assert np.allclose(r_plus, -PAULI["X"], atol=1e-12)


def test_reflection_properties_random():
    rng = np.random.default_rng(10)
    for _ in range(10):
        psi = random_state(rng, 8)
        r = alg.reflection(psi)
        assert np.max(np.abs(r @ r - np.eye(8))) < 1e-12
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


def test_stacked_transition_amplitude_matches_per_case_calls():
    rng = np.random.default_rng(18)
    phi = np.stack([random_state(rng, 4) for _ in range(6)])
    psi = np.stack([random_state(rng, 4) for _ in range(6)])
    u = np.stack([haar_unitary(rng, 4) for _ in range(6)])
    # Case 2 must skip |0> (<0|phi> = 0), case 4 |0> and |1>.
    phi[2] = [0, 1, 0, 0]
    psi[4] = [0, 0, 0.6, 0.8]
    est = alg.transition_amplitude(phi, u, psi)
    assert est.value.shape == (6,)
    for k in range(6):
        single = alg.transition_amplitude(phi[k], u[k], psi[k]).value
        assert abs(est.value[k] - single) <= 1e-14
        assert abs(single - np.conj(phi[k]) @ u[k] @ psi[k]) < 1e-10
    # One U for every case of a state stack.
    shared = alg.transition_amplitude(phi, u[0], psi).value
    assert np.max(np.abs(shared - np.einsum("bi,ij,bj->b", phi.conj(), u[0], psi))) < 1e-10
    psi[3] = [0, 0, 0, 1]
    phi[3] = [1, 0, 0, 0]
    with pytest.raises(ReferenceStateError, match="^case 3: no computational basis state"):
        alg.transition_amplitude(phi, u, psi)


def test_stacked_estimators_refuse_shots_and_name_bad_cases():
    rng = np.random.default_rng(19)
    phi = np.stack([random_state(rng, 4) for _ in range(3)])
    u = np.stack([haar_unitary(rng, 4) for _ in range(3)])
    with pytest.raises(ShapeError, match="shot mode takes one case"):
        alg.transition_amplitude(phi, u, phi, shots=100, seed=1)
    u[1] *= 1.1
    with pytest.raises(ShapeError, match="^case 1: transition_amplitude needs a unitary U$"):
        alg.transition_amplitude(phi, u, phi)
    m = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    a = (m + dagger(m)) / 2
    shift, scale, up, um = alg.unitary_decompose(a)
    for k in range(5):
        want = alg.unitary_decompose(a[k])
        assert shift[k] == want[0] and scale[k] == want[1]
        assert np.max(np.abs(up[k] - want[2])) <= 1e-14 and np.max(np.abs(um[k] - want[3])) <= 1e-14
    a[3] = m[3]
    with pytest.raises(ShapeError, match="^case 3: two-unitary decomposition"):
        alg.unitary_decompose(a)


def test_transition_amplitude_shot_mode():
    rng = np.random.default_rng(13)
    u = haar_unitary(rng, 4)
    phi, psi = random_state(rng, 4), random_state(rng, 4)
    want = np.conj(phi) @ u @ psi
    est = alg.transition_amplitude(phi, u, psi, shots=400000, seed=17)
    assert abs(est.value - want) < 5 * est.stderr + 1e-12


@pytest.mark.parametrize("shots", [None, 1000])
def test_both_amplitude_entry_points_keep_their_checks(shots):
    rng = np.random.default_rng(15)
    u, a = haar_unitary(rng, 2), random_state(rng, 2)
    skewed = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ShapeError, match="^hadamard_test needs a unitary operator$"):
        alg.hadamard_test(skewed, a, shots, 1)
    with pytest.raises(ShapeError, match="^state vector must be normalized$"):
        alg.hadamard_test(u, 2 * a, shots, 1)
    with pytest.raises(ShapeError, match="^transition_amplitude needs a unitary U$"):
        alg.transition_amplitude(a, skewed, PLUS, shots, 1)
    with pytest.raises(ShapeError, match="^state vector must be normalized$"):
        alg.transition_amplitude(2 * a, u, PLUS, shots, 1)
    with pytest.raises(ShapeError, match="^state vector must be normalized$"):
        alg.transition_amplitude(a, u, 2 * PLUS, shots, 1)
    if shots:
        with pytest.raises(ShapeError, match="^shots must be in 1.."):
            alg.transition_amplitude(a, u, PLUS, 0, 1)


def test_shot_mode_transition_amplitude_checks_u_and_the_states_once(monkeypatch):
    rng = np.random.default_rng(16)
    u, phi, psi = haar_unitary(rng, 4), random_state(rng, 4), random_state(rng, 4)
    want = alg.transition_amplitude(phi, u, psi, shots=100, seed=3)
    calls = []
    for name in ("is_unitary", "_check_state"):
        check = getattr(alg, name)
        monkeypatch.setattr(alg, name, lambda x, check=check, name=name: calls.append(name)
                            or check(x))
    got = alg.transition_amplitude(phi, u, psi, shots=100, seed=3)
    assert calls == ["is_unitary", "_check_state", "_check_state"]
    assert got == want


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
    with pytest.raises(ShapeError, match="Hermitian"):
        alg.unitary_decompose(np.ones((2, 3)))


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


def test_general_matrix_element_stack_matches_per_case_calls():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    a = (m + np.conj(np.swapaxes(m, -1, -2))) / 2
    phi = np.stack([random_state(rng, 4) for _ in range(5)])
    psi = np.stack([random_state(rng, 4) for _ in range(5)])
    got = alg.general_matrix_element(phi, a, psi)
    assert got.shape == (5,)
    for b in range(5):
        assert abs(got[b] - alg.general_matrix_element(phi[b], a[b], psi[b])) < 1e-14
        assert abs(got[b] - np.conj(phi[b]) @ a[b] @ psi[b]) < 1e-8
    shared = alg.general_matrix_element(phi, a[0], psi)  # one A for every case
    assert abs(shared[3] - alg.general_matrix_element(phi[3], a[0], psi[3])) < 1e-14
    with pytest.raises(ShapeError, match="shot mode takes one case"):
        alg.general_matrix_element(phi, a, psi, shots=100, seed=0)
