"""Estimation algorithms built on interferometric amplitude measurements.

Covers the Hadamard-test / one-clean-qubit estimators, Hamiltonian moment
extraction from short-time amplitudes, thermal values through one Chebyshev
interpolation continued to imaginary time, modular-Hamiltonian entropies,
reflection-based transition amplitudes, and the two-unitary decomposition
of Hermitian observables.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import limits
from .errors import (
    BudgetError,
    IllConditionedError,
    NumericalError,
    PositivityError,
    ReferenceStateError,
    ShapeError,
    raise_first,
)
from .hamiltonians import LocalHamiltonian, trotter_circuit
from .linalg import PAULI, as_matrix, dagger, is_hermitian, is_unitary
from .oracle import apply_circuit


def _swap_matrix(d: int) -> np.ndarray:
    """Exchange of two d-level systems: |i, j> -> |j, i>."""
    swap = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return swap.transpose(1, 0, 2, 3).reshape(d * d, d * d)


@dataclass(frozen=True)
class AmplitudeEstimate:
    value: complex  # an array of the batch shape for a stack
    stderr: float
    shots: int


def _check_state(a) -> np.ndarray:
    """A normalized state vector, or a (..., d) stack of them."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    raise_first(np.abs(np.linalg.norm(a, axis=-1) - 1.0) > limits.NORM_TOL, ShapeError,
                lambda i: "state vector must be normalized")
    return a


def hadamard_test(u, a, shots: int | None = None, seed=None) -> AmplitudeEstimate:
    """<a|U|a> from the controlled-U interference circuit.

    The controller's sigma_x expectation is the real part, sigma_y the
    imaginary part.  Exact mode (shots=None) evaluates the circuit
    expectations, also per case of broadcasting stacks U (..., d, d) and
    a (..., d); shot mode draws binomial samples per basis for one case.
    """
    if shots is not None:
        limits.check_shots(shots)
    u = np.asarray(u, dtype=complex)
    raise_first(~is_unitary(u), ShapeError, lambda i: "hadamard_test needs a unitary operator")
    a = _check_state(a)
    if a.shape[-1] != u.shape[-1]:
        raise ShapeError(f"state dim {a.shape[-1]} != operator dim {u.shape[-1]}")
    return _hadamard(u, a, shots, seed)


def _hadamard(u, a, shots, seed) -> AmplitudeEstimate:
    """:func:`hadamard_test` past its checks, which the caller has made."""
    # |v> = ctrl-U (|+> (x) |a>) as (control, register); the Paulis act on the control.
    v = np.stack(np.broadcast_arrays(a, (u @ a[..., None])[..., 0]), axis=-2) / np.sqrt(2)
    re, im = ((v.conj() * (PAULI[p] @ v)).sum(axis=(-2, -1)).real for p in "XY")
    if shots is None:
        return AmplitudeEstimate(re + 1j * im, 0.0, 0)
    if re.ndim:
        raise ShapeError(f"shot mode takes one case, not a stack of {re.shape}")
    rng = np.random.default_rng(seed)  # one binomial per basis, sigma_x first
    hits = [rng.binomial(shots, min(max((1 + x) / 2, 0.0), 1.0)) for x in (re, im)]
    p_hat = np.array(hits) / shots
    err = np.sqrt(np.sum(4 * p_hat * (1 - p_hat) / shots))
    return AmplitudeEstimate(complex(*(2 * p_hat - 1)), float(err), 2 * shots)


def _cswap_probabilities(u, a, eigvec):
    """Exact (p_x, p_y, p_a) of the controlled-swap circuit, by direct
    density-matrix simulation of W = CSWAP . (1 (x) 1 (x) U) . CSWAP on the
    input |+><+| (x) P_a (x) P_lambda.

    For reference, the simulated statistics obey the closed forms
    p_x = (1+|z|^2)/4 + Re(phase * conj(z))/2,
    p_y = (1+|z|^2)/4 - Im(phase * conj(z))/2, p_a = (1+|z|^2)/2
    with z = <a|U|a> and phase = <lambda|U|lambda>, which is what the
    estimator inverts.
    """
    d = a.size
    swap = _swap_matrix(d)
    cswap = np.block(
        [[np.eye(d * d), np.zeros((d * d, d * d))], [np.zeros((d * d, d * d)), swap]]
    )
    w = cswap @ np.kron(np.eye(2 * d), u) @ cswap
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    final = w @ np.kron(plus, np.kron(a, eigvec))
    rho = np.outer(final, final.conj())
    proj_a = np.outer(a, a.conj())
    probs = []
    for pauli in (PAULI["X"], PAULI["Y"]):
        eff = np.kron((np.eye(2) + pauli) / 2, np.kron(proj_a, np.eye(d)))
        probs.append(float(np.real(np.trace(eff @ rho))))
    eff_a = np.kron(np.eye(2), np.kron(proj_a, np.eye(d)))
    p_a = float(np.real(np.trace(eff_a @ rho)))
    phase = complex(np.conj(eigvec) @ u @ eigvec)
    return probs[0], probs[1], p_a, phase


def dqc1_cswap_estimate(
    u, a, eigvec, shots: int | None = None, seed=None
) -> AmplitudeEstimate:
    """<a|U|a> from the controlled-swap realization of the controlled gate.

    The circuit runs on |+><+| (x) P_a (x) P_lambda with |lambda> an
    eigenvector of U; measuring (sigma_x, P_a) and (sigma_y, P_a) gives the
    joint probabilities p_x, p_y plus the marginal p_a, and the estimate is

        alpha = 2 p_x - p_a,  beta = p_a - 2 p_y,
        <a|U|a> = phase * (alpha - i beta),    phase = <lambda|U|lambda>.

    A maximally mixed spectator on the observable register factors out of
    all three statistics and is therefore not simulated explicitly.
    """
    if shots is not None:
        limits.check_shots(shots)
    u = as_matrix(u)
    if not is_unitary(u):
        raise ShapeError("dqc1_cswap_estimate needs a unitary operator")
    a = _check_state(a)
    eigvec = _check_state(eigvec)
    resid = u @ eigvec - (np.conj(eigvec) @ u @ eigvec) * eigvec
    if np.linalg.norm(resid) > limits.EIGVEC_TOL:
        raise ShapeError("provided vector is not an eigenvector of U")
    p_x, p_y, p_a, phase = _cswap_probabilities(u, a, eigvec)
    if shots is None:
        alpha = 2 * p_x - p_a
        beta = p_a - 2 * p_y
        return AmplitudeEstimate(phase * complex(alpha, -beta), 0.0, 0)
    rng = np.random.default_rng(seed)
    # Two runs; each measures the controller Pauli jointly with P_a.
    est = {}
    var = {}
    for name, p_joint in (("x", p_x), ("y", p_y)):
        # (pauli +1, in a), (pauli -1, in a), (pauli +1, not a), (pauli -1,
        # not a); the two complement outcomes each carry (1 - p_a)/2.
        cats = [p_joint, p_a - p_joint, 0.5 - p_a / 2, 0.5 - p_a / 2]
        counts = rng.multinomial(shots, np.clip(cats, 0, 1))
        hat_joint = counts[0] / shots
        hat_pa = (counts[0] + counts[1]) / shots
        est[name] = (hat_joint, hat_pa)
        var[name] = (
            4 * hat_joint * (1 - hat_joint) + hat_pa * (1 - hat_pa)
        ) / shots
    pa_hat = (est["x"][1] + est["y"][1]) / 2
    alpha = 2 * est["x"][0] - pa_hat
    beta = pa_hat - 2 * est["y"][0]
    stderr = float(np.sqrt(var["x"] + var["y"]))
    return AmplitudeEstimate(phase * complex(alpha, -beta), stderr, 2 * shots)


# ---------------------------------------------------------------------------
# Hamiltonian moments and thermal values


@dataclass(frozen=True)
class MomentSet:
    """Fitted short-time expansion of f(t) = <a|e^{-itH}|a>, or of
    sum_a alpha_a f_a(t) when :func:`thermal_value` combines the fits of A's
    eigenstates with A's eigenvalues.  ``coeffs`` are Chebyshev coefficients
    in t / t_max, t_max the largest grid time, which :meth:`series_value`
    evaluates at imaginary time (the Wick-rotated thermal weight); only
    :attr:`moments`, which :func:`extract_moments` reports, converts them to
    m_n = <a|H^n|a>.
    """

    coeffs: np.ndarray
    condition: float
    residual: float
    grid: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def moments(self) -> np.ndarray:
        """m_n = <a|H^n|a>, n < order, converted from the Chebyshev fit."""
        t_max = _t_max(self.grid)
        poly = np.polynomial.chebyshev.cheb2poly(self.coeffs)
        return np.array(
            [
                poly[n] * math.factorial(n) / ((-1j * t_max) ** n)
                if n < len(poly)
                else 0.0
                for n in range(self.order)
            ]
        )

    def series_value(self, beta: float) -> complex:
        """sum_n m_n (-beta)^n / n!, i.e. the fit continued to t = -i beta."""
        z = -1j * beta / _t_max(self.grid)
        return complex(np.polynomial.chebyshev.chebval(z, self.coeffs))

    def amplification(self, beta: float) -> float:
        """How much per-sample amplitude noise can grow in series_value:
        sum_n |T_n(z)| at z = -i beta / t_max, in Python complex arithmetic."""
        z = -1j * beta / _t_max(self.grid)
        t_prev, t_cur, total = 1.0, z, 1.0
        for _ in range(1, self.order):
            total += abs(t_cur)
            t_prev, t_cur = t_cur, 2 * z * t_cur - t_prev
        return total


def _t_max(grid) -> float:
    """The largest |t| of ``grid``, the unit of the Chebyshev variable; 1
    for the one-point grid t = 0."""
    return max(abs(t) for t in grid) or 1.0


def extract_moments(
    h: LocalHamiltonian,
    a,
    order: int,
    grid=None,
    mode: str = "exact",
    solver_tol: float | None = None,
    trotter_step: float | None = None,
) -> MomentSet:
    """Moments <a|H^n|a> from short-time amplitudes f(t) = <a|e^{-itH}|a>.

    Fits the degree s-1 Taylor polynomial through the amplitude samples by a
    column-scaled least squares solve in the Chebyshev basis, whose
    conditioning stays flat at every order.  The amplitudes are those of the
    exact evolution, or of fixed-step Trotter powers (step ``t_max / 64``
    unless given), evaluated on the spectrum of their generator.

    Without a ``grid`` the times are t_k = k tau0, k = -s..s, with tau0
    small enough that the order-s Taylor remainder stays an order below
    ``solver_tol`` (default SOLVER_TOL); the +-t symmetry matches f(-t) =
    conj(f(t)), which keeps the moments real for Hermitian H.  A grid with
    fewer than ``order`` distinct times, or whose order-s remainder at its
    largest time exceeds ``solver_tol``, is refused.
    """
    if order < 1:
        raise ShapeError("order must be >= 1")
    solver_tol = limits.SOLVER_TOL if solver_tol is None else solver_tol
    h_norm = h.norm_bound()
    if grid is None:
        tau0 = ((0.1 * solver_tol * math.factorial(order)) ** (1.0 / order)
                / (order * max(h_norm, 1e-30)))
        grid = [k * tau0 for k in range(-order, order + 1)]
    grid = tuple(float(t) for t in grid)
    if len(set(grid)) < order:
        raise ShapeError(f"need >= {order} distinct grid times, got {grid}")
    t_max = max(abs(t) for t in grid)
    remainder = (t_max * h_norm) ** order / math.factorial(order)
    if remainder > solver_tol:
        raise BudgetError(
            f"order-{order} remainder bound {remainder:.2e} exceeds the "
            f"solver tolerance {solver_tol:.1e}; shrink the grid times "
            f"below {order}*({solver_tol:.1e}*{order}!)^(1/{order})/||H||"
        )
    a = _check_state(a)
    step = trotter_step if trotter_step else t_max / 64
    energies, weights = _spectrum(h, h_norm, mode, step, a[:, None])
    coeffs, condition, residuals = _fit_moments(
        grid, order, _amplitudes(grid, energies, weights)
    )
    return MomentSet(coeffs[:, 0], condition, float(residuals[0]), grid)


def _spectrum(h: LocalHamiltonian, h_norm: float, mode: str, trotter_step, states) -> tuple:
    """(E, W) from one Hermitian eigendecomposition G = sum_k E_k |k><k| of
    the generator, H itself in exact mode, the effective Hamiltonian of one
    Trotter step of length ``trotter_step`` in trotter mode: the energies
    E_k and the weights W[k, a] = |<k|a>|^2 of every column a of
    ``states``.  Every grid and every order reuse them.  In both modes
    the dimension is refused beyond DENSE_DIM_GUARD before any dense array;
    in trotter mode a step with ``trotter_step * h_norm`` >= pi/2 is refused
    before the step is built, ``h_norm`` being the caller's ``h.norm_bound()``."""
    dim = h.dense_dim()
    if states.shape[0] != dim:
        raise ShapeError(f"state dim {states.shape[0]} != operator dim {dim}")
    if mode == "exact":
        energies, eigvecs = np.linalg.eigh(h.dense())
    elif mode == "trotter":
        if trotter_step * h_norm >= math.pi / 2:
            raise ShapeError(
                f"trotter step {trotter_step:.3e} times the norm bound "
                f"{h_norm:.3e} is >= pi/2, where the step's phases are ambiguous"
            )
        circ = trotter_circuit(h, trotter_step, 1)
        step_u = apply_circuit(np.eye(dim), circ).T
        # All grid samples are powers of the same step circuit, i.e. exact
        # evolution under its effective (Floquet) Hamiltonian.  Extracting
        # that generator once and evolving with it keeps the dataset exactly
        # self-consistent, so the imaginary-time continuation does not
        # amplify floating-point noise from repeated matrix powers.  The step
        # is U = sum_k e^{-i E_k s} P_k, so (U - U^dag)/2i = sum_k
        # -sin(E_k s) P_k.  Its phases stay within s * sum_r ||H_r|| < pi/2,
        # where sin is injective, so this Hermitian matrix has U's
        # eigenspaces and holds the small phases at full relative precision.
        skew, eigvecs = np.linalg.eigh((step_u - dagger(step_u)) / 2j)
        energies = -np.arcsin(skew) / trotter_step
    else:
        raise ShapeError(f"unknown moment-extraction mode {mode!r}")
    return energies, np.abs(dagger(eigvecs) @ states) ** 2


def _amplitudes(grid, energies: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """F[t, a] = <a|e^{-itG}|a> = sum_k W[k, a] e^{-itE_k} for every grid
    time t and every weight column a, as one matrix product."""
    return np.exp(-1j * np.outer(grid, energies)) @ weights


def _fit_moments(grid: tuple, order: int, f: np.ndarray) -> tuple:
    """(coeffs, condition, residuals): the Chebyshev fit of every column of
    ``f`` (grid times x states) from one column-scaled least squares solve,
    whose real basis fits the real and imaginary parts together, and each
    column's misfit on the grid."""
    v = np.polynomial.chebyshev.chebvander(np.array(grid) / _t_max(grid), order - 1)
    col_scale = np.linalg.norm(v, axis=0)
    col_scale[col_scale == 0] = 1.0
    vs = v / col_scale
    y, _, _, sv = np.linalg.lstsq(vs, np.hstack([f.real, f.imag]), rcond=None)
    y = y[:, : f.shape[1]] + 1j * y[:, f.shape[1]:]
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if condition > limits.MAX_CONDITION:
        raise IllConditionedError(
            f"moment solve condition {condition:.2e} > {limits.MAX_CONDITION:.0e}; use a wider "
            "spread of grid times or a lower order"
        )
    coeffs = y / col_scale[:, None]
    residuals = np.linalg.norm(v @ coeffs - f, axis=0)
    return coeffs, condition, residuals


def choose_truncation(beta: float, h_norm_bound: float, eps: float) -> int:
    """Smallest Taylor order s with (beta ||H||)^s / s! * e^{beta ||H||} <= eps,
    compared in logarithms so that a large beta ||H|| is refused, not
    overflowed."""
    if eps <= 0:
        raise ShapeError("eps must be positive")
    x = beta * h_norm_bound
    s = 1
    while x > 0 and s * math.log(x) - math.lgamma(s + 1) + x > math.log(eps):
        s += 1
        if s > limits.MAX_ORDER:
            raise BudgetError(f"Taylor order exceeds {limits.MAX_ORDER}; lower beta or eps")
    return s


@dataclass(frozen=True)
class ThermalJob:
    """Parameters of one thermal-value computation Tr(A e^{-beta H}).  The
    Chebyshev order and the grid are not parameters: :func:`thermal_value`
    derives them from epsilon."""

    observable: np.ndarray = field(repr=False)
    hamiltonian: LocalHamiltonian = field(repr=False)
    beta: float
    epsilon: float
    mode: str = "exact"  # exact | trotter

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ShapeError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ShapeError(f"beta must be finite and >= 0, got {self.beta}")
        obs = as_matrix(self.observable)
        if not is_hermitian(obs):
            raise ShapeError("thermal observable must be Hermitian")
        object.__setattr__(self, "observable", obs)


@dataclass(frozen=True)
class ThermalResult:
    value: float
    budget: dict
    moments_condition: float
    order: int


SPAN = 2.75  # T / beta of the sample window [-T, T] of thermal_value


def thermal_value(job: ThermalJob, normalized: bool = False) -> ThermalResult:
    """Tr(A e^{-beta H}) via the short-time amplitudes of A's eigenstates.

    A and the centered H (or the Trotter step's effective Hamiltonian) are
    each diagonalized once.  The amplitudes of every eigenstate of A at the
    s first-kind Chebyshev points of [-T, T], T = SPAN * beta, are one
    matrix product, and one square solve interpolates them all.  Combined
    with A's eigenvalues they give one Chebyshev series, continued to
    t = -i beta; no monomial moments are formed.

    The order s is fixed before the fit: the smallest whose Jacobi-Anger
    tail 4 y^s / s! e^y, y = E_max T rho / 2, rho = |z| + sqrt(|z|^2 + 1)
    at z = -i beta / T, fits half of epsilon (the ``taylor`` term).  The
    ``trotter`` term bounds the step's error, the ``solver`` term the
    rounding, machine epsilon times sum_n |T_n(z)|.  An order past
    MAX_ORDER is refused before the Trotter step or any dense array is
    built (priced with ||H|| >= E_max); a budget sum or an imaginary part
    above epsilon is a BudgetError.  ``normalized`` divides by the
    partition function read from the same fit (A's eigenstates span the
    space, so their amplitudes sum to Tr e^{-itH}); the budget then weighs
    max(sum |alpha|, dim) and leaves out the e^{-beta mu} the ratio cancels.
    """
    from .hamiltonians import centered

    h, mu = centered(job.hamiltonian)
    # The value carries e^{-beta mu} and the budget divides by it: past
    # |beta mu| = log(largest float) it overflows or underflows towards 0.
    if job.beta * abs(mu) > math.log(sys.float_info.max):
        raise NumericalError(
            f"e^(-beta mu) at beta mu = {job.beta * mu:.3e} (mu the mean energy "
            "of H) is outside the float range; lower beta"
        )
    scale_mu = math.exp(-job.beta * mu)
    h_norm = h.norm_bound()
    eps = job.epsilon
    alphas, vecs = np.linalg.eigh(job.observable)
    alpha_sum = float(np.sum(np.abs(alphas)))
    a_norm = max(alpha_sum, len(alphas)) if normalized else alpha_sum
    budget_mu = 1.0 if normalized else scale_mu  # a ratio cancels e^{-beta mu}
    weight = budget_mu * max(a_norm, 1.0)
    rho = 1 / SPAN + math.sqrt(1 / SPAN**2 + 1)  # at |z| = beta / T = 1 / SPAN
    target = 0.5 * eps / (4 * weight)
    # An order past MAX_ORDER is refused here, before any dense array.
    choose_truncation(1.0, h_norm * job.beta * SPAN * rho / 2, target)
    trotter_step, trotter_bound = None, 0.0
    if job.mode == "trotter":
        comm_scale = 2 * h_norm**2 * math.exp(job.beta * h_norm)
        # At most 1 / ||H||, inside _spectrum's pi/2 refusal: a shorter step
        # only lowers the bound.  With H = 0 every step is exact.
        per_step = max(a_norm * job.beta * comm_scale, 0.3 * eps * h_norm)
        trotter_step = 0.3 * eps / per_step if per_step else 1.0
        trotter_bound = budget_mu * a_norm * job.beta * trotter_step * comm_scale
    energies, weights = _spectrum(h, h_norm, job.mode, trotter_step, vecs)
    y = float(np.max(np.abs(energies))) * job.beta * SPAN * rho / 2  # 0 at E_max = 0
    order = choose_truncation(1.0, y, target)
    # beta * x first: the one-point grid, x = 0, stays t = 0 where SPAN * beta overflows.
    grid = tuple(SPAN * (job.beta * np.polynomial.chebyshev.chebpts1(order)))
    coeffs, condition, residuals = _fit_moments(
        grid, order, _amplitudes(grid, energies, weights)
    )
    fit = MomentSet(coeffs @ alphas, condition, float(np.max(residuals)), grid)
    log_tail = order * math.log(y) - math.lgamma(order + 1) + y if y > 0 else -math.inf
    budget = {
        "taylor": 4 * weight * math.exp(log_tail),
        "trotter": trotter_bound,
        "solver": weight * float(np.finfo(float).eps) * fit.amplification(job.beta),
    }
    spent = sum(budget.values())
    if spent > eps:
        split = ", ".join(f"{k} {v:.2e}" for k, v in budget.items())
        raise BudgetError(
            f"at order {order} the budget sum {spent:.2e} ({split}) exceeds "
            f"epsilon {eps:.1e}; lower beta or raise epsilon"
        )
    total = scale_mu * fit.series_value(job.beta)
    z = 1.0
    if normalized:
        z = scale_mu * replace(fit, coeffs=coeffs.sum(axis=1)).series_value(job.beta)
    imag = max(abs(total.imag), abs(z.imag))
    if imag > eps:
        raise BudgetError(
            f"thermal value has imaginary part {imag:.2e} beyond the accuracy "
            "budget; the moment fit is unreliable"
        )
    return ThermalResult(float(total.real / z.real), budget, fit.condition, order)


def entropy(h_mod: LocalHamiltonian, eps: float) -> ThermalResult:
    """S(rho) = Tr(H e^{-H}) for rho = e^{-H}: one thermal value of A = H
    at beta = 1.

    ``h_mod`` must normalize: Tr(e^{-H}) = 1 within MODULAR_TOL (the
    temperature is absorbed into H).
    """
    dense = h_mod.dense()
    z = float(np.sum(np.exp(-np.linalg.eigvalsh(dense))))
    if abs(z - 1.0) > limits.MODULAR_TOL:
        raise PositivityError(
            f"Tr(e^-H) = {z:.8f} != 1: not a modular Hamiltonian"
        )
    return thermal_value(
        ThermalJob(observable=dense, hamiltonian=h_mod, beta=1.0, epsilon=eps)
    )


# ---------------------------------------------------------------------------
# Reflections and transition amplitudes


def reflection(psi) -> np.ndarray:
    """R = 1 - 2|psi><psi| for one state or for each state of a (..., d)
    stack; a state is normalized first, and the zero vector is a ShapeError."""
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    norm = np.linalg.norm(psi, axis=-1, keepdims=True)
    raise_first(norm[..., 0] < limits.ZERO_TOL, ShapeError,
                lambda i: "cannot reflect about the zero vector")
    psi = psi / norm
    return np.eye(psi.shape[-1]) - 2 * psi[..., :, None] * psi.conj()[..., None, :]


def transition_amplitude(
    phi, u, psi, shots: int | None = None, seed=None
) -> AmplitudeEstimate:
    """<phi|U|psi> assembled from reflection-sandwiched diagonal elements.

    Uses the first computational basis state |b> overlapping both phi and
    psi by at least MIN_OVERLAP in modulus:
    <phi|U|psi> = (T1 + T4 - T2 - T3) / (4 <b|phi><psi|b>) with
    T1 = <b|R_phi U R_psi|b>, T2 = <b|R_phi U|b>, T3 = <b|U R_psi|b>,
    T4 = <b|U|b>, each a Hadamard-test estimate.  In exact mode phi, U and
    psi may be broadcasting stacks: each case picks its own |b> (none is a
    ReferenceStateError naming the case), and the four terms of every case
    are one Hadamard-test stack.  Shot mode takes one case and draws each
    term with its own seed.
    """
    u = np.asarray(u, dtype=complex)
    raise_first(~is_unitary(u), ShapeError, lambda i: "transition_amplitude needs a unitary U")
    phi, psi = _check_state(phi), _check_state(psi)
    d = phi.shape[-1]
    if psi.shape[-1] != d or u.shape[-1] != d:
        raise ShapeError("phi, U, psi dimensions disagree")
    phi, psi = np.broadcast_arrays(phi, psi)
    least = limits.MIN_OVERLAP
    usable = (np.abs(phi) >= least) & (np.abs(psi) >= least)
    raise_first(~usable.any(axis=-1), ReferenceStateError,
                lambda i: f"no computational basis state overlaps both states above {least:g}")
    b = np.argmax(usable, axis=-1)[..., None]
    basis = np.eye(d, dtype=complex)[b[..., 0]]
    r_phi, r_psi = reflection(phi), reflection(psi)
    terms = [r_phi @ u @ r_psi, r_phi @ u, u @ r_psi, u]
    phi_b, psi_b = (np.take_along_axis(x, b, -1)[..., 0][()] for x in (phi, psi))
    denom = 4 * phi_b * np.conj(psi_b)  # 4 <b|phi><psi|b>
    if shots is None:  # one checked Hadamard test on the stack of the four terms
        t1, t2, t3, t4 = hadamard_test(np.stack(np.broadcast_arrays(*terms)), basis).value
        return AmplitudeEstimate((t1 + t4 - t2 - t3) / denom, 0.0, 0)
    limits.check_shots(shots)  # four one-case tests of a U and states checked above
    seeds = [None] * 4 if seed is None else np.random.default_rng(seed).integers(0, 2**63 - 1, 4)
    ests = [_hadamard(t, basis, shots, s) for t, s in zip(terms, seeds)]
    t1, t2, t3, t4 = (e.value for e in ests)
    value = (t1 + t4 - t2 - t3) / denom
    stderr = float(np.sqrt(sum(e.stderr**2 for e in ests)) / abs(denom))
    return AmplitudeEstimate(complex(value), stderr, sum(e.shots for e in ests))


def unitary_decompose(a) -> tuple:
    """Hermitian A as shift/scale plus a sum of two unitaries.

    Returns (shift, scale, U+, U-) with A = scale * (U+ + U-) + shift * 1,
    where the traceless rescaled A' = (A - shift)/scale satisfies
    U+- = A'/2 +- i sqrt(1 - (A'/2)^2), also per matrix of a stack (..., d, d).
    """
    a = np.asarray(a, dtype=complex)
    raise_first(~is_hermitian(a), ShapeError,
                lambda i: "two-unitary decomposition implemented for Hermitian input")
    d = a.shape[-1]
    shift = np.trace(a, axis1=-2, axis2=-1).real / d
    w, v = np.linalg.eigh(a - shift[..., None, None] * np.eye(d))
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, initial=0.0) / 2)
    # B and C = sqrt(1 - B^2) share B's eigenbasis; building both there keeps
    # U+- unitary to rounding even when ||B|| touches 1.
    b_eigs = np.clip(w / (2 * scale[..., None]), -1.0, 1.0)
    c_eigs = np.sqrt(1.0 - b_eigs**2)
    u_plus = (v * (b_eigs + 1j * c_eigs)[..., None, :]) @ dagger(v)
    u_minus = (v * (b_eigs - 1j * c_eigs)[..., None, :]) @ dagger(v)
    return shift[()], scale[()], u_plus, u_minus


def general_matrix_element(phi, a, psi, shots: int | None = None, seed=None):
    """<phi|A|psi> for Hermitian A via the two-unitary decomposition: the
    transition amplitudes of U+, U- and the identity.  In exact mode phi, A
    and psi may be broadcasting stacks, and the result is an array of their
    batch shape; shot mode takes one case."""
    shift, scale, u_plus, u_minus = unitary_decompose(a)
    seeds = [None] * 3 if seed is None else list(
        np.random.default_rng(seed).integers(0, 2**63 - 1, size=3)
    )
    plus, minus, overlap = (
        transition_amplitude(phi, u, psi, shots, s).value
        for u, s in zip((u_plus, u_minus, np.eye(np.shape(phi)[-1])), seeds)
    )
    return scale * (plus + minus) + shift * overlap
