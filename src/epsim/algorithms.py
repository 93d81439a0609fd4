"""Estimation algorithms built on interferometric amplitude measurements.

Covers the Hadamard-test / one-clean-qubit estimators, Hamiltonian moment
extraction from short-time amplitudes, thermal values through the imaginary
time Taylor series, modular-Hamiltonian entropies, reflection-based
transition amplitudes, and the two-unitary decomposition of Hermitian
observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import (
    BudgetError,
    IllConditionedError,
    PositivityError,
    ReferenceStateError,
    ShapeError,
)
from .hamiltonians import LocalHamiltonian, trotter_circuit
from .linalg import PAULI, as_matrix, dagger, is_unitary, matrix_exp
from .oracle import apply_circuit


def _swap_matrix(d: int) -> np.ndarray:
    """Exchange of two d-level systems: |i, j> -> |j, i>."""
    swap = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return swap.transpose(1, 0, 2, 3).reshape(d * d, d * d)


@dataclass(frozen=True)
class AmplitudeEstimate:
    value: complex
    stderr: float
    shots: int

    def __complex__(self):
        return complex(self.value)


def _check_state(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(a) - 1.0) > 1e-10:
        raise ShapeError("state vector must be normalized")
    return a


def hadamard_test(
    u, a, shots: int | None = None, seed=None, tol: float = 1e-8
) -> AmplitudeEstimate:
    """<a|U|a> from the controlled-U interference circuit.

    The controller's sigma_x expectation is the real part, sigma_y the
    imaginary part.  Exact mode (shots=None) evaluates the circuit
    expectations; shot mode draws binomial samples per basis.
    """
    u = as_matrix(u)
    if not is_unitary(u, tol=tol):
        raise ShapeError("hadamard_test needs a unitary operator")
    a = _check_state(a)
    if a.size != u.shape[0]:
        raise ShapeError(f"state dim {a.size} != operator dim {u.shape[0]}")
    d = a.size
    # |v> = ctrl-U (|+> (x) |a>)
    v = np.concatenate([a, u @ a]) / np.sqrt(2)
    re = float(np.real(np.conj(v) @ np.kron(PAULI["X"], np.eye(d)) @ v))
    im = float(np.real(np.conj(v) @ np.kron(PAULI["Y"], np.eye(d)) @ v))
    if shots is None:
        return AmplitudeEstimate(complex(re, im), 0.0, 0)
    rng = np.random.default_rng(seed)
    est = []
    err_sq = 0.0
    for mean in (re, im):
        p = min(max((1 + mean) / 2, 0.0), 1.0)
        hits = rng.binomial(shots, p)
        p_hat = hits / shots
        est.append(2 * p_hat - 1)
        err_sq += 4 * p_hat * (1 - p_hat) / shots
    return AmplitudeEstimate(complex(est[0], est[1]), float(np.sqrt(err_sq)), 2 * shots)


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
    u = as_matrix(u)
    if not is_unitary(u):
        raise ShapeError("dqc1_cswap_estimate needs a unitary operator")
    a = _check_state(a)
    eigvec = _check_state(eigvec)
    resid = u @ eigvec - (np.conj(eigvec) @ u @ eigvec) * eigvec
    if np.linalg.norm(resid) > 1e-8:
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
    """Fitted short-time expansion of f(t) = <a|e^{-itH}|a>.

    ``moments`` are m_n = <a|H^n|a>; internally the same polynomial is kept
    in the basis the solve used, which :meth:`series_value` evaluates at
    imaginary time (the Wick-rotated thermal weight).
    """

    moments: np.ndarray
    condition: float
    residual: float
    grid: tuple
    basis: str = "monomial"
    coeffs: np.ndarray | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.moments)

    def series_value(self, beta: float) -> complex:
        """sum_n m_n (-beta)^n / n!, i.e. the fit continued to t = -i beta."""
        if self.basis == "chebyshev" and self.coeffs is not None:
            z = -1j * beta / max(abs(t) for t in self.grid)
            return complex(np.polynomial.chebyshev.chebval(z, self.coeffs))
        weights = np.array(
            [(-beta) ** n / math.factorial(n) for n in range(self.order)]
        )
        return complex(np.dot(weights, self.moments))

    def amplification(self, beta: float) -> float:
        """How much per-sample amplitude noise can grow in series_value."""
        if self.basis == "chebyshev":
            z = -1j * beta / max(abs(t) for t in self.grid)
            t_prev, t_cur = np.ones_like(z), z
            total = abs(t_prev)
            for _ in range(1, self.order):
                total += abs(t_cur)
                t_prev, t_cur = t_cur, 2 * z * t_cur - t_prev
            return float(total)
        t_max = max(abs(t) for t in self.grid)
        return float(
            sum((beta / t_max) ** n for n in range(self.order))
        )


_MONOMIAL_MAX_ORDER = 12  # plain scaled monomials stay well conditioned here


def default_grid(order: int, h_norm: float, solver_tol: float = 1e-10):
    """Symmetric grid t_k = k tau0, k = -s..s, with tau0 small enough that
    the order-s Taylor remainder stays an order below the solver tolerance.

    The +-t symmetry matches f(-t) = conj(f(t)), which keeps the extracted
    moments real (for Hermitian H) and the imaginary-time continuation clean.
    """
    target = 0.1 * solver_tol
    tau0 = (target * math.factorial(order)) ** (1.0 / order) / (order * max(h_norm, 1e-30))
    return tuple(k * tau0 for k in range(-order, order + 1))


def extract_moments(
    h: LocalHamiltonian,
    a,
    order: int,
    grid=None,
    mode: str = "exact",
    solver_tol: float = 1e-10,
    trotter_step: float | None = None,
) -> MomentSet:
    """Moments <a|H^n|a> from short-time amplitudes f(t) = <a|e^{-itH}|a>.

    Fits the degree s-1 Taylor polynomial through the amplitude samples by a
    column-scaled least squares solve; small orders use the monomial columns
    (-i t)^n / n! directly, large orders the equivalent Chebyshev columns,
    whose conditioning stays flat.  The amplitudes are those of the exact
    evolution, or of fixed-step Trotter powers, evaluated on the spectrum
    of their generator.
    """
    grid = _moment_grid(h.norm_bound(), order, grid, solver_tol)
    a = _check_state(a)
    f = _amplitudes(h, mode, grid, trotter_step, a[:, None])
    return _fit_moments(grid, order, f)[0]


def _moment_grid(h_norm: float, order: int, grid, solver_tol: float) -> tuple:
    """The sample times (``default_grid`` when None), refused unless there
    are ``order`` distinct ones and the order-s Taylor remainder at the
    largest stays within ``solver_tol``."""
    if order < 1:
        raise ShapeError("order must be >= 1")
    grid = tuple(float(t) for t in (grid if grid is not None else
                                    default_grid(order, h_norm, solver_tol)))
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
    return grid


def _amplitudes(h: LocalHamiltonian, mode: str, grid, trotter_step, states):
    """F[t, a] = <a|e^{-itG}|a> = sum_k |<k|a>|^2 e^{-itE_k} for every grid
    time t and every column a of ``states``, as one matrix product over one
    eigendecomposition G = sum_k E_k |k><k| of the generator: H itself in
    exact mode, the effective Hamiltonian of one fixed-step Trotter step in
    trotter mode."""
    if mode == "exact":
        gen = h.dense()
    elif mode == "trotter":
        import scipy.linalg

        t_max = max(abs(t) for t in grid)
        step = trotter_step if trotter_step else t_max / 64
        dim = h.phys_dim**h.n_sites
        circ = trotter_circuit(h, step, 1)
        eye = np.eye(dim, dtype=complex)
        step_u = np.stack(
            [
                apply_circuit(eye[:, k], circ, [h.phys_dim] * h.n_sites)
                for k in range(dim)
            ],
            axis=1,
        )
        # All grid samples are powers of the same step circuit, i.e. exact
        # evolution under its effective (Floquet) Hamiltonian.  Extracting
        # that generator once and evolving with it keeps the dataset exactly
        # self-consistent, so the imaginary-time continuation does not
        # amplify floating-point noise from repeated matrix powers.
        h_eff = 1j * scipy.linalg.logm(step_u) / step
        gen = (h_eff + dagger(h_eff)) / 2
    else:
        raise ShapeError(f"unknown moment-extraction mode {mode!r}")
    if states.shape[0] != gen.shape[0]:
        raise ShapeError(f"state dim {states.shape[0]} != operator dim {gen.shape[0]}")
    energies, eigvecs = np.linalg.eigh(gen)
    weights = np.abs(dagger(eigvecs) @ states) ** 2
    return np.exp(-1j * np.outer(grid, energies)) @ weights


def _fit_moments(grid: tuple, order: int, f: np.ndarray) -> list:
    """One MomentSet per column of ``f`` (grid times x states), all from a
    single column-scaled least squares solve."""
    t_max = max(abs(t) for t in grid)
    basis = "monomial" if order <= _MONOMIAL_MAX_ORDER else "chebyshev"
    if basis == "monomial":
        v = np.array(
            [[(-1j * t) ** n / math.factorial(n) for n in range(order)] for t in grid]
        )
    else:
        v = np.polynomial.chebyshev.chebvander(np.array(grid) / t_max, order - 1)
    col_scale = np.linalg.norm(v, axis=0)
    col_scale[col_scale == 0] = 1.0
    vs = v / col_scale
    condition = float(np.linalg.cond(vs))
    if condition > 1e12:
        raise IllConditionedError(
            f"moment solve condition {condition:.2e} > 1e12; use a wider "
            "spread of grid times or a lower order"
        )
    y, *_ = np.linalg.lstsq(vs, f, rcond=None)
    coeffs = y / col_scale[:, None]
    residuals = np.linalg.norm(v @ coeffs - f, axis=0)
    sets = []
    for c, residual in zip(coeffs.T, residuals):
        moments, cheb = c, None
        if basis == "chebyshev":
            poly = np.polynomial.chebyshev.cheb2poly(c)
            moments = np.array(
                [
                    poly[n] * math.factorial(n) / ((-1j * t_max) ** n)
                    if n < len(poly)
                    else 0.0
                    for n in range(order)
                ]
            )
            cheb = c
        sets.append(MomentSet(moments, condition, float(residual), grid, basis, cheb))
    return sets


def choose_truncation(beta: float, h_norm_bound: float, eps: float) -> int:
    """Smallest Taylor order s with (beta ||H||)^s / s! * e^{beta ||H||} <= eps."""
    if eps <= 0:
        raise ShapeError("eps must be positive")
    x = beta * h_norm_bound
    s = 1
    while (x**s) / math.factorial(s) * math.exp(x) > eps:
        s += 1
        if s > 500:
            raise BudgetError("Taylor order exceeds 500; lower beta or eps")
    return s


@dataclass(frozen=True)
class ThermalJob:
    """Parameters of one thermal-value computation Tr(A e^{-beta H})."""

    observable: np.ndarray = field(repr=False)
    hamiltonian: LocalHamiltonian = field(repr=False)
    beta: float
    epsilon: float
    order: int
    mode: str = "exact"  # exact | trotter
    tau: float | None = None
    reps: int | None = None
    grid: tuple | None = None

    def __post_init__(self):
        obs = as_matrix(self.observable)
        if np.max(np.abs(obs - dagger(obs))) > 1e-10:
            raise ShapeError("thermal observable must be Hermitian")
        if self.beta < 0:
            raise ShapeError("beta must be >= 0")
        if self.order < 1:
            raise ShapeError("Taylor order must be >= 1")
        object.__setattr__(self, "observable", obs)
        if self.grid is not None:
            object.__setattr__(self, "grid", tuple(float(t) for t in self.grid))
            if self.tau is not None and self.reps is not None:
                if abs(self.reps * self.tau - max(self.grid)) > 1e-12:
                    raise ShapeError("reps * tau must match the largest grid time")

    def to_dict(self) -> dict:
        return {
            "observable": serialize.cmat_flat(self.observable),
            "hamiltonian": self.hamiltonian.to_dict(),
            "beta": self.beta,
            "epsilon": self.epsilon,
            "s": self.order,
            "tau": self.tau,
            "R": self.reps,
            "grid": list(self.grid) if self.grid is not None else None,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThermalJob":
        ham = LocalHamiltonian.from_dict(data["hamiltonian"])
        dim = ham.phys_dim**ham.n_sites
        return cls(
            observable=serialize.parse_cmat_flat(data["observable"], dim, dim),
            hamiltonian=ham,
            beta=float(data["beta"]),
            epsilon=float(data["epsilon"]),
            order=int(data["s"]),
            mode=data.get("mode", "exact"),
            tau=data.get("tau"),
            reps=data.get("R"),
            grid=tuple(data["grid"]) if data.get("grid") else None,
        )


@dataclass(frozen=True)
class ThermalResult:
    value: float
    budget: dict
    moments_condition: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "budget": dict(self.budget),
            "moments_condition": self.moments_condition,
        }


def thermal_value(job: ThermalJob, normalized: bool = False) -> ThermalResult:
    """Tr(A e^{-beta H}) via Hamiltonian moments of A's eigenstates.

    A and the centered H (or the Trotter step's effective Hamiltonian) are
    each diagonalized once; the short-time amplitudes of every eigenstate
    of A at every grid time are one matrix product, and one least squares
    solve fits all of their moments, which are Wick-rotated into the
    imaginary-time Taylor series.  The returned budget splits the error
    bound into the Taylor tail, the Trotter contribution, and the solver
    residual; the job is rejected up front if the requested epsilon is out
    of reach.
    ``normalized`` divides by the partition function computed the same way
    (the plain thermal value is unnormalized).
    """
    from .hamiltonians import centered

    h, mu = centered(job.hamiltonian)
    scale_mu = math.exp(-job.beta * mu)
    h_norm = h.norm_bound()
    x = job.beta * h_norm
    tail = (x**job.order) / math.factorial(job.order) * math.exp(x) * scale_mu
    alphas, vecs = np.linalg.eigh(job.observable)
    alpha_sum = float(np.sum(np.abs(alphas)))
    taylor_alloc = 0.5 * job.epsilon
    if tail * max(alpha_sum, 1.0) > taylor_alloc:
        need = choose_truncation(
            job.beta, h_norm, taylor_alloc / (scale_mu * max(alpha_sum, 1.0))
        )
        raise BudgetError(
            f"Taylor tail bound {tail * max(alpha_sum, 1.0):.2e} exceeds its "
            f"allocation {taylor_alloc:.2e}; raise the order to >= {need}"
        )
    # The grid length sets how far the fit must continue towards imaginary
    # time; tying the solver tolerance to the job budget keeps the grid as
    # long (and the continuation as tame) as the accuracy target allows.
    solver_tol = min(1e-6, 0.2 * job.epsilon / max(alpha_sum, 1.0))
    trotter_alloc = 0.3 * job.epsilon
    trotter_step = job.tau
    if job.mode == "trotter" and trotter_step is None:
        comm_scale = 2 * h_norm**2 * math.exp(x)
        trotter_step = trotter_alloc / max(alpha_sum * job.beta * comm_scale, 1e-12)

    grid = _moment_grid(h_norm, job.order, job.grid, solver_tol)
    f = _amplitudes(h, job.mode, grid, trotter_step, vecs)
    fits = _fit_moments(grid, job.order, f)
    total = scale_mu * sum(a * ms.series_value(job.beta) for a, ms in zip(alphas, fits))
    condition = fits[0].condition
    # amplification depends only on the shared grid, beta and order.
    solver_bound = scale_mu * alpha_sum * fits[0].amplification(job.beta) * max(
        ms.residual for ms in fits
    )
    trotter_bound = 0.0
    if job.mode == "trotter":
        trotter_bound = (
            scale_mu * alpha_sum * job.beta * trotter_step * 2 * h_norm**2 * math.exp(x)
        )
    budget = {
        "taylor": tail * alpha_sum,
        "trotter": trotter_bound,
        "solver": solver_bound,
    }
    if abs(total.imag) > job.epsilon:
        raise ShapeError(
            f"thermal value has imaginary part {total.imag:.2e} beyond the "
            f"accuracy budget; the moment fit is unreliable"
        )
    value = float(total.real)
    if normalized:
        ident_job = ThermalJob(
            observable=np.eye(job.observable.shape[0]),
            hamiltonian=job.hamiltonian,
            beta=job.beta,
            epsilon=job.epsilon,
            order=job.order,
            mode=job.mode,
            tau=job.tau,
            reps=job.reps,
            grid=job.grid,
        )
        z = thermal_value(ident_job).value
        value /= z
    return ThermalResult(value, budget, condition)


def entropy(h_mod: LocalHamiltonian, eps: float) -> float:
    """S(rho) = Tr(H e^{-H}) for rho = e^{-H}, summed term by term.

    ``h_mod`` must normalize: Tr(e^{-H}) = 1 within 1e-6 (the temperature is
    absorbed into H).
    """
    dense = h_mod.dense()
    z = float(np.real(np.trace(matrix_exp(dense, -1.0))))
    if abs(z - 1.0) > 1e-6:
        raise PositivityError(
            f"Tr(e^-H) = {z:.8f} != 1: not a modular Hamiltonian"
        )
    from .hamiltonians import centered
    from .linalg import embed_operator

    dims = [h_mod.phys_dim] * h_mod.n_sites
    per_term = eps / max(len(h_mod.terms), 1)
    h_centered, mu = centered(h_mod)
    h_norm = h_centered.norm_bound()
    tail_scale = math.exp(-mu)
    total = 0.0
    for support, mat in h_mod.terms:
        obs = embed_operator(mat, list(support), dims)
        alpha_sum = float(np.sum(np.abs(np.linalg.eigvalsh(obs))))
        order = choose_truncation(
            1.0, h_norm, 0.4 * per_term / (tail_scale * max(alpha_sum, 1.0))
        )
        job = ThermalJob(
            observable=obs,
            hamiltonian=h_mod,
            beta=1.0,
            epsilon=per_term,
            order=order,
        )
        total += thermal_value(job).value
    return total


# ---------------------------------------------------------------------------
# Reflections and transition amplitudes


def reflection(psi) -> tuple:
    """(R, U) with R = 1 - 2|psi><psi| and U|0> = |psi| (Householder)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ShapeError("cannot reflect about the zero vector")
    psi = psi / norm
    d = psi.size
    r = np.eye(d, dtype=complex) - 2 * np.outer(psi, psi.conj())
    gamma = psi[0] / abs(psi[0]) if abs(psi[0]) > 1e-14 else 1.0
    u0 = psi - gamma * np.eye(d, dtype=complex)[:, 0]
    if np.linalg.norm(u0) < 1e-14:
        u = np.eye(d, dtype=complex)
        u[0, 0] = gamma
    else:
        h = np.eye(d, dtype=complex) - 2 * np.outer(u0, u0.conj()) / (
            np.linalg.norm(u0) ** 2
        )
        u = gamma * h
    return r, u


def transition_amplitude(
    phi, u, psi, shots: int | None = None, seed=None, threshold: float = 1e-3
) -> AmplitudeEstimate:
    """<phi|U|psi> assembled from reflection-sandwiched diagonal elements.

    Uses a computational basis state |b> overlapping both phi and psi:
    <phi|U|psi> = (T1 + T4 - T2 - T3) / (4 <b|phi><psi|b>) with
    T1 = <b|R_phi U R_psi|b>, T2 = <b|R_phi U|b>, T3 = <b|U R_psi|b>,
    T4 = <b|U|b>, each a Hadamard-test estimate.
    """
    u = as_matrix(u)
    phi = _check_state(phi)
    psi = _check_state(psi)
    d = phi.size
    if psi.size != d or u.shape != (d, d):
        raise ShapeError("phi, U, psi dimensions disagree")
    b = None
    for k in range(d):
        if abs(phi[k]) >= threshold and abs(psi[k]) >= threshold:
            b = k
            break
    if b is None:
        raise ReferenceStateError(
            "no computational basis state overlaps both states above "
            f"{threshold:g}"
        )
    basis = np.zeros(d, dtype=complex)
    basis[b] = 1.0
    r_phi, _ = reflection(phi)
    r_psi, _ = reflection(psi)
    seeds = [None] * 4 if seed is None else list(
        np.random.default_rng(seed).integers(0, 2**63 - 1, size=4)
    )
    ests = [
        hadamard_test(r_phi @ u @ r_psi, basis, shots, seeds[0]),
        hadamard_test(r_phi @ u, basis, shots, seeds[1]),
        hadamard_test(u @ r_psi, basis, shots, seeds[2]),
        hadamard_test(u, basis, shots, seeds[3]),
    ]
    t1, t2, t3, t4 = (e.value for e in ests)
    denom = 4 * phi[b] * np.conj(psi[b])  # <b|phi><psi|b>
    value = (t1 + t4 - t2 - t3) / denom
    stderr = float(np.sqrt(sum(e.stderr**2 for e in ests)) / abs(denom))
    return AmplitudeEstimate(complex(value), stderr, sum(e.shots for e in ests))


def unitary_decompose(a) -> tuple:
    """Hermitian A as shift/scale plus a sum of two unitaries.

    Returns (shift, scale, U+, U-) with A = scale * (U+ + U-) + shift * 1,
    where the traceless rescaled A' = (A - shift)/scale satisfies
    U+- = A'/2 +- i sqrt(1 - (A'/2)^2).
    """
    a = as_matrix(a)
    if np.max(np.abs(a - dagger(a))) > 1e-10:
        raise ShapeError("two-unitary decomposition implemented for Hermitian input")
    d = a.shape[0]
    shift = float(np.real(np.trace(a))) / d
    traceless = a - shift * np.eye(d)
    w, v = np.linalg.eigh(traceless)
    scale = max(1.0, float(np.max(np.abs(w))) / 2 if d else 0.0)
    # B and C = sqrt(1 - B^2) share B's eigenbasis; building both there keeps
    # U+- unitary to rounding even when ||B|| touches 1.
    b_eigs = np.clip(w / (2 * scale), -1.0, 1.0)
    c_eigs = np.sqrt(1.0 - b_eigs**2)
    u_plus = (v * (b_eigs + 1j * c_eigs)) @ dagger(v)
    u_minus = (v * (b_eigs - 1j * c_eigs)) @ dagger(v)
    return shift, scale, u_plus, u_minus


def general_matrix_element(
    phi, a, psi, shots: int | None = None, seed=None
) -> complex:
    """<phi|A|psi> for Hermitian A via the two-unitary decomposition."""
    shift, scale, u_plus, u_minus = unitary_decompose(a)
    seeds = [None] * 3 if seed is None else list(
        np.random.default_rng(seed).integers(0, 2**63 - 1, size=3)
    )
    parts = [
        transition_amplitude(phi, u_plus, psi, shots, seeds[0]).value,
        transition_amplitude(phi, u_minus, psi, shots, seeds[1]).value,
    ]
    overlap = transition_amplitude(
        phi, np.eye(len(np.asarray(phi))), psi, shots, seeds[2]
    ).value
    return complex(scale * (parts[0] + parts[1]) + shift * overlap)


# ---------------------------------------------------------------------------
# Repetition-encoded controller sanity check


def encoded_cswap_defect(u, n_rep: int = 3) -> float:
    """Max deviation between the repetition-encoded controlled-swap circuit
    and the plain one on the logical controller subspace.

    The encoded controller is a GHZ state; the first physical qubit controls
    the swap before U, the last the swap after it, so each qubit touches two
    controlled-swaps at most.
    """
    u = as_matrix(u)
    d = u.shape[0]
    swap = _swap_matrix(d)

    def cswap_on(controller_dim, control_state_mask):
        """Controlled swap with the control condition |mask bits all 1>."""
        out = np.zeros((controller_dim * d * d, controller_dim * d * d), dtype=complex)
        for c in range(controller_dim):
            block = swap if (c & control_state_mask) == control_state_mask else np.eye(d * d)
            out[c * d * d : (c + 1) * d * d, c * d * d : (c + 1) * d * d] = block
        return out

    plain = cswap_on(2, 1) @ np.kron(np.eye(2 * d), u) @ cswap_on(2, 1)
    ctrl_dim = 2**n_rep
    first = cswap_on(ctrl_dim, 1 << (n_rep - 1))  # controlled by qubit 0
    last = cswap_on(ctrl_dim, 1)  # controlled by qubit n-1
    encoded = last @ np.kron(np.eye(ctrl_dim * d), u) @ first
    # Logical embedding |0> -> |0...0>, |1> -> |1...1>.
    iso = np.zeros((ctrl_dim, 2), dtype=complex)
    iso[0, 0] = 1.0
    iso[ctrl_dim - 1, 1] = 1.0
    big_iso = np.kron(iso, np.eye(d * d))
    return float(np.max(np.abs(encoded @ big_iso - big_iso @ plain)))
