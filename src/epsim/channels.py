"""Quantum channels and the channel-state duality.

A channel is stored as its Kraus operators ``{A_i}`` (each ``d_out x d_in``,
``sum_i A_i^dag A_i = 1``).  Its dual Choi state is

    omega = (1/d_in) sum_ij Phi(|i><j|) (x) |i><j|

with the output factor first and the input-reference factor second, and the
channel action is recovered by the readout identity

    Phi(rho) = d_in * tr_ref[ omega (1 (x) rho^T) ].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import limits
from .errors import InvalidChoiError, PositivityError, ShapeError, raise_first
from .linalg import as_matrix, dagger, partial_trace, tp_residual


def bell_vector(d: int) -> np.ndarray:
    """Maximally entangled |omega> = (1/sqrt(d)) sum_i |ii>."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


# Duality kernels.  Each acts on a stack of channels or Choi matrices with
# any number of leading (batch) axes; Channel and ChoiState call them with
# none.  A failed check names the offending case, counted in row-major order
# over the batch axes, or taken from ``cases`` when given.


def kraus_tp_check(kraus: np.ndarray, cases=None) -> None:
    """Raise ShapeError unless each Kraus set (..., k, d_out, d_in) obeys
    sum_i A_i^dag A_i = 1 to within TP_TOL."""
    err = tp_residual(kraus)
    raise_first(
        err > limits.TP_TOL, ShapeError,
        lambda i: f"Kraus operators are not trace preserving: max |sum A^dag A - 1| = {err[i]:.3e}",
        cases,
    )


def kraus_to_choi(kraus: np.ndarray) -> np.ndarray:
    """omega = (1/d_in) sum_i vec(A_i) vec(A_i)^dag for Kraus sets
    (..., k, d_out, d_in)."""
    *lead, k, d_out, d_in = kraus.shape
    w = kraus.reshape(*lead, k, d_out * d_in)
    return (np.swapaxes(w, -1, -2) @ w.conj()) / d_in


def choi_eigh(matrix: np.ndarray, d_in: int, d_out: int, cases=None) -> tuple:
    """Validate Choi matrices (..., D, D) and return ``eigh`` of their
    Hermitian parts.  Raises InvalidChoiError unless each is Hermitian,
    PSD, of unit trace and maximally mixed on the input reference, all to
    within EQ_TOL."""
    tol = limits.EQ_TOL
    adj = np.conj(np.swapaxes(matrix, -1, -2))
    herm = np.max(np.abs(matrix - adj), axis=(-2, -1))
    raise_first(herm > tol, InvalidChoiError, lambda i: "Choi matrix is not Hermitian", cases)
    w, v = np.linalg.eigh((matrix + adj) / 2)
    smallest = w[..., 0]
    raise_first(
        smallest < -tol, InvalidChoiError,
        lambda i: f"Choi matrix is not PSD: smallest eigenvalue {smallest[i]:.3e}", cases,
    )
    trace = np.trace(matrix, axis1=-2, axis2=-1)
    raise_first(
        np.abs(trace - 1.0) > tol, InvalidChoiError,
        lambda i: f"Choi trace {trace[i]:.12f} != 1", cases,
    )
    marg = np.trace(matrix.reshape(matrix.shape[:-2] + (d_out, d_in) * 2), axis1=-4, axis2=-2)
    err = np.max(np.abs(marg - np.eye(d_in) / d_in), axis=(-2, -1))
    raise_first(
        err > tol, InvalidChoiError,
        lambda i: "input marginal of the Choi state is not maximally mixed", cases,
    )
    return w, v


def choi_kraus(w: np.ndarray, v: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Kraus sets (..., k, d_out, d_in) from the ``eigh`` of Choi matrices:
    sqrt(d_in * lam) times the reshaped eigenvector, for each eigenvalue
    lam > ZERO_TOL, in ascending order.  k is the largest kept count in the
    stack; a case keeping fewer is padded with zero operators."""
    zero = limits.ZERO_TOL
    keep = int(np.max(np.sum(w > zero, axis=-1)))
    w, v = w[..., w.shape[-1] - keep:], v[..., v.shape[-1] - keep:]
    kraus = np.swapaxes(v * np.sqrt(d_in * np.where(w > zero, w, 0.0))[..., None, :], -1, -2)
    return kraus.reshape(kraus.shape[:-1] + (d_out, d_in))


def kraus_apply(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_i A_i rho A_i^dag for Kraus sets (..., k, d_out, d_in) and
    operators (..., d_in, d_in); the leading axes broadcast."""
    out = kraus @ rho[..., None, :, :] @ np.conj(np.swapaxes(kraus, -1, -2))
    return out.sum(axis=-3)


def choi_apply(matrix: np.ndarray, rho: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Readout identity Phi(rho) = d_in * tr_ref[omega (1 (x) rho^T)] for
    Choi matrices (..., D, D) and states (..., d_in, d_in); the leading
    axes broadcast."""
    omega = matrix.reshape(matrix.shape[:-2] + (d_out, d_in) * 2)
    return d_in * np.einsum("...aibk,...ik->...ab", omega, rho)


def readout_residuals(kraus: np.ndarray, states: np.ndarray, cases=None) -> tuple:
    """Check the readout identity on B channels (B, k, d_out, d_in), each
    on S states (B, S, d_in, d_in), after the trace-preservation check of
    Channel(kraus).  Returns the (B, S) residuals max |d_in tr_ref[omega
    (1 (x) rho^T)] - Phi(rho)|, the Choi matrices omega and the outputs
    Phi(rho), which :func:`roundtrip_residuals` reuses."""
    d_out, d_in = kraus.shape[-2:]
    kraus_tp_check(kraus, cases)
    omega = kraus_to_choi(kraus)
    direct = kraus_apply(kraus[:, None], states)
    readout = choi_apply(omega[:, None], states, d_in, d_out) - direct
    return np.max(np.abs(readout), axis=(-2, -1)), omega, direct


def roundtrip_residuals(omega: np.ndarray, direct: np.ndarray, states: np.ndarray,
                        cases=None) -> np.ndarray:
    """The (B, S) residuals max |Phi'(rho) - Phi(rho)| of
    :func:`readout_residuals`' cases, where Phi' has the Kraus operators
    recovered from omega (:func:`choi_eigh`, then :func:`choi_kraus`), after
    the Choi-state checks and the trace-preservation check of Phi'."""
    d_out, d_in = direct.shape[-1], states.shape[-1]
    back = choi_kraus(*choi_eigh(omega, d_in, d_out, cases=cases), d_in, d_out)
    kraus_tp_check(back, cases)
    return np.max(np.abs(kraus_apply(back[:, None], states) - direct), axis=(-2, -1))


def duality_residuals(kraus: np.ndarray, states: np.ndarray, cases=None) -> tuple:
    """(readout, round-trip) residuals: the channel-state duality in both
    directions, with every check of both directions, on every case."""
    readout, omega, direct = readout_residuals(kraus, states, cases)
    return readout, roundtrip_residuals(omega, direct, states, cases)


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map in Kraus form."""

    kraus: tuple
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(as_matrix(a) for a in self.kraus)
        if not mats:
            raise ShapeError("a channel needs at least one Kraus operator")
        shape = mats[0].shape
        if any(a.shape != shape for a in mats):
            raise ShapeError("all Kraus operators must share one shape")
        stack = np.stack(mats)
        object.__setattr__(self, "kraus", tuple(stack))
        object.__setattr__(self, "stack", stack)
        kraus_tp_check(stack)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_matrix(rho)
        if rho.shape != (self.in_dim, self.in_dim):
            raise ShapeError(
                f"state shape {rho.shape} != channel input dim {self.in_dim}"
            )
        return kraus_apply(self.stack, rho)

    def stinespring(self):
        """Unitary dilation (U, ancilla_dim).

        U acts on C^{out_dim * ancilla_dim}; embedding the input as
        rho (x) |0><0| on C^{in_dim} (x) C^{D/in_dim} and tracing the
        ancilla (second) factor of the output recovers the channel.
        """
        d1, d2 = self.in_dim, self.out_dim
        n_anc = len(self.kraus)
        while (d2 * n_anc) % d1 != 0:
            n_anc += 1
        dim = d2 * n_anc
        iso = np.zeros((d2, n_anc, d1), dtype=complex)
        iso[:, : len(self.kraus)] = self.stack.transpose(1, 0, 2)
        iso = iso.reshape(dim, d1)
        m_in = dim // d1
        u = np.zeros((dim, dim), dtype=complex)
        cols = [j * m_in for j in range(d1)]
        u[:, cols] = iso
        # Fill the free columns with an orthonormal basis of the complement:
        # iso has rank d1, so the right singular vectors of iso^dag past the
        # first d1 span it.
        comp = np.linalg.svd(dagger(iso))[2][d1:].conj().T
        free = [c for c in range(dim) if c not in cols]
        u[:, free] = comp
        return u, n_anc

    def purified_choi(self) -> "PurifiedChoiState":
        """Pure state on output (x) ancilla (x) input-reference whose
        ancilla trace is the Choi state."""
        k, d2, d1 = self.stack.shape
        return PurifiedChoiState(
            vector=self.stack.transpose(1, 0, 2).reshape(-1) / np.sqrt(d1), dims=(d2, k, d1)
        )


@dataclass(frozen=True)
class ChoiState:
    """Density-matrix dual of a channel, on output (x) input-reference."""

    in_dim: int
    out_dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        d = self.in_dim * self.out_dim
        if m.shape != (d, d):
            raise ShapeError(f"Choi matrix shape {m.shape} != {(d, d)}")
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Readout identity: Phi(rho) = d * tr_ref[omega (1 (x) rho^T)]."""
        rho = as_matrix(rho)
        if rho.shape != (self.in_dim, self.in_dim):
            raise ShapeError(
                f"state shape {rho.shape} != Choi input dim {self.in_dim}"
            )
        return choi_apply(self.matrix, rho, self.in_dim, self.out_dim)


@dataclass(frozen=True)
class PurifiedChoiState:
    """Unit vector on output (x) ancilla (x) input-reference."""

    vector: np.ndarray = field(repr=False)
    dims: tuple  # (d_out, d_anc, d_ref)

    def choi_matrix(self) -> np.ndarray:
        rho = np.outer(self.vector, self.vector.conj())
        return partial_trace(rho, list(self.dims), keep=[0, 2])


def measurement_roots(rho: np.ndarray) -> tuple:
    """(sqrt(rho^T), sqrt(1 - rho^T)) for density matrices (..., d, d),
    from one ``eigh``: the binary measurement that realizes each state on a
    Choi input reference.  ShapeError unless each state is a density matrix
    to within DENSITY_TOL; PositivityError when a root's argument is not
    Hermitian or has an eigenvalue below -PSD_CLAMP."""
    rho_t = np.swapaxes(rho, -1, -2)
    herm = np.max(np.abs(rho_t - np.conj(rho)), axis=(-2, -1))
    w, v = np.linalg.eigh(rho_t)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    tol, clamp = limits.DENSITY_TOL, limits.PSD_CLAMP
    not_density = (herm > tol) | (w[..., 0] < -tol) | (np.abs(trace - 1.0) > tol)
    raise_first(not_density, ShapeError, lambda i: "measurement_roots needs a density matrix")
    raise_first(herm > clamp, PositivityError, lambda i: "matrix is not Hermitian")
    v_h = np.conj(np.swapaxes(v, -1, -2))
    roots = []
    for lam in (w, 1.0 - w):  # 1 - rho^T shares the eigenvectors of rho^T
        low = lam.min(axis=-1)
        raise_first(
            low < -clamp, PositivityError,
            lambda i: f"matrix is not PSD: smallest eigenvalue {low[i]:.3e} < -{clamp:.1e}",
        )
        roots.append((v * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]) @ v_h)
    return tuple(roots)


def measured_branches(kraus: np.ndarray, rho: np.ndarray, obs: np.ndarray) -> tuple:
    """The dual measurement protocol for Kraus sets (..., k, d_out, d_in),
    states (..., d_in, d_in) and observables (..., d_out, d_out); the
    leading axes broadcast.

    Prepares each Choi state, measures {sqrt(rho^T), sqrt(1 - rho^T)} on its
    input reference and reads ``obs`` out of each conditional output.
    Returns (probs, conds, values), each (..., 2) over the two branches:
    the branch probability, the conditional expectation (0 where the
    probability is at most ZERO_WEIGHT) and the reconstructed value, d_in
    tr(obs sigma_0) on branch 0 and tr(obs Phi(1)) - d_in tr(obs sigma_1) on
    branch 1, with sigma the unnormalized conditional output.
    """
    d_out, d_in = kraus.shape[-2:]
    roots = np.stack(measurement_roots(rho), axis=-3)
    effects = np.conj(np.swapaxes(roots, -1, -2)) @ roots
    raise_first(tp_residual(roots) > limits.TP_TOL, ShapeError,
                lambda i: "measurement operators do not resolve the identity")
    # tr_ref[(1 (x) M) omega (1 (x) M^dag)] is the readout of omega at (M^dag M)^T.
    sigma = choi_apply(kraus_to_choi(kraus)[..., None, :, :],
                       np.swapaxes(effects, -1, -2), d_in, d_out) / d_in
    probs = np.trace(sigma, axis1=-2, axis2=-1).real
    read = np.einsum("...ab,...kba->...k", obs, sigma)
    offset = np.einsum("...ab,...ba->...", obs, kraus_apply(kraus, np.eye(d_in)))
    values = np.stack([d_in * read[..., 0], offset - d_in * read[..., 1]], axis=-1)
    seen = probs > limits.ZERO_WEIGHT
    conds = np.where(seen, read / np.where(seen, probs, 1.0), 0.0)
    return probs, conds, values


def oqt_channel(d: int) -> ChoiState:
    """The fixed correction channel of oblivious segment joining.

    P(rho) = d^2/(d^2-1) * Delta(rho) - rho/(d^2-1), as its Choi state
    (1 - |omega><omega|)/(d^2-1); ChoiState.apply is the readout identity.
    """
    if d < 2:
        raise ShapeError("oqt channel needs dimension >= 2")
    omega = np.outer(bell_vector(d), bell_vector(d).conj())
    return ChoiState(d, d, (np.eye(d * d) - omega) / (d * d - 1))
