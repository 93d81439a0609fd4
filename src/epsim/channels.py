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

from . import serialize
from .errors import InvalidChoiError, ShapeError
from .linalg import (
    EQ_TOL,
    as_matrix,
    dagger,
    is_density_matrix,
    partial_trace,
    psd_sqrt,
)


def bell_vector(d: int) -> np.ndarray:
    """Maximally entangled |omega> = (1/sqrt(d)) sum_i |ii>."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def transfer_matrix(kraus, op=None) -> np.ndarray:
    """sum_ij <i|op|j> K_j (x) K_i* over a Kraus set K_i, weighted by an
    operator on the Kraus (physical) index; op = None is the identity,
    giving M with M @ vec(rho) = vec(Phi(rho)).  The set need not be trace
    preserving: MPS site tensors use it too."""
    if op is None:
        return sum(np.kron(a, a.conj()) for a in kraus)
    op = as_matrix(op)
    k = len(kraus)
    if op.shape != (k, k):
        raise ShapeError(f"operator shape {op.shape} != Kraus count {k}")
    out = np.zeros((kraus[0].shape[0] ** 2, kraus[0].shape[1] ** 2), dtype=complex)
    for i in range(k):
        for j in range(k):
            if op[i, j] != 0:
                out += op[i, j] * np.kron(kraus[j], kraus[i].conj())
    return out


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map in Kraus form."""

    kraus: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(a) for a in self.kraus)
        if not mats:
            raise ShapeError("a channel needs at least one Kraus operator")
        shape = mats[0].shape
        if any(a.shape != shape for a in mats):
            raise ShapeError("all Kraus operators must share one shape")
        object.__setattr__(self, "kraus", mats)
        tp = sum(dagger(a) @ a for a in mats)
        if np.max(np.abs(tp - np.eye(self.in_dim))) > 1e-10:
            raise ShapeError(
                "Kraus operators are not trace preserving: "
                f"max |sum A^dag A - 1| = {np.max(np.abs(tp - np.eye(self.in_dim))):.3e}"
            )

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
        return sum(a @ rho @ dagger(a) for a in self.kraus)

    def apply_to_identity(self) -> np.ndarray:
        """Phi(1); separate from apply() since 1 is not a density matrix."""
        return sum(a @ dagger(a) for a in self.kraus)

    def compose(self, inner: "Channel") -> "Channel":
        """self after inner: (self . inner)(rho) = self(inner(rho))."""
        if inner.out_dim != self.in_dim:
            raise ShapeError(
                f"cannot compose: inner output {inner.out_dim} != input {self.in_dim}"
            )
        return Channel(tuple(a @ b for a in self.kraus for b in inner.kraus))

    def to_choi(self) -> "ChoiState":
        d1 = self.in_dim
        w = np.stack([a.reshape(-1) for a in self.kraus], axis=1) / np.sqrt(d1)
        return ChoiState(self.in_dim, self.out_dim, w @ dagger(w))

    def transfer(self) -> np.ndarray:
        """Matrix M with M @ vec(rho) = vec(Phi(rho))."""
        return transfer_matrix(self.kraus)

    def transfer_obs(self, obs: np.ndarray) -> np.ndarray:
        """Transfer matrix of the channel weighted by an operator on the
        Kraus (physical) index; reduces to :meth:`transfer` for obs = 1."""
        return transfer_matrix(self.kraus, obs)

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
        iso = np.zeros((dim, d1), dtype=complex)
        for k, a in enumerate(self.kraus):
            block = iso.reshape(d2, n_anc, d1)
            block[:, k, :] = a
        m_in = dim // d1
        u = np.zeros((dim, dim), dtype=complex)
        cols = [j * m_in for j in range(d1)]
        u[:, cols] = iso
        import scipy.linalg

        # Fill the free columns with an orthonormal basis of the complement.
        comp = scipy.linalg.null_space(dagger(iso))
        free = [c for c in range(dim) if c not in cols]
        u[:, free] = comp
        return u, n_anc

    def purified_choi(self) -> "PurifiedChoiState":
        """Pure state on output (x) ancilla (x) input-reference whose
        ancilla trace is the Choi state."""
        d1, d2 = self.in_dim, self.out_dim
        k = len(self.kraus)
        t = np.empty((d2, k, d1), dtype=complex)
        for idx, a in enumerate(self.kraus):
            t[:, idx, :] = a
        return PurifiedChoiState(
            vector=t.reshape(-1) / np.sqrt(d1), dims=(d2, k, d1)
        )

    def to_dict(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "kraus": [serialize.cmat_flat(a) for a in self.kraus],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Channel":
        d1, d2 = int(data["in_dim"]), int(data["out_dim"])
        return cls(tuple(serialize.parse_cmat_flat(k, d2, d1) for k in data["kraus"]))


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

    def validate(self, tol: float = EQ_TOL) -> None:
        m = self.matrix
        if np.max(np.abs(m - dagger(m))) > tol:
            raise InvalidChoiError("Choi matrix is not Hermitian")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if w[0] < -tol:
            raise InvalidChoiError(
                f"Choi matrix is not PSD: smallest eigenvalue {w[0]:.3e}"
            )
        if abs(np.trace(m) - 1.0) > tol:
            raise InvalidChoiError(f"Choi trace {np.trace(m):.12f} != 1")
        marg = partial_trace(m, [self.out_dim, self.in_dim], keep=[1])
        if np.max(np.abs(marg - np.eye(self.in_dim) / self.in_dim)) > tol:
            raise InvalidChoiError(
                "input marginal of the Choi state is not maximally mixed"
            )

    def to_channel(self, tol: float = 1e-12) -> Channel:
        """Recover Kraus operators; eigenvalues below ``tol`` are dropped."""
        self.validate(tol=1e-8)
        w, v = np.linalg.eigh((self.matrix + dagger(self.matrix)) / 2)
        kraus = []
        for lam, vec in zip(w, v.T):
            if lam > tol:
                kraus.append(
                    np.sqrt(self.in_dim * lam) * vec.reshape(self.out_dim, self.in_dim)
                )
        return Channel(tuple(kraus))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Readout identity: Phi(rho) = d * tr_ref[omega (1 (x) rho^T)]."""
        rho = as_matrix(rho)
        if rho.shape != (self.in_dim, self.in_dim):
            raise ShapeError(
                f"state shape {rho.shape} != Choi input dim {self.in_dim}"
            )
        omega = self.matrix.reshape((self.out_dim, self.in_dim) * 2)
        return self.in_dim * np.einsum("aibk,ik->ab", omega, rho)

    def to_dict(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "matrix": serialize.cmat_flat(self.matrix),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChoiState":
        d1, d2 = int(data["in_dim"]), int(data["out_dim"])
        return cls(d1, d2, serialize.parse_cmat_flat(data["matrix"], d1 * d2, d1 * d2))


@dataclass(frozen=True)
class PurifiedChoiState:
    """Unit vector on output (x) ancilla (x) input-reference."""

    vector: np.ndarray = field(repr=False)
    dims: tuple  # (d_out, d_anc, d_ref)

    def choi_matrix(self) -> np.ndarray:
        rho = np.outer(self.vector, self.vector.conj())
        return partial_trace(rho, list(self.dims), keep=[0, 2])


@dataclass(frozen=True)
class BinaryMeasurement:
    """Two-outcome measurement {M0, M1} with M0^dag M0 + M1^dag M1 = 1."""

    m0: np.ndarray = field(repr=False)
    m1: np.ndarray = field(repr=False)

    def __post_init__(self):
        m0, m1 = as_matrix(self.m0), as_matrix(self.m1)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)
        total = dagger(m0) @ m0 + dagger(m1) @ m1
        if np.max(np.abs(total - np.eye(m0.shape[1]))) > 1e-10:
            raise ShapeError("measurement operators do not resolve the identity")

    def effects(self):
        return dagger(self.m0) @ self.m0, dagger(self.m1) @ self.m1


def identity_channel(d: int) -> Channel:
    return Channel((np.eye(d, dtype=complex),))

def unitary_channel(u: np.ndarray) -> Channel:
    return Channel((as_matrix(u),))


def depolarizing(d: int) -> Channel:
    """Completely depolarizing channel rho -> 1/d."""
    if d < 2:
        raise ShapeError("depolarizing channel needs dimension >= 2")
    kraus = tuple(
        np.sqrt(1.0 / d) * np.outer(_basis(d, i), _basis(d, j).conj())
        for i in range(d)
        for j in range(d)
    )
    return Channel(kraus)


def _basis(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def state_measurement(rho: np.ndarray) -> BinaryMeasurement:
    """Binary measurement {sqrt(rho^T), sqrt(1 - rho^T)} realizing a state
    as a measurement on the Choi input reference."""
    rho = as_matrix(rho)
    if not is_density_matrix(rho, tol=1e-8):
        raise ShapeError("state_measurement needs a density matrix")
    d = rho.shape[0]
    return BinaryMeasurement(psd_sqrt(rho.T), psd_sqrt(np.eye(d) - rho.T))


def bell_binary_measurement(d: int) -> BinaryMeasurement:
    """{|omega><omega|, 1 - |omega><omega|} on a d x d pair."""
    p = np.outer(bell_vector(d), bell_vector(d).conj())
    return BinaryMeasurement(p, np.eye(d * d) - p)


def measured_expectation(phi: Channel, rho: np.ndarray, obs: np.ndarray):
    """tr(obs * Phi(rho)) reconstructed from the dual measurement protocol.

    Prepares the Choi state of ``phi``, measures {sqrt(rho^T), sqrt(1-rho^T)}
    on the input reference, and reads ``obs`` out of each conditional output
    state.  Branch 0 heralds the exact value; branch 1 is corrected by the
    tr(obs * Phi(1))/d offset.  Returns ``(value, branches)`` where branches
    lists ``(probability, conditional_expectation, reconstructed_value)``.
    """
    obs = as_matrix(obs)
    d1, d2 = phi.in_dim, phi.out_dim
    if obs.shape != (d2, d2):
        raise ShapeError(f"observable shape {obs.shape} != output dim {d2}")
    omega = phi.to_choi().matrix
    meas = state_measurement(rho)
    offset_full = np.trace(obs @ phi.apply_to_identity())
    branches = []
    for idx, m in enumerate((meas.m0, meas.m1)):
        big = np.kron(np.eye(d2), m)
        post = big @ omega @ dagger(big)
        p = float(np.real(np.trace(post)))
        sigma_un = partial_trace(post, [d2, d1], keep=[0])
        if idx == 0:
            value = d1 * np.trace(obs @ sigma_un)
        else:
            value = offset_full - d1 * np.trace(obs @ sigma_un)
        cond = np.trace(obs @ sigma_un) / p if p > 1e-14 else 0.0
        branches.append((p, complex(cond), complex(value)))
    total = sum(p * v for p, _, v in branches)
    return complex(total), branches


class OqtChannel:
    """The fixed correction channel of oblivious segment joining.

    P(rho) = d^2/(d^2-1) * Delta(rho) - rho/(d^2-1), stored through its Choi
    matrix (1 - |omega><omega|)/(d^2-1); action uses the readout identity.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ShapeError("oqt channel needs dimension >= 2")
        self.dim = d
        omega = np.outer(bell_vector(d), bell_vector(d).conj())
        self.choi = ChoiState(d, d, (np.eye(d * d) - omega) / (d * d - 1))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.choi.apply(rho)


def oqt_channel(d: int) -> OqtChannel:
    return OqtChannel(d)
