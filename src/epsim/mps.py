"""Matrix-product states whose site tensors double as channel Kraus sets.

Site ``n`` holds an array of shape ``(d_n, chi_n, chi_{n+1})``; the boundary
operator ``B`` has shape ``(chi_{N+1}, chi_1)`` and the amplitudes are

    psi[i_1 ... i_N] = Tr( B @ T_1[i_1] @ T_2[i_2] @ ... @ T_N[i_N] ).

In left-canonical gauge ``sum_i T_n[i]^dag T_n[i] = 1`` at every site, so
each site tensor is a trace-preserving Kraus set mapping the right bond
space into the left bond space.  Expectation values close transfer-matrix
products with ``B (x) B*`` on the bond (entanglement) space; no statevector
is ever formed on that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .channels import Channel, transfer_matrix
from .errors import CanonicalFormError, ShapeError, SizeGuardError
from .linalg import svd

STATEVECTOR_GUARD = 2**20


@dataclass(frozen=True)
class MPS:
    tensors: tuple  # per site: (d_n, chi_n, chi_{n+1})
    boundary: np.ndarray = field(repr=False)  # (chi_{N+1}, chi_1)
    canonical: str | None = None  # None | "left"
    discarded_weight: float = 0.0  # squared Schmidt weight dropped on build

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=complex) for t in self.tensors)
        if not tensors:
            raise ShapeError("an MPS needs at least one site")
        for n in range(len(tensors) - 1):
            if tensors[n].shape[2] != tensors[n + 1].shape[1]:
                raise ShapeError(
                    f"bond mismatch between sites {n} and {n + 1}: "
                    f"{tensors[n].shape[2]} vs {tensors[n + 1].shape[1]}"
                )
        b = np.asarray(self.boundary, dtype=complex)
        if b.shape != (tensors[-1].shape[2], tensors[0].shape[1]):
            raise ShapeError(
                f"boundary shape {b.shape} != "
                f"({tensors[-1].shape[2]}, {tensors[0].shape[1]})"
            )
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "boundary", b)

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple:
        return tuple(t.shape[0] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple:
        return tuple(t.shape[1] for t in self.tensors) + (self.tensors[-1].shape[2],)

    def is_left_canonical(self) -> bool:
        for t in self.tensors:
            acc = np.einsum("iab,iac->bc", t.conj(), t)
            if np.max(np.abs(acc - np.eye(t.shape[2]))) > 1e-10:
                return False
        return True

    def to_statevector(self) -> np.ndarray:
        total = int(np.prod(self.phys_dims))
        if total > STATEVECTOR_GUARD:
            raise SizeGuardError(
                f"statevector of dimension {total} exceeds guard {STATEVECTOR_GUARD}"
            )
        chi1 = self.tensors[0].shape[1]
        acc = np.eye(chi1, dtype=complex).reshape(1, chi1, chi1)
        for t in self.tensors:
            acc = np.einsum("pab,ibc->piac", acc, t)
            acc = acc.reshape(-1, acc.shape[2], acc.shape[3])
        return np.einsum("pac,ca->p", acc, self.boundary)

    def expectation_product(self, ops) -> complex:
        """<psi| O_1 (x) ... (x) O_N |psi> for operators given as a
        ``{site: matrix}`` mapping (identity at unlisted sites)."""
        ops = dict(ops)
        for site in ops:
            if not 0 <= site < self.n_sites:
                raise ShapeError(f"site {site} out of range")
        x = np.kron(self.boundary, self.boundary.conj())
        for n, t in enumerate(self.tensors):
            x = x @ transfer_matrix(t, ops.get(n))
        return complex(np.trace(x))

    def canonicalize(self) -> "MPS":
        """Left-canonical gauge by a QR sweep from the left; the last R
        moves into the boundary, so the amplitudes are unchanged."""
        tensors = []
        carry = None
        for t in self.tensors:
            if carry is not None:
                t = np.einsum("ab,ibc->iac", carry, t)
            d, chi_l, chi_r = t.shape
            q, r = np.linalg.qr(t.transpose(1, 0, 2).reshape(chi_l * d, chi_r))
            k = q.shape[1]
            tensors.append(q.reshape(chi_l, d, k).transpose(1, 0, 2))
            carry = r
        boundary = carry @ self.boundary
        return MPS(tuple(tensors), boundary, canonical="left",
                   discarded_weight=self.discarded_weight)

    def truncate(self, chi_max: int | None = None, tol: float = 0.0):
        """Reduce bond dimensions; returns ``(mps, discarded_weight)``.

        The discarded weight is the total squared Schmidt weight of the
        dropped singular values; for a normalized open-boundary state the
        round-trip fidelity loss is bounded by it.
        """
        m = self.canonicalize()
        tensors = [t.copy() for t in m.tensors]
        discarded = 0.0
        for n in range(len(tensors) - 1, 0, -1):
            t = tensors[n]
            d, chi_l, chi_r = t.shape
            u, s, vh = svd(t.transpose(1, 0, 2).reshape(chi_l, d * chi_r))
            keep = _keep_count(s, chi_max, tol)
            discarded += float(np.sum(s[keep:] ** 2))
            tensors[n] = vh[:keep].reshape(keep, d, chi_r).transpose(1, 0, 2)
            carry = u[:, :keep] * s[:keep]
            tensors[n - 1] = np.einsum("iab,bc->iac", tensors[n - 1], carry)
        out = MPS(tuple(tensors), m.boundary,
                  discarded_weight=self.discarded_weight + discarded)
        return out.canonicalize(), discarded

    def site_channel(self, n: int) -> Channel:
        """The site tensor as a quantum channel from the right bond space
        to the left bond space (physical index enumerates Kraus operators).
        """
        if self.canonical != "left":
            raise CanonicalFormError(
                "site tensors form channels only in left-canonical gauge; "
                "call canonicalize() first"
            )
        t = self.tensors[n]
        return Channel(tuple(t[i] for i in range(t.shape[0])))

    def scaled(self, factor: complex) -> "MPS":
        return MPS(self.tensors, factor * self.boundary, canonical=None,
                   discarded_weight=self.discarded_weight)

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "phys_dims": list(self.phys_dims),
            "tensors": [
                [serialize.cmat_nested(t[i]) for i in range(t.shape[0])]
                for t in self.tensors
            ],
            "boundary": serialize.cmat_nested(self.boundary),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MPS":
        tensors = tuple(
            np.stack([serialize.parse_cmat_nested(mat) for mat in site])
            for site in data["tensors"]
        )
        return cls(tensors, serialize.parse_cmat_nested(data["boundary"]))


def _keep_count(s: np.ndarray, chi_max: int | None, tol: float) -> int:
    keep = len(s)
    while keep > 1 and s[keep - 1] <= 1e-14:  # numerically zero directions
        keep -= 1
    if tol > 0:
        tail = np.cumsum(s[::-1] ** 2)[::-1]  # tail[k] = sum of s[k:]^2
        while keep > 1 and tail[keep - 1] <= tol:
            keep -= 1
    if chi_max is not None:
        keep = min(keep, chi_max)
    return max(keep, 1)


def from_statevector(psi, dims, chi_max: int | None = None, trunc_tol: float = 0.0) -> MPS:
    """Left-canonical MPS of a normalized state vector via an SVD sweep."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != psi.size:
        raise ShapeError(f"dims {dims} do not match vector length {psi.size}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ShapeError("state vector must be normalized")
    tensors = []
    discarded = 0.0
    rest = psi.reshape(1, -1)
    chi = 1
    for d in dims[:-1]:
        mat = rest.reshape(chi * d, -1)
        u, s, vh = svd(mat)
        keep = _keep_count(s, chi_max, trunc_tol)
        discarded += float(np.sum(s[keep:] ** 2))
        tensors.append(u[:, :keep].reshape(chi, d, keep).transpose(1, 0, 2))
        rest = s[:keep, None] * vh[:keep]
        chi = keep
    # Final site: factor into an isometry and a residual 1x1 boundary scalar.
    mat = rest.reshape(chi * dims[-1], 1)
    u, s, vh = svd(mat)
    tensors.append(u.reshape(chi, dims[-1], 1).transpose(1, 0, 2))
    boundary = (s[0] * vh).reshape(1, 1)
    return MPS(tuple(tensors), boundary, canonical="left", discarded_weight=discarded)


def product_mps(vectors) -> MPS:
    """MPS of a product state given one local vector per site."""
    vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    tensors = tuple(v.reshape(-1, 1, 1) for v in vectors)
    normalized = all(abs(np.linalg.norm(v) - 1.0) < 1e-12 for v in vectors)
    return MPS(tensors, np.eye(1, dtype=complex),
               canonical="left" if normalized else None)
