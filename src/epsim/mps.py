"""Matrix-product states whose site tensors double as channel Kraus sets.

Site ``n`` holds an array of shape ``(d_n, chi_n, chi_{n+1})``; the boundary
operator ``B`` has shape ``(chi_{N+1}, chi_1)`` and the amplitudes are

    psi[i_1 ... i_N] = Tr( B @ T_1[i_1] @ T_2[i_2] @ ... @ T_N[i_N] ).

In left-canonical gauge ``sum_i T_n[i]^dag T_n[i] = 1`` at every site, so
each site tensor is a trace-preserving Kraus set mapping the right bond
space into the left bond space.  Expectation values apply these channels
to bond-space operators: one single-layer graph of ket and bra tensors for
the contraction core, with no superoperator or statevector formed.

An MPS may also be a stack of states that share their site and bond
dimensions: every site tensor then has shape ``(..., d_n, chi_n,
chi_{n+1})`` and the boundary ``(..., chi_{N+1}, chi_1)``, with the same
leading (batch) axes.  The SVD sweep, the gauge sweeps, the statevector and
the expectation graph each run once over the whole stack; a single state
is the stack with no batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits, serialize
from .contract import _contract_group
from .errors import ShapeError, raise_first
from .linalg import svd, tp_residual


@dataclass(frozen=True)
class MPS:
    tensors: tuple  # per site: (..., d_n, chi_n, chi_{n+1})
    boundary: np.ndarray = field(repr=False)  # (..., chi_{N+1}, chi_1)
    canonical: str | None = None  # None | "left"
    discarded_weight: float = 0.0  # squared Schmidt weight dropped on build, per case

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=complex) for t in self.tensors)
        if not tensors:
            raise ShapeError("an MPS needs at least one site")
        b = np.asarray(self.boundary, dtype=complex)
        lead = b.shape[:-2]
        for n, t in enumerate(tensors):
            if t.ndim != len(lead) + 3 or t.shape[:-3] != lead:
                raise ShapeError(
                    f"site {n} tensor of shape {t.shape} does not match a boundary "
                    f"of shape {b.shape}: expected batch axes {lead} + (d, chi_l, chi_r)"
                )
        for n in range(len(tensors) - 1):
            if tensors[n].shape[-1] != tensors[n + 1].shape[-2]:
                raise ShapeError(
                    f"bond mismatch between sites {n} and {n + 1}: "
                    f"{tensors[n].shape[-1]} vs {tensors[n + 1].shape[-2]}"
                )
        if b.shape[-2:] != (tensors[-1].shape[-1], tensors[0].shape[-2]):
            raise ShapeError(
                f"boundary shape {b.shape[-2:]} != "
                f"({tensors[-1].shape[-1]}, {tensors[0].shape[-2]})"
            )
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "boundary", b)

    @property
    def batch_shape(self) -> tuple:
        return self.boundary.shape[:-2]

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple:
        return tuple(t.shape[-3] for t in self.tensors)

    def cases(self) -> list:
        """The states of a stack as single MPSs, in row-major order over the
        batch axes (one MPS when there are none)."""
        weights = np.broadcast_to(self.discarded_weight, self.batch_shape)
        return [
            MPS(tuple(t[i] for t in self.tensors), self.boundary[i], self.canonical,
                float(weights[i]))
            for i in np.ndindex(self.batch_shape)
        ]

    def to_statevector(self) -> np.ndarray:
        """Amplitudes (..., dim); STATEVECTOR_GUARD bounds dim, per state."""
        limits.guard(math.prod(self.phys_dims), limits.STATEVECTOR_GUARD, "statevector",
                     "amplitudes")
        chi1 = self.tensors[0].shape[-2]
        acc = np.eye(chi1, dtype=complex).reshape(1, chi1, chi1)
        for t in self.tensors:
            acc = np.einsum("...pab,...ibc->...piac", acc, t)
            acc = acc.reshape(acc.shape[:-4] + (-1,) + acc.shape[-2:])
        return np.einsum("...pac,...ca->...p", acc, self.boundary)

    def expectation_product(self, ops):
        """<psi| O_1 (x) ... (x) O_N |psi> for operators given as a
        ``{site: matrix}`` mapping (identity at unlisted sites), as one
        contraction of :meth:`chain_items`.  On a stack an operator may be a
        stack (..., d, d) that broadcasts against the batch axes, and the
        result is an array of the batch shape; one state gives a complex.
        """
        return _contract_group(self.chain_items(ops), "expectation chain")[()]

    def chain_items(self, ops, cut=()) -> list:
        """(tensor, leg labels) items of <psi| O_1 (x) ... (x) O_N |psi>:
        the ket T_c on ("p", c), ("k", c), ("k", c + 1); the bra T_c* on "b"
        bonds and, where c has an operator, on ("q", c), with the operator
        on ("q", c), ("p", c); B on ("k", N), ("k", 0) and B* on the bra
        bonds.  Each inner bond b in ``cut`` is left open, its ends labelled
        (..., b, 0) and (..., b, 1).  A wrong-size operator is a ShapeError.
        """
        n, b = self.n_sites, self.boundary
        items = [(b, [("k", n), ("k", 0)]), (b.conj(), [("b", n), ("b", 0)])]
        for site, op in ops.items():
            if not 0 <= site < n:
                raise ShapeError(f"site {site} out of range")
            d = self.phys_dims[site]
            if np.shape(op)[-2:] != (d, d):
                raise ShapeError(f"operator at site {site} has shape {np.shape(op)}, not {(d, d)}")
            items.append((op, [("q", int(site)), ("p", int(site))]))

        def bond(layer, b, end):
            return (layer, b, end) if b in cut else (layer, b)

        for c, t in enumerate(self.tensors):
            bra = ("q", c) if c in ops else ("p", c)
            items.append((t, [("p", c), bond("k", c, 1), bond("k", c + 1, 0)]))
            items.append((t.conj(), [bra, bond("b", c, 1), bond("b", c + 1, 0)]))
        return items

    def canonicalize(self) -> "MPS":
        """Left-canonical gauge.  When every site of every case already has
        ``tp_residual`` <= TP_TOL, the same tensors come back marked "left":
        such a site is an isometry from its right bond into (d, left bond),
        so chi_r <= d chi_l and a sweep would shrink no bond.  Other input
        gets a QR sweep from the left; the last R moves into the boundary,
        so the amplitudes are unchanged."""
        if all(np.all(tp_residual(t) <= limits.TP_TOL) for t in self.tensors):
            return MPS(self.tensors, self.boundary, canonical="left",
                       discarded_weight=self.discarded_weight)
        lead = self.batch_shape
        tensors = []
        carry = None
        for t in self.tensors:
            if carry is not None:
                t = np.einsum("...ab,...ibc->...iac", carry, t)
            d, chi_l, chi_r = t.shape[-3:]
            q, r = np.linalg.qr(np.swapaxes(t, -3, -2).reshape(lead + (chi_l * d, chi_r)))
            k = q.shape[-1]
            tensors.append(np.swapaxes(q.reshape(lead + (chi_l, d, k)), -3, -2))
            carry = r
        boundary = carry @ self.boundary
        return MPS(tuple(tensors), boundary, canonical="left",
                   discarded_weight=self.discarded_weight)

    def to_dict(self) -> dict:
        self.require_single("to_dict")
        return {
            "n_sites": self.n_sites,
            "phys_dims": list(self.phys_dims),
            "tensors": [
                [serialize.cmat_nested(t[i]) for i in range(t.shape[0])]
                for t in self.tensors
            ],
            "boundary": serialize.cmat_nested(self.boundary),
        }

    def require_single(self, what: str):
        """Raise ShapeError if this MPS is a stack; ``what`` names the caller."""
        if self.batch_shape:
            raise ShapeError(f"{what} takes a single state, not a stack of {self.batch_shape}")

    @classmethod
    def from_dict(cls, data: dict) -> "MPS":
        tensors = tuple(
            np.stack([serialize.parse_cmat_nested(mat) for mat in site])
            for site in data["tensors"]
        )
        return cls(tensors, serialize.parse_cmat_nested(data["boundary"]))


def _keep_count(s: np.ndarray, chi_max: int | None, tol: float) -> int:
    """Singular values to keep of each case of a stack (..., k), sorted
    descending: those above ZERO_WEIGHT, fewer while the dropped tail weighs at
    most ``tol``, at most ``chi_max`` and at least one.  A stack keeps the
    largest of its per-case counts."""
    keep = np.sum(s > limits.ZERO_WEIGHT, axis=-1)  # numerically zero directions go
    if tol > 0:
        tail = np.cumsum(s[..., ::-1] ** 2, axis=-1)[..., ::-1]  # tail[k] = sum of s[k:]^2
        keep = np.minimum(keep, np.sum(tail > tol, axis=-1))
    if chi_max is not None:
        keep = np.minimum(keep, chi_max)
    return max(int(np.max(keep, initial=0)), 1)


def from_statevector(psi, dims, chi_max: int | None = None, trunc_tol: float = 0.0) -> MPS:
    """Left-canonical MPS of a normalized state vector, or of each state of
    a (..., dim) stack, by one SVD sweep over the whole stack.

    The cases of a stack share their bond dimensions: a bond keeps the
    largest of the per-case counts of :func:`_keep_count`, which is the
    single-state rule for one case.  A case that needs fewer keeps
    zero-weight directions, which leave it left-canonical with the same
    amplitudes.  ``discarded_weight`` is per case.  A state that is not
    normalized is a ShapeError, prefixed ``case <n>:`` inside a stack."""
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    dims = [int(d) for d in dims]
    if math.prod(dims) != psi.shape[-1]:
        raise ShapeError(f"dims {dims} do not match vector length {psi.shape[-1]}")
    norm_err = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
    raise_first(norm_err > limits.NORM_TOL, ShapeError, lambda i: "state vector must be normalized")
    lead = psi.shape[:-1]
    tensors = []
    discarded = np.zeros(lead)
    rest = psi
    chi = 1
    for d in dims[:-1]:
        u, s, vh = svd(rest.reshape(lead + (chi * d, -1)))
        keep = _keep_count(s, chi_max, trunc_tol)
        discarded += np.sum(s[..., keep:] ** 2, axis=-1)
        tensors.append(np.swapaxes(u[..., :keep].reshape(lead + (chi, d, keep)), -3, -2))
        rest = s[..., :keep, None] * vh[..., :keep, :]
        chi = keep
    # Final site: factor into an isometry and a residual 1x1 boundary scalar.
    u, s, vh = svd(rest.reshape(lead + (chi * dims[-1], 1)))
    tensors.append(np.swapaxes(u.reshape(lead + (chi, dims[-1], 1)), -3, -2))
    boundary = s[..., None] * vh
    return MPS(tuple(tensors), boundary, canonical="left", discarded_weight=discarded[()])
