"""Brute-force reference values for everything the other modules estimate.

Every quantity here is computed by dense linear algebra with hard size
guards; these are the ground truths the acceptance suites compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import bell_vector
from .errors import ShapeError, SizeGuardError
from .hamiltonians import LocalHamiltonian
from .linalg import as_matrix, matrix_exp
from .mps import MPS
from .network import BrickworkCircuit, OqtPlan

STATE_GUARD = 2**14
UNITARY_GUARD = 2**12
BRANCH_GUARD = 2**20


def apply_gate(psi: np.ndarray, gate: np.ndarray, site: int, dims) -> np.ndarray:
    """Apply a two-site gate on (site, site+1) to a statevector, or to each
    column of a (dim, B) stack of them."""
    dims = list(dims)
    d1, d2 = dims[site], dims[site + 1]
    left = int(np.prod(dims[:site])) or 1
    t = psi.reshape(left, d1 * d2, -1)
    t = np.einsum("gp,apb->agb", gate.reshape(d1 * d2, d1 * d2), t)
    return t.reshape(psi.shape)


def apply_circuit(psi, circuit: BrickworkCircuit, dims=None) -> np.ndarray:
    """Exact gate-by-gate application of a brickwork circuit to a
    statevector, or to each column of a (dim, B) stack of them.

    A 2-D array whose first axis has length dim = prod(dims) is a stack
    and keeps its shape; any other input is flattened to one statevector,
    so a state in tensor shape such as (2, 2) still works.  STATE_GUARD
    bounds the statevector length dim, column by column."""
    psi = np.asarray(psi, dtype=complex)
    dims = list(dims) if dims is not None else [circuit.phys_dim] * circuit.n_sites
    if psi.ndim != 2 or psi.shape[0] != int(np.prod(dims)):
        psi = psi.reshape(-1)
    if psi.shape[0] > STATE_GUARD:
        raise SizeGuardError(f"statevector length {psi.shape[0]} exceeds {STATE_GUARD}")
    if int(np.prod(dims)) != psi.shape[0]:
        raise ShapeError("state length does not match site dimensions")
    out = psi.copy()
    for layer in circuit.layers:
        for site, gate in layer:
            out = apply_gate(out, gate, site, dims)
    return out


def expectation(psi, ops, dims) -> complex:
    """<psi| (x)_n O_n |psi> with identities at unlisted sites.

    Each local operator acts on its site axis of the state tensor.
    """
    psi = np.asarray(psi, dtype=complex).reshape(dims)
    out = psi
    for site, op in dict(ops).items():
        op = as_matrix(op)
        if op.shape != (dims[site], dims[site]):
            raise ShapeError(
                f"operator shape {op.shape} does not match site dim {dims[site]}"
            )
        out = np.moveaxis(np.tensordot(op, out, axes=([1], [site])), 0, site)
    return complex(np.vdot(psi, out))


def circuit_expectation(psi: MPS, circuit: BrickworkCircuit, ops) -> complex:
    """<psi| U^dag ((x) O) U |psi> by dense evolution of an MPS.  A state
    beyond STATE_GUARD is refused from its site dimensions, before its
    statevector is built."""
    dims = list(psi.phys_dims)
    if math.prod(dims) > STATE_GUARD:
        raise SizeGuardError(f"statevector length {math.prod(dims)} exceeds {STATE_GUARD}")
    evolved = apply_circuit(psi.to_statevector(), circuit, dims)
    return expectation(evolved, ops, dims)


def thermal_exact(a: np.ndarray, h, beta: float) -> float:
    """Tr(A e^{-beta H}) by eigendecomposition (unnormalized)."""
    hm = h.dense() if isinstance(h, LocalHamiltonian) else np.asarray(h, complex)
    if hm.shape[0] > UNITARY_GUARD:
        raise SizeGuardError(f"dense dimension {hm.shape[0]} exceeds {UNITARY_GUARD}")
    return float(np.real(np.trace(np.asarray(a, complex) @ matrix_exp(hm, -beta))))


def entropy_exact(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))


def amplitude_exact(phi, u, psi) -> complex:
    """<phi| U |psi> directly."""
    return complex(np.conj(np.asarray(phi)) @ np.asarray(u) @ np.asarray(psi))


def channel_branch_simulate(plan) -> list:
    """Exhaustive enumeration of the join outcomes of an OqtPlan.

    Returns per-branch rows (bits, probability); more than BRANCH_GUARD
    branches, or a joint segment state above STATE_GUARD, is refused from
    the segment shapes before anything is built.
    """
    if isinstance(plan, OqtPlan):
        if 2**plan.n_joins > BRANCH_GUARD:
            raise SizeGuardError("too many OQT branches")
        bonds = plan.psi.bond_dims  # segment f has legs (chi_f, d_f, d_f+1, chi_f+2)
        dim = math.prod(plan.psi.phys_dims)
        dim *= math.prod(bonds[f] * bonds[f + 2] for f, _ in plan.segments)
        if dim > STATE_GUARD:
            raise SizeGuardError(f"oqt joint state needs {dim} entries (> {STATE_GUARD})")
        rows = []
        for bits_int in range(2**plan.n_joins):
            bits = [(bits_int >> j) & 1 for j in range(plan.n_joins)]
            prob = _oqt_branch_probability(plan, bits)
            rows.append((tuple(bits), prob))
        return rows
    raise ShapeError(f"cannot branch-simulate {type(plan).__name__}")


def _oqt_branch_probability(plan: OqtPlan, bits) -> float:
    """Probability of a join-outcome pattern on normalized segment states."""
    psi = plan.psi
    segs = [_segment_tensor(psi, first) for first, _ in plan.segments]
    joint = segs[0]
    for g in segs[1:]:
        joint = np.tensordot(joint, g, axes=0)
    dims = list(joint.shape)
    vec = joint.reshape(-1)
    norm_sq = float(np.prod([float(np.sum(np.abs(g) ** 2)) for g in segs]))
    w = vec
    for k in range(len(segs) - 1):
        pos = 4 * k + 3  # (ref_k, out_{k+1}) are adjacent legs
        chi = plan.join_dims[k]
        omega = np.outer(bell_vector(chi), bell_vector(chi).conj())
        junction = omega if bits[k] == 0 else np.eye(chi * chi) - omega
        left = int(np.prod(dims[:pos])) or 1
        right = int(np.prod(dims[pos + 2 :])) or 1
        w = np.einsum(
            "ab,xby->xay", junction, w.reshape(left, chi * chi, right)
        ).reshape(-1)
    return float(np.real(np.vdot(vec, w)) / norm_sq)


def _segment_tensor(psi, first: int) -> np.ndarray:
    """G[out, i, j, ref] = (T_first[i] @ T_{first+1}[j])[out, ref]."""
    a, b = psi.tensors[first], psi.tensors[first + 1]
    return np.einsum("iax,jxb->ijab", a, b).transpose(2, 0, 1, 3)
