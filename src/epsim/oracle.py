"""Brute-force reference values for everything the other modules estimate.

Every quantity here is computed by dense linear algebra with hard size
guards; these are the ground truths the acceptance suites compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, SizeGuardError
from .hamiltonians import LocalHamiltonian
from .linalg import matrix_exp
from .mps import MPS
from .network import BrickworkCircuit

STATE_GUARD = 2**14


def apply_gate(psi: np.ndarray, gate: np.ndarray, site: int, dims) -> np.ndarray:
    """Apply a two-site gate on (site, site+1) to a statevector, or to each
    column of a (dim, B) stack of them."""
    dims = list(dims)
    d1, d2 = dims[site], dims[site + 1]
    left = int(np.prod(dims[:site])) or 1
    t = psi.reshape(left, d1 * d2, -1)
    t = np.einsum("gp,apb->agb", gate.reshape(d1 * d2, d1 * d2), t)
    return t.reshape(psi.shape)


def apply_circuit(psi, circuit: BrickworkCircuit) -> np.ndarray:
    """Exact gate-by-gate application of a brickwork circuit to a
    statevector, or to each column of a (dim, B) stack of them, on the
    circuit's own site dimensions.

    A 2-D array whose first axis has length dim = d^N is a stack and keeps
    its shape; any other input is flattened to one statevector, so a state
    in tensor shape such as (2, 2) still works.  STATE_GUARD bounds the
    statevector length dim, column by column."""
    psi = np.asarray(psi, dtype=complex)
    dims = [circuit.phys_dim] * circuit.n_sites
    if psi.ndim != 2 or psi.shape[0] != math.prod(dims):
        psi = psi.reshape(-1)
    if psi.shape[0] > STATE_GUARD:
        raise SizeGuardError(f"statevector length {psi.shape[0]} exceeds {STATE_GUARD}")
    if math.prod(dims) != psi.shape[0]:
        raise ShapeError("state length does not match site dimensions")
    out = psi.copy()
    for layer in circuit.layers:
        for site, gate in layer:
            out = apply_gate(out, gate, site, dims)
    return out


def expectation(psi, ops, dims):
    """<psi| (x)_n O_n |psi> with identities at unlisted sites, for a state
    vector or for each state of a (..., dim) stack.

    ``ops`` maps sites to matrices (d, d) or to stacks of them (..., d, d)
    that broadcast against the batch axes, so each case carries its own
    operators; a case that names no operator at a site carries the identity
    there.  Each operator acts on its site axis of the state tensor.  One
    state gives a complex, a stack an array of the batch shape.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    if psi.shape[-1] != math.prod(dims):
        raise ShapeError(f"state length {psi.shape[-1]} does not match site dims {dims}")
    out = psi
    for site, op in dict(ops).items():
        op = np.asarray(op, dtype=complex)
        if op.shape[-2:] != (dims[site], dims[site]):
            raise ShapeError(
                f"operator shape {op.shape} does not match site dim {dims[site]}"
            )
        t = out.reshape(out.shape[:-1] + (math.prod(dims[:site]), dims[site], -1))
        out = op[..., None, :, :] @ t
        out = out.reshape(out.shape[:-3] + (-1,))
    value = psi.conj()[..., None, :] @ out[..., :, None]  # <psi|out>, a dot per case
    return value[..., 0, 0][()]


def circuit_expectation(psi: MPS, circuit: BrickworkCircuit, ops) -> complex:
    """<psi| U^dag ((x) O) U |psi> by dense evolution of an MPS.  A state
    whose site dimensions differ from the circuit's is refused, and so is a
    state beyond STATE_GUARD, from its site dimensions, before its
    statevector is built."""
    psi.require_single("circuit_expectation")
    dims = list(psi.phys_dims)
    if dims != [circuit.phys_dim] * circuit.n_sites:
        raise ShapeError(
            f"state site dims {dims} differ from the circuit's "
            f"{circuit.n_sites} sites of dim {circuit.phys_dim}"
        )
    if math.prod(dims) > STATE_GUARD:
        raise SizeGuardError(f"statevector length {math.prod(dims)} exceeds {STATE_GUARD}")
    evolved = apply_circuit(psi.to_statevector(), circuit)
    return expectation(evolved, ops, dims)


def thermal_exact(a: np.ndarray, h: LocalHamiltonian, beta: float) -> float:
    """Tr(A e^{-beta H}) by eigendecomposition (unnormalized); the dense H
    is size-guarded by LocalHamiltonian.dense()."""
    return float(np.real(np.trace(np.asarray(a, complex) @ matrix_exp(h.dense(), -beta))))


def entropy_exact(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))


def amplitude_exact(phi, u, psi) -> complex:
    """<phi| U |psi> directly."""
    return complex(np.conj(np.asarray(phi)) @ np.asarray(u) @ np.asarray(psi))
