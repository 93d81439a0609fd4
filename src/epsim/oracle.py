"""Brute-force reference values for everything the other modules estimate.

Every quantity here is computed by dense linear algebra with hard size
guards; these are the ground truths the acceptance suites compare against.
A stack of states is a (..., dim) array whose last axis is the state, as
everywhere else in the package: every kernel below evolves or reads each
row as its own state, and one state is the stack with no batch axis.
"""

from __future__ import annotations

import math

import numpy as np

from . import limits
from .errors import ShapeError
from .hamiltonians import LocalHamiltonian
from .linalg import matrix_exp
from .mps import MPS
from .network import BrickworkCircuit


def apply_local(psi, op: np.ndarray, site: int, dims) -> np.ndarray:
    """``op`` applied to the block of consecutive sites from ``site`` whose
    dims multiply to its size D (one site for a d x d operator, two for a
    two-site gate), in a state vector or in each row of a (..., dim) stack.

    ``op`` is a matrix (D, D) or a stack of them (..., D, D) that broadcasts
    against the batch axes, so each case may carry its own operator."""
    t = psi.reshape(psi.shape[:-1] + (math.prod(dims[:site]), op.shape[-1], -1))
    out = np.einsum("...gp,...apb->...agb", op, t)
    return out.reshape(out.shape[:-3] + (-1,))


def _site_dims(circuit: BrickworkCircuit) -> list:
    """The circuit's site dimensions, refused when their product, the
    statevector length, exceeds STATE_GUARD."""
    dims = [circuit.phys_dim] * circuit.n_sites
    limits.guard(math.prod(dims), limits.STATE_GUARD, "oracle statevector", "amplitudes")
    return dims


def _evolve(psi: np.ndarray, circuit: BrickworkCircuit, dims) -> np.ndarray:
    for layer in circuit.layers:
        for site, gate in layer:
            psi = apply_local(psi, gate, site, dims)
    return psi


def apply_circuit(psi, circuit: BrickworkCircuit) -> np.ndarray:
    """Exact gate-by-gate application of a brickwork circuit to a state
    vector, or to each row of a (..., dim) stack of them, on the circuit's
    own site dimensions.  STATE_GUARD bounds dim, priced from the circuit.

    A unitary follows from the rows of the identity:
    ``apply_circuit(np.eye(dim), circuit).T``."""
    dims = _site_dims(circuit)
    psi = np.array(psi, dtype=complex)
    if psi.shape[-1:] != (math.prod(dims),):
        raise ShapeError(f"state shape {psi.shape} does not end in length {math.prod(dims)}")
    return _evolve(psi, circuit, dims)


def expectation(psi, ops, dims):
    """<psi| (x)_n O_n |psi> with identities at unlisted sites, for a state
    vector or for each state of a (..., dim) stack.

    ``ops`` maps sites to matrices (d, d) or to stacks of them (..., d, d)
    that broadcast against the batch axes, so each case carries its own
    operators; a case that names no operator at a site carries the identity
    there.  One state gives a complex, a stack an array of the batch shape.
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
        out = apply_local(out, op, site, dims)
    value = psi.conj()[..., None, :] @ out[..., :, None]  # <psi|out>, a dot per case
    return value[..., 0, 0][()]


def circuit_expectation(psi: MPS, circuit: BrickworkCircuit, ops):
    """<psi| U^dag ((x) O) U |psi> by dense evolution of an MPS, or of an
    MPS stack under one circuit or a circuit stack of its batch shape (``ops``
    as in :func:`expectation`).  Mismatched site dims, and a circuit beyond
    STATE_GUARD, are refused before the statevector is built."""
    dims = _site_dims(circuit)
    if list(psi.phys_dims) != dims:
        raise ShapeError(
            f"state site dims {list(psi.phys_dims)} differ from the circuit's "
            f"{circuit.n_sites} sites of dim {circuit.phys_dim}"
        )
    if circuit.batch_shape not in ((), psi.batch_shape):
        raise ShapeError(f"a circuit stack of {circuit.batch_shape} for states of "
                         f"{psi.batch_shape}")
    return expectation(_evolve(psi.to_statevector(), circuit, dims), ops, dims)


def thermal_exact(a: np.ndarray, h: LocalHamiltonian, beta: float):
    """Tr(A e^{-beta H}) by eigendecomposition (unnormalized), per A of a
    stack (..., D, D) from one dense H, size-guarded by its dense()."""
    rho = np.asarray(a, complex) @ matrix_exp(h.dense(), -beta)
    return np.real(np.trace(rho, axis1=-2, axis2=-1))[()]


def entropy_exact(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > limits.LOG_FLOOR]
    return float(-np.sum(w * np.log(w)))


def amplitude_exact(phi, u, psi) -> complex:
    """<phi| U |psi> directly."""
    return complex(np.conj(np.asarray(phi)) @ np.asarray(u) @ np.asarray(psi))
