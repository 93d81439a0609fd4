"""Dense complex linear algebra and the fixed reshaping conventions.

Every matrix is a two-dimensional ``numpy.ndarray`` of ``complex128`` in
row-major order.  The vectorization convention is fixed package-wide:

    vec(rho) = sum_ij rho_ij |i,j>   (row index i major)

so that ``vec(A @ rho @ B) == kron(A, B.T) @ vec(rho)`` and the transfer
matrix of a Kraus set ``{A_i}`` is ``sum_i kron(A_i, A_i.conj())``.  The
matrix exponential takes Hermitian matrices only, which is all the package
exponentiates (Hamiltonians and their local terms).
"""

from __future__ import annotations

import math

import numpy as np

from . import limits
from .errors import NumericalError, ShapeError

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each matrix of a stack (..., r, c)."""
    return np.conj(m).swapaxes(-1, -2)


def tp_residual(kraus: np.ndarray) -> np.ndarray:
    """max |sum_k A_k^dag A_k - 1| of each Kraus set of a stack (..., k, r, c):
    the one trace-preservation check, of which unitarity is the case k = 1."""
    gram = (dagger(kraus) @ kraus).sum(axis=-3)
    return np.abs(gram - np.eye(kraus.shape[-1])).max(axis=(-2, -1))


def is_hermitian(m: np.ndarray):
    """Per matrix of a stack (..., n, n), or for one: m^dag = m within EQ_TOL."""
    return _deviation(m, lambda x: np.abs(x - dagger(x)).max(axis=(-2, -1))) <= limits.EQ_TOL


def is_unitary(m: np.ndarray):
    """Per matrix of a stack, or for one: m^dag m = 1 within TP_TOL."""
    return _deviation(m, lambda x: tp_residual(x[..., None, :, :])) <= limits.TP_TOL


def _deviation(m, residual):
    """residual(m) per matrix of a stack; inf where they are not square."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ShapeError(f"expected a matrix, got array of shape {m.shape}")
    if m.shape[-1] != m.shape[-2]:
        return np.full(m.shape[:-2], np.inf)
    return residual(m)


def svd(m: np.ndarray):
    """SVD ``m = u @ diag(s) @ vh`` of a matrix, or of each matrix of a
    stack (..., rows, cols), with singular values sorted descending.

    Raises:
        NumericalError: if the underlying solver fails to converge.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ShapeError(f"expected a matrix, got array of shape {m.shape}")
    if 0 in m.shape[-2:]:
        raise ShapeError("cannot decompose an empty matrix")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge for a {m.shape[-2]}x{m.shape[-1]} matrix"
        ) from exc
    return u, s, vh


def matrix_exp(m: np.ndarray, scalar: complex = 1.0) -> np.ndarray:
    """exp(scalar * m) of a Hermitian m (to within EQ_TOL), by
    eigendecomposition; any other m is a ShapeError."""
    m = as_matrix(m)
    if not is_hermitian(m):
        raise ShapeError(f"matrix_exp needs a Hermitian matrix, got one of shape {m.shape}")
    w, v = np.linalg.eigh(m)
    out = (v * np.exp(scalar * w)) @ dagger(v)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"matrix exponential overflowed for scalar {scalar!r} "
            f"on a {m.shape[0]}x{m.shape[0]} matrix"
        )
    return out


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all factors of a multipartite operator except ``keep``.

    ``dims`` lists the factor dimensions (row-major Kronecker order),
    ``keep`` the factor indices to retain, in their original order.
    """
    m = as_matrix(m)
    dims = list(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ShapeError(f"operator shape {m.shape} != dims product {total}")
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    t = m.reshape(dims + dims)
    # Trace factor pairs from the highest index down so positions stay valid.
    n = len(dims)
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + n)
        n -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def embed_operator(op: np.ndarray, support, dims) -> np.ndarray:
    """``op`` on the full product space of ``dims``, its tensor factors on the
    distinct sites that ``support`` lists, in that order (any site order)."""
    return _add_embedded(np.zeros((math.prod(dims),) * 2, dtype=complex), op, support, list(dims))


def _add_embedded(out: np.ndarray, op: np.ndarray, support, dims) -> np.ndarray:
    """out += embed_operator(op, support, dims); returns ``out``, which must be a
    C-contiguous complex128 (D, D) array, as :func:`embed_operator` and
    ``LocalHamiltonian.dense`` make it.  A view of ``out`` takes the support's
    row axes, its column axes, then per other site one axis of stride row +
    column stride, its diagonal: no kron."""
    op, n = as_matrix(op), len(dims)
    if len(set(support)) < len(support) or not all(0 <= s < n for s in support):
        raise ShapeError(f"support {list(support)} must list distinct sites of 0..{n - 1}")
    d_sup = [dims[s] for s in support]
    if op.shape != (math.prod(d_sup),) * 2:
        raise ShapeError(f"operator shape {op.shape} does not match support dims {d_sup}")
    st = out.reshape(dims * 2).strides  # n row strides, then n column strides
    rest = [q for q in range(n) if q not in support]
    view = np.ndarray(d_sup * 2 + [dims[q] for q in rest], complex, out, strides=[
        *(st[s] for s in support), *(st[n + s] for s in support),
        *(st[q] + st[n + q] for q in rest)])
    view += op.reshape(d_sup * 2 + [1] * len(rest))
    return out
