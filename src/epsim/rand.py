"""Seeded random generators for states, unitaries, channels, and MPS.

Used by the verification suites and the tests; every function takes an
explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_state(rng, dim: int) -> np.ndarray:
    rng = rng_from(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim: int) -> np.ndarray:
    rng = rng_from(rng)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    rng = rng_from(rng)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + dagger(a)) / 2


def random_density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    rng = rng_from(rng)
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ dagger(a)
    return rho / np.trace(rho)


def random_kraus_set(rng, d_in: int, d_out: int, n_kraus: int) -> list[np.ndarray]:
    """Kraus operators of a random channel via a Haar isometry slice.

    ``n_kraus`` is raised if needed so an isometry into
    C^{d_out * n_kraus} can exist.
    """
    rng = rng_from(rng)
    n_kraus = max(n_kraus, -(-d_in // d_out))
    u = haar_unitary(rng, d_out * n_kraus)
    iso = u[:, :d_in]  # isometry C^{d_in} -> C^{d_out * n_kraus}
    return [iso[k * d_out:(k + 1) * d_out, :].copy() for k in range(n_kraus)]


def random_canonical_mps(rng, n_sites: int, chi: int):
    """Normalized left-canonical MPS of Gaussian tensors, bonds capped at ``chi``."""
    from .mps import MPS

    bonds = [1] + [chi] * (n_sites - 1) + [1]
    shapes = [(2, a, b) for a, b in zip(bonds, bonds[1:])]
    psi = MPS(tuple(random_state(rng, np.prod(s)).reshape(s) for s in shapes), np.eye(1))
    return MPS(psi.canonicalize("left").tensors, np.eye(1), canonical="left")
