"""Seeded random generators for states, unitaries, channels, and MPS.

Used by the verification suites and the tests; every function takes an
explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def gaussians(rng, n: int, shape: tuple) -> np.ndarray:
    """``n`` complex Gaussian arrays (n, *shape) from one draw, the same
    numbers as ``n`` calls of :func:`gaussian` in turn (the generator fills
    in C order)."""
    z = rng_from(rng).normal(size=(n, 2, *shape))
    return z[:, 0] + 1j * z[:, 1]


def gaussian(rng, shape: tuple) -> np.ndarray:
    """Complex Gaussian array, real parts drawn first: the draw step of
    haar_unitary and random_density, whose finish steps act on stacks."""
    return gaussians(rng, 1, shape)[0]


def random_state(rng, dim: int) -> np.ndarray:
    v = gaussian(rng, (dim,))
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim: int) -> np.ndarray:
    return unitary_from_gaussian(gaussian(rng, (dim, dim)))


def unitary_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Gaussian matrices (..., d, d): Q of the QR with
    the phases of R's diagonal moved into it."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_density(rng, dim: int) -> np.ndarray:
    return density_from_gaussian(gaussian(rng, (dim, dim)))


def density_from_gaussian(a: np.ndarray) -> np.ndarray:
    """Density matrices a a^dag / tr(a a^dag) from Gaussian (..., d, rank)."""
    rho = a @ np.conj(np.swapaxes(a, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def kraus_count(d_in: int, d_out: int, n_kraus: int) -> int:
    """``n_kraus`` raised so an isometry C^{d_in} -> C^{d_out * n_kraus}
    can exist."""
    return max(n_kraus, -(-d_in // d_out))


def kraus_from_unitary(u: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Kraus sets (..., k, d_out, d_in) from unitaries (..., d_out k, d_out k):
    the first d_in columns, an isometry, cut into k row blocks."""
    iso = u[..., :d_in]
    return iso.reshape(iso.shape[:-2] + (-1, d_out, d_in))


# Cases drawn before their groups are finished and handed out.
_GROUP_CHUNK = 512


def _chunks(rng, n_cases: int, draw):
    """Call ``draw(rng)``, which returns (key, value), once per case in case
    order; per consecutive chunk of ``_GROUP_CHUNK`` cases, yield {key:
    (case indices, values)} in order of each group's first case."""
    rng = rng_from(rng)
    for start in range(0, n_cases, _GROUP_CHUNK):
        groups = {}
        for case in range(start, min(start + _GROUP_CHUNK, n_cases)):
            key, value = draw(rng)
            cases, values = groups.setdefault(key, ([], []))
            cases.append(case)
            values.append(value)
        yield groups


def draw_groups(rng, n_cases: int, draw):
    """The groups of :func:`_chunks` one by one, as (key, case indices,
    values), so memory stays bounded and a finished group can be freed."""
    for groups in _chunks(rng, n_cases, draw):
        while groups:
            key = next(iter(groups))
            cases, values = groups.pop(key)
            yield key, cases, values


def kraus_groups(rng, n_cases: int, draw):
    """The groups of ``draw(rng)`` -> ((d_in, d_out), (k, z, *rest)) as
    :func:`draw_groups` hands them out, z = ``rng.normal(size=(2, d_out k,
    d_out k))``: the real and imaginary parts of the Gaussian of a Haar
    unitary on C^{d_out k}.  Each chunk combines them and runs one stacked QR
    per unitary size, which factors each matrix as a QR of its own would.
    Yields (case indices, Kraus sets (B, k_max, d_out, d_in), *rest stacked)
    per group, a case's set zero-padded past its own k: zero operators change
    no sum A^dag A, Choi matrix or Kraus action."""
    for groups in _chunks(rng, n_cases, draw):
        by_size = {}
        for (_, d_out), (_, values) in groups.items():
            for v in values:
                by_size.setdefault(d_out * v[0], []).append(v[1])
        unitaries = {}
        for size, zs in by_size.items():
            z = np.stack(zs)
            unitaries[size] = unitary_from_gaussian(z[:, 0] + 1j * z[:, 1])
        used = dict.fromkeys(unitaries, 0)
        for (d_in, d_out), (cases, values) in groups.items():
            ks = np.array([v[0] for v in values])
            kraus = np.zeros((len(cases), ks.max(), d_out, d_in), dtype=complex)
            for k in np.unique(ks):
                size, n = d_out * k, int(np.count_nonzero(ks == k))
                u = unitaries[size][used[size]:used[size] + n]
                kraus[ks == k, :k] = kraus_from_unitary(u, d_in, d_out)
                used[size] += n
            yield cases, kraus, *(np.stack(x) for x in zip(*(v[2:] for v in values)))


def random_duality_groups(rng, n_cases: int, max_dim: int, n_states: int):
    """Random channels, each with ``n_states`` random density matrices, drawn
    case by case (the dims, the Gaussian of the channel's Haar unitary, then
    each state's Gaussian).  Yields (case indices, Kraus sets, states (B,
    n_states, d_in, d_in)) per (d_in, d_out) as :func:`kraus_groups` does."""

    def draw(rng):  # raw normals in gaussian()'s order, combined per chunk or group below
        d_in = int(rng.integers(2, max_dim + 1))
        d_out = int(rng.integers(2, max_dim + 1))
        n_kraus = kraus_count(d_in, d_out, int(rng.integers(1, 4)))
        z = rng.normal(size=(2,) + (d_out * n_kraus,) * 2)
        return (d_in, d_out), (n_kraus, z, rng.normal(size=(n_states, 2, d_in, d_in)))

    for cases, kraus, a in kraus_groups(rng, n_cases, draw):
        yield cases, kraus, density_from_gaussian(a[:, :, 0] + 1j * a[:, :, 1])


def random_canonical_mps(rng, n_sites: int, chi: int):
    """Normalized left-canonical MPS of Gaussian tensors, bonds capped at ``chi``."""
    from .mps import MPS

    bonds = [1] + [chi] * (n_sites - 1) + [1]
    shapes = [(2, a, b) for a, b in zip(bonds, bonds[1:])]
    psi = MPS(tuple(random_state(rng, np.prod(s)).reshape(s) for s in shapes), np.eye(1))
    return MPS(psi.canonicalize().tensors, np.eye(1), canonical="left")
