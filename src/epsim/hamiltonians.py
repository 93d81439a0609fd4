"""Local Hamiltonians, standard spin models, and Trotter compilation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits, serialize
from .errors import ShapeError
from .linalg import PAULI, _add_embedded, as_matrix, is_hermitian, matrix_exp
from .network import BrickworkCircuit


@dataclass(frozen=True)
class LocalHamiltonian:
    """H = sum_r H_r with each term supported on a few sites."""

    n_sites: int
    phys_dim: int
    terms: tuple  # ((site, ...), matrix) pairs

    def __post_init__(self):
        if len(self.terms) > limits.MAX_TERMS:
            raise ShapeError(f"too many terms ({len(self.terms)} > {limits.MAX_TERMS})")
        cleaned = []
        for support, mat in self.terms:
            support = tuple(int(s) for s in support)
            mat = as_matrix(mat)
            if len(support) > limits.MAX_SUPPORT:
                raise ShapeError(f"support {support} larger than {limits.MAX_SUPPORT} sites")
            if any(not 0 <= s < self.n_sites for s in support):
                raise ShapeError(f"support {support} out of range")
            if len(set(support)) != len(support):
                raise ShapeError(f"support {support} has repeated sites")
            want = self.phys_dim ** len(support)
            if mat.shape != (want, want):
                raise ShapeError(
                    f"term on {support} has shape {mat.shape}, expected {want}"
                )
            if not is_hermitian(mat):
                raise ShapeError(f"term on {support} is not Hermitian")
            cleaned.append((support, mat))
        object.__setattr__(self, "terms", tuple(cleaned))

    def dense_dim(self) -> int:
        """The dense dimension d^N, refused beyond DENSE_DIM_GUARD from the
        site count alone."""
        dim = self.phys_dim**self.n_sites
        limits.guard(dim, limits.DENSE_DIM_GUARD, "dense Hamiltonian", "rows")
        return dim

    def dense(self) -> np.ndarray:
        """The d^N x d^N matrix, each term added in place by :func:`linalg._add_embedded`."""
        dim = self.dense_dim()
        dims = [self.phys_dim] * self.n_sites
        out = np.zeros((dim, dim), dtype=complex)
        for support, mat in self.terms:
            _add_embedded(out, mat, support, dims)
        return out

    def norm_bound(self) -> float:
        """sum_r ||H_r||_2, an upper bound on ||H||."""
        return float(
            sum(np.max(np.abs(np.linalg.eigvalsh(mat))) for _, mat in self.terms)
        )

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "phys_dim": self.phys_dim,
            "terms": [
                {"support": list(support), "matrix": serialize.cmat_flat(mat)}
                for support, mat in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LocalHamiltonian":
        d = int(data["phys_dim"])
        terms = []
        for entry in data["terms"]:
            support = tuple(int(s) for s in entry["support"])
            dim = d ** len(support)
            terms.append((support, serialize.parse_cmat_flat(entry["matrix"], dim, dim)))
        return cls(int(data["n_sites"]), d, tuple(terms))


def build_tfim(n_sites: int, j: float, h: float) -> LocalHamiltonian:
    """Transverse-field Ising chain H = -J sum Z Z - h sum X."""
    if n_sites < 2:
        raise ShapeError("need at least two sites")
    terms = [((n, n + 1), -j * np.kron(PAULI["Z"], PAULI["Z"])) for n in range(n_sites - 1)]
    if h != 0:
        terms += [((n,), -h * PAULI["X"]) for n in range(n_sites)]
    return LocalHamiltonian(n_sites, 2, tuple(terms))


def build_heisenberg(n_sites: int, j: float) -> LocalHamiltonian:
    """Heisenberg chain H = J sum (XX + YY + ZZ)."""
    if n_sites < 2:
        raise ShapeError("need at least two sites")
    bond = j * sum(np.kron(PAULI[p], PAULI[p]) for p in "XYZ")
    return LocalHamiltonian(
        n_sites, 2, tuple(((n, n + 1), bond) for n in range(n_sites - 1))
    )


def _merged_bond_terms(h: LocalHamiltonian):
    """Fold single-site fields into neighboring bonds (half left, half
    right; endpoints take their full share) so the result is a pure
    nearest-neighbor two-site term list summing to H."""
    n, d = h.n_sites, h.phys_dim
    bonds = {}
    eye = np.eye(d, dtype=complex)
    for support, mat in h.terms:
        if len(support) == 2 and support[1] == support[0] + 1:
            bonds[support[0]] = bonds.get(support[0], 0) + mat
        elif len(support) == 1:
            (site,) = support
            if site == 0:
                shares = [(0, 1.0)]
            elif site == n - 1:
                shares = [(n - 2, 1.0)]
            else:
                shares = [(site - 1, 0.5), (site, 0.5)]
            for bond, frac in shares:
                piece = (
                    np.kron(mat, eye) if bond == site else np.kron(eye, mat)
                )
                bonds[bond] = bonds.get(bond, 0) + frac * piece
        else:
            raise ShapeError(
                f"term on {support} is not nearest-neighbor two-local; "
                "cannot compile to a brickwork circuit"
            )
    return dict(sorted(bonds.items()))


def trotter_circuit(h: LocalHamiltonian, t: float, reps: int) -> BrickworkCircuit:
    """Brickwork circuit for the first-order splitting (prod_b e^{-i tau h_b})^R,
    tau = t / R, even bonds first."""
    if reps < 1:
        raise ShapeError("need at least one repetition")
    if t == 0:
        return BrickworkCircuit(h.n_sites, (), h.phys_dim)
    tau = t / reps
    gates = {b: matrix_exp(m, -1j * tau) for b, m in _merged_bond_terms(h).items()}
    even = tuple((b, g) for b, g in gates.items() if b % 2 == 0)
    odd = tuple((b, g) for b, g in gates.items() if b % 2 == 1)
    step = tuple(layer for layer in (even, odd) if layer)
    return BrickworkCircuit(h.n_sites, step * reps, h.phys_dim)


def exact_unitary(h: LocalHamiltonian, t: float) -> np.ndarray:
    """Dense e^{-i t H}; the reference evolution for small systems."""
    return matrix_exp(h.dense(), -1j * t)


def centered(h: LocalHamiltonian):
    """(H - mu, mu) with every term made traceless.

    mu = sum_r tr(H_r)/d_r, so H = H' + mu * 1 exactly; the centered form
    has a smaller spectral radius, which keeps imaginary-time continuations
    well conditioned.
    """
    terms = []
    mu = 0.0
    for support, mat in h.terms:
        d = mat.shape[0]
        tr = float(np.real(np.trace(mat))) / d
        mu += tr
        terms.append((support, mat - tr * np.eye(d)))
    return LocalHamiltonian(h.n_sites, h.phys_dim, tuple(terms)), mu
