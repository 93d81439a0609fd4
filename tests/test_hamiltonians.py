import numpy as np
import pytest

from conftest import PAULI, bitwise_equal, kron_embed
from epsim import hamiltonians as ham
from epsim import oracle
from epsim.errors import ShapeError, SizeGuardError
from epsim.linalg import dagger


def test_tfim_conventions():
    h = ham.build_tfim(2, j=1.0, h=0.0)
    assert len(h.terms) == 1
    assert np.allclose(h.terms[0][1], -np.kron(PAULI["Z"], PAULI["Z"]))
    h = ham.build_tfim(2, j=0.0, h=1.0)
    ground = np.linalg.eigvalsh(h.dense())[0]
    assert abs(ground - (-2.0)) < 1e-12


def test_heisenberg_singlet_energy():
    h = ham.build_heisenberg(2, j=1.0)
    ground = np.linalg.eigvalsh(h.dense())[0]
    assert abs(ground - (-3.0)) < 1e-12


def test_terms_validated():
    with pytest.raises(ShapeError, match="Hermitian"):
        ham.LocalHamiltonian(2, 2, (((0,), np.array([[0, 1], [0, 0]])),))
    with pytest.raises(ShapeError, match="range"):
        ham.LocalHamiltonian(2, 2, (((5,), PAULI["Z"]),))


def test_dense_size_guard():
    h = ham.build_tfim(13, 1.0, 1.0)
    with pytest.raises(SizeGuardError):
        h.dense()


def kron_dense(h):
    """H summed term by term onto zeros from the kron-and-transpose embedding."""
    dims = [h.phys_dim] * h.n_sites
    out = np.zeros((h.phys_dim**h.n_sites,) * 2, dtype=complex)
    for support, mat in h.terms:
        out += kron_embed(mat, support, dims)
    return out


def random_local(rng, n, d, n_terms):
    """Hermitian terms on random supports of one to three sites, in any order;
    some of them real."""
    terms = []
    for _ in range(n_terms):
        support = tuple(int(s) for s in rng.permutation(n)[: int(rng.integers(1, min(n, 3) + 1))])
        shape = (d ** len(support),) * 2
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m = (m + dagger(m)) / 2
        terms.append((support, m.real + 0j if rng.random() < 0.3 else m))
    return ham.LocalHamiltonian(n, d, tuple(terms))


def test_dense_matches_kron_reference_bitwise():
    models = [ham.build_tfim(n, j, h) for n in range(2, 7)
              for j, h in ((1.0, 1.0), (0.7, -0.3), (-1.2, 0.0))]
    models += [ham.build_heisenberg(n, j) for n in range(2, 7) for j in (1.0, -0.4)]
    models += [ham.centered(h)[0] for h in models[:10]]
    rng = np.random.default_rng(41)
    models += [random_local(rng, int(rng.integers(2, 6)), 2, int(rng.integers(1, 7)))
               for _ in range(40)]
    models += [random_local(rng, int(rng.integers(2, 4)), 3, int(rng.integers(1, 5)))
               for _ in range(20)]
    for h in models:
        assert bitwise_equal(h.dense(), kron_dense(h))


def test_exact_unitary():
    h = ham.build_tfim(3, 0.7, 0.4)
    assert np.allclose(ham.exact_unitary(h, 0.0), np.eye(8))
    u = ham.exact_unitary(h, 1.3)
    assert np.max(np.abs(dagger(u) @ u - np.eye(8))) < 1e-12
    hz = ham.LocalHamiltonian(1, 2, (((0,), PAULI["Z"]),))
    assert np.allclose(ham.exact_unitary(hz, np.pi), -np.eye(2), atol=1e-12)


def test_trotter_zero_time_and_single_term():
    h = ham.build_tfim(4, 1.0, 0.5)
    assert ham.trotter_circuit(h, 0.0, 4).n_layers == 0
    single = ham.LocalHamiltonian(
        2, 2, (((0, 1), np.kron(PAULI["Z"], PAULI["Z"])),)
    )
    for reps in (1, 3):
        circ = ham.trotter_circuit(single, 0.9, reps)
        u = np.eye(4, dtype=complex)
        for layer in circ.layers:
            for _, gate in layer:
                u = gate @ u
        assert np.max(np.abs(u - ham.exact_unitary(single, 0.9))) < 1e-10


def test_trotter_rejects_long_range():
    bad = ham.LocalHamiltonian(
        3, 2, (((0, 2), np.kron(PAULI["Z"], PAULI["Z"])),)
    )
    with pytest.raises(ShapeError, match="nearest-neighbor"):
        ham.trotter_circuit(bad, 1.0, 2)


def test_trotter_needs_a_repetition():
    h = ham.build_tfim(3, 1.0, 0.5)
    for t in (0.0, 1.0):
        with pytest.raises(ShapeError, match="at least one repetition"):
            ham.trotter_circuit(h, t, 0)


def circuit_unitary(circ):
    dim = circ.phys_dim**circ.n_sites
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[k] = 1.0
        u[:, k] = oracle.apply_circuit(basis, circ)
    return u


def test_trotter_first_order_scaling():
    h = ham.build_tfim(4, 1.0, 0.7)
    target = ham.exact_unitary(h, 1.0)
    errors = []
    for reps in (4, 8, 16):
        u = circuit_unitary(ham.trotter_circuit(h, 1.0, reps))
        errors.append(np.linalg.norm(u - target, ord=2))
    for a, b in zip(errors, errors[1:]):
        assert 0.8 * 2 <= a / b <= 1.2 * 2


def test_trotter_commuting_terms_exact():
    # ZZ terms all commute, so the splitting is exact at any R.
    h = ham.build_tfim(4, 0.8, 0.0)
    u = circuit_unitary(ham.trotter_circuit(h, 1.1, 2))
    assert np.max(np.abs(u - ham.exact_unitary(h, 1.1))) < 1e-10


def test_energy_conservation_under_exact_evolution():
    rng = np.random.default_rng(0)
    h = ham.build_tfim(3, 1.0, 0.6)
    hm = h.dense()
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    e0 = np.real(np.conj(psi) @ hm @ psi)
    for t in (0.3, 1.0, 2.5):
        evolved = ham.exact_unitary(h, t) @ psi
        e = np.real(np.conj(evolved) @ hm @ evolved)
        assert abs(e - e0) < 1e-10


def test_trotter_plan_consistency():
    h = ham.build_tfim(5, 1.0, 0.3)
    from epsim.linalg import embed_operator

    total = sum(
        embed_operator(m, [b, b + 1], [2] * 5) for b, m in ham._merged_bond_terms(h).items()
    )
    assert np.max(np.abs(total - h.dense())) < 1e-12


def test_hamiltonian_json_roundtrip():
    h = ham.build_heisenberg(3, 0.7)
    back = ham.LocalHamiltonian.from_dict(h.to_dict())
    assert np.max(np.abs(back.dense() - h.dense())) < 1e-14
