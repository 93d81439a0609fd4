import numpy as np
import pytest

from conftest import PAULI, dense_expectation
from epsim import channels as ch
from epsim import limits, mps, oracle, verify
from epsim.errors import ShapeError
from epsim.linalg import tp_residual
from epsim.network import BrickworkCircuit
from epsim.rand import random_state


def random_mps(rng, n, d=2, chi=None):
    """A random MPS (exact unless chi caps the bond dimension)."""
    psi = random_state(rng, d**n)
    return mps.from_statevector(psi, [d] * n, chi_max=chi)


def left_canonical(m):
    """Whether every site tensor of every case is a trace-preserving Kraus
    set, to within TP_TOL."""
    return all(np.all(tp_residual(t) <= limits.TP_TOL) for t in m.tensors)


def bond_dims(m):
    return tuple(t.shape[-2] for t in m.tensors) + (m.tensors[-1].shape[-1],)


def test_product_state_mps():
    m = mps.from_statevector([1, 0, 0, 0], [2, 2])
    assert bond_dims(m) == (1, 1, 1)
    assert np.allclose(m.to_statevector(), [1, 0, 0, 0])


def test_bell_state_schmidt_structure():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    m = mps.from_statevector(bell, [2, 2])
    assert bond_dims(m) == (1, 2, 1)
    truncated = mps.from_statevector(bell, [2, 2], chi_max=1)
    assert abs(truncated.discarded_weight - 0.5) < 1e-12
    assert bond_dims(truncated) == (1, 1, 1)


def test_roundtrip_small():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6, 8):
        psi = random_state(rng, 2**n)
        m = mps.from_statevector(psi, [2] * n)
        back = m.to_statevector()
        assert abs(abs(np.vdot(psi, back)) - 1) < 1e-10
        assert np.max(np.abs(back - psi)) < 1e-10


def test_mixed_local_dims_roundtrip():
    rng = np.random.default_rng(1)
    dims = [2, 3, 2, 4]
    psi = random_state(rng, int(np.prod(dims)))
    m = mps.from_statevector(psi, dims)
    assert np.max(np.abs(m.to_statevector() - psi)) < 1e-10


def test_truncation_matches_svd_tail():
    rng = np.random.default_rng(2)
    psi = random_state(rng, 2**6)
    full = mps.from_statevector(psi, [2] * 6)
    lossy = mps.from_statevector(psi, [2] * 6, chi_max=3)
    back = lossy.to_statevector()
    fidelity = abs(np.vdot(psi, back)) ** 2 / np.linalg.norm(back) ** 2
    assert fidelity >= 1 - lossy.discarded_weight - 1e-10
    assert lossy.discarded_weight > 1e-6  # a random state is not chi=3
    assert max(bond_dims(full)) == 8 and max(bond_dims(lossy)) == 3


def test_product_plus_states_uniform_amplitudes():
    m = mps.from_statevector(np.full(32, 2 ** (-2.5)), [2] * 5)  # |+>^5
    assert bond_dims(m) == (1,) * 6
    assert np.allclose(m.to_statevector(), np.full(32, 2 ** (-2.5)))


def test_handcrafted_two_site_amplitudes():
    # Hand contraction of Tr(B T1[i] T2[j]) for explicit small tensors.
    t1 = np.arange(8, dtype=complex).reshape(2, 2, 2) / 10
    t2 = (np.arange(8, dtype=complex)[::-1] + 1j).reshape(2, 2, 2) / 10
    b = np.array([[0.3, 0.1j], [0.2, 0.5]], dtype=complex)
    m = mps.MPS((t1, t2), b)
    vec = m.to_statevector()
    for i in range(2):
        for j in range(2):
            by_hand = np.trace(b @ t1[i] @ t2[j])
            assert abs(vec[i * 2 + j] - by_hand) < 1e-14


def test_norm_sq_canonical_and_scaled():
    rng = np.random.default_rng(3)
    m = random_mps(rng, 5)
    assert abs(m.expectation_product({}) - 1) < 1e-10
    assert abs(mps.MPS(m.tensors, 2 * m.boundary).expectation_product({}) - 4) < 1e-10


def test_norm_sq_matches_statevector():
    rng = np.random.default_rng(4)
    m = random_mps(rng, 6, chi=4)
    dense = np.linalg.norm(m.to_statevector()) ** 2
    assert abs(m.expectation_product({}) - dense) < 1e-10


def test_expectation_identity_is_norm():
    rng = np.random.default_rng(5)
    m = random_mps(rng, 4)
    val = m.expectation_product({1: np.eye(2), 3: np.eye(2)})
    assert abs(val - m.expectation_product({})) < 1e-12


def test_expectation_sigma_z_product_state():
    m = mps.from_statevector(np.eye(16)[0], [2] * 4)  # |0000>
    assert abs(m.expectation_product({2: PAULI["Z"]}) - 1) < 1e-12


@pytest.mark.parametrize("names", [("Z",), ("Y",), ("X", "Y"), ("Z", "Y", "X")])
def test_expectation_matches_oracle(names):
    rng = np.random.default_rng(hash(names) % 2**32)
    n = 6
    m = random_mps(rng, n, chi=4)
    psi = m.to_statevector()
    sites = rng.choice(n, size=len(names), replace=False)
    ops = {int(s): PAULI[name] for s, name in zip(sites, names)}
    want = dense_expectation(psi, ops, [2] * n)
    got = m.expectation_product(ops)
    assert abs(got - want) < 1e-10


def test_expectation_two_site_hermitian_oracle():
    rng = np.random.default_rng(6)
    n = 6
    m = random_mps(rng, n, chi=4)
    psi = m.to_statevector()
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        o1 = (a + a.conj().T) / 2
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        o2 = (b + b.conj().T) / 2
        ops = {1: o1, 4: o2}
        want = dense_expectation(psi, ops, [2] * n)
        assert abs(m.expectation_product(ops) - want) < 1e-10


def test_zz_on_zero_product_state():
    m = mps.from_statevector(np.eye(16)[0], [2] * 4)  # |0000>
    assert abs(m.expectation_product({0: PAULI["Z"], 3: PAULI["Z"]}) - 1) < 1e-12


def test_canonicalize_preserves_amplitudes():
    rng = np.random.default_rng(9)
    psi = random_state(rng, 2**5)
    m = mps.from_statevector(psi, [2] * 5)
    c = m.canonicalize()
    assert np.max(np.abs(c.to_statevector() - psi)) < 1e-12
    assert left_canonical(c)
    # Canonical input keeps its tensors; a gauge change anywhere gets the sweep.
    assert c.canonical == "left" and all(a is b for a, b in zip(c.tensors, m.tensors))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    tensors = list(m.tensors)
    tensors[0] = tensors[0] @ g  # bond 1 has dim 2
    tensors[1] = np.einsum("ab,ibc->iac", np.linalg.inv(g), tensors[1])
    bent = mps.MPS(tuple(tensors), m.boundary)
    assert not left_canonical(bent)
    c = bent.canonicalize()
    assert np.max(np.abs(c.to_statevector() - psi)) < 1e-12
    assert left_canonical(c) and c.canonical == "left"


def test_truncate_fidelity_bound_and_monotonicity():
    rng = np.random.default_rng(11)
    psi = random_state(rng, 2**8)
    cut = mps.from_statevector(psi, [2] * 8, chi_max=4)
    weight = cut.discarded_weight
    back = cut.to_statevector()
    fid = abs(np.vdot(psi, back)) ** 2 / np.linalg.norm(back) ** 2
    assert fid >= 1 - weight - 1e-10
    weights = []
    for chi in (2, 4, 8, 16):
        weights.append(mps.from_statevector(psi, [2] * 8, chi_max=chi).discarded_weight)
    assert all(a >= b - 1e-14 for a, b in zip(weights, weights[1:]))
    assert weights[-1] < 1e-12  # chi=16 is exact for 8 qubits


def test_site_channel_requires_canonical():
    rng = np.random.default_rng(12)
    m = random_mps(rng, 4)
    assert m.canonical == "left"
    for n in range(4):
        phi = ch.Channel(tuple(m.tensors[n]))  # Channel constructor validates CPTP
        assert phi.out_dim == m.tensors[n].shape[1]
        assert phi.in_dim == m.tensors[n].shape[2]


def test_site_channel_product_state():
    m = mps.from_statevector([1, 0, 0, 0], [2, 2])  # |00>
    assert all(k.shape == (1, 1) for k in m.tensors[0])


def test_site_channel_bell_cut():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    m = mps.from_statevector(bell, [2, 2])
    assert m.tensors[0][0].shape == (1, 2)
    assert m.tensors[1][0].shape == (2, 1)


def test_purified_choi_chain_reproduces_state():
    # The composite of all site channels, purified, is the state itself once
    # the boundary is projected out (channel-state origin of the MPS form).
    rng = np.random.default_rng(13)
    n = 4
    m = random_mps(rng, n, chi=3)
    composite = list(m.tensors[0])
    for k in range(1, n):
        composite = [a @ b for a in composite for b in m.tensors[k]]
    # Kraus index of the composite enumerates the full physical basis.
    amps = np.array(
        [np.trace(m.boundary @ k) for k in composite]
    )
    psi = m.to_statevector()
    assert np.max(np.abs(amps - psi)) < 1e-10


def test_json_roundtrip():
    rng = np.random.default_rng(14)
    m = random_mps(rng, 4, chi=3)
    data = m.to_dict()
    assert data["n_sites"] == 4
    back = mps.MPS.from_dict(data)
    assert np.max(np.abs(back.to_statevector() - m.to_statevector())) < 1e-12


def test_from_statevector_rejects_bad_input():
    with pytest.raises(ShapeError):
        mps.from_statevector([1, 0, 0], [2, 2])
    with pytest.raises(ShapeError):
        mps.from_statevector([1, 0, 0, 1], [2, 2])  # unnormalized


def test_periodic_boundary_evaluators():
    # Expectation machinery accepts a nontrivial boundary operator.
    rng = np.random.default_rng(15)
    tensors = tuple(
        (rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))) / 2
        for _ in range(4)
    )
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = mps.MPS(tensors, b)
    psi = m.to_statevector()
    assert abs(m.expectation_product({}) - np.linalg.norm(psi) ** 2) < 1e-10
    ops = {1: PAULI["Y"], 3: PAULI["Z"]}
    want = dense_expectation(psi, ops, [2] * 4)
    assert abs(m.expectation_product(ops) - want) < 1e-10


def test_expectation_chain_peak_memory():
    import tracemalloc

    # Dense bonds up to chi = 32 at N=10: a d chi^4 transfer matrix per site
    # would peak at 8 MiB, the single-layer environments at chi^2 entries.
    n = 10
    m = mps.from_statevector(random_state(np.random.default_rng(23), 2**n), [2] * n)
    ops = {0: PAULI["Z"], n // 2: PAULI["X"], n - 1: PAULI["Z"]}
    want = dense_expectation(m.to_statevector(), ops, [2] * n)
    tracemalloc.start()
    try:
        got = m.expectation_product(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) < 1e-12
    assert peak < 2**20


def test_wrong_size_operator_names_its_site():
    m = random_mps(np.random.default_rng(24), 3)
    with pytest.raises(ShapeError, match="operator at site 1 has shape \\(3, 3\\)"):
        m.expectation_product({0: PAULI["Z"], 1: np.eye(3)})
    with pytest.raises(ShapeError, match="operator at site 2 has shape \\(2,\\)"):
        m.expectation_product({2: np.ones(2)})


def _stacked_cases(rng, n, batch):
    """``batch`` random N-site states and per-case Pauli operators on 1-2
    sites, as a stack (B, 2^N), per-case dicts and {site: (B, 2, 2)}
    stacks with the identity where a case names no operator."""
    states = np.stack([random_state(rng, 2**n) for _ in range(batch)])
    per_case = []
    for _ in range(batch):
        sites = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        per_case.append({int(s): PAULI["XYZ"[int(rng.integers(3))]] for s in sites})
    stacks = {
        s: np.stack([ops.get(s, PAULI["I"]) for ops in per_case])
        for s in range(n) if any(s in ops for ops in per_case)
    }
    return states, per_case, stacks


def test_stacked_sweep_and_chain_match_per_case():
    rng = np.random.default_rng(16)
    for n in rng.integers(2, 7, size=6):  # a mixed-N draw, one stack per N
        n = int(n)
        states, per_case, stacks = _stacked_cases(rng, n, 5)
        stacked = mps.from_statevector(states, [2] * n)
        assert stacked.batch_shape == (5,)
        got = stacked.expectation_product(stacks)
        dense = oracle.expectation(states, stacks, [2] * n)
        assert got.shape == dense.shape == (5,)
        for b, (psi, ops, case) in enumerate(zip(states, per_case, stacked.cases())):
            one = mps.from_statevector(psi, [2] * n)
            assert abs(got[b] - one.expectation_product(ops)) < 1e-15
            assert abs(dense[b] - oracle.expectation(psi, ops, [2] * n)) < 1e-15
            assert bond_dims(stacked) == bond_dims(one)  # random states are full rank
            assert np.max(np.abs(case.to_statevector() - psi)) < 1e-14
        # One (2, 2) operator is shared by every case, and a (1, 5) stack
        # flattens its batch axes into the same cases.
        shared = stacked.expectation_product({0: PAULI["Z"]})
        grid = mps.from_statevector(states[None], [2] * n).expectation_product({0: PAULI["Z"]})
        assert shared.shape == (5,) and grid.shape == (1, 5)
        for b, case in enumerate(stacked.cases()):
            want = case.expectation_product({0: PAULI["Z"]})
            assert abs(shared[b] - want) < 1e-14 and abs(grid[0, b] - want) < 1e-14


def test_stack_mixing_product_and_random_state_stays_canonical():
    rng = np.random.default_rng(17)
    product = np.zeros(16, dtype=complex)
    product[5] = 1.0  # |0101>
    states = np.stack([product, random_state(rng, 16)])
    m = mps.from_statevector(states, [2] * 4)
    # The product case needs bond 1 everywhere; it keeps the random case's
    # bonds as zero-weight directions.
    assert bond_dims(mps.from_statevector(product, [2] * 4)) == (1, 1, 1, 1, 1)
    assert bond_dims(m) == (1, 2, 4, 2, 1)
    assert left_canonical(m)
    assert all(left_canonical(case) for case in m.cases())
    assert np.max(np.abs(m.to_statevector() - states)) < 1e-14
    z1 = m.expectation_product({1: PAULI["Z"]})
    assert abs(z1[0] + 1) < 1e-14
    # Truncation on the stack drops the same weight as case by case.
    weights = mps.from_statevector(states, [2] * 4, chi_max=1).discarded_weight
    for b, psi in enumerate(states):
        want = mps.from_statevector(psi, [2] * 4, chi_max=1).discarded_weight
        assert abs(weights[b] - want) < 1e-14


def test_unnormalized_case_in_stack_is_named():
    rng = np.random.default_rng(18)
    states = np.stack([random_state(rng, 8) for _ in range(4)])
    states[2] *= 1.5
    with pytest.raises(ShapeError, match="case 2: state vector must be normalized"):
        mps.from_statevector(states, [2] * 3)


def test_stacked_mps_refuses_single_state_calls():
    rng = np.random.default_rng(19)
    m = mps.from_statevector(np.stack([random_state(rng, 4)] * 2), [2, 2])
    with pytest.raises(ShapeError, match="single state"):
        m.to_dict()
    # The dense oracle takes the stack, but only with a circuit stack of its batch shape.
    three = BrickworkCircuit(2, (((0, np.stack([np.eye(4)] * 3)),),))
    with pytest.raises(ShapeError, match="circuit stack of \\(3,\\) for states of \\(2,\\)"):
        oracle.circuit_expectation(m, three, {0: PAULI["Z"]})
    with pytest.raises(ShapeError, match="batch axes"):
        mps.MPS(m.tensors, m.boundary[0])


def test_grouped_suite_mps_draws_the_per_case_cases():
    # The case-by-case loop the grouped suite replaces, from the same seed.
    rng = np.random.default_rng(2025)
    reference = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        psi = random_state(rng, 2**n)
        n_ops = int(rng.integers(1, min(n, 3) + 1))
        sites = rng.choice(n, size=n_ops, replace=False)
        ops = {int(s): PAULI[("X", "Y", "Z")[int(rng.integers(3))]] for s in sites}
        reference.append((psi, ops))

    seen = []
    for cases, dims, states, ops in verify._mps_groups(np.random.default_rng(2025), 200):
        for j, case in enumerate(cases):
            psi, want = reference[case]
            assert dims == [2] * len(dims) and states.shape[-1] == psi.size == 2 ** len(dims)
            assert np.array_equal(states[j], psi)
            for s in range(len(dims)):
                got = ops[s][j] if s in ops else PAULI["I"]
                assert np.array_equal(got, want.get(s, PAULI["I"]))
        seen += cases
    assert sorted(seen) == list(range(200))
