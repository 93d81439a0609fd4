import numpy as np
import pytest

from conftest import PAULI
from epsim import mps, network, oracle
from epsim.errors import CanonicalFormError, SamplingError, ShapeError, SizeGuardError
from epsim.rand import haar_unitary, random_state

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_brickwork(rng, n, layers):
    out = []
    for l in range(layers):
        start = l % 2
        layer = tuple(
            (site, haar_unitary(rng, 4)) for site in range(start, n - 1, 2)
        )
        out.append(layer)
    return network.BrickworkCircuit(n, tuple(out))


def random_net(rng, n, layers, obs_sites=(1,), chi=None):
    psi = mps.from_statevector(random_state(rng, 2**n), [2] * n, chi_max=chi)
    circ = random_brickwork(rng, n, layers)
    obs = [(s, PAULI["Z"]) for s in obs_sites]
    return network.build_network(psi, circ, obs), psi, circ, obs


def oracle_value(psi, circ, obs):
    return oracle.circuit_expectation(
        psi.to_statevector(), circ, {s: o for s, o in obs}, [2] * psi.n_sites
    )


# --- gate compilation


def test_compile_identity_gate():
    pair = network.compile_gate(np.eye(4, dtype=complex))
    assert pair.bond_dim == 1
    assert np.max(np.abs(pair.recombined() - np.eye(4))) < 1e-12


def test_compile_swap_has_maximal_rank():
    pair = network.compile_gate(SWAP)
    assert pair.bond_dim == 4
    assert np.max(np.abs(pair.recombined() - SWAP)) < 1e-12


def test_compile_cnot_rank_two():
    pair = network.compile_gate(CNOT)
    assert pair.bond_dim == 2
    assert np.max(np.abs(pair.recombined() - CNOT)) < 1e-12


def test_compile_random_gates_recombine():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = haar_unitary(rng, 4)
        pair = network.compile_gate(u)
        assert np.max(np.abs(pair.recombined() - u)) < 1e-10
        for side in ("left", "right"):
            ops, weight = pair.weighted_half(side)
            gram = sum(k.conj().T @ k for k in ops)
            evals = np.linalg.eigvalsh(gram)
            assert evals[-1] <= 1 + 1e-10  # trace non-increasing
            assert weight > 0


def test_compile_rejects_non_unitary():
    with pytest.raises(ShapeError, match="unitary"):
        network.compile_gate(np.ones((4, 4)))


# --- resource formulas


@pytest.mark.parametrize(
    "n,l,gates,qudits",
    [(6, 3, 9, 54), (2, 1, 1, 6), (2, 0, 0, 0), (5, 4, 8, 48)],
)
def test_resources(n, l, gates, qudits):
    circ = network.BrickworkCircuit(n, tuple(() for _ in range(l)))
    est = network.resources(circ)
    assert est.state_qudits == n // 2
    assert est.total_gates == gates
    assert est.evolution_qudits == qudits
    assert est.sample_cost_order == "O(N^2 M L)"


# --- construction errors


def test_build_network_validation():
    rng = np.random.default_rng(1)
    psi = mps.from_statevector(random_state(rng, 4), [2, 2])
    circ = random_brickwork(rng, 3, 1)
    with pytest.raises(ShapeError):
        network.build_network(psi, circ, [])
    with pytest.raises(CanonicalFormError):
        network.build_network(psi.canonicalize("right"), random_brickwork(rng, 2, 1), [])
    with pytest.raises(ShapeError, match="unitary"):
        network.BrickworkCircuit(2, (((0, np.ones((4, 4))),),))
    with pytest.raises(ShapeError, match="overlap"):
        network.BrickworkCircuit(
            3, (((0, np.eye(4)), (1, np.eye(4))),)
        )


# --- exact evaluation


def test_exact_empty_circuit_matches_mps():
    rng = np.random.default_rng(2)
    psi = mps.from_statevector(random_state(rng, 2**4), [2] * 4)
    circ = network.BrickworkCircuit(4, ())
    net = network.build_network(psi, circ, [(2, PAULI["Z"])])
    want = psi.expectation_product({2: PAULI["Z"]})
    assert abs(network.evaluate_exact(net) - want) < 1e-10


def test_exact_norm_preservation():
    rng = np.random.default_rng(3)
    psi = mps.from_statevector(random_state(rng, 4), [2, 2])
    circ = network.BrickworkCircuit(2, (((0, CNOT),),))
    net = network.build_network(psi, circ, [])
    assert abs(network.evaluate_exact(net) - 1) < 1e-10


EXACT_CASES = [(2, 1, 1), (3, 2, 1), (4, 2, 1), (6, 3, 1), (12, 6, 6)]


@pytest.mark.parametrize(
    "n,l,site", EXACT_CASES, ids=[f"{n}-{l}" for n, l, _ in EXACT_CASES]
)
def test_exact_matches_oracle(n, l, site):
    # (12, 6): its column cuts exceed the size guard, which the greedy
    # whole-network order never builds.
    rng = np.random.default_rng(10 * n + l)
    net, psi, circ, obs = random_net(rng, n, l, obs_sites=(site,))
    got = network.evaluate_exact(net)
    want = oracle_value(psi, circ, obs)
    assert abs(got - want) < 1e-8


def test_exact_figure_shape_pauli_pair():
    # Six sites, three layers, observable on sites 1 and 3.
    rng = np.random.default_rng(42)
    psi = mps.from_statevector(random_state(rng, 2**6), [2] * 6)
    circ = random_brickwork(rng, 6, 3)
    obs = [(1, PAULI["Z"]), (3, PAULI["X"])]
    net = network.build_network(psi, circ, obs)
    got = network.evaluate_exact(net)
    want = oracle_value(psi, circ, obs)
    assert abs(got - want) < 1e-8


def test_exact_gauge_invariance():
    rng = np.random.default_rng(5)
    psi_draw = random_state(rng, 2**4)
    circ = random_brickwork(rng, 4, 2)
    obs = [(2, PAULI["Y"])]
    values = []
    for chi in (None, 16):
        psi = mps.from_statevector(psi_draw, [2] * 4, chi_max=chi)
        net = network.build_network(psi, circ, obs)
        values.append(network.evaluate_exact(net))
    assert abs(values[0] - values[1]) < 1e-10


def test_exact_contraction_size_guard(monkeypatch):
    import re
    import tracemalloc

    # A full-rank N=16 state: the first greedy step joins the two middle
    # state tensors into a 2^16-entry result, far above the lowered guard.
    rng = np.random.default_rng(99)
    net, *_ = random_net(rng, 16, 1, obs_sites=(8,))
    monkeypatch.setattr(network, "CONTRACTION_GUARD", 2**10)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="exact contraction") as err:
            network.evaluate_exact(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "refusing" in str(err.value)
    refused_bytes = int(re.search(r"has (\d+) entries", str(err.value))[1]) * 16
    assert refused_bytes >= 2**16 * 16
    assert peak < refused_bytes / 10


# --- region evaluation


def test_regions_match_exact():
    rng = np.random.default_rng(6)
    net, psi, circ, obs = random_net(rng, 4, 2, obs_sites=(1, 2))
    exact = network.evaluate_exact(net)
    whole = network.NetworkPartition(
        (tuple(node.nid for node in net.nodes),)
    )
    for part in (
        whole,
        network.column_partition(net, [2]),
        network.column_partition(net, [1, 3]),
        network.singleton_partition(net),
    ):
        value, probs = network.evaluate_regions(net, part)
        assert abs(value - exact) < 1e-10
        assert len(probs) == len(part.regions)
        assert all(p >= 0 for p in probs)


def test_regions_cli_default_split_wide_network():
    # The CLI's default split [N/2] at N=10, L=3 once built a 2^26-entry
    # intermediate and refused.
    rng = np.random.default_rng(31)
    net, psi, circ, obs = random_net(rng, 10, 3, obs_sites=(5,))
    value, _ = network.evaluate_regions(net, network.column_partition(net, [5]))
    assert abs(value - oracle_value(psi, circ, obs)) < 1e-8


def test_contraction_guard_refuses_before_allocating():
    import tracemalloc

    rng = np.random.default_rng(32)
    a = rng.normal(size=(4096, 2)) + 0j
    b = rng.normal(size=(2, 8192)) + 0j
    refused_bytes = 4096 * 8192 * 16
    assert 4096 * 8192 > network.CONTRACTION_GUARD
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="refusing"):
            network._contract_group([(a, ["x", "s"]), (b, ["s", "y"])], "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < refused_bytes / 100


def test_contract_group_rejects_mismatched_wire():
    with pytest.raises(ShapeError, match="dims 2 and 3"):
        network._contract_group([(np.ones(2), ["w"]), (np.ones(3), ["w"])], "test")


def test_region_partition_validation():
    rng = np.random.default_rng(7)
    net, *_ = random_net(rng, 2, 1)
    with pytest.raises(ShapeError, match="cover"):
        network.NetworkPartition(((0, 1),)).validate(net)
    ids = tuple(node.nid for node in net.nodes)
    with pytest.raises(ShapeError, match="two regions"):
        network.NetworkPartition((ids, (ids[0],))).validate(net)


# --- heralded sampling


def test_branch_distribution_is_consistent():
    rng = np.random.default_rng(8)
    # N=4, L=1 (W=9) and N=3, L=2 (W=8) once exceeded the contraction guard.
    for n, l in ((2, 1), (4, 1), (3, 2)):
        net, psi, circ, obs = random_net(rng, n, l)
        table = network.branch_distribution(net)
        assert abs(table.probs.sum() - 1) < 1e-10
        assert 0 <= table.clipped_mass <= 1e-12
        # Conditioning on the all-Bell branch reproduces the exact value.
        cond = table.probs[0] / table.probs[0].sum()
        value = float(np.dot(cond, table.lam))
        assert abs(value - network.evaluate_exact(net).real) < 1e-10
    res = network.evaluate_sampled(net, shots=10**4, seed=0, strategy="corrected")
    assert np.isfinite(res.estimate)
    assert res.clipped_mass == table.clipped_mass


def dense_branch_table(net):
    """Branch probabilities from the product vector of the node tensors with
    every wire endpoint open: each wire's projector Omega = |w><w| (bit 0) or
    1 - Omega (bit 1) acts on its two endpoints, then the observable
    eigenprojectors on the final legs."""
    import itertools

    nodes, sampled, finals = network._ket_graph(net)
    vec, labels = np.ones((), dtype=complex), []
    for t, legs in nodes:
        vec = np.multiply.outer(vec, t)
        labels += legs

    def apply(v, op, labs):
        axes = [labels.index(lab) for lab in labs]
        v = np.moveaxis(v, axes, range(len(axes)))
        shape = v.shape
        v = (op @ v.reshape(op.shape[1], -1)).reshape(shape)
        return np.moveaxis(v, range(len(axes)), axes)

    measured = sorted(net.observables)
    vecs = {c: np.linalg.eigh(net.observables[c])[1] for c in measured}
    outcomes = list(itertools.product(range(net.d), repeat=len(measured)))
    probs = np.zeros((2 ** len(sampled), len(outcomes)))

    def descend(v, k, row):
        if k == len(sampled):
            for i, o in enumerate(outcomes):
                u = v
                for c, oc in zip(measured, o):
                    e = vecs[c][:, oc]
                    u = apply(u, np.outer(e, e.conj()), [finals[c]])
                probs[row, i] = np.vdot(u, u).real
            return
        lab, dim, _ = sampled[k]
        w = np.eye(dim).reshape(-1) / np.sqrt(dim)
        omega = np.outer(w, w.conj())
        for bit, proj in enumerate((omega, np.eye(dim * dim) - omega)):
            descend(apply(v, proj, [(lab, 0), (lab, 1)]), k + 1, row | bit << k)

    descend(vec, 0, 0)
    return probs / probs.sum()


def rank_two_gate(rng):
    """A random two-qubit gate of operator-Schmidt rank 2 (local unitaries
    around a CNOT)."""
    a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
    return np.kron(a, b) @ CNOT @ np.kron(c, d)


@pytest.mark.parametrize("n_wires", [4, 5, 7])
def test_branch_table_matches_dense_reference(n_wires):
    rng = np.random.default_rng(40 + n_wires)
    if n_wires == 7:
        # N=2, L=3; rank-2 gates keep the open product vector at 2^16 entries.
        psi = mps.from_statevector(random_state(rng, 4), [2, 2])
        circ = network.BrickworkCircuit(
            2, (((0, rank_two_gate(rng)),), (), ((0, rank_two_gate(rng)),))
        )
        net = network.build_network(psi, circ, [(0, PAULI["X"])])
    else:
        n = n_wires - 2
        net, *_ = random_net(rng, n, 1, obs_sites=(0, n - 1))
    table = network.branch_distribution(net)
    assert table.n_wires == n_wires
    assert np.max(np.abs(table.probs - dense_branch_table(net))) < 1e-12


def test_sampling_deterministic_network():
    zero = np.array([1, 0], dtype=complex)
    psi = mps.product_mps([zero, zero])
    circ = network.BrickworkCircuit(2, ())
    net = network.build_network(psi, circ, [(0, PAULI["Z"])])
    res = network.evaluate_sampled(net, shots=100, seed=1)
    assert res.estimate == pytest.approx(1.0, abs=1e-12)
    assert res.stderr == 0.0
    assert res.acceptance_rate == 1.0


def test_sampling_postselect_within_4_sigma():
    rng = np.random.default_rng(9)
    net, psi, circ, obs = random_net(rng, 2, 1)
    exact = network.evaluate_exact(net).real
    res = network.evaluate_sampled(net, shots=10**5, seed=7)
    assert res.accepted > 20
    assert abs(res.estimate - exact) < 4 * res.stderr + 1e-12


def test_sampling_acceptance_rate_bell_pair():
    # A Bell-pair state with no gates: one bond wire of dimension 2 with a
    # maximally mixed reduction, so acceptance should be about 1/4.
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    psi = mps.from_statevector(bell, [2, 2])
    net = network.build_network(psi, network.BrickworkCircuit(2, ()), [])
    table = network.branch_distribution(net)
    assert table.n_wires == 1
    assert abs(table.acceptance() - 0.25) < 1e-10
    res = network.evaluate_sampled(net, shots=10**4, seed=3)
    assert abs(res.acceptance_rate - 0.25) < 0.02


def test_sampling_zero_acceptance_raises():
    rng = np.random.default_rng(10)
    net, *_ = random_net(rng, 3, 1)
    with pytest.raises(SamplingError, match="acceptance"):
        network.evaluate_sampled(net, shots=2, seed=0)


def test_sampling_corrected_strategy():
    rng = np.random.default_rng(11)
    net, psi, circ, obs = random_net(rng, 2, 1)
    exact = network.evaluate_exact(net).real
    res = network.evaluate_sampled(net, shots=10**5, seed=5, strategy="corrected")
    assert res.strategy == "corrected"
    assert abs(res.estimate - exact) < 5 * res.stderr + 1e-12
    res_all = network.evaluate_sampled(
        net, shots=10**5, seed=5, strategy="corrected", correct_vertical=True
    )
    assert abs(res_all.estimate - exact) < 5 * res_all.stderr + 1e-12


def test_sampling_unbiasedness_over_seeds():
    rng = np.random.default_rng(12)
    net, psi, circ, obs = random_net(rng, 2, 1)
    exact = network.evaluate_exact(net).real
    estimates = []
    sigmas = []
    for seed in range(50):
        res = network.evaluate_sampled(net, shots=30000, seed=seed)
        estimates.append(res.estimate)
        sigmas.append(res.stderr)
    mean = float(np.mean(estimates))
    sigma = float(np.mean(sigmas))
    assert abs(mean - exact) < 4 * sigma / np.sqrt(50) + 0.01


# --- OQT preparation plans


def test_oqt_plan_product_state():
    zero = np.array([1, 0], dtype=complex)
    psi = mps.product_mps([zero] * 4)
    plan = network.oqt_prepare_plan(psi)
    assert plan.segments == ((0, 2), (2, 2))
    assert plan.join_dims == (1,)
    value = network.simulate_oqt_plan(plan, [(0, PAULI["Z"])])
    assert abs(value - 1) < 1e-10


@pytest.mark.parametrize("mode", ["postselect", "corrected"])
def test_oqt_plan_random_mps(mode):
    rng = np.random.default_rng(13)
    psi = mps.from_statevector(random_state(rng, 2**4), [2] * 4)
    plan = network.oqt_prepare_plan(psi)
    obs = [(1, PAULI["Z"])]
    want = psi.expectation_product(dict(obs))
    got = network.simulate_oqt_plan(plan, obs, mode=mode)
    assert abs(got - want) < 1e-8


def test_oqt_plan_multi_join_and_padding():
    rng = np.random.default_rng(14)
    psi = mps.from_statevector(random_state(rng, 2**5), [2] * 5)
    plan = network.oqt_prepare_plan(psi)  # padded to six sites
    assert len(plan.segments) == 3
    obs = [(0, PAULI["X"]), (3, PAULI["Z"])]
    want = psi.expectation_product(dict(obs))
    for mode in ("postselect", "corrected"):
        got = network.simulate_oqt_plan(plan, obs, mode=mode)
        assert abs(got - want) < 1e-8


def test_oqt_branch_probabilities():
    rng = np.random.default_rng(15)
    psi = mps.from_statevector(random_state(rng, 2**4), [2] * 4)
    plan = network.oqt_prepare_plan(psi)
    rows = oracle.channel_branch_simulate(plan)
    assert len(rows) == 2
    total = sum(p for _, p in rows)
    assert abs(total - 1) < 1e-10


# --- serialization


def test_circuit_json_roundtrip():
    rng = np.random.default_rng(16)
    circ = random_brickwork(rng, 4, 2)
    back = network.BrickworkCircuit.from_dict(circ.to_dict())
    assert back.n_sites == 4
    for la, lb in zip(circ.layers, back.layers):
        for (sa, ga), (sb, gb) in zip(la, lb):
            assert sa == sb
            assert np.max(np.abs(ga - gb)) < 1e-12


def test_network_json_dump():
    rng = np.random.default_rng(17)
    net, *_ = random_net(rng, 2, 1)
    data = net.to_dict()
    assert data["n_sites"] == 2
    assert len(data["nodes"]) == len(net.nodes)
    assert len(data["wires"]) == len(net.wires)


def test_obs_eigenbasis_phase_convention():
    vals, vecs = network.obs_eigenbasis(PAULI["Y"])
    assert np.allclose(vals, [-1, 1])
    for k in range(2):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)[0]
        assert abs(col[nz].imag) < 1e-12 and col[nz].real > 0
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.allclose(rebuilt, PAULI["Y"])
