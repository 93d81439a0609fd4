from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import PAULI, per_case_gaussian
from epsim import contract, limits, mps, network, oracle, verify
from epsim.errors import CanonicalFormError, SamplingError, ShapeError, SizeGuardError
from epsim.rand import haar_unitary, random_canonical_mps, random_state

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
    return oracle.circuit_expectation(psi, circ, {s: o for s, o in obs})


# --- gate compilation


def recombined(pair):
    """sum_m left[m] (x) right[m] as a d^2 x d^2 matrix."""
    d = pair.left_ops.shape[-1]
    return np.einsum("mik,mjl->ijkl", pair.left_ops, pair.right_ops).reshape(d * d, d * d)


def test_compile_identity_gate():
    pair = network.compile_gate(np.eye(4, dtype=complex))
    assert pair.bond_dim == 1
    assert np.max(np.abs(recombined(pair) - np.eye(4))) < 1e-12


def test_compile_swap_has_maximal_rank():
    pair = network.compile_gate(SWAP)
    assert pair.bond_dim == 4
    assert np.max(np.abs(recombined(pair) - SWAP)) < 1e-12


def test_compile_cnot_rank_two():
    pair = network.compile_gate(CNOT)
    assert pair.bond_dim == 2
    assert np.max(np.abs(recombined(pair) - CNOT)) < 1e-12


def test_compile_random_gates_recombine():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = haar_unitary(rng, 4)
        pair = network.compile_gate(u)
        assert np.max(np.abs(recombined(pair) - u)) < 1e-10


def test_compile_rejects_non_unitary():
    with pytest.raises(ShapeError, match="unitary"):
        network.compile_gate(np.ones((4, 4)))


def test_stacked_gate_checks_name_the_offending_gate(monkeypatch):
    rng = np.random.default_rng(40)
    gates = [haar_unitary(rng, 4) for _ in range(3)]
    bad = 1.01 * gates[2]
    with pytest.raises(ShapeError, match="^layer 1: gate at site 2 is not unitary$"):
        network.BrickworkCircuit(4, (((0, gates[0]), (2, gates[1])), ((2, bad),)))
    with pytest.raises(ShapeError, match="^gate is not unitary$"):
        network.compile_gate(bad)

    real_svd = network.svd

    def bent_svd(m):
        # Scale the leading singular value of the last gate only.
        x, s, yh = real_svd(m)
        s = s.copy()
        s.reshape(-1, s.shape[-1])[-1, 0] *= 1.5
        return x, s, yh

    monkeypatch.setattr(network, "svd", bent_svd)
    circ = network.BrickworkCircuit(4, (((0, gates[0]), (2, gates[1])), ((1, gates[2]),)))
    psi = mps.from_statevector(random_state(rng, 16), [2] * 4)
    # Only the causal cone's gates are split; Z on site 1 keeps all three.
    with pytest.raises(ShapeError, match="^layer 1, site 1: gate split failed to recombine$"):
        network.build_network(psi, circ, [(1, PAULI["Z"])])
    with pytest.raises(ShapeError, match="^gate split failed to recombine$"):
        network.compile_gate(gates[0])


def test_stacked_split_matches_compile_gate():
    rng = np.random.default_rng(41)
    gates = np.stack([haar_unitary(rng, 4), CNOT, np.eye(4, dtype=complex), SWAP])
    left, right, ranks = network.split_gates(gates)
    assert ranks.tolist() == [4, 2, 1, 4]
    for g, u in enumerate(gates):
        pair = network.compile_gate(u)
        assert pair.bond_dim == ranks[g]
        assert np.array_equal(pair.left_ops, left[g, :ranks[g]])
        assert np.array_equal(pair.right_ops, right[g, :ranks[g]])
        assert not left[g, ranks[g]:].any() and not right[g, ranks[g]:].any()


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
        network.build_network(mps.MPS(psi.tensors, psi.boundary), random_brickwork(rng, 2, 1), [])
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

    # A full-rank N=16 state: the plan's largest step holds 2^16 entries,
    # far above the lowered guard.
    rng = np.random.default_rng(99)
    net, *_ = random_net(rng, 16, 1, obs_sites=(8,))
    monkeypatch.setattr(limits, "CONTRACTION_GUARD", 2**10)
    # Planned first, so the peak measures the refusal, not a cold plan cache.
    contract._plan(net.layout.signature)
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


# --- causal cone


def _bench_dynamics_jobs():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DYNAMICS_JOBS


def whole_cone(psi, circ, obs):
    """The network of ``obs`` with the identity on every other site: its
    causal cone is the whole lattice, so no gate is pruned."""
    eye = np.broadcast_to(np.eye(2, dtype=complex), psi.batch_shape + (2, 2))
    full = network.build_network(psi, circ, [*obs.items(), *((s, eye) for s in
                                 range(circ.n_sites) if s not in obs)])
    assert full.gates_pruned == 0
    return full


def assert_pruned_matches_whole_cone(psi, circ, obs, partitions):
    pruned = network.build_network(psi, circ, obs.items())
    full = whole_cone(psi, circ, obs)
    assert pruned.gate_pairs.keys() <= full.gate_pairs.keys()
    assert len(pruned.gate_pairs) + pruned.gates_pruned == len(full.gate_pairs)
    assert np.max(np.abs(network.evaluate_exact(pruned) - network.evaluate_exact(full))) <= 1e-14
    # Node ids count only the contracted nodes, so each network has its own partitions.
    for part, whole in zip(partitions(pruned), partitions(full)):
        got = network.evaluate_regions(pruned, part)
        assert np.max(np.abs(got - network.evaluate_regions(full, whole))) <= 1e-14
    return pruned.gates_pruned


def test_pruned_values_match_the_whole_cone_on_verify_groups():
    # A stack observes the union of its cases' sites; each case alone
    # observes only the sites where it names a Pauli.
    pruned = 0
    for _, states, circ, obs in verify._network_groups(np.random.default_rng(2026), 100):
        psi = mps.from_statevector(states, [2] * circ.n_sites)
        assert_pruned_matches_whole_cone(psi, circ, obs, verify._partitions)
        for k, case in enumerate(psi.cases()):
            own = {s: op[k] for s, op in obs.items() if not np.array_equal(op[k], PAULI["I"])}
            pruned += assert_pruned_matches_whole_cone(case, case_of(circ, k), own,
                                                       verify._partitions)
    assert pruned > 0


def test_pruned_values_match_the_whole_cone_on_bench_dynamics_shapes():
    rng = np.random.default_rng(41)
    for _, n, layers, sites, splits in _bench_dynamics_jobs():
        states = np.stack([random_state(rng, 2**n) for _ in range(2)])
        circ = random_brickwork(rng, n, layers)
        ops = [PAULI[p] for p in "XYZ"]
        obs = {s: np.stack([ops[rng.integers(3)] for _ in range(2)]) for s in sites}
        split = list(splits or [n // 2])
        assert assert_pruned_matches_whole_cone(
            mps.from_statevector(states, [2] * n), circ, obs,
            lambda net: [network.column_partition(net, split)]) > 0


def test_cone_keeps_the_gates_that_reach_the_observed_sites(monkeypatch):
    svd = network.svd
    rng = np.random.default_rng(42)
    # Layer 0: gates on (0, 1), (2, 3), (4, 5); layer 1: (1, 2), (3, 4).
    circ = random_brickwork(rng, 6, 2)
    psi = mps.from_statevector(random_state(rng, 2**6), [2] * 6)
    for obs, kept in (({0: PAULI["Z"]}, {(0, 0)}),
                      ({2: PAULI["Z"]}, {(1, 1), (0, 0), (0, 2)}),
                      ({0: PAULI["Z"], 5: PAULI["X"]}, {(0, 0), (0, 4)}),
                      ({}, set())):
        split = []
        monkeypatch.setattr(network, "svd", lambda m: split.append(len(m)) or svd(m))
        net = network.build_network(psi, circ, obs.items())
        ranks = {(l, site) for l, layer in enumerate(net.layout.key[3]) for site, _ in layer}
        assert ranks == kept and net.gates_pruned == 5 - len(kept)
        # Only the kept gates are split.
        assert net.gate_pairs.keys() == kept and split == ([len(kept)] if kept else [])
        want = oracle_value(psi, circ, obs.items())
        assert abs(network.evaluate_exact(net) - want) < 1e-12


def test_pruned_z_mid_at_n32_is_accepted():
    # Unpruned, this network's plan peaks at 2^30 entries and is refused.
    rng = np.random.default_rng(5)
    psi = random_canonical_mps(rng, 32, 8)
    circ = random_brickwork(rng, 32, 8)
    net = network.build_network(psi, circ, [(16, PAULI["Z"])])
    assert net.gates_pruned == 124 - 36
    value = network.evaluate_exact(net)
    assert abs(value.imag) < 1e-12 and abs(value) <= 1 + 1e-12


def assert_cone_only(net):
    """Each kept gate is two (rank, d, d) halves per side, joined by a bond
    wire of dim > 1 (every gate here has rank 4): no identity node of a
    pruned gate and no unit wire on a gate row."""
    lay = net.layout
    gates = [shape for kind, (shape, _) in zip(lay.kinds, lay.signature) if kind.startswith("gate")]
    assert len(gates) == 4 * len(net.gate_pairs)
    assert all(len(shape) == 3 and shape[0] > 1 and shape[1:] == (net.d, net.d) for shape in gates)


def test_cone_only_graphs_plan_few_steps():
    # The bench dynamics shapes planned 1084 steps while pruned gates kept
    # identity nodes and gate rows kept unit ring wires.
    rng = np.random.default_rng(41)
    steps = 0
    for evaluator, n, layers, sites, splits in _bench_dynamics_jobs():
        psi = mps.from_statevector(random_state(rng, 2**n), [2] * n)
        net = network.build_network(psi, random_brickwork(rng, n, layers),
                                    [(s, PAULI["Z"]) for s in sites])
        assert_cone_only(net)
        if evaluator == "exact":
            steps += len(contract._plan(net.layout.signature).steps)
        else:
            part = network.column_partition(net, list(splits or [n // 2]))
            plans, join = network._region_plans(net.layout.key, part.regions)
            steps += sum(len(p.steps) for p in plans if p) + len(join.steps)
    assert steps <= 700
    for _, states, circ, obs in verify._network_groups(np.random.default_rng(2026), 100):
        assert_cone_only(network.build_network(
            mps.from_statevector(states, [2] * circ.n_sites), circ, obs.items()))


# (Z sites, N): (priced MACs, peak entries) of the greedy plans on chi = 8,
# L = 8 networks when pruned gates kept identity nodes and the greedy scored
# a pair by result size minus input sizes.
CHI8_L8_PLANS = {
    ("mid", 16): (457919656, 2**21), ("mid", 20): (669954352, 2**20),
    ("mid", 24): (392949232, 2**19), ("mid", 32): (392978608, 2**19),
    ("spread", 16): (87212872, 2**19), ("spread", 20): (2494733832, 2**22),
    ("spread", 24): (95394920, 2**18), ("spread", 32): (670322408, 2**20),
}


def test_chi8_l8_plans_price_no_more_than_before():
    for (where, n), (macs, peak) in CHI8_L8_PLANS.items():
        rng = np.random.default_rng(5)
        psi = random_canonical_mps(rng, n, 8)
        circ = random_brickwork(rng, n, 8)
        sites = [n // 2] if where == "mid" else [0, n // 2, n - 1]
        net = network.build_network(psi, circ, [(s, PAULI["Z"]) for s in sites])
        plan = contract._make_plan(net.layout.signature)
        priced = sum(math.prod(out_shape) * inner for *_, inner, out_shape, _ in plan.steps)
        assert priced <= macs and plan.peak <= peak, (where, n, priced, plan.peak)


# --- region evaluation


def test_regions_match_exact():
    rng = np.random.default_rng(6)
    net, psi, circ, obs = random_net(rng, 4, 2, obs_sites=(1, 2))
    exact = network.evaluate_exact(net)
    whole = network.NetworkPartition((tuple(range(len(net.tensors))),))
    for part in (
        whole,
        network.column_partition(net, [2]),
        network.column_partition(net, [1, 3]),
        network.singleton_partition(net),
    ):
        assert abs(network.evaluate_regions(net, part) - exact) < 1e-10


def test_regions_cli_default_split_wide_network():
    # The CLI's default split [N/2] at N=10, L=3 once built a 2^26-entry
    # intermediate and refused.
    rng = np.random.default_rng(31)
    net, psi, circ, obs = random_net(rng, 10, 3, obs_sites=(5,))
    value = network.evaluate_regions(net, network.column_partition(net, [5]))
    assert abs(value - oracle_value(psi, circ, obs)) < 1e-8


def test_regions_refuse_from_shapes_before_any_region_runs():
    import tracemalloc

    # Region 0 (columns 0-4) has a 2^18-entry plan that fits the guard;
    # region 1 refuses at 2^30.  Both are planned before either runs.
    rng = np.random.default_rng(31)
    net, *_ = random_net(rng, 10, 3, obs_sites=(5,))
    part = network.column_partition(net, [5, 6])
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=f"region contraction has {2**30} entries"):
            network.evaluate_regions(net, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def case_of(circuit, k):
    """Case ``k`` of a circuit stack as one circuit."""
    return network.BrickworkCircuit(circuit.n_sites, tuple(
        tuple((site, gate[k]) for site, gate in layer) for layer in circuit.layers))


def stacked_and_single(psi, circ, obs):
    """A stacked network and the per-case networks of its cases; ``obs``
    maps sites to (B, d, d) stacks."""
    stack = network.build_network(psi, circ, obs.items())
    singles = [network.build_network(p, case_of(circ, k), [(s, op[k]) for s, op in obs.items()])
               for k, p in enumerate(psi.cases())]
    return stack, singles


def _verify_draw_stacks():
    """The network suite's draw: one stacked network and its per-case
    networks per (N, L) group."""
    for _, states, circ, obs in verify._network_groups(np.random.default_rng(2026), 100):
        yield stacked_and_single(mps.from_statevector(states, [2] * circ.n_sites), circ, obs)


def assert_stack_matches_singles(stack, singles, partitions):
    got = network.evaluate_exact(stack)
    assert got.shape == (len(singles),)
    assert np.max(np.abs(got - [network.evaluate_exact(x) for x in singles])) <= 1e-14
    for part in partitions:
        values = network.evaluate_regions(stack, part)
        each = [network.evaluate_regions(x, part) for x in singles]
        assert values.shape == (len(singles),) and np.max(np.abs(values - each)) <= 1e-14


def test_stacked_evaluation_matches_unstacked_on_verify_groups():
    shapes = set()
    for stack, singles in _verify_draw_stacks():
        shapes.add((stack.circuit.n_sites, stack.circuit.n_layers))
        assert {x.layout.key for x in singles} == {stack.layout.key}
        assert_stack_matches_singles(stack, singles, verify._partitions(stack))
    assert len(shapes) == 15


def test_stack_mixing_gate_ranks_at_one_position():
    # Rank 1 (X (x) Z), rank 2 (CNOT) and rank 4 (Haar) gates share one
    # position; the stack's key takes rank 4 there.
    rng = np.random.default_rng(39)
    haar = haar_unitary(rng, 4)
    first = np.stack([np.kron(PAULI["X"], PAULI["Z"]), CNOT, haar])
    second = np.stack([haar_unitary(rng, 4) for _ in range(3)])
    circ = network.BrickworkCircuit(3, (((0, first),), ((1, second),)))
    states = np.stack([random_state(rng, 8) for _ in range(3)])
    obs = {1: np.stack([PAULI["Z"], PAULI["X"], PAULI["Y"]])}
    stack, singles = stacked_and_single(mps.from_statevector(states, [2] * 3), circ, obs)
    assert [x.gate_pairs[(0, 0)].bond_dim for x in singles] == [1, 2, 4]
    assert stack.gate_pairs[(0, 0)].bond_dim == 4
    assert_stack_matches_singles(stack, singles, verify._partitions(stack))
    want = oracle.circuit_expectation(mps.from_statevector(states, [2] * 3), circ, obs)
    assert np.max(np.abs(network.evaluate_exact(stack) - want)) < 1e-12


def test_batch_of_one_equals_no_batch():
    rng = np.random.default_rng(36)
    net, psi, circ, obs = random_net(rng, 5, 3, obs_sites=(2,))
    one = network.build_network(
        mps.MPS(tuple(t[None] for t in psi.tensors), psi.boundary[None], canonical="left"),
        network.BrickworkCircuit(5, tuple(tuple((s, g[None]) for s, g in layer)
                                          for layer in circ.layers)),
        [(s, op[None]) for s, op in obs],
    )
    assert one.batch_shape == (1,) and one.layout.key == net.layout.key
    assert network.evaluate_exact(one)[0] == network.evaluate_exact(net)
    for part in verify._partitions(net):
        assert network.evaluate_regions(one, part)[0] == network.evaluate_regions(net, part)


def test_stack_inputs_must_share_one_batch_shape():
    rng = np.random.default_rng(37)
    states = np.stack([random_state(rng, 16) for _ in range(3)])
    psi = mps.from_statevector(states, [2] * 4)
    gates = np.stack([haar_unitary(rng, 4) for _ in range(2)])
    with pytest.raises(ShapeError, match="circuit stack of \\(2,\\) for states of \\(3,\\)"):
        network.build_network(psi, network.BrickworkCircuit(4, (((0, gates),),)), [])
    with pytest.raises(ShapeError, match="observable at site 1 has shape \\(2, 2, 2\\)"):
        network.build_network(psi, random_brickwork(rng, 4, 1), [(1, gates[:, :2, :2])])
    with pytest.raises(ShapeError, match="gate shape \\(3, 4, 4\\) != \\(2, 4, 4\\)"):
        network.BrickworkCircuit(4, (((0, gates), (2, np.stack([gates[0]] * 3))),))
    # One circuit and one observable serve every state of the stack.
    circ = random_brickwork(rng, 4, 2)
    stack = network.build_network(psi, circ, [(1, PAULI["Z"])])
    want = [oracle_value(p, circ, [(1, PAULI["Z"])]) for p in psi.cases()]
    assert np.max(np.abs(network.evaluate_exact(stack) - want)) < 1e-12


def test_circuit_stack_names_the_case_and_gate(monkeypatch):
    rng = np.random.default_rng(43)
    gates = np.stack([[haar_unitary(rng, 4) for _ in range(3)] for _ in range(4)])
    bad = gates.copy()
    bad[2, 1] *= 1.01

    def layers(g):
        return (((0, g[:, 0]), (2, g[:, 1])), ((1, g[:, 2]),))

    with pytest.raises(ShapeError, match="^case 2: layer 0: gate at site 2 is not unitary$"):
        network.BrickworkCircuit(4, layers(bad))
    circ = network.BrickworkCircuit(4, layers(gates))
    with pytest.raises(ShapeError, match="one circuit"):
        circ.to_dict()

    real_svd = network.svd

    def bent_svd(m):
        # Scale the leading singular value of the last gate of the last case.
        x, s, yh = real_svd(m)
        s = s.copy()
        s.reshape(-1, s.shape[-1])[-1, 0] *= 1.5
        return x, s, yh

    monkeypatch.setattr(network, "svd", bent_svd)
    psi = mps.from_statevector(np.stack([random_state(rng, 16) for _ in range(4)]), [2] * 4)
    with pytest.raises(ShapeError, match="^case 3: layer 1, site 1: gate split failed"):
        network.build_network(psi, circ, [(1, PAULI["Z"])])  # a cone of every gate


def test_chunked_stack_equals_one_chunk(monkeypatch):
    stack, _ = next(_verify_draw_stacks())
    part = verify._partitions(stack)[0]
    whole = network.evaluate_exact(stack), network.evaluate_regions(stack, part)
    cases = stack.batch_shape[0]
    peak = contract._plan(stack.layout.signature).peak
    monkeypatch.setattr(limits, "STACK_BUDGET", peak * (cases // 3))
    assert len(network._chunks(stack, peak)) >= 3
    assert np.array_equal(network.evaluate_exact(stack), whole[0])
    assert np.array_equal(network.evaluate_regions(stack, part), whole[1])


def test_sampling_refuses_a_stack():
    rng = np.random.default_rng(44)
    psi = mps.from_statevector(np.stack([random_state(rng, 4)] * 2), [2, 2])
    stack = network.build_network(psi, random_brickwork(rng, 2, 1), [(0, PAULI["Z"])])
    with pytest.raises(ShapeError, match="evaluate_sampled takes a single state"):
        network.evaluate_sampled(stack, shots=100, seed=0)
    with pytest.raises(ShapeError, match="branch_distribution takes a single state"):
        network.branch_distribution(stack)


def test_guard_refuses_a_stack_from_batch_times_peak(monkeypatch):
    import tracemalloc

    rng = np.random.default_rng(38)
    states = np.stack([random_state(rng, 2**6) for _ in range(8)])
    gates = np.stack([[haar_unitary(rng, 4) for _ in range(3)] for _ in range(8)])
    circ = network.BrickworkCircuit(6, (((0, gates[:, 0]), (2, gates[:, 1])), ((1, gates[:, 2]),)))
    # Z on site 2: its causal cone keeps all three gates.
    stack = network.build_network(mps.from_statevector(states, [2] * 6), circ, [(2, PAULI["Z"])])
    single = network.build_network(mps.from_statevector(states[0], [2] * 6), case_of(circ, 0),
                                   [(2, PAULI["Z"])])
    assert stack.gates_pruned == 0
    peak = contract._plan(stack.layout.signature).peak
    monkeypatch.setattr(limits, "STACK_BUDGET", 8 * peak)
    monkeypatch.setattr(limits, "CONTRACTION_GUARD", 2 * peak)
    network.evaluate_exact(single)  # one network fits the guard
    stacked_bytes = sum(t.nbytes for t in stack.tensors)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=f"exact contraction has {8 * peak} entries"):
            network.evaluate_exact(stack)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced < stacked_bytes / 4


def test_contraction_guard_refuses_before_allocating():
    import tracemalloc

    rng = np.random.default_rng(32)
    a = rng.normal(size=(4096, 2)) + 0j
    b = rng.normal(size=(2, 8192)) + 0j
    refused_bytes = 4096 * 8192 * 16
    assert 4096 * 8192 > limits.CONTRACTION_GUARD
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="refusing"):
            contract._contract_group([(a, ["x", "s"]), (b, ["s", "y"])], "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < refused_bytes / 100


def test_guard_refuses_before_the_first_step(monkeypatch):
    import tracemalloc

    # The first step (a with b over "s") has a 2^16-entry result inside the
    # guard; the outer product with c after it has 2^22 entries and is refused.
    rng = np.random.default_rng(33)
    a = rng.normal(size=(256, 2)) + 0j
    b = rng.normal(size=(2, 256)) + 0j
    c = rng.normal(size=64) + 0j
    first_step_bytes = 256 * 256 * 16
    monkeypatch.setattr(limits, "CONTRACTION_GUARD", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=f"has {2**22} entries"):
            contract._contract_group([(a, ["x", "s"]), (b, ["s", "y"]), (c, ["z"])], "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < first_step_bytes


def test_plan_is_reused_for_networks_of_one_shape():
    rng = np.random.default_rng(34)
    contract._plan.cache_clear()
    for _ in range(2):
        net, psi, circ, obs = random_net(rng, 5, 3, obs_sites=(2,))
        assert abs(network.evaluate_exact(net) - oracle_value(psi, circ, obs)) < 1e-8
    info = contract._plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cached_plan_refuses_when_guard_is_lowered(monkeypatch):
    rng = np.random.default_rng(35)
    net, *_ = random_net(rng, 6, 2)
    network.evaluate_exact(net)
    monkeypatch.setattr(limits, "CONTRACTION_GUARD", 2**4)
    with pytest.raises(SizeGuardError, match="exact contraction"):
        network.evaluate_exact(net)


def test_contract_group_rejects_mismatched_wire():
    # Raised by the planner; exceptions are not cached, so a repeat raises too.
    for _ in range(2):
        with pytest.raises(ShapeError, match="dims 2 and 3"):
            contract._contract_group([(np.ones(2), ["w"]), (np.ones(3), ["w"])], "test")
    # Two legs of one tensor are traced; their sizes are checked first.
    with pytest.raises(ShapeError, match="dims 2 and 3"):
        contract._contract_group([(np.ones((2, 3)), ["w", "w"]), (np.ones(4), ["x"])], "test")
    # At most one label per axis; the axes before the labels are batch axes,
    # and those of all items must broadcast together.
    with pytest.raises(ShapeError, match="2 leg labels for a 1-axis tensor"):
        contract._contract_group([(np.ones(2), ["w", "x"])], "test")
    with pytest.raises(ShapeError, match="batch axes .* do not broadcast"):
        contract._contract_group([(np.ones((2, 4)), ["w"]), (np.ones((3, 4)), ["w"])], "test")


def test_steps_carry_no_unit_axes():
    # On a chi = 1 state, 100 of the network's 856 legs (its bonds and
    # boundary wires) have dim 1.  The reference contracts the network with
    # its unit legs squeezed out of the signature, which the greedy pairs
    # differently.
    rng = np.random.default_rng(5)
    psi = random_canonical_mps(rng, 24, 1)
    circ = random_brickwork(rng, 24, 10)
    net = network.build_network(psi, circ, [(12, PAULI["Z"])])
    got = network.evaluate_exact(net)
    squeezed = [
        (t.reshape([d for d in t.shape if d > 1]), [lab for lab, d in zip(legs, t.shape) if d > 1])
        for t, legs in zip(net.tensors, net.layout.legs)
    ]
    want = contract._contract_group(squeezed, "reference").reshape(())
    assert abs(got - want) < 1e-10


def random_graph(rng, batch):
    """(items, einsum operands) of a random graph of 3-5 tensors: each label
    joins two tensors or stays open, some legs have dim 1, and every array is
    a transposed view in a random leg order."""
    n_items = int(rng.integers(3, 6))
    labels = [[] for _ in range(n_items)]
    for lab in range(int(rng.integers(4, 9))):
        ends = rng.choice(n_items, size=int(rng.integers(1, 3)), replace=False)
        for i in ends:
            labels[i].append(lab)
    dims = rng.choice([1, 2, 3], size=9, p=[0.2, 0.4, 0.4])
    items, operands = [], []
    for labs in labels:
        order = list(rng.permutation(len(labs)))
        base = per_case_gaussian(rng, batch + tuple(int(dims[lab]) for lab in labs))
        nb = len(batch)
        view = base.transpose((*range(nb), *[k + nb for k in order]))
        perm_labs = [labs[k] for k in order]
        items.append((view, perm_labs))
        operands += [view, [..., *perm_labs] if batch else perm_labs]
    return items, operands


@pytest.mark.parametrize("batch", [(), (3,)])
def test_execute_matches_einsum_on_permuted_leg_orders(batch):
    rng = np.random.default_rng(43)
    for _ in range(40):
        items, operands = random_graph(rng, batch)
        plan = contract._plan(tuple((t.shape[len(batch):], tuple(l)) for t, l in items))
        want = np.einsum(*operands, [..., *plan.labels] if batch else list(plan.labels))
        got = contract._contract_group(items, "test")
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0) <= 1e-12 * max(1, np.max(np.abs(want)))
        # The core's own result, in memory order, before the transpose.
        raw = contract._execute(plan, [t for t, _ in items], batch)
        assert raw.shape == batch + plan.mem_shape
        back = raw.transpose((*range(len(batch)), *[k + len(batch) for k in plan.perm]))
        assert np.array_equal(back, got)


def test_default_split_region_join_copies_at_most_one_operand():
    # N=10, L=3, the CLI's default split: two 2^18-entry region tensors.
    rng = np.random.default_rng(31)
    net, psi, circ, obs = random_net(rng, 10, 3, obs_sites=(5,))
    part = network.column_partition(net, [5])
    plans, join = network._region_plans(net.layout.key, part.regions)
    assert [p.peak for p in plans] == [2**18, 2**18]
    copied = [op for step in join.steps for op in step[2:4] if op[0] is not None]
    assert len(copied) <= 1
    value = network.evaluate_regions(net, part)
    assert abs(value - oracle_value(psi, circ, obs)) < 1e-8


def test_region_partition_validation():
    rng = np.random.default_rng(7)
    net, *_ = random_net(rng, 2, 1)
    with pytest.raises(ShapeError, match="cover"):
        network.NetworkPartition(((0, 1),)).validate(net)
    ids = tuple(range(len(net.tensors)))
    with pytest.raises(ShapeError, match="two regions"):
        network.NetworkPartition((ids, (ids[0],))).validate(net)


# --- heralded sampling


def test_branch_distribution_is_consistent():
    rng = np.random.default_rng(8)
    # N=4, L=1 (W=9) and N=3, L=2 (W=8) once exceeded the contraction guard.
    for n, l in ((2, 1), (4, 1), (3, 2)):
        net, psi, circ, obs = random_net(rng, n, l)
        probs, lam, clipped = network.branch_distribution(net, "corrected")
        assert probs.shape == (2, 2)
        assert 0 < probs.sum() <= 1 + 1e-12
        assert 0 <= clipped <= 1e-12
        # Conditioning on the all-Bell branch reproduces the exact value.
        cond = probs[0] / probs[0].sum()
        value = float(np.dot(cond, lam))
        assert abs(value - network.evaluate_exact(net).real) < 1e-10
        assert np.array_equal(network.branch_distribution(net)[0], probs[:1])
    res = network.evaluate_sampled(net, shots=10**4, seed=0, strategy="corrected")
    assert np.isfinite(res.estimate)
    assert res.clipped_mass == clipped


def _ket_graph(net: ChannelNetwork):
    """Ket-side preparation graph for the heralded protocol.

    Returns (nodes, sampled, finals): nodes as (tensor, leg labels) pairs,
    sampled wires as (label, dim, orientation) with identity passthroughs
    spliced out, and finals mapping each site to its dangling physical label.
    The two endpoints of a sampled wire carry the labels (label, 0) and
    (label, 1); an unsampled (dimension-1) wire carries one label on both.
    """
    n, d = net.circuit.n_sites, net.d
    labels = iter(range(10**6))
    sampled = []

    def wire(dim, orientation):
        lab = next(labels)
        if dim == 1:
            return lab, lab
        sampled.append((lab, dim, orientation))
        return (lab, 0), (lab, 1)

    legs = [[None] * 3 for _ in range(n)]  # state axes (phys, chi_l, chi_r)
    for c in range(n - 1):
        legs[c][2], legs[c + 1][1] = wire(net.psi.tensors[c].shape[2], "h")
    # Dangling dimension-1 edge bonds get trivial caps.
    caps = []
    for c, axis in ((0, 1), (n - 1, 2)):
        legs[c][axis] = next(labels)
        caps.append((np.ones(1, dtype=complex), [legs[c][axis]]))
    # Vertical chains with real gate halves only; each chain end is the
    # first endpoint of the next vertical wire.
    chain = {}
    for c in range(n):
        legs[c][0] = chain[c] = (next(labels), 0)
    nodes = list(zip(net.psi.tensors, legs)) + caps
    for layer in net.circuit.layers:
        for site, gate in layer:  # every gate, outside the cone too
            pair = network.compile_gate(gate)
            bond = wire(pair.bond_dim, "h")
            for side, ops in enumerate((pair.left_ops, pair.right_ops)):
                c = site + side
                lab = chain[c][0]
                sampled.append((lab, d, "v"))
                chain[c] = (next(labels), 0)
                nodes.append((np.stack(ops), [bond[side], chain[c], (lab, 1)]))
    return nodes, sampled, chain


def dense_branch_table(net):
    """Branch probabilities from the product vector of the node tensors with
    every wire endpoint open: each wire's projector Omega = |w><w| (bit 0) or
    1 - Omega (bit 1) acts on its two endpoints, then the observable
    eigenprojectors on the final legs."""
    import itertools

    nodes, sampled, finals = _ket_graph(net)
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
    assert_cells_match_dense(net, n_wires)


def test_branch_table_runs_the_gates_outside_the_cone():
    # N=3, L=1, Z on site 2: the one gate, on (0, 1), is outside the cone, so
    # the network does not split it, but the protocol still runs it.
    net, *_ = random_net(np.random.default_rng(46), 3, 1, obs_sites=(2,))
    assert net.gates_pruned == 1 and not net.gate_pairs
    assert_cells_match_dense(net, 5)


def assert_cells_match_dense(net, n_wires):
    dense = dense_branch_table(net)
    sampled = _ket_graph(net)[1]
    assert len(sampled) == n_wires
    vertical = sum(1 << k for k, (_, _, orient) in enumerate(sampled) if orient == "v")
    failed = [row for row in range(1, len(dense)) if not row & vertical]
    postselect, _, _ = network.branch_distribution(net, "postselect")
    corrected, _, _ = network.branch_distribution(net, "corrected")
    assert np.max(np.abs(postselect[0] - dense[0])) < 1e-12
    assert np.max(np.abs(corrected[0] - dense[0])) < 1e-12
    assert np.max(np.abs(corrected[1] - dense[failed].sum(axis=0))) < 1e-12


def test_sampling_deterministic_network():
    psi = mps.from_statevector([1, 0, 0, 0], [2, 2])  # |00>
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
    assert len(_ket_graph(net)[1]) == 1
    probs, _, _ = network.branch_distribution(net)
    assert abs(probs[0].sum() - 0.25) < 1e-10
    res = network.evaluate_sampled(net, shots=10**4, seed=3)
    assert abs(res.acceptance_rate - 0.25) < 0.02


def test_sampling_zero_acceptance_raises():
    rng = np.random.default_rng(10)
    net, *_ = random_net(rng, 3, 1)
    with pytest.raises(SamplingError, match="acceptance"):
        network.evaluate_sampled(net, shots=2, seed=0)
    # One accepted sample expected (a Bell pair accepts 1/4), none drawn.
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    psi = mps.from_statevector(bell, [2, 2])
    net = network.build_network(psi, network.BrickworkCircuit(2, ()), [])
    with pytest.raises(SamplingError, match="no samples"):
        network.evaluate_sampled(net, shots=4, seed=2)


def test_sampling_corrected_strategy():
    rng = np.random.default_rng(11)
    net, psi, circ, obs = random_net(rng, 2, 1)
    exact = network.evaluate_exact(net).real
    res = network.evaluate_sampled(net, shots=10**5, seed=5, strategy="corrected")
    assert res.strategy == "corrected"
    assert abs(res.estimate - exact) < 5 * res.stderr + 1e-12


def test_sampling_corrected_stderr_is_calibrated():
    # A bootstrap stderr misses this instance by 14 sigma.
    net, *_ = random_net(np.random.default_rng(1009), 4, 2)
    exact = network.evaluate_exact(net).real
    res = network.evaluate_sampled(net, shots=10**6, seed=9, strategy="corrected")
    assert abs(res.estimate - exact) < 5 * res.stderr


@pytest.mark.parametrize("strategy", ["postselect", "corrected"])
def test_sampling_expected_diagnostics(strategy):
    net, *_ = random_net(np.random.default_rng(1000), 3, 1)
    cells = network.branch_distribution(net, strategy)
    probs = cells[0]
    results = [network.evaluate_sampled(net, 10**6, seed, strategy) for seed in range(10)]
    # One set of cells serves every seed: the same results, draw for draw.
    assert results == [network.sample_cells(*cells, 10**6, seed, strategy) for seed in range(10)]
    assert {r.expected_accepted for r in results} == {10**6 * probs[-1].sum()}
    ratio = np.median([r.stderr for r in results]) / results[0].expected_stderr
    assert 0.5 < ratio < 2


def test_sampling_refuses_before_drawing(monkeypatch):
    # At N=8, L=2 the corrected row holds 3.7e-9 of the mass: 10^6 shots
    # expect no sample there.
    net, *_ = random_net(np.random.default_rng(19), 8, 2)

    def no_draws(seed):
        raise AssertionError("shots were drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(SamplingError, match="refusing before sampling"):
        network.evaluate_sampled(net, shots=10**6, seed=0, strategy="corrected")


def test_branch_distribution_guard_refuses_from_shapes(monkeypatch):
    import re
    import tracemalloc

    # Full-rank N=14 state, no gates: the row-0 plan peaks at the middle
    # bond's chi^2 = 2^14 entries.
    psi = mps.from_statevector(random_state(np.random.default_rng(20), 2**14), [2] * 14)
    net = network.build_network(psi, network.BrickworkCircuit(14, ()), [(6, PAULI["Z"])])
    monkeypatch.setattr(limits, "CONTRACTION_GUARD", 2**12)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="branch distribution") as exc:
            network.evaluate_sampled(net, shots=10**4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = int(re.search(r"has (\d+) entries", str(exc.value)).group(1))
    assert largest == 2**14
    assert peak < largest * 16


@pytest.mark.parametrize("strategy", ["postselect", "corrected"])
def test_branch_distribution_full_rank_without_doubling(strategy):
    # A doubled (ket x bra) graph of this network would hold 3.6e7 entries.
    net, *_ = random_net(np.random.default_rng(21), 12, 4, obs_sites=(5, 6))
    probs, lam, clipped = network.branch_distribution(net, strategy)
    assert probs.shape == ((1, 4) if strategy == "postselect" else (2, 4))
    assert 0 < probs.sum() <= 1 + 1e-12 and clipped <= 1e-12
    cond = probs[0] / probs[0].sum()
    assert abs(float(np.dot(cond, lam)) - network.evaluate_exact(net).real) < 1e-10


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
    psi = mps.from_statevector(np.eye(16)[0], [2] * 4)  # |0000>
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


@pytest.mark.parametrize("n, chi", [(32, 4), (64, 8), (16, 32)])
@pytest.mark.parametrize("mode", ["postselect", "corrected"])
def test_oqt_plan_long_chains(n, chi, mode):
    # At N=64, chi=8 the product of the join dimensions, 8^31, wraps to 0 in
    # int64, so a global weight computed with np.prod fails here.  At N=16,
    # chi=32 doubled (ket x bra) site tensors would hold 4.3e7 entries.
    psi = random_canonical_mps(np.random.default_rng(n), n, chi)
    plan = network.oqt_prepare_plan(psi)
    assert max(plan.join_dims) == chi
    for obs in ([], [(1, PAULI["X"]), (n - 2, PAULI["Z"])]):
        want = psi.expectation_product(dict(obs))
        got = network.simulate_oqt_plan(plan, obs, mode=mode)
        assert abs(got - want) < 1e-10


def test_oqt_plan_guard_refuses_from_shapes(monkeypatch):
    import re
    import tracemalloc

    # At chi = 16 each join tensor holds 2 chi^4 = 2^17 entries and the plan
    # peaks at chi^4.  With the guard below both, the joins are refused from
    # their dims, before any join tensor or bra copy is built.
    psi = random_canonical_mps(np.random.default_rng(36), 32, 16)
    plan = network.oqt_prepare_plan(psi)
    monkeypatch.setattr(limits, "CONTRACTION_GUARD", 2**15)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=r"oqt preparation plan \(corrected\)") as err:
            network.simulate_oqt_plan(plan, [(3, PAULI["Z"])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    refused_bytes = int(re.search(r"(\d+) entries", str(err.value))[1]) * 16
    assert peak < refused_bytes / 10


def test_oqt_plan_unknown_mode():
    plan = network.oqt_prepare_plan(mps.from_statevector([1, 0, 0, 0], [2, 2]))
    with pytest.raises(ShapeError, match="unknown oqt simulation mode"):
        network.simulate_oqt_plan(plan, [], mode="both")


# --- serialization


def test_network_groups_draw_in_per_case_order():
    # The per-case loop the network suite ran before it grouped its cases.
    rng = np.random.default_rng(2026)
    want = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        layers = int(rng.integers(1, 4))
        state = random_state(rng, 2**n)
        circ = random_brickwork(rng, n, layers)
        n_obs = int(rng.integers(1, min(n, 2) + 1))
        sites = rng.choice(n, size=n_obs, replace=False)
        obs = {int(s): PAULI[("X", "Y", "Z")[int(rng.integers(3))]] for s in sites}
        want.append((state, circ, obs))
    grouped = np.random.default_rng(2026)
    seen = []
    for cases, states, circuit, ops in verify._network_groups(grouped, 100):
        for k, case in enumerate(cases):
            state, circ, obs = want[case]
            assert np.array_equal(states[k], state)
            assert circuit.n_sites == circ.n_sites
            assert [[s for s, _ in layer] for layer in circuit.layers] == [
                [s for s, _ in layer] for layer in circ.layers
            ]
            assert np.array_equal(circuit.gates[k], circ.gates)
            assert set(obs) <= set(ops)
            for s, op in ops.items():
                assert np.array_equal(op[k], obs.get(s, PAULI["I"]))
            seen.append(case)
    assert sorted(seen) == list(range(100))
    assert grouped.random() == rng.random()  # the suite's later checks draw the same


def test_circuit_json_roundtrip():
    rng = np.random.default_rng(16)
    circ = random_brickwork(rng, 4, 2)
    back = network.BrickworkCircuit.from_dict(circ.to_dict())
    assert back.n_sites == 4
    for la, lb in zip(circ.layers, back.layers):
        for (sa, ga), (sb, gb) in zip(la, lb):
            assert sa == sb
            assert np.max(np.abs(ga - gb)) < 1e-12


def test_obs_eigenbasis_phase_convention():
    vals, vecs = network.obs_eigenbasis(PAULI["Y"])
    assert np.allclose(vals, [-1, 1])
    for k in range(2):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)[0]
        assert abs(col[nz].imag) < 1e-12 and col[nz].real > 0
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.allclose(rebuilt, PAULI["Y"])


def test_network_draws_match_per_case_loop():
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    for _ in range(30):
        key, (state, z, codes) = verify._network_draw(rng)
        n, layers = int(ref.integers(2, 7)), int(ref.integers(1, 4))
        v = per_case_gaussian(ref, (2**n,))
        gates = [per_case_gaussian(ref, (4, 4)) for _ in verify._gate_sites(n, layers)]
        assert key == (n, layers)
        assert np.array_equal(state, v / np.linalg.norm(v))
        assert np.array_equal(z, np.stack(gates))
        assert np.array_equal(codes, verify._pauli_codes(ref, n, 2))
