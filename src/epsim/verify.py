"""Named property suites with fixed seeds and reported residuals.

Each suite re-derives its expectations from the brute-force oracle and
returns one :class:`CheckResult` per property; the CLI ``verify`` command
prints them, and the acceptance tests assert them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import algorithms as alg
from . import channels as ch
from . import hamiltonians as ham
from . import mps as mpsmod
from . import network as net
from . import oracle
from .errors import ShapeError
from .linalg import PAULI, dagger, embed_operator, partial_trace
from .rand import (
    density_from_gaussian,
    draw_groups,
    gaussian,
    gaussians,
    haar_unitary,
    kraus_count,
    kraus_groups,
    random_canonical_mps,
    random_density,
    random_duality_groups,
    random_state,
    unitary_from_gaussian,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    metric: float
    threshold: float
    passed: bool
    seconds: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (
            f"[{status}] {self.suite}/{self.name}: "
            f"{self.metric:.3e} <= {self.threshold:.1e} "
            f"[{self.seconds:.2f}s]{extra}"
        )


def _check(suite, name, metric, threshold, seconds, note="", ok=None):
    """One CheckResult, timed by ``seconds`` alone.  Where two checks share
    one loop, the second owns the work only it needs and the first all the
    rest, drawing included, so no second is counted twice."""
    passed = bool(metric <= threshold) if ok is None else bool(ok)
    return CheckResult(suite, name, float(metric), float(threshold), passed, seconds, note)


def suite_duality() -> list:
    rng = np.random.default_rng(2024)
    out = []

    start = time.perf_counter()
    roundtrip_s = 0.0
    worst_readout = 0.0
    worst_roundtrip = 0.0
    for cases, kraus, states in random_duality_groups(rng, 100, 4, 10):
        readout, omega, direct = ch.readout_residuals(kraus, states, cases)
        worst_readout = max(worst_readout, float(readout.max()))
        t0 = time.perf_counter()
        roundtrip = ch.roundtrip_residuals(omega, direct, states, cases)
        worst_roundtrip = max(worst_roundtrip, float(roundtrip.max()))
        roundtrip_s += time.perf_counter() - t0
    out.append(_check("duality", "choi-readout-identity", worst_readout, 1e-12,
                      time.perf_counter() - start - roundtrip_s, note="100 channels x 10 states"))
    out.append(_check("duality", "choi-roundtrip-action", worst_roundtrip, 1e-10, roundtrip_s))

    t0 = time.perf_counter()
    worst = 0.0
    for cases, kraus, rho, obs in _measurement_groups(rng, 50):
        ch.kraus_tp_check(kraus, cases)
        probs, _, values = ch.measured_branches(kraus, rho, obs)
        target = np.trace(obs @ ch.kraus_apply(kraus, rho), axis1=-2, axis2=-1)
        worst = max(worst, float(np.max(np.abs(np.sum(probs * values, axis=-1) - target))))
    out.append(_check("duality", "binary-measurement-reconstruction", worst, 1e-10,
                      time.perf_counter() - t0,
                      note="50 (channel, state, observable) triples"))

    # The Stinespring check owns drawing and building the channels; the
    # purified-Choi check owns the purifications and their ancilla traces.
    start = time.perf_counter()
    choi_s = 0.0
    worst_dilation = 0.0
    worst_choi = 0.0
    for _, kraus, states in random_duality_groups(np.random.default_rng(2030), 6, 3, 2):
        for k, rhos in zip(kraus, states):
            # Dropping the exactly-zero operators drops the group's padding.  An
            # own operator that is exactly zero would go too; the rest is still
            # a Kraus set of the same channel, which is all these checks need.
            phi = ch.Channel(tuple(k[np.any(k != 0, axis=(-2, -1))]))
            u, anc = phi.stinespring()
            ancilla = np.zeros((len(u) // phi.in_dim,) * 2)
            ancilla[0, 0] = 1.0  # the input enters as rho (x) |0><0|
            unitarity = float(np.max(np.abs(dagger(u) @ u - np.eye(len(u)))))
            worst_dilation = max(worst_dilation, unitarity)
            for rho in rhos:
                out_rho = u @ np.kron(rho, ancilla) @ dagger(u)
                traced = partial_trace(out_rho, [phi.out_dim, anc], keep=[0])
                worst_dilation = max(worst_dilation, float(np.max(np.abs(traced - phi.apply(rho)))))
            t0 = time.perf_counter()
            choi = phi.purified_choi().choi_matrix()
            worst_choi = max(worst_choi, float(np.max(np.abs(choi - ch.kraus_to_choi(k)))))
            choi_s += time.perf_counter() - t0
    out.append(_check("duality", "stinespring-dilation", worst_dilation, 1e-10,
                      time.perf_counter() - start - choi_s,
                      note="6 channels, d <= 3: U unitary, ancilla trace = action on 2 states"))
    out.append(_check("duality", "purified-choi", worst_choi, 1e-10, choi_s,
                      note="ancilla trace of the purification = Choi matrix"))
    return out


def _measurement_draw(rng):
    """One (channel, state, observable) case, drawn as in
    :func:`rand.random_duality_groups` with one state, then a Gaussian
    observable."""
    d_in = int(rng.integers(2, 4))
    d_out = int(rng.integers(2, 4))
    n_kraus = kraus_count(d_in, d_out, int(rng.integers(1, 4)))
    z = gaussian(rng, (d_out * n_kraus,) * 2)
    a = gaussian(rng, (d_in, d_in))
    return (d_in, d_out), (n_kraus, z, a, gaussian(rng, (d_out, d_out)))


def _measurement_groups(rng, n_cases):
    """Random (channel, state, observable) cases as :func:`rand.kraus_groups`
    stacks: (case indices, Kraus sets, states, Hermitian observables)."""
    for cases, kraus, a, m in kraus_groups(rng, n_cases, _measurement_draw):
        obs = (m + np.conj(np.swapaxes(m, -1, -2))) / 2
        yield cases, kraus, density_from_gaussian(a), obs


# Pauli operators by code: 0 (the identity), 1, 2, 3 for X, Y, Z.
_PAULI_STACK = np.stack([PAULI[name] for name in "IXYZ"])


def _pauli_codes(rng, n, most):
    """A Pauli code per site on 1..``most`` random sites: the sites, then each one's Pauli."""
    codes = np.zeros(n, dtype=int)
    for s in rng.choice(n, size=int(rng.integers(1, min(n, most) + 1)), replace=False):
        codes[s] = 1 + int(rng.integers(3))
    return codes


def _pauli_ops(codes):
    """{site: Pauli stack (B, 2, 2)} of codes (B, N); the identity where a case names none."""
    return {s: _PAULI_STACK[codes[:, s]] for s in range(codes.shape[1]) if codes[:, s].any()}


def _mps_draw(rng):
    """One (state, product Pauli observable) case, in the order of a
    per-case loop of random_state and the observable choice."""
    n = int(rng.integers(2, 7))
    psi = random_state(rng, 2**n)
    return n, (psi, _pauli_codes(rng, n, 3))


def _mps_groups(rng, n_cases):
    """Random MPS cases grouped by N.  Yields (case indices, site dims,
    states (B, 2^N), {site: Pauli stack (B, 2, 2)}) per group."""
    for n, cases, draws in draw_groups(rng, n_cases, _mps_draw):
        states, codes = map(np.stack, zip(*draws))
        yield cases, [2] * n, states, _pauli_ops(codes)


def suite_mps() -> list:
    rng = np.random.default_rng(2025)
    out = []
    t0 = time.perf_counter()
    worst = 0.0
    for _, dims, states, ops in _mps_groups(rng, 200):
        got = mpsmod.from_statevector(states, dims).expectation_product(ops)
        want = oracle.expectation(states, ops, dims)
        worst = max(worst, float(np.max(np.abs(got - want))))
    out.append(_check("mps", "bulk-edge-duality", worst, 1e-10, time.perf_counter() - t0,
                      note="200 random MPS, product Pauli observables"))
    return out


def _gate_sites(n, layers):
    """(layer, site) of each gate of a full brickwork, in layer order."""
    return [(l, s) for l in range(layers) for s in range(l % 2, n - 1, 2)]


def _brickwork(n, layers, gates):
    """One circuit, or a stack, of gates (..., n_gates, 4, 4) at _gate_sites."""
    rows = [[] for _ in range(layers)]
    for (l, site), gate in zip(_gate_sites(n, layers), np.moveaxis(gates, -3, 0)):
        rows[l].append((site, gate))
    return net.BrickworkCircuit(n, tuple(map(tuple, rows)))


def _network_draw(rng):
    """One (state, circuit, observable) case, in the order of a per-case
    loop of random_state, a Haar brickwork and the observable choice; the
    gates stay Gaussian draws until their group is finished."""
    n = int(rng.integers(2, 7))
    layers = int(rng.integers(1, 4))
    state = random_state(rng, 2**n)
    z = gaussians(rng, len(_gate_sites(n, layers)), (4, 4))
    return (n, layers), (state, z, _pauli_codes(rng, n, 2))


def _network_groups(rng, n_cases):
    """Random network cases grouped by (N, L), each group finished as
    stacks: its gates by one stacked QR.  Yields (case indices, states
    (B, 2^N), circuit stack, {site: Pauli stack (B, 2, 2)}) per group."""
    for (n, layers), cases, draws in draw_groups(rng, n_cases, _network_draw):
        states, z, codes = map(np.stack, zip(*draws))
        yield cases, states, _brickwork(n, layers, unitary_from_gaussian(z)), _pauli_ops(codes)


def _partitions(network):
    """The network suite's three partitions of ``network``."""
    n = network.circuit.n_sites
    return [
        net.column_partition(network, [max(1, n // 2)]),
        net.column_partition(network, [1]),
        net.singleton_partition(network),
    ]


def suite_network() -> list:
    rng = np.random.default_rng(2026)
    out = []

    # The exact check owns drawing, building, the oracle and the exact
    # contractions of each (N, L) group's network stack; the region check
    # owns the partitioned contractions.
    start = time.perf_counter()
    regions_s = 0.0
    worst_exact = 0.0
    worst_regions = 0.0
    for _, states, circuit, ops in _network_groups(rng, 100):
        psi = mpsmod.from_statevector(states, [2] * circuit.n_sites)
        network = net.build_network(psi, circuit, ops.items())
        got = net.evaluate_exact(network)
        want = oracle.circuit_expectation(psi, circuit, ops)
        worst_exact = max(worst_exact, float(np.max(np.abs(got - want))))
        t0 = time.perf_counter()
        for part in _partitions(network):
            values = net.evaluate_regions(network, part)
            worst_regions = max(worst_regions, float(np.max(np.abs(values - got))))
        regions_s += time.perf_counter() - t0
    exact_s = time.perf_counter() - start - regions_s
    out.append(_check("network", "entanglement-picture-equality", worst_exact, 1e-8,
                      exact_s, note="100 random (state, circuit, observable)"))
    out.append(_check("network", "partition-invariance", worst_regions, 1e-10,
                      regions_s, note="3 partitions per network"))

    t0 = time.perf_counter()
    psi = mpsmod.from_statevector(random_state(rng, 4), [2, 2])
    circ = _brickwork(2, 1, [haar_unitary(rng, 4)])
    obs = [(0, PAULI["Z"])]
    network = net.build_network(psi, circ, obs)
    exact = net.evaluate_exact(network).real
    cells = net.branch_distribution(network)
    hits = 0
    for s in range(20):
        res = net.sample_cells(*cells, shots=10**5, seed=s)
        if abs(res.estimate - exact) <= 4 * res.stderr:
            hits += 1
    out.append(_check("network", "postselect-sampling-4sigma", 20 - hits, 1.0,
                      time.perf_counter() - t0,
                      note=f"{hits}/20 seeds within 4 sigma", ok=hits >= 19))

    t0 = time.perf_counter()
    h = ham.build_tfim(4, 1.0, 0.7)
    target = ham.exact_unitary(h, 1.0)
    errors = []
    for reps in (4, 8, 16):
        circ = ham.trotter_circuit(h, 1.0, reps)
        evolved = oracle.apply_circuit(np.eye(16), circ).T
        errors.append(np.linalg.norm(evolved - target, ord=2))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    out.append(_check("network", "trotter-first-order-scaling",
                      max(abs(r - 2) for r in ratios), 0.4, time.perf_counter() - t0,
                      note=f"error ratios {['%.2f' % r for r in ratios]}", ok=ok))

    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 5, 6):
        for layers in (0, 1, 3):
            circ = net.BrickworkCircuit(n, tuple(() for _ in range(layers)))
            est = net.resources(circ)
            m = layers * (n // 2)
            ok = ok and est.state_qudits == n // 2
            ok = ok and est.total_gates == m and est.evolution_qudits == 6 * m
            ok = ok and est.sample_cost_order == "O(N^2 M L)"
    out.append(_check("network", "resource-formulas", 0.0 if ok else 1.0, 0.5,
                      time.perf_counter() - t0,
                      note="floor(N/2) and 6M over an (N, L) grid", ok=ok))
    return out


def suite_oqt() -> list:
    rng = np.random.default_rng(2027)
    out = []
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        p = ch.oqt_channel(d)
        for _ in range(5):
            rho = random_density(rng, d)
            mixed = rho / d**2 + (d**2 - 1) / d**2 * p.apply(rho)
            worst = max(worst, float(np.max(np.abs(mixed - np.eye(d) / d))))
    out.append(_check("oqt", "mixing-identity", worst, 1e-14, time.perf_counter() - t0,
                      note="d = 2..4"))

    t0 = time.perf_counter()
    worst = 0.0
    states, sites = zip(*[(random_state(rng, 2**4), int(rng.integers(4))) for _ in range(5)])
    cases = list(zip(mpsmod.from_statevector(np.stack(states), [2] * 4).cases(), sites))
    cases.append((random_canonical_mps(rng, 32, 4), int(rng.integers(32))))
    for psi, site in cases:
        plan = net.oqt_prepare_plan(psi)
        obs = [(site, PAULI["Z"])]
        want = psi.expectation_product(dict(obs))
        for mode in ("postselect", "corrected"):
            got = net.simulate_oqt_plan(plan, obs, mode=mode)
            worst = max(worst, abs(got - want))
    out.append(_check("oqt", "prepare-plan-expectations", worst, 1e-8, time.perf_counter() - t0,
                      note="five N=4 MPS and one N=32, chi=4 MPS, both join "
                           "reconstructions"))
    return out


def suite_thermal() -> list:
    out = []
    start = time.perf_counter()
    trotter_s = 0.0
    worst_exact = 0.0
    worst_trotter = 0.0
    for build in (lambda n: ham.build_tfim(n, 1.0, 1.0),
                  lambda n: ham.build_heisenberg(n, 1.0)):
        for n in (2, 3):
            h = build(n)
            a = embed_operator(PAULI["Z"], [0], [2] * n)
            for beta in (0.25, 0.5, 1.0):
                want = oracle.thermal_exact(a, h, beta)
                res = alg.thermal_value(alg.ThermalJob(
                    observable=a, hamiltonian=h, beta=beta, epsilon=1e-3,
                ))
                worst_exact = max(worst_exact, abs(res.value - want))
                t0 = time.perf_counter()
                res_t = alg.thermal_value(alg.ThermalJob(
                    observable=a, hamiltonian=h, beta=beta, epsilon=1e-3,
                    mode="trotter",
                ))
                worst_trotter = max(worst_trotter, abs(res_t.value - want))
                trotter_s += time.perf_counter() - t0
    out.append(_check("thermal", "exact-mode-accuracy", worst_exact, 1e-3,
                      time.perf_counter() - start - trotter_s,
                      note="TFIM+Heisenberg, N<=3, beta in {1/4,1/2,1}"))
    out.append(_check("thermal", "trotter-mode-accuracy", worst_trotter, 5e-3, trotter_s))

    t0 = time.perf_counter()
    orders = [alg.choose_truncation(1.0, 1.0, 10.0**-k) for k in range(2, 9)]
    growth = max(np.diff(orders)) if len(orders) > 1 else 0
    out.append(_check("thermal", "truncation-log-growth", float(growth), 2.0,
                      time.perf_counter() - t0,
                      note=f"orders {orders} over eps 1e-2..1e-8"))

    t0 = time.perf_counter()
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, 4)
        w, v = np.linalg.eigh(rho)  # full rank, so -log rho is finite
        hm = (v * -np.log(w)) @ dagger(v)
        h = ham.LocalHamiltonian(2, 2, (((0, 1), hm),))
        got = alg.entropy(h, 1e-2).value
        worst = max(worst, abs(got - oracle.entropy_exact(rho)))
    out.append(_check("thermal", "modular-entropy", worst, 1e-2, time.perf_counter() - t0,
                      note="20 random two-qubit states"))
    return out


def _amplitude_draw(rng):
    """One (phi, U, psi) case drawn as haar_unitary, random_state x 2; U stays Gaussian."""
    d = 2 ** int(rng.integers(1, 4))
    return d, (gaussian(rng, (d, d)), random_state(rng, d), random_state(rng, d))


def _hermitian_draw(rng):
    """One Gaussian d x d matrix, d in 2..8, its Hermitian part taken per group."""
    d = int(rng.integers(2, 9))
    return d, gaussian(rng, (d, d))


def suite_amplitude() -> list:
    rng = np.random.default_rng(2029)
    out = []
    t0 = time.perf_counter()
    worst = 0.0
    for _, _, draws in draw_groups(rng, 100, _amplitude_draw):
        z, phi, psi = map(np.stack, zip(*draws))
        u = unitary_from_gaussian(z)
        est = alg.transition_amplitude(phi, u, psi)
        want = (phi.conj()[:, None, :] @ u @ psi[:, :, None])[:, 0, 0]
        worst = max(worst, float(np.max(np.abs(est.value - want))))
    out.append(_check("amplitude", "reflection-assembly", worst, 1e-10, time.perf_counter() - t0,
                      note="100 random (phi, U, psi), <= 3 qubits"))

    t0 = time.perf_counter()
    phi = np.zeros(8, dtype=complex)
    phi[3] = 1.0  # <0|phi> = 0 by construction
    psi = random_state(rng, 8)
    if abs(psi[3]) < 1e-3:
        psi[3] += 0.5
        psi /= np.linalg.norm(psi)
    u = haar_unitary(rng, 8)
    est = alg.transition_amplitude(phi, u, psi)
    err = abs(est.value - np.conj(phi) @ u @ psi)
    out.append(_check("amplitude", "degenerate-reference-fallback", err, 1e-10,
                      time.perf_counter() - t0,
                      note="<0|phi> = 0 forces a basis rescan"))

    start = time.perf_counter()
    rebuild_s = 0.0
    worst_unitary = 0.0
    worst_rebuild = 0.0
    for _, _, draws in draw_groups(rng, 100, _hermitian_draw):
        m = np.stack(draws)
        a = (m + dagger(m)) / 2
        shift, scale, up, um = alg.unitary_decompose(a)
        pair, eye = np.stack([up, um]), np.eye(a.shape[-1])
        worst_unitary = max(worst_unitary, float(np.max(np.abs(dagger(pair) @ pair - eye))))
        t0 = time.perf_counter()
        rebuilt = scale[:, None, None] * (up + um) + shift[:, None, None] * eye
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - a))))
        rebuild_s += time.perf_counter() - t0
    out.append(_check("amplitude", "two-unitary-unitarity", worst_unitary, 1e-10,
                      time.perf_counter() - start - rebuild_s,
                      note="100 random Hermitian, d <= 8"))
    out.append(_check("amplitude", "two-unitary-reconstruction", worst_rebuild, 1e-10,
                      rebuild_s))

    rng = np.random.default_rng(2031)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 2, 4, 4):
        u = haar_unitary(rng, d)
        a = random_state(rng, d)
        eigvec = np.linalg.eig(u)[1][:, 0]
        est = alg.dqc1_cswap_estimate(u, a, eigvec)
        worst = max(worst, abs(est.value - np.conj(a) @ u @ a))
    out.append(_check("amplitude", "dqc1-cswap-exact", worst, 1e-10, time.perf_counter() - t0,
                      note="<a|U|a> from the controlled-swap circuit, d in {2, 4}"))

    t0 = time.perf_counter()
    worst = 0.0
    for _, _, draws in draw_groups(rng, 12, _amplitude_draw):
        m, phi, psi = map(np.stack, zip(*draws))
        a = (m + dagger(m)) / 2
        got = alg.general_matrix_element(phi, a, psi)
        want = (phi.conj()[:, None, :] @ a @ psi[:, :, None])[:, 0, 0]
        worst = max(worst, float(np.max(np.abs(got - want))))
    out.append(_check("amplitude", "general-matrix-element", worst, 1e-8, time.perf_counter() - t0,
                      note="12 random (phi, A, psi), A Hermitian, <= 3 qubits"))
    return out


SUITES = {
    "duality": suite_duality,
    "mps": suite_mps,
    "network": suite_network,
    "oqt": suite_oqt,
    "thermal": suite_thermal,
    "amplitude": suite_amplitude,
}


def run_suite(name: str) -> list:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ShapeError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return SUITES[name]()
