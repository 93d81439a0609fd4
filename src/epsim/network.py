"""Brickwork circuits compiled into channel networks on the bond space.

``build_network`` turns an initial MPS, a brickwork circuit, and a product
observable into a two-dimensional lattice of tensors: the state row, the
gate halves of each circuit layer (each gate split through the
operator-Schmidt decomposition of its Choi vector), the observable row at
the conjugation interface, and the mirrored conjugate rows.  Only the gates
of the observables' causal cone are in the lattice (see
:class:`ChannelNetwork`).  Horizontal wires carry bond (entanglement)
indices: the state rows' bonds, closed through a boundary node, and each
gate's bond between its two halves.  Vertical wires carry physical indices
from the state row through the gate halves on their site to the
observable row.  Evaluation then happens entirely on the entanglement space:

* :func:`evaluate_exact` contracts the lattice in one greedy pairwise pass,
* :func:`evaluate_regions` contracts disjoint node regions independently
  and joins them along the cut wires,
* :func:`evaluate_sampled` simulates the heralded-measurement realization,
  where every wire is a binary Bell measurement {|w><w|, 1 - |w><w|} on a
  pair of prepared qudits, and shots are drawn over only the heralded cells
  its estimator reads.  Those cells are identities of the protocol: the
  all-Bell cells are the exact outcome distribution of this same network
  (teleportation), and the cells with every horizontal wire traced factor
  into one chain of d x d channels per site (a traced wire is
  Omega + (1 - Omega) = I, which cuts it).

The cone's gates are split by :func:`split_gates`, one stacked SVD per
network; :func:`compile_gate` is its call for one gate.  Everything about a
network but its tensors (node kinds, grid positions, trailing shapes and the
leg table, the wire id on each node axis) depends only on its layout key: N,
d, the state's bond dimensions and each kept gate's site and
operator-Schmidt rank.  It is built once per key by the cached
:func:`_layout` and shared by every network with that key; the leg table is
the only description of the wires.

An MPS stack (with one circuit or a circuit stack, and (d, d) or stacked
observables) compiles into one network whose node tensors carry its batch
axes, each gate at its largest rank over the stack.  :func:`evaluate_exact`
and :func:`evaluate_regions` run one network or a stack through the plans
and step loop of :mod:`epsim.contract`, keyed by trailing shapes and leg
labels, in chunks of the flattened batch whose batch x largest step stays
within ``STACK_BUDGET`` entries, priced by the size guard before the first step.
The heralded sampler takes one network.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import limits, serialize
from .contract import _contract_group, _execute, _guard, _make_plan, _plan
from .errors import CanonicalFormError, SamplingError, ShapeError, raise_first
from .linalg import as_matrix, is_hermitian, svd, tp_residual
from .mps import MPS


# ---------------------------------------------------------------------------
# Brickwork circuits


@dataclass(frozen=True)
class BrickworkCircuit:
    """Layers of non-overlapping nearest-neighbor two-site gates.

    ``gates`` stacks every gate, (..., n_gates, d^2, d^2), in layer order
    with sites ascending within a layer; each layer entry holds a view
    (..., d^2, d^2) into it.  The cases of a circuit stack share layers and
    sites.  Unitarity is checked once over the whole stack.
    """

    n_sites: int
    layers: tuple  # per layer: tuple of (site, gate) with gate on (site, site+1)
    phys_dim: int = 2
    gates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dd = self.phys_dim**2
        layers, where, batch = [], [], None
        for l, layer in enumerate(self.layers):
            entries = []
            used = set()
            for site, gate in layer:
                gate = np.asarray(gate, dtype=complex)
                if not 0 <= site < self.n_sites - 1:
                    raise ShapeError(f"gate site {site} out of range")
                batch = gate.shape[:-2] if batch is None else batch
                if gate.shape != batch + (dd, dd):
                    raise ShapeError(f"gate shape {gate.shape} != {batch + (dd, dd)}")
                if site in used or site + 1 in used:
                    raise ShapeError(f"overlapping gates in a layer at site {site}")
                used.update((site, site + 1))
                entries.append((site, gate))
            entries.sort(key=lambda e: e[0])
            where.extend((l, site) for site, _ in entries)
            layers.append(entries)
        mats = [gate for entries in layers for _, gate in entries]
        gates = np.stack(mats, axis=-3) if mats else np.empty((0, dd, dd), complex)
        bad = tp_residual(gates[..., None, :, :]) > limits.TP_TOL
        raise_first(bad.any(axis=-1), ShapeError, lambda i: "layer {}: gate at site {} is "
                    "not unitary".format(*where[np.argmax(bad[i])]))
        views = (gates[..., g, :, :] for g in range(len(mats)))
        layers = tuple(tuple((site, next(views)) for site, _ in entries) for entries in layers)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "gates", gates)

    @property
    def batch_shape(self) -> tuple:
        return self.gates.shape[:-3]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_dict(self) -> dict:
        if self.batch_shape:
            raise ShapeError(f"to_dict takes one circuit, not a stack of {self.batch_shape}")
        layers = [[{"site": site, "gate": serialize.cmat_nested(gate)} for site, gate in layer]
                  for layer in self.layers]
        return {"n_sites": self.n_sites, "phys_dim": self.phys_dim, "layers": layers}

    @classmethod
    def from_dict(cls, data: dict) -> "BrickworkCircuit":
        layers = tuple(
            tuple((int(e["site"]), as_matrix(serialize.parse_cmat_nested(e["gate"])))
                  for e in layer)
            for layer in data["layers"]
        )
        return cls(int(data["n_sites"]), layers, int(data.get("phys_dim", 2)))


@dataclass(frozen=True)
class ResourceEstimate:
    state_qudits: int
    evolution_qudits: int
    total_gates: int
    sample_cost_order: str


def resources(circuit: BrickworkCircuit) -> ResourceEstimate:
    """Qudit bookkeeping of the heralded realization.

    ``total_gates`` is the nominal full-brickwork count L * floor(N/2);
    six qudits per gate, floor(N/2) for the initial state.
    """
    half = circuit.n_sites // 2
    m = circuit.n_layers * half
    return ResourceEstimate(
        state_qudits=half,
        evolution_qudits=6 * m,
        total_gates=m,
        sample_cost_order="O(N^2 M L)",
    )


# ---------------------------------------------------------------------------
# Gate compilation: two-site gate -> pair of bond-connected channel halves


@dataclass(frozen=True)
class GateChannelPair:
    """Operator-Schmidt split u = sum_m left[m] (x) right[m].

    The halves are trace-scaled Kraus sets, not channels on their own: each
    carries a scalar weight making it trace non-increasing, and the product
    of the recorded weights restores the exact gate.
    """

    left_ops: np.ndarray  # (..., bond_dim, d, d)
    right_ops: np.ndarray  # (..., bond_dim, d, d)
    bond_dim: int


def split_gates(gates: np.ndarray, names=None) -> tuple:
    """Operator-Schmidt split of stacked two-site gates (..., n, d^2, d^2)
    through one stacked SVD of their Choi vectors.

    Returns (left, right, ranks): the halves (..., n, d^2, d, d), each term
    scaled by sqrt(s_m) and zero beyond its gate's rank, and the ranks, the
    count of s_m > ZERO_TOL.  Raises ShapeError when a split does not
    recombine to within EQ_TOL; with a gate axis the message names the gate
    by its entry of ``names`` (its index when not given), and the case in a
    stack.
    """
    lead, dd = gates.shape[:-2], gates.shape[-1]
    d = math.isqrt(dd)
    # Group (out_1, in_1) rows vs (out_2, in_2) columns of each gate tensor.
    r = gates.reshape(lead + (d,) * 4).swapaxes(-3, -2).reshape(gates.shape)
    x, s, yh = svd(r)
    kept = s > limits.ZERO_TOL
    root = np.sqrt(np.where(kept, s, 0.0))[..., None]
    left, right = np.swapaxes(x, -1, -2) * root, yh * root
    bad = np.max(np.abs(np.swapaxes(left, -1, -2) @ right - r), axis=(-2, -1)) > limits.EQ_TOL
    if bad.any():
        text = "gate split failed to recombine"
        if lead:  # the first failing gate of the first failing case
            g = np.argwhere(bad)[0][-1]
            text = f"{names[g] if names else f'gate {g}'}: {text}"
        raise_first(bad.any(axis=-1) if lead else bad, ShapeError, lambda i: text)
    shape = lead + (dd, d, d)
    return left.reshape(shape), right.reshape(shape), kept.sum(axis=-1)


def compile_gate(u: np.ndarray) -> GateChannelPair:
    """Split one two-site gate: the no-batch call of :func:`split_gates`."""
    u = as_matrix(u)
    d = math.isqrt(u.shape[0])
    if d * d != u.shape[0] or u.shape[0] != u.shape[1]:
        raise ShapeError(f"expected a d^2 x d^2 gate, got {u.shape}")
    if tp_residual(u[None]) > limits.TP_TOL:
        raise ShapeError("gate is not unitary")
    left, right, rank = split_gates(u)
    return GateChannelPair(left[:rank], right[:rank], int(rank))


# ---------------------------------------------------------------------------
# Network construction


class NetLayout(NamedTuple):
    """What evaluation needs of a network but its tensors, per node id."""

    key: tuple  # (n_sites, d, state bond dims, per layer ((site, gate rank), ...))
    kinds: tuple
    rows: tuple
    cols: tuple
    legs: tuple  # per node: the wire id on each axis
    signature: tuple  # (shape, legs) per node: the exact contraction's plan key


@functools.lru_cache(maxsize=256)
def _layout(key) -> NetLayout:
    """The cached layout of one key.  Node ids run: state row (then its
    boundary), the kept gates' halves by layer (left then right, sites
    ascending), the observable row, the conjugate halves in the same order,
    conjugate state row (then its boundary).  Wire ids count the state rows'
    bond wires, the gates' bond wires and then the vertical wires column by
    column; each is written into the leg table at both of its ends."""
    n, d, bonds, gate_ranks = key
    nl = len(gate_ranks)
    obs_row = nl + 1
    last_row = 2 * nl + 2
    state = [(d, bonds[c], bonds[c + 1]) for c in range(n)]
    # Gate halves have axes (bond, out, in).
    halves = [(l, site + side, (rank, d, d)) for l, layer in enumerate(gate_ranks)
              for site, rank in layer for side in (0, 1)]
    kinds, rows, cols, shapes, grid = [], [], [], [], {}

    def add(kind, row, col, shape):
        grid[(row, col)] = len(kinds)
        kinds.append(kind)
        rows.append(row)
        cols.append(col)
        shapes.append(shape)

    for c in range(n):
        add("state", 0, c, state[c])
    add("boundary", 0, n, (1, 1))
    for l, c, shape in halves:
        add("gate", l + 1, c, shape)
    for c in range(n):
        add("obs", obs_row, c, (d, d))  # legs (ket, conj)
    for l, c, shape in halves:
        add("gate*", last_row - 1 - l, c, shape)
    for c in range(n):
        add("state*", last_row, c, state[c])
    add("boundary*", last_row, n, (1, 1))

    legs = [[None] * len(shape) for shape in shapes]
    wire_ids = itertools.count()

    def wire(*ends):
        wid = next(wire_ids)
        for nid, axis in ends:
            legs[nid][axis] = wid

    # Horizontal wires: state rows close through the boundary node, and the
    # two halves of a gate share its bond.
    for row in (0, last_row):
        bnd = grid[(row, n)]
        for c in range(n - 1):
            wire((grid[(row, c)], 2), (grid[(row, c + 1)], 1))
        wire((grid[(row, n - 1)], 2), (bnd, 0))
        wire((bnd, 1), (grid[(row, 0)], 1))
    for l, layer in enumerate(gate_ranks):
        for row in (l + 1, last_row - 1 - l):
            for site, _ in layer:
                wire((grid[(row, site)], 0), (grid[(row, site + 1)], 0))

    # Vertical wires: physical index chains from the state row through each
    # gate half on the column to the observable row, straight past a layer
    # with no half there.  State axis 0 and obs axes 0/1 carry the physical legs.
    for c in range(n):
        for end, gate_rows, obs_axis in ((0, range(1, obs_row), 0),
                                         (last_row, range(last_row - 1, obs_row, -1), 1)):
            chain = [(grid[(end, c)], 0)]
            for row in gate_rows:
                if (row, c) in grid:
                    chain += [(grid[(row, c)], 2), (grid[(row, c)], 1)]  # in, out
            chain.append((grid[(obs_row, c)], obs_axis))
            for i in range(0, len(chain), 2):
                wire(chain[i], chain[i + 1])

    legs = tuple(map(tuple, legs))
    return NetLayout(key, tuple(kinds), tuple(rows), tuple(cols), legs,
                     tuple(zip(shapes, legs)))


def _gate_pairs(circuit: BrickworkCircuit, take) -> dict:
    """{(layer, site): GateChannelPair} in layer order of the circuit's gates
    for which ``take((layer, site))`` holds, split by one :func:`split_gates`
    call.  Each pair has its gate's largest rank over a stack: the terms past
    a case's own rank are zero."""
    every = [(l, site) for l, layer in enumerate(circuit.layers) for site, _ in layer]
    index = [g for g, pos in enumerate(every) if take(pos)]
    if not index:
        return {}
    where = [every[g] for g in index]
    left, right, ranks = split_gates(circuit.gates[..., index, :, :],
                                     [f"layer {l}, site {site}" for l, site in where])
    ranks = ranks.reshape(-1, len(where)).max(axis=0)
    return {pos: GateChannelPair(left[..., g, :rank, :, :], right[..., g, :rank, :, :], rank)
            for g, (pos, rank) in enumerate(zip(where, ranks.tolist()))}


class ChannelNetwork:
    """The compiled lattice; see the module docstring for the layout.

    ``tensors`` holds one array per node id, batch axes first; kinds, grid
    positions, trailing shapes and legs live in the shared ``layout``.  Only
    the backward light cone of the observed sites (the causal cone) is
    built: a gate outside it meets its conjugate through identities, U^dag U
    = 1, so it has no nodes, its site's vertical wire runs past its layer,
    and it leaves the layout key.  Node ids count only the contracted nodes.
    ``gate_pairs`` holds the split of each kept gate, ``gates_pruned``
    counts the others.
    """

    def __init__(self, psi: MPS, circuit: BrickworkCircuit, observables: dict):
        self.psi = psi
        self.circuit = circuit
        self.observables = observables
        self.batch_shape = batch = psi.batch_shape
        self.d = d = circuit.phys_dim
        n = circuit.n_sites
        cone, kept = set(observables), set()
        for l in reversed(range(circuit.n_layers)):
            hit = [site for site, _ in circuit.layers[l] if {site, site + 1} & cone]
            kept.update((l, site) for site in hit)
            cone.update(site + side for site in hit for side in (0, 1))
        self.gate_pairs = _gate_pairs(circuit, kept.__contains__)
        self.gates_pruned = circuit.gates.shape[-3] - len(kept)
        self.layout = _layout((
            n, d, tuple(t.shape[-2] for t in psi.tensors) + (psi.tensors[-1].shape[-1],),
            tuple(tuple((site, self.gate_pairs[(l, site)].bond_dim) for site, _ in layer
                        if (l, site) in kept) for l, layer in enumerate(circuit.layers)),
        ))
        # In node-id order; see _layout.
        halves = [ops for pair in self.gate_pairs.values()
                  for ops in (pair.left_ops, pair.right_ops)]
        eye = np.eye(d, dtype=complex)
        self.tensors = [
            *psi.tensors, psi.boundary, *halves,
            *(observables.get(c, eye).swapaxes(-1, -2) for c in range(n)),
            *(t.conj() for t in halves),
            *(t.conj() for t in psi.tensors), psi.boundary.conj(),
        ]
        if batch:  # a shared circuit or observable, per case
            self.tensors = [t if t.ndim > len(shape) else np.broadcast_to(t, batch + shape)
                            for t, (shape, _) in zip(self.tensors, self.layout.signature)]


def build_network(psi: MPS, circuit: BrickworkCircuit, observables) -> ChannelNetwork:
    """The network of a left-canonical MPS (stack) under a circuit (stack)
    and (site, (d, d) or (..., d, d) operator) pairs; see the module
    docstring.  A case names the identity where it names no operator."""
    if psi.canonical != "left":
        raise CanonicalFormError("build_network needs a left-canonical MPS")
    if psi.n_sites != circuit.n_sites:
        raise ShapeError(
            f"state has {psi.n_sites} sites, circuit has {circuit.n_sites}"
        )
    if any(d != circuit.phys_dim for d in psi.phys_dims):
        raise ShapeError("physical dimensions of state and circuit differ")
    if psi.boundary.shape[-2:] != (1, 1):
        raise ShapeError("channel networks assume open boundary conditions")
    batch = psi.batch_shape
    if circuit.batch_shape not in ((), batch):
        raise ShapeError(f"a circuit stack of {circuit.batch_shape} for states of {batch}")
    obs = {}
    for site, op in observables:
        op = np.asarray(op, dtype=complex)
        if op.shape not in ((circuit.phys_dim,) * 2, batch + (circuit.phys_dim,) * 2):
            raise ShapeError(f"observable at site {site} has shape {op.shape}")
        if site in obs:
            raise ShapeError(f"duplicate observable site {site}")
        obs[int(site)] = op
    return ChannelNetwork(psi, circuit, obs)


# ---------------------------------------------------------------------------
# Exact evaluation: the whole graph in one contraction


def _chunks(net: ChannelNetwork, peak: int) -> list:
    """(node tensors, batch shape) per chunk of at most STACK_BUDGET // peak
    cases (at least one) of the flattened batch; no batch axis: one chunk."""
    if not net.batch_shape:
        return [(net.tensors, ())]
    cases = math.prod(net.batch_shape)
    size = max(1, limits.STACK_BUDGET // max(peak, 1))
    flat = [t.reshape((cases,) + shape) for t, (shape, _) in zip(net.tensors, net.layout.signature)]
    return [([t[k:k + size] for t in flat], (min(size, cases - k),))
            for k in range(0, max(cases, 1), size)]


def evaluate_exact(net: ChannelNetwork):
    """Contract every node of the network in one call to the contraction core.

    One network gives a complex; a stack gives an array of its batch shape,
    from stacked contractions over chunks of the stack.  The boundary nodes
    are part of the graph, so the value carries the boundary weight; when a
    chunk's batch x the plan's largest step would exceed the size guard,
    SizeGuardError is raised before the first step.
    """
    plan = _plan(net.layout.signature)
    chunks = _chunks(net, plan.peak)
    _guard(math.prod(chunks[0][1]) * plan.peak, "exact contraction")
    values = [_execute(plan, tensors, batch) for tensors, batch in chunks]
    if not net.batch_shape:
        return complex(values[0].reshape(()))
    return np.concatenate(values).reshape(net.batch_shape)


# ---------------------------------------------------------------------------
# Region-partitioned evaluation on the node graph


@dataclass(frozen=True)
class NetworkPartition:
    regions: tuple  # tuple of tuples of node ids

    def validate(self, net: ChannelNetwork):
        seen = set()
        for region in self.regions:
            for nid in region:
                if nid in seen:
                    raise ShapeError(f"node {nid} appears in two regions")
                seen.add(nid)
        if seen != set(range(len(net.tensors))):
            raise ShapeError("partition does not cover the network")


def evaluate_regions(net: ChannelNetwork, partition: NetworkPartition):
    """Contract each region independently, then join along cut wires.

    The joined value is partition independent.  One network gives a
    complex; a stack gives an array of its batch shape.  Every region and
    the join are planned, and a chunk's batch x each plan's largest step
    checked against the size guard, before the first step runs.
    """
    partition.validate(net)
    plans, join = _region_plans(net.layout.key, partition.regions)
    chunks = _chunks(net, max(p.peak for p in (*plans, join) if p))
    size = math.prod(chunks[0][1])
    for p in filter(None, plans):
        _guard(size * p.peak, "region contraction")
    _guard(size * join.peak, "region join")
    values = [_join_regions(tensors, batch, partition.regions, plans, join)
              for tensors, batch in chunks]
    if not net.batch_shape:
        return complex(values[0].reshape(()))
    return np.concatenate(values).reshape(net.batch_shape)


@functools.lru_cache(maxsize=128)
def _region_plans(key, regions) -> tuple:
    """(region plans, join plan) of one partition of the networks of one
    layout key, from shapes alone: each partition is planned once.  A
    one-node region has no plan (None): its node joins as it is.  The join
    takes each region tensor in its memory order, untransposed."""
    signature = _layout(key).signature
    plans = tuple(_make_plan(tuple(signature[nid] for nid in region)) if len(region) > 1
                  else None for region in regions)
    join = _make_plan(tuple((p.mem_shape, p.mem_labels) if p else signature[region[0]]
                            for p, region in zip(plans, regions)))
    if join.labels:
        raise ShapeError("region join left open legs; partition inconsistent")
    return plans, join


def _join_regions(tensors, batch, regions, plans, join):
    """The joined value of one chunk's node tensors; its region tensors are
    freed on return, before the next chunk's are built."""
    parts = [_execute(p, [tensors[nid] for nid in region], batch) if p else tensors[region[0]]
             for p, region in zip(plans, regions)]
    return _execute(join, parts, batch)


def singleton_partition(net: ChannelNetwork) -> NetworkPartition:
    lay = net.layout
    order = sorted(range(len(lay.kinds)), key=lambda nid: (lay.rows[nid], lay.cols[nid]))
    return NetworkPartition(tuple((nid,) for nid in order))


def column_partition(net: ChannelNetwork, splits) -> NetworkPartition:
    """Partition into vertical strips; ``splits`` lists the first column of
    each strip after the first (boundary nodes join the last strip)."""
    edges = [0] + sorted(splits) + [net.circuit.n_sites + 1]
    cols = net.layout.cols
    regions = []
    for lo, hi in zip(edges, edges[1:]):
        region = tuple(nid for nid, col in enumerate(cols) if lo <= col < hi)
        if region:
            regions.append(region)
    return NetworkPartition(tuple(regions))


# ---------------------------------------------------------------------------
# Heralded sampling


def obs_eigenbasis(op: np.ndarray):
    """Eigenvalues ascending; each eigenvector's first nonzero component is
    made real positive (the package-wide phase convention)."""
    vals, vecs = np.linalg.eigh(as_matrix(op))
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > limits.ZERO_TOL)[0]
        vecs[:, k] = col * np.exp(-1j * np.angle(col[nz]))
    return vals, vecs


def branch_distribution(net: ChannelNetwork, strategy: str = "postselect"):
    """Exact probabilities of the heralded cells that ``strategy`` reads.

    Row 0 is the all-Bell branch (every wire at Omega = |w><w|).  By the
    teleportation identity each wire at Omega rejoins its two ends, so row 0
    is the exact outcome distribution, one contraction of the network with
    the observable's eigenprojectors in its place, times 1/dim per wire.  For
    ``corrected``, row 1 holds the branches with every vertical wire at
    Omega and at least one horizontal wire failed.  Rows 0 and 1 together
    trace every horizontal wire, and a traced wire is Omega + (1 - Omega) =
    I, which cuts it: each site becomes a chain of d x d channels, its MPS
    tensor with both bonds traced and then its gate halves as Kraus sets,
    1/d per vertical wire.  Both rows are relative to the product of the node
    norms, so one minus their sum is the reject cell.  Returns (probs of
    shape (rows, n_out), per-outcome eigenvalue products, clipped_mass: the
    rounding mass below zero cut from the cells, reject cell included).
    """
    net.psi.require_single("branch_distribution")
    if strategy not in ("postselect", "corrected"):
        raise ShapeError(f"unknown sampling strategy {strategy!r}")
    for site, op in net.observables.items():
        if not is_hermitian(op):
            raise ShapeError(f"observable at site {site} is not Hermitian")
    d, tensors = net.d, net.psi.tensors
    measured = sorted(net.observables)
    eig = {c: obs_eigenbasis(net.observables[c]) for c in measured}
    layout = net.layout
    items = list(zip(net.tensors, layout.legs))
    for nid, (kind, col) in enumerate(zip(layout.kinds, layout.cols)):
        if kind == "obs" and col in eig:
            # Eigenprojectors stacked as (outcome, ket, conj), transposed like op.T.
            vecs = eig[col][1]
            items[nid] = (np.einsum("ko,co->okc", vecs.conj(), vecs),
                          (("out", col), *layout.legs[nid]))
    exact = _contract_group(items, "branch distribution")
    # The protocol runs every gate: those outside the cone are split here.
    pairs = dict(sorted({**net.gate_pairs, **_gate_pairs(
        net.circuit, lambda pos: pos not in net.gate_pairs)}.items()))
    scale = abs(net.psi.boundary[0, 0]) ** 2 * math.prod(t.shape[2] for t in tensors[:-1])
    scale *= math.prod(pair.bond_dim * d * d for pair in pairs.values())
    rows = [exact.real.reshape(-1) / scale]
    # Gate halves as (site, stacked Kraus set), in layer order.
    halves = [(site + side, ops) for (_, site), pair in pairs.items()
              for side, ops in enumerate((pair.left_ops, pair.right_ops))]
    if strategy == "corrected":
        rhos = [np.einsum("alr,blr->ab", t, t.conj()) for t in tensors]
        for c, k in halves:
            rhos[c] = (k @ rhos[c] @ k.conj().transpose(0, 2, 1)).sum(0) / d
        cut = np.ones(1)
        for c, rho in enumerate(rhos):
            if c in eig:
                vecs = eig[c][1]
                cell = np.einsum("ao,ab,bo->o", vecs.conj(), rho, vecs)
            else:
                cell = np.trace(rho)
            cut = np.multiply.outer(cut, cell.real).reshape(-1)
        rows.append(cut - rows[0])
    norms = math.prod(np.vdot(t, t).real for t in [*tensors, *(k for _, k in halves)])
    probs = np.array(rows) / norms
    clipped = float(np.maximum(-probs, 0.0).sum() + max(probs.sum() - 1.0, 0.0))
    lam = np.array([math.prod(o) for o in itertools.product(*(eig[c][0] for c in measured))])
    return np.clip(probs, 0.0, None), lam, clipped


@dataclass(frozen=True)
class SampleResult:
    estimate: float
    stderr: float
    shots: int
    accepted: int
    acceptance_rate: float
    strategy: str
    clipped_mass: float  # rounding mass below zero cut from the sampled cells
    expected_accepted: float  # shots x the exact mass of the estimator's row
    expected_stderr: float  # the stderr formula at the exact cells


def _corrected(m, f, lam, shots):
    """(m - f).lam / (sum m - sum f) and its delta-method stderr."""
    den = float(m.sum() - f.sum())
    est = float(np.dot(m - f, lam)) / den
    g = (est - lam) / den
    return est, float(np.sqrt(max(np.dot(f, g**2) - np.dot(f, g) ** 2, 0.0) / shots))


def evaluate_sampled(
    net: ChannelNetwork, shots: int, seed: int, strategy: str = "postselect"
) -> SampleResult:
    """Monte-Carlo estimate from the heralded-measurement realization: the
    cells of :func:`branch_distribution`, drawn by :func:`sample_cells`."""
    net.psi.require_single("evaluate_sampled")
    return sample_cells(*branch_distribution(net, strategy), shots, seed, strategy)


def sample_cells(probs, lam, clipped, shots: int, seed: int,
                 strategy: str = "postselect") -> SampleResult:
    """Draw ``shots`` over the cells (probs, lam, clipped) that
    :func:`branch_distribution` returns for ``strategy``, plus the reject
    cell; the cells of one network serve any number of seeds.

    ``postselect`` averages the observable over row 0.  ``corrected``
    postselects only the vertical wires: with m the exact rows summed and f
    the sampled frequencies of row 1, the estimate is (m - f).lam / (sum m -
    sum f), with a delta-method stderr.  SamplingError when the estimator's
    row expects under one sample, or draws none.  The expected accepted
    count and stderr are the same formulas at the exact cells: a trust
    diagnostic that needs no sample.
    """
    limits.check_shots(shots)
    # The estimator reads the last row: row 0 (postselect) or row 1 (corrected).
    rate = float(probs[-1].sum())
    if shots * rate < 1:
        raise SamplingError(
            f"{strategy} cells have expected acceptance rate {rate:.3e}: "
            f"under one sample expected in {shots} shots; refusing before sampling"
        )
    rng = np.random.default_rng(seed)
    pvals = [*probs.reshape(-1), max(1.0 - probs.sum(), 0.0)]
    counts = rng.multinomial(shots, pvals)[:-1].reshape(probs.shape)
    if counts[-1].sum() == 0:
        raise SamplingError(
            f"no samples in the {strategy} cells in {shots} shots "
            f"(expected acceptance rate {rate:.3e})"
        )
    n_acc = int(counts[0].sum())
    if strategy == "postselect":
        est = float(np.dot(counts[0], lam) / n_acc)
        if n_acc > 1:
            var = float(np.dot(counts[0], (lam - est) ** 2) / (n_acc - 1))
            stderr = float(np.sqrt(var / n_acc))
        else:
            stderr = float("inf")
        mean = np.dot(probs[0], lam) / rate
        spread = np.sqrt(np.dot(probs[0], (lam - mean) ** 2) / rate)
        expected_stderr = float(spread / np.sqrt(shots * rate))
    else:
        m, f = probs.sum(axis=0), counts[1] / shots
        if abs(m.sum() - f.sum()) < limits.ZERO_TOL:
            raise SamplingError("corrected estimator lost all mass")
        est, stderr = _corrected(m, f, lam, shots)
        expected_stderr = _corrected(m, probs[1], lam, shots)[1]
    return SampleResult(est, stderr, shots, n_acc, n_acc / shots, strategy, clipped,
                        shots * rate, expected_stderr)


# ---------------------------------------------------------------------------
# Oblivious segment joining (OQT): preparation plan for the initial MPS


@dataclass(frozen=True)
class OqtPlan:
    """Two-site segments of an MPS, to be joined by binary Bell measurements
    between each segment's input reference and the next segment's output."""

    psi: MPS
    segments: tuple  # per segment: (first_site, n_sites_in_segment)
    join_dims: tuple  # bond dimension at each segment boundary


def oqt_prepare_plan(psi: MPS) -> OqtPlan:
    if psi.canonical != "left":
        raise CanonicalFormError("oqt_prepare_plan needs a left-canonical MPS")
    if psi.boundary.shape != (1, 1):
        raise ShapeError("oqt_prepare_plan assumes open boundary conditions")
    tensors = list(psi.tensors)
    if len(tensors) % 2 == 1:
        # Pad with a trivial site so segments pair up.
        tensors.append(np.ones((1, 1, 1), dtype=complex))
        psi = MPS(tuple(tensors), psi.boundary, canonical="left")
    n = len(tensors)
    segments = tuple((2 * k, 2) for k in range(n // 2))
    join_dims = tuple(
        tensors[2 * k + 1].shape[2] for k in range(n // 2 - 1)
    )
    return OqtPlan(psi, segments, join_dims)


def simulate_oqt_plan(plan: OqtPlan, observables, mode: str = "corrected") -> complex:
    """Exact value of the preparation plan as one single-layer contraction:
    the items of :meth:`MPS.chain_items` with every join bond cut.

    Each join is the binary Bell measurement {Omega, 1 - Omega}, one item on
    (bit, ket left, bra left, ket right, bra right) weighted by chi, which
    undoes both the 1/chi of Omega and the chi of a raw segment's norm.
    Omega joins the ket wire and the bra wire, over chi; the traced join
    closes each side's ket with its bra.  ``postselect`` stacks [Omega,
    traced - Omega] and keeps the all-Bell branch (teleportation identity);
    ``corrected`` stacks [traced, traced - Omega] and closes the bit with
    (1, -1): the alternating sum of the depolarizing mixing identity.
    """
    bit_close = {"postselect": [1, 0], "corrected": [1, -1]}
    if mode not in bit_close:
        raise ShapeError(f"unknown oqt simulation mode {mode!r}")
    label = f"oqt preparation plan ({mode})"
    # One join tensor per distinct chi, priced from the dims before any is built.
    _guard(sum(2 * chi**4 for chi in set(plan.join_dims)), f"{label} joins")
    joins = [first for first, _ in plan.segments[1:]]
    items = plan.psi.chain_items({int(site): as_matrix(op) for site, op in observables}, joins)
    branches = {}
    for chi in set(plan.join_dims):
        traced = np.multiply.outer(np.eye(chi), np.eye(chi))  # k0 = b0, k1 = b1
        omega = traced.transpose(0, 2, 1, 3) / chi  # k0 = k1, b0 = b1
        branches[chi] = chi * np.stack([omega if mode == "postselect" else traced, traced - omega])
    for b, chi in zip(joins, plan.join_dims):
        legs = [("bit", b), ("k", b, 0), ("b", b, 0), ("k", b, 1), ("b", b, 1)]
        items += [(branches[chi], legs), (np.array(bit_close[mode]), [("bit", b)])]
    return complex(_contract_group(items, label).reshape(()))
