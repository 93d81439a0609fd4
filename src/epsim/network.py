"""Brickwork circuits compiled into channel networks on the bond space.

``build_network`` turns an initial MPS, a brickwork circuit, and a product
observable into a two-dimensional lattice of tensors: the state row, one
row of two-site gate halves per circuit layer (each gate split through the
operator-Schmidt decomposition of its Choi vector), the observable row at
the conjugation interface, and the mirrored conjugate rows.  Horizontal
wires carry bond (entanglement) indices, vertical wires carry physical
indices.  Evaluation then happens entirely on the entanglement space:

* :func:`evaluate_exact` contracts the whole lattice in one greedy
  pairwise pass,
* :func:`evaluate_regions` contracts disjoint node regions independently
  and joins them along the cut wires,
* :func:`evaluate_sampled` simulates the heralded-measurement realization,
  where every wire is a binary Bell measurement {|w><w|, 1 - |w><w|} on a
  pair of prepared qudits and only the observable outcome is kept.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .channels import bell_vector
from .errors import (
    CanonicalFormError,
    SamplingError,
    ShapeError,
    SizeGuardError,
)
from .linalg import as_matrix, dagger, is_unitary, svd
from .mps import MPS

CONTRACTION_GUARD = 2**24
BRANCH_GUARD = 2**20


# ---------------------------------------------------------------------------
# Brickwork circuits


@dataclass(frozen=True)
class BrickworkCircuit:
    """Layers of non-overlapping nearest-neighbor two-site gates."""

    n_sites: int
    layers: tuple  # per layer: tuple of (site, gate) with gate on (site, site+1)
    phys_dim: int = 2

    def __post_init__(self):
        d = self.phys_dim
        layers = []
        for layer in self.layers:
            entries = []
            used = set()
            for site, gate in layer:
                gate = as_matrix(gate)
                if not 0 <= site < self.n_sites - 1:
                    raise ShapeError(f"gate site {site} out of range")
                if gate.shape != (d * d, d * d):
                    raise ShapeError(
                        f"gate shape {gate.shape} != ({d * d}, {d * d})"
                    )
                if not is_unitary(gate, tol=1e-10):
                    raise ShapeError(f"gate at site {site} is not unitary")
                if site in used or site + 1 in used:
                    raise ShapeError(f"overlapping gates in a layer at site {site}")
                used.update((site, site + 1))
                entries.append((site, gate))
            layers.append(tuple(sorted(entries, key=lambda e: e[0])))
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_gates(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "phys_dim": self.phys_dim,
            "layers": [
                [{"site": site, "gate": serialize.cmat_nested(gate)} for site, gate in layer]
                for layer in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BrickworkCircuit":
        layers = tuple(
            tuple((int(e["site"]), serialize.parse_cmat_nested(e["gate"])) for e in layer)
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

    left_ops: tuple
    right_ops: tuple
    bond_dim: int
    gate: np.ndarray = field(repr=False)

    def recombined(self) -> np.ndarray:
        d = self.left_ops[0].shape[0]
        u4 = np.einsum("mik,mjl->ijkl", np.stack(self.left_ops), np.stack(self.right_ops))
        return u4.reshape(d * d, d * d)

    def weighted_half(self, side: str):
        """(normalized_ops, weight): ops scaled so sum K^dag K <= 1."""
        ops = self.left_ops if side == "left" else self.right_ops
        gram = sum(dagger(k) @ k for k in ops)
        weight = float(np.sqrt(np.max(np.linalg.eigvalsh(gram))))
        return tuple(k / weight for k in ops), weight


def compile_gate(u: np.ndarray) -> GateChannelPair:
    """Split a two-site gate through the SVD of its Choi vector."""
    u = as_matrix(u)
    d = math.isqrt(u.shape[0])
    if d * d != u.shape[0] or u.shape[0] != u.shape[1]:
        raise ShapeError(f"expected a d^2 x d^2 gate, got {u.shape}")
    if not is_unitary(u, tol=1e-10):
        raise ShapeError("gate is not unitary")
    # Group (out_1, in_1) rows vs (out_2, in_2) columns of the gate tensor.
    r = u.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    x, s, yh = svd(r)
    keep = int(np.sum(s > 1e-12))
    left = tuple(
        np.sqrt(s[m]) * x[:, m].reshape(d, d) for m in range(keep)
    )
    right = tuple(
        np.sqrt(s[m]) * yh[m, :].reshape(d, d) for m in range(keep)
    )
    pair = GateChannelPair(left, right, keep, u)
    if np.max(np.abs(pair.recombined() - u)) > 1e-10:
        raise ShapeError("gate split failed to recombine")
    return pair


# ---------------------------------------------------------------------------
# Network construction


@dataclass(frozen=True)
class NetNode:
    nid: int
    kind: str  # state | gate | obs | boundary | state* | gate* | boundary*
    row: int
    col: int
    tensor: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class NetWire:
    wid: int
    ends: tuple  # ((nid, axis), (nid, axis))
    orientation: str  # "h" | "v"
    dim: int


class ChannelNetwork:
    """The compiled lattice; see the module docstring for the layout."""

    def __init__(self, psi: MPS, circuit: BrickworkCircuit, observables: dict):
        self.psi = psi
        self.circuit = circuit
        self.observables = {int(k): as_matrix(v) for k, v in observables.items()}
        self.d = circuit.phys_dim
        self.gate_pairs = {}  # (layer, site) -> GateChannelPair
        self.nodes: list[NetNode] = []
        self.wires: list[NetWire] = []
        self._build_graph()

    # -- doubled node/wire graph

    def _build_graph(self):
        n, d = self.circuit.n_sites, self.d
        nl = self.circuit.n_layers
        obs_row = nl + 1
        last_row = 2 * nl + 2
        # Per-layer MPO rows [layer][site] of (a, b, out, in) gate halves.
        ident = np.eye(d, dtype=complex).reshape(1, 1, d, d)
        mpos = []
        for l, layer in enumerate(self.circuit.layers):
            row = [ident] * n
            for site, gate in layer:
                pair = self.gate_pairs[(l, site)] = compile_gate(gate)
                row[site] = np.stack(pair.left_ops)[None]
                row[site + 1] = np.stack(pair.right_ops)[:, None]
            mpos.append(row)
        grid = {}

        def add(kind, row, col, tensor):
            node = NetNode(len(self.nodes), kind, row, col, np.asarray(tensor, complex))
            self.nodes.append(node)
            grid[(row, col)] = node
            return node

        for c in range(n):
            add("state", 0, c, self.psi.tensors[c])
        add("boundary", 0, n, self.psi.boundary)
        for l in range(nl):
            for c in range(n):
                add("gate", l + 1, c, mpos[l][c])
        for c in range(n):
            obs = self.observables.get(c, np.eye(self.d))
            add("obs", obs_row, c, obs.T)  # legs (ket, conj)
        for l in range(nl):
            for c in range(n):
                add("gate*", last_row - 1 - l, c, mpos[l][c].conj())
        for c in range(n):
            add("state*", last_row, c, self.psi.tensors[c].conj())
        add("boundary*", last_row, n, self.psi.boundary.conj())

        def wire(end_a, end_b, orientation, dim):
            self.wires.append(
                NetWire(len(self.wires), (end_a, end_b), orientation, dim)
            )

        # Horizontal wires: state rows close through the boundary node,
        # gate rows wrap their (dimension-1) outer edges.
        for row in (0, last_row):
            bnd = grid[(row, n)]
            for c in range(n - 1):
                a, b = grid[(row, c)], grid[(row, c + 1)]
                wire((a.nid, 2), (b.nid, 1), "h", a.tensor.shape[2])
            wire((grid[(row, n - 1)].nid, 2), (bnd.nid, 0), "h",
                 grid[(row, n - 1)].tensor.shape[2])
            wire((bnd.nid, 1), (grid[(row, 0)].nid, 1), "h",
                 grid[(row, 0)].tensor.shape[1])
        for row in list(range(1, nl + 1)) + list(range(obs_row + 1, last_row)):
            for c in range(n - 1):
                a, b = grid[(row, c)], grid[(row, c + 1)]
                wire((a.nid, 1), (b.nid, 0), "h", a.tensor.shape[1])
            wire((grid[(row, n - 1)].nid, 1), (grid[(row, 0)].nid, 0), "h", 1)

        # Vertical wires: physical index chains through the rows.
        # Gate tensors have axes (bond_l, bond_r, out, in); state axis 0 and
        # obs axes 0/1 carry the physical legs.
        for c in range(n):
            ket_chain = [(grid[(0, c)].nid, 0)]  # state phys
            for l in range(nl):
                node = grid[(l + 1, c)]
                ket_chain.append((node.nid, 3))  # in
                ket_chain.append((node.nid, 2))  # out
            ket_chain.append((grid[(obs_row, c)].nid, 0))
            for i in range(0, len(ket_chain) - 1, 2):
                wire(ket_chain[i], ket_chain[i + 1], "v", self.d)
            conj_chain = [(grid[(last_row, c)].nid, 0)]
            for l in range(nl):
                node = grid[(last_row - 1 - l, c)]
                conj_chain.append((node.nid, 3))
                conj_chain.append((node.nid, 2))
            conj_chain.append((grid[(obs_row, c)].nid, 1))
            for i in range(0, len(conj_chain) - 1, 2):
                wire(conj_chain[i], conj_chain[i + 1], "v", self.d)

    def to_dict(self) -> dict:
        return {
            "n_sites": self.circuit.n_sites,
            "n_layers": self.circuit.n_layers,
            "phys_dim": self.d,
            "nodes": [
                {
                    "id": node.nid,
                    "kind": node.kind,
                    "row": node.row,
                    "col": node.col,
                    "shape": list(node.tensor.shape),
                    "payload": serialize.cvec(node.tensor.reshape(-1)),
                }
                for node in self.nodes
            ],
            "wires": [
                {
                    "id": w.wid,
                    "ends": [list(w.ends[0]), list(w.ends[1])],
                    "orientation": w.orientation,
                    "dim": w.dim,
                }
                for w in self.wires
            ],
        }


def build_network(psi: MPS, circuit: BrickworkCircuit, observables) -> ChannelNetwork:
    if psi.canonical != "left":
        raise CanonicalFormError("build_network needs a left-canonical MPS")
    if psi.n_sites != circuit.n_sites:
        raise ShapeError(
            f"state has {psi.n_sites} sites, circuit has {circuit.n_sites}"
        )
    if any(d != circuit.phys_dim for d in psi.phys_dims):
        raise ShapeError("physical dimensions of state and circuit differ")
    if psi.boundary.shape != (1, 1):
        raise ShapeError("channel networks assume open boundary conditions")
    obs = {}
    for site, op in observables:
        op = as_matrix(op)
        if op.shape != (circuit.phys_dim,) * 2:
            raise ShapeError(f"observable at site {site} has shape {op.shape}")
        if site in obs:
            raise ShapeError(f"duplicate observable site {site}")
        obs[int(site)] = op
    return ChannelNetwork(psi, circuit, obs)


# ---------------------------------------------------------------------------
# Exact evaluation: the whole graph in one contraction


def evaluate_exact(net: ChannelNetwork) -> complex:
    """Contract every node of the network in one call to the contraction core.

    The boundary nodes are part of the graph, so the value carries the
    boundary weight; a step whose result would exceed the size guard raises
    SizeGuardError before it allocates.
    """
    legs = _node_axis_wires(net)
    value, _ = _contract_group(
        [(node.tensor, legs[node.nid]) for node in net.nodes], "exact contraction"
    )
    return complex(value.reshape(()))


def _guard(size, label):
    if size > CONTRACTION_GUARD:
        raise SizeGuardError(
            f"contraction intermediate for {label} has {size} entries "
            f"(> {CONTRACTION_GUARD}); refusing"
        )


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
        if seen != {node.nid for node in net.nodes}:
            raise ShapeError("partition does not cover the network")


def _node_axis_wires(net: ChannelNetwork):
    """Wire id on each axis of each node, indexed by node id."""
    legs = [[None] * node.tensor.ndim for node in net.nodes]
    for w in net.wires:
        for nid, axis in w.ends:
            legs[nid][axis] = w.wid
    return legs


def _label_key(label):
    """Total order over int and tuple wire labels."""
    if isinstance(label, tuple):
        return (1,) + tuple(label)
    return (0, label)


def _contract_group(items, guard_label):
    """Contract (tensor, leg labels) items into one tensor.

    Legs sharing a label are contracted; legs that meet inside one tensor
    are traced.  Each step contracts the pair of tensors that share a leg
    and whose result, priced from shapes alone, grows least (result size
    minus the two input sizes); ties go to the lowest item indices, so the
    order is deterministic.  Every step is checked against the size guard
    before it allocates.  Tensors that share no leg are joined last by outer
    products, smallest first.  Returns (tensor, open legs) with the open
    legs in canonical label order.
    """
    tensors, legs, holders, dims = {}, {}, {}, {}
    for i, (tensor, labels) in enumerate(items):
        labels = list(labels)
        while (dup := _first_dup(labels)) is not None:
            tensor = np.trace(tensor, axis1=dup[0], axis2=dup[1])
            labels = [w for k, w in enumerate(labels) if k not in dup]
        tensors[i], legs[i] = np.asarray(tensor), labels
        for lab, dim in zip(labels, tensors[i].shape):
            holders.setdefault(lab, []).append(i)
            if dims.setdefault(lab, dim) != dim:
                raise ShapeError(f"wire {lab!r} joins legs of dims {dims[lab]} and {dim}")
    heap = []

    def push(i, j):  # i < j
        a, b = tensors[i].size, tensors[j].size
        shared = math.prod(dims[lab] for lab in legs[i] if lab in legs[j])
        heapq.heappush(heap, (a * b // shared**2 - a - b, i, j))

    for pair in {tuple(h) for h in holders.values() if len(h) == 2}:
        push(*pair)
    next_id = len(items)
    while len(tensors) > 1:
        if heap:
            _, i, j = heapq.heappop(heap)
            if i not in tensors or j not in tensors:
                continue
        else:
            i, j = sorted(tensors, key=lambda k: (tensors[k].size, k))[:2]
        shared = [lab for lab in legs[i] if lab in legs[j]]
        out = [lab for lab in legs[i] + legs[j] if lab not in shared]
        _guard(math.prod(dims[lab] for lab in out), guard_label)
        # np.tensordot without its per-call overhead, which dominates on the
        # many small tensors of a region.
        a, b = tensors.pop(i), tensors.pop(j)
        ax_a = [legs[i].index(lab) for lab in shared]
        ax_b = [legs[j].index(lab) for lab in shared]
        inner = math.prod(dims[lab] for lab in shared)
        a = a.transpose([k for k in range(a.ndim) if k not in ax_a] + ax_a)
        b = b.transpose(ax_b + [k for k in range(b.ndim) if k not in ax_b])
        product = a.reshape(-1, inner) @ b.reshape(inner, -1)
        tensors[next_id] = product.reshape([dims[lab] for lab in out])
        legs[next_id] = out
        del legs[i], legs[j]
        for lab in shared:
            del holders[lab]
        for lab in out:
            holders[lab] = [next_id if h in (i, j) else h for h in holders[lab]]
        for h in {h for lab in out for h in holders[lab]} - {next_id}:
            push(h, next_id)
        next_id += 1
    (tensor,), (labels,) = tensors.values(), legs.values()
    perm = sorted(range(len(labels)), key=lambda i: _label_key(labels[i]))
    return tensor.transpose(perm), [labels[i] for i in perm]


def _first_dup(legs):
    seen = {}
    for i, w in enumerate(legs):
        if w in seen:
            return (seen[w], i)
        seen[w] = i
    return None


def evaluate_regions(net: ChannelNetwork, partition: NetworkPartition):
    """Contract each region independently, then join along cut wires.

    Returns (value, region_probs): the joined value is partition independent;
    the per-region Frobenius weights are diagnostics of the heralded
    branch mass each region carries.
    """
    partition.validate(net)
    legs = _node_axis_wires(net)

    region_tensors = [
        _contract_group(
            [(net.nodes[nid].tensor, legs[nid]) for nid in region],
            "region contraction",
        )
        for region in partition.regions
    ]
    region_probs = [float(np.linalg.norm(t) ** 2) for t, _ in region_tensors]
    value, open_legs = _contract_group(region_tensors, "region join")
    if open_legs:
        raise ShapeError("region join left open legs; partition inconsistent")
    return complex(value.reshape(())), region_probs


def singleton_partition(net: ChannelNetwork) -> NetworkPartition:
    order = sorted(net.nodes, key=lambda node: (node.row, node.col))
    return NetworkPartition(tuple((node.nid,) for node in order))


def column_partition(net: ChannelNetwork, splits) -> NetworkPartition:
    """Partition into vertical strips; ``splits`` lists the first column of
    each strip after the first (boundary nodes join the last strip)."""
    edges = [0] + sorted(splits) + [net.circuit.n_sites + 1]
    regions = []
    for lo, hi in zip(edges, edges[1:]):
        region = tuple(
            node.nid for node in net.nodes if lo <= node.col < hi
        )
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
        nz = np.flatnonzero(np.abs(col) > 1e-12)[0]
        vecs[:, k] = col * np.exp(-1j * np.angle(col[nz]))
    return vals, vecs


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
    for l, layer in enumerate(net.circuit.layers):
        for site, _ in layer:
            pair = net.gate_pairs[(l, site)]
            bond = wire(pair.bond_dim, "h")
            for side, ops in enumerate((pair.left_ops, pair.right_ops)):
                c = site + side
                lab = chain[c][0]
                sampled.append((lab, d, "v"))
                chain[c] = (next(labels), 0)
                nodes.append((np.stack(ops), [bond[side], chain[c], (lab, 1)]))
    return nodes, sampled, chain


class BranchTable:
    """Exact joint distribution of wire outcomes and observable outcomes."""

    def __init__(self, wires, lam, probs, outcome_index, clipped_mass):
        self.wires = wires          # (label, dim, orientation) per wire
        self.lam = lam              # per-outcome product of eigenvalues
        self.probs = probs          # (2**W, n_out), rows indexed by outcome bits
        self.outcome_index = outcome_index
        self.clipped_mass = clipped_mass  # negative rounding mass set to zero

    @property
    def n_wires(self):
        return len(self.wires)

    def acceptance(self) -> float:
        return float(np.sum(self.probs[0]))


def _doubled(tensor):
    """T (x) T* with each leg fused to its conjugate, ket index first."""
    n = tensor.ndim
    pair = np.multiply.outer(tensor, tensor.conj())
    perm = [a for k in range(n) for a in (k, k + n)]
    return pair.transpose(perm).reshape([dim * dim for dim in tensor.shape])


def branch_distribution(net: ChannelNetwork) -> BranchTable:
    """Every heralded branch of the preparation, from one contraction.

    Wire outcome bit 0 is the Bell outcome Omega = |w><w|, bit 1 its
    complement; observable outcomes run over the eigenbases of the measured
    sites.  The branch weights <psi| (x)_k Pi_{b_k} (x) Pi_o |psi> are the
    open legs of the doubled (ket (x) bra) preparation graph: every wire
    carries one tensor stacking Omega and 1 - Omega over its two endpoints
    with an open bit leg, every measured site its eigenprojectors with an
    open outcome leg, and every other site a ket-to-bra trace.  Row bit k of
    the table is wire k.
    """
    import itertools

    for site, op in net.observables.items():
        if np.max(np.abs(op - dagger(op))) > 1e-10:
            raise ShapeError(f"observable at site {site} is not Hermitian")
    nodes, sampled, finals = _ket_graph(net)
    w = len(sampled)
    measured = sorted(net.observables)
    eig = {c: obs_eigenbasis(net.observables[c]) for c in measured}
    n_out = int(np.prod([net.d] * len(measured))) if measured else 1
    if (2**w) * n_out > BRANCH_GUARD:
        raise SizeGuardError(
            f"branch enumeration needs {(2**w) * n_out} entries "
            f"(> {BRANCH_GUARD}); refusing"
        )
    outcomes = list(itertools.product(*[range(net.d) for _ in measured]))

    items = [(_doubled(t), legs) for t, legs in nodes]
    for k, (lab, dim, _) in enumerate(sampled):
        bell = np.eye(dim * dim) / dim
        ident = np.eye(dim).reshape(-1)
        # Open leg ("b", w - 1 - k): the canonical leg order ("b" legs, then
        # "out" legs by site) makes wire k row bit k.
        items.append((np.stack([bell, np.outer(ident, ident) - bell]),
                      [("b", w - 1 - k), (lab, 0), (lab, 1)]))
    for c, final in finals.items():
        if c in eig:
            vecs = eig[c][1]
            proj = np.einsum("fo,go->ofg", vecs.conj(), vecs).reshape(net.d, -1)
            items.append((proj, [("out", c), final]))
        else:
            items.append((np.eye(net.d).reshape(-1), [final]))
    table, _ = _contract_group(items, "branch enumeration")
    probs = table.real.reshape(2**w, n_out)
    clipped = float(np.maximum(-probs, 0.0).sum())
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise SamplingError("branch distribution has no mass")
    probs /= total
    lam = np.array(
        [np.prod([eig[c][0][oc] for c, oc in zip(measured, o)]) for o in outcomes]
    ) if measured else np.ones(1)
    return BranchTable(sampled, lam, probs, outcomes, clipped / total)


@dataclass(frozen=True)
class SampleResult:
    estimate: float
    stderr: float
    shots: int
    accepted: int
    acceptance_rate: float
    strategy: str
    clipped_mass: float  # BranchTable.clipped_mass of the sampled table


def evaluate_sampled(
    net: ChannelNetwork,
    shots: int,
    seed: int,
    strategy: str = "postselect",
    correct_vertical: bool = False,
) -> SampleResult:
    """Monte-Carlo estimate from the heralded-measurement realization.

    ``postselect`` keeps only the all-Bell branch (unbiased, exponential
    acceptance in the wire count); ``corrected`` removes the depolarizing
    offset of horizontal wires with an exactly computed baseline so their
    failure branches contribute too.  Vertical-wire correction is gated
    behind ``correct_vertical``.
    """
    if shots < 1:
        raise ShapeError("need at least one shot")
    table = branch_distribution(net)
    rng = np.random.default_rng(seed)
    flat = table.probs.reshape(-1)
    counts = rng.multinomial(shots, flat / flat.sum()).reshape(table.probs.shape)
    if strategy == "postselect":
        return _postselect_estimate(table, counts, shots)
    if strategy == "corrected":
        return _corrected_estimate(table, counts, shots, rng, correct_vertical)
    raise ShapeError(f"unknown sampling strategy {strategy!r}")


def _postselect_estimate(table, counts, shots):
    acc = counts[0]
    n_acc = int(acc.sum())
    if n_acc == 0:
        raise SamplingError(
            f"no accepted samples in {shots} shots "
            f"(expected acceptance rate {table.acceptance():.3e})"
        )
    est = float(np.dot(acc, table.lam) / n_acc)
    if n_acc > 1:
        var = float(np.dot(acc, (table.lam - est) ** 2) / (n_acc - 1))
        stderr = float(np.sqrt(var / n_acc))
    else:
        stderr = float("inf")
    return SampleResult(
        est, stderr, shots, n_acc, n_acc / shots, "postselect", table.clipped_mass
    )


def _corrected_estimate(table, counts, shots, rng, correct_vertical):
    w = table.n_wires
    corrected = [
        k for k, (_, _, orient) in enumerate(table.wires)
        if orient == "h" or correct_vertical
    ]
    post = [k for k in range(w) if k not in corrected]

    def assemble(freq):
        """sum_S (-1)^|S| T(S): S=empty from the exact table, else freq."""
        num = 0.0
        den = 0.0
        for s_bits in range(2 ** len(corrected)):
            rows = _row_set(w, corrected, s_bits, post)
            src = table.probs if s_bits == 0 else freq
            mass = src[rows].sum(axis=0)
            sign = (-1) ** bin(s_bits).count("1")
            num += sign * float(np.dot(mass, table.lam))
            den += sign * float(mass.sum())
        return num, den

    freq = counts / shots
    num, den = assemble(freq)
    if abs(den) < 1e-12:
        raise SamplingError("corrected estimator lost all mass")
    est = num / den
    # Bootstrap over the multinomial tally for the uncertainty.
    boots = []
    p_hat = freq.reshape(-1)
    p_hat = p_hat / p_hat.sum() if p_hat.sum() > 0 else p_hat
    for _ in range(64):
        resample = rng.multinomial(shots, p_hat).reshape(counts.shape) / shots
        bn, bd = assemble(resample)
        if abs(bd) > 1e-12:
            boots.append(bn / bd)
    stderr = float(np.std(boots)) if len(boots) > 1 else float("inf")
    n_acc = int(counts[0].sum())
    return SampleResult(
        float(est), stderr, shots, n_acc, n_acc / shots, "corrected", table.clipped_mass
    )


def _row_set(w, corrected, s_bits, post):
    """Branch-row indices with b=1 on the chosen corrected wires, b=0 on the
    postselected wires, and both values on the remaining corrected wires."""
    fixed_one = [corrected[i] for i in range(len(corrected)) if s_bits >> i & 1]
    free = [k for k in corrected if k not in fixed_one]
    rows = []
    for bits in range(2 ** len(free)):
        row = 0
        for k in fixed_one:
            row |= 1 << k
        for i, k in enumerate(free):
            if bits >> i & 1:
                row |= 1 << k
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Oblivious segment joining (OQT): preparation plan for the initial MPS


@dataclass(frozen=True)
class OqtPlan:
    """Two-site segments of an MPS, to be joined by binary Bell measurements
    between each segment's input reference and the next segment's output."""

    psi: MPS
    segments: tuple  # per segment: (first_site, n_sites_in_segment)
    join_dims: tuple  # bond dimension at each segment boundary

    @property
    def n_joins(self) -> int:
        return len(self.join_dims)


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


def _segment_tensor(psi: MPS, first: int) -> np.ndarray:
    """G[out, i, j, ref] = (T_first[i] @ T_{first+1}[j])[out, ref]."""
    a, b = psi.tensors[first], psi.tensors[first + 1]
    return np.einsum("iax,jxb->ijab", a, b).transpose(2, 0, 1, 3)


def simulate_oqt_plan(plan: OqtPlan, observables, mode: str = "corrected") -> complex:
    """Exact density-matrix simulation of the preparation plan.

    Each segment is prepared as the purified Choi state of its two site
    channels; consecutive segments are joined by the binary Bell measurement.
    ``postselect`` keeps the all-Bell branch (teleportation identity);
    ``corrected`` reconstructs the same value from all branches through the
    depolarizing mixing identity of the failure outcome.
    """
    psi = plan.psi
    obs = {int(site): as_matrix(op) for site, op in observables}
    segs = [_segment_tensor(psi, first) for first, _ in plan.segments]
    joint = segs[0]
    for g in segs[1:]:
        joint = np.tensordot(joint, g, axes=0)
    if joint.size > BRANCH_GUARD:
        raise SizeGuardError(
            f"oqt joint state needs {joint.size} entries (> {BRANCH_GUARD})"
        )
    dims = list(joint.shape)
    vec = joint.reshape(-1)

    # Leg layout per segment k: [out_k, phys, phys, ref_k]; observable blocks
    # sit on the physical legs, junction blocks on (ref_k, out_{k+1}) pairs.
    obs_blocks = []
    join_legs = []
    for k, (first, _) in enumerate(plan.segments):
        base = 4 * k
        for off, site in ((1, first), (2, first + 1)):
            if site in obs:
                obs_blocks.append((base + off, 1, obs[site]))
        if k < len(segs) - 1:
            join_legs.append((base + 3, plan.join_dims[k]))

    def apply_block(w, pos, span, op):
        left = int(np.prod(dims[:pos])) or 1
        mid = int(np.prod(dims[pos : pos + span]))
        right = int(np.prod(dims[pos + span :])) or 1
        w = w.reshape(left, mid, right)
        return np.einsum("ab,xby->xay", op, w).reshape(-1)

    def branch_value(bits, traced):
        """<Psi| (x)_j Pi_{b_j} (x) O |Psi> with selected joins traced out."""
        w = vec
        for pos, span, op in obs_blocks:
            w = apply_block(w, pos, span, op)
        for j, (pos, chi) in enumerate(join_legs):
            if j in traced:
                continue
            omega = np.outer(bell_vector(chi), bell_vector(chi).conj())
            junction = omega if bits[j] == 0 else np.eye(chi * chi) - omega
            w = apply_block(w, pos, 2, junction)
        return complex(np.vdot(vec, w))

    n_j = plan.n_joins
    scalar = abs(psi.boundary[0, 0]) ** 2
    # Raw segment tensors have squared norm chi_in, which equals the join
    # dimension, so one chi per join both normalizes the preparations and
    # undoes the Bell-projection weight.
    weight = scalar * float(np.prod(plan.join_dims))
    if mode == "postselect":
        return weight * branch_value([0] * n_j, traced=set())
    if mode == "corrected":
        # contraction_j = chi_j * (traced_j - branch1_j), expanded over joins.
        total = 0.0 + 0.0j
        for t_bits in range(2**n_j):
            traced = {j for j in range(n_j) if not t_bits >> j & 1}
            bits = [1] * n_j
            sign = (-1) ** bin(t_bits).count("1")
            total += sign * branch_value(bits, traced)
        return weight * total
    raise ShapeError(f"unknown oqt simulation mode {mode!r}")
