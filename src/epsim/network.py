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
  pair of prepared qudits, and shots are drawn over only the heralded cells
  its estimator reads.  Those cells are identities of the protocol: the
  all-Bell cells are the exact outcome distribution of this same network
  (teleportation), and the cells with every horizontal wire traced factor
  into one chain of d x d channels per site (a traced wire is
  Omega + (1 - Omega) = I, which cuts it).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import serialize
from .errors import (
    CanonicalFormError,
    SamplingError,
    ShapeError,
    SizeGuardError,
)
from .linalg import as_matrix, dagger, is_unitary, svd
from .mps import MPS

CONTRACTION_GUARD = 2**24


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
    boundary weight; a plan with a step whose result would exceed the size
    guard raises SizeGuardError before the first step runs.
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
    are traced first.  The pair order comes from :func:`_plan`, which sees
    only shapes and labels, so networks of the same shape share one plan.
    The size guard is checked against the plan's largest step before any
    step runs.  Returns (tensor, open legs) with the open legs in canonical
    label order.
    """
    arrays, signature = [], []
    for tensor, labels in items:
        labels = list(labels)
        while (dup := _first_dup(labels)) is not None:
            dim_a, dim_b = (tensor.shape[k] for k in dup)
            if dim_a != dim_b:
                raise ShapeError(
                    f"wire {labels[dup[0]]!r} joins legs of dims {dim_a} and {dim_b}"
                )
            tensor = np.trace(tensor, axis1=dup[0], axis2=dup[1])
            labels = [w for k, w in enumerate(labels) if k not in dup]
        tensor = np.asarray(tensor)
        arrays.append(tensor)
        signature.append((tensor.shape, tuple(labels)))
    if len(arrays) == 1:
        (tensor,), ((_, labels),) = arrays, signature
        perm = _canonical_perm(labels)
        return tensor.transpose(perm), [labels[k] for k in perm]
    plan = _plan(tuple(signature))
    _guard(plan.peak, guard_label)
    tensors = dict(enumerate(arrays))
    for i, j, perm_a, perm_b, inner, out_shape, new_id in plan.steps:
        # np.tensordot without its per-call overhead, which dominates on the
        # many small tensors of a region.
        a, b = tensors.pop(i).transpose(perm_a), tensors.pop(j).transpose(perm_b)
        tensors[new_id] = (a.reshape(-1, inner) @ b.reshape(inner, -1)).reshape(out_shape)
    (tensor,) = tensors.values()
    return tensor.transpose(plan.perm), list(plan.labels)


class _Plan(NamedTuple):
    steps: tuple  # (i, j, perm_a, perm_b, inner, out_shape, new_id) per step
    perm: tuple  # final transpose into canonical label order
    labels: tuple  # open labels in canonical order
    peak: int  # largest step result, in entries


@functools.lru_cache(maxsize=256)
def _plan(signature):
    """Pair order for a tuple of (shape, leg labels), from shapes alone.

    Each step contracts the pair of tensors that share a leg and whose
    result grows least (result size minus the two input sizes); ties go to
    the lowest item indices, so the order is deterministic.  Tensors that
    share no leg are joined last by outer products, smallest first.  A wire
    joining legs of different sizes raises ShapeError.  The plan holds no
    guard: callers check its ``peak`` against the guard in force.
    """
    sizes, legs, holders, dims = {}, {}, {}, {}
    for i, (shape, labels) in enumerate(signature):
        sizes[i], legs[i] = math.prod(shape), list(labels)
        for lab, dim in zip(labels, shape):
            holders.setdefault(lab, []).append(i)
            if dims.setdefault(lab, dim) != dim:
                raise ShapeError(f"wire {lab!r} joins legs of dims {dims[lab]} and {dim}")
    heap = []

    def push(i, j):  # i < j
        shared = math.prod(dims[lab] for lab in legs[i] if lab in legs[j])
        heapq.heappush(heap, (sizes[i] * sizes[j] // shared**2 - sizes[i] - sizes[j], i, j))

    for pair in {tuple(h) for h in holders.values() if len(h) == 2}:
        push(*pair)
    steps, peak = [], 0
    next_id = len(signature)
    while len(legs) > 1:
        if heap:
            _, i, j = heapq.heappop(heap)
            if i not in legs or j not in legs:
                continue
        else:
            i, j = sorted(legs, key=lambda k: (sizes[k], k))[:2]
        shared = [lab for lab in legs[i] if lab in legs[j]]
        out = [lab for lab in legs[i] + legs[j] if lab not in shared]
        ax_a = [legs[i].index(lab) for lab in shared]
        ax_b = [legs[j].index(lab) for lab in shared]
        perm_a = tuple([k for k in range(len(legs[i])) if k not in ax_a] + ax_a)
        perm_b = tuple(ax_b + [k for k in range(len(legs[j])) if k not in ax_b])
        out_shape = tuple(dims[lab] for lab in out)
        sizes[next_id] = math.prod(out_shape)
        peak = max(peak, sizes[next_id])
        inner = math.prod(dims[lab] for lab in shared)
        steps.append((i, j, perm_a, perm_b, inner, out_shape, next_id))
        legs[next_id] = out
        del legs[i], legs[j]
        for lab in shared:
            del holders[lab]
        for lab in out:
            holders[lab] = [next_id if h in (i, j) else h for h in holders[lab]]
        for h in {h for lab in out for h in holders[lab]} - {next_id}:
            push(h, next_id)
        next_id += 1
    (labels,) = legs.values()
    perm = _canonical_perm(labels)
    return _Plan(tuple(steps), perm, tuple(labels[k] for k in perm), peak)


def _canonical_perm(labels):
    return tuple(sorted(range(len(labels)), key=lambda k: _label_key(labels[k])))


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


def _doubled(tensor):
    """T (x) T* with each leg fused to its conjugate, ket index first."""
    n = tensor.ndim
    pair = np.multiply.outer(tensor, tensor.conj())
    perm = [a for k in range(n) for a in (k, k + n)]
    return pair.transpose(perm).reshape([dim * dim for dim in tensor.shape])


def _guard_doubled(tensors, label):
    """Refuse from shapes, before any is built, when the doubled copies of
    ``tensors`` together exceed the contraction guard."""
    size = sum(t.size**2 for t in tensors)
    if size > CONTRACTION_GUARD:
        raise SizeGuardError(
            f"doubled site tensors of {label} hold {size} entries together "
            f"(> {CONTRACTION_GUARD}); refusing"
        )


def _bell_branches(dim):
    """Doubled Omega = |w><w| and 1 - Omega on a wire's two endpoints,
    stacked along a leading outcome leg."""
    bell = np.eye(dim * dim) / dim
    ident = np.eye(dim).reshape(-1)
    return np.stack([bell, np.outer(ident, ident) - bell])


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
    if strategy not in ("postselect", "corrected"):
        raise ShapeError(f"unknown sampling strategy {strategy!r}")
    for site, op in net.observables.items():
        if np.max(np.abs(op - dagger(op))) > 1e-10:
            raise ShapeError(f"observable at site {site} is not Hermitian")
    d, tensors = net.d, net.psi.tensors
    measured = sorted(net.observables)
    eig = {c: obs_eigenbasis(net.observables[c]) for c in measured}
    legs = _node_axis_wires(net)
    items = []
    for node in net.nodes:
        if node.kind == "obs" and node.col in eig:
            # Eigenprojectors stacked as (outcome, ket, conj), transposed like op.T.
            vecs = eig[node.col][1]
            items.append((np.einsum("ko,co->okc", vecs.conj(), vecs),
                          [("out", node.col)] + legs[node.nid]))
        else:
            items.append((node.tensor, legs[node.nid]))
    exact, _ = _contract_group(items, "branch distribution")
    scale = abs(net.psi.boundary[0, 0]) ** 2 * math.prod(t.shape[2] for t in tensors[:-1])
    scale *= math.prod(pair.bond_dim * d * d for pair in net.gate_pairs.values())
    rows = [exact.real.reshape(-1) / scale]
    # Gate halves as (site, stacked Kraus set), in layer order.
    halves = [(site + side, np.stack(ops)) for (_, site), pair in net.gate_pairs.items()
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
    """Monte-Carlo estimate from the heralded-measurement realization.

    Shots are drawn over the cells of :func:`branch_distribution` plus the
    reject cell.  ``postselect`` averages the observable over row 0.
    ``corrected`` postselects only the vertical wires: with m the exact rows
    summed and f the sampled frequencies of row 1, the estimate is
    (m - f).lam / (sum m - sum f), with a delta-method stderr.  SamplingError
    when the estimator's row expects under one sample, or draws none.  The
    expected accepted count and stderr are the same formulas at the exact
    cells: a trust diagnostic that needs no sample.
    """
    if shots < 1:
        raise ShapeError("need at least one shot")
    probs, lam, clipped = branch_distribution(net, strategy)
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
        if abs(m.sum() - f.sum()) < 1e-12:
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


def simulate_oqt_plan(plan: OqtPlan, observables, mode: str = "corrected") -> complex:
    """Exact value of the preparation plan as one doubled (ket (x) bra) contraction.

    Each segment is the purified Choi state of its two site channels; each
    join between segments is the binary Bell measurement {Omega, 1 - Omega},
    one tensor stacking two branches over a bit leg and weighted by chi,
    which undoes both the 1/chi of Omega and the chi of a raw segment's norm.
    ``postselect`` keeps the all-Bell branch (teleportation identity);
    ``corrected`` stacks the traced join with 1 - Omega and closes the bit
    with (1, -1): the alternating sum of the depolarizing mixing identity.
    Refuses with SizeGuardError from the site shapes before building anything.
    """
    bit_close = {"postselect": [1, 0], "corrected": [1, -1]}
    if mode not in bit_close:
        raise ShapeError(f"unknown oqt simulation mode {mode!r}")
    psi, label = plan.psi, f"oqt preparation plan ({mode})"
    # Every step of the plan stays below the largest doubled site (256
    # against 1024 entries at chi = 4), so the sites are what the guard prices.
    _guard_doubled(psi.tensors, label)
    obs = {int(site): as_matrix(op) for site, op in observables}
    # Bond b joins sites b - 1 and b; a join splits its bond label in two.
    joins = [first for first, _ in plan.segments[1:]]
    items = [(np.ones(1), [0]), (np.ones(1), [psi.n_sites])]
    for c, t in enumerate(psi.tensors):
        bonds = [(c, 1) if c in joins else c, (c + 1, 0) if c + 1 in joins else c + 1]
        items.append((_doubled(t), [("p", c)] + bonds))
        items.append((obs.get(c, np.eye(t.shape[0])).T.reshape(-1), [("p", c)]))
    for b, chi in zip(joins, plan.join_dims):
        branches = _bell_branches(chi)
        if mode == "corrected":  # summing both outcomes traces the join
            branches = np.stack([branches.sum(axis=0), branches[1]])
        items.append((chi * branches, [("bit", b), (b, 0), (b, 1)]))
        items.append((np.array(bit_close[mode]), [("bit", b)]))
    value, _ = _contract_group(items, label)
    return abs(psi.boundary[0, 0]) ** 2 * complex(value.reshape(()))
