"""The contraction core, the one engine for every tensor graph of the package.

A graph is a list of (array, leg labels) items; legs that share a label are
contracted.  :func:`_plan` orders the pairs from trailing shapes and labels
alone (cached), :func:`_execute` runs the order, over a leading batch axis
when there is one, and the size guard prices the largest step first.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import NamedTuple

import numpy as np

from . import limits
from .errors import ShapeError


def _guard(size, label):
    """Refuse a contraction whose largest step x batch exceeds CONTRACTION_GUARD."""
    limits.guard(size, limits.CONTRACTION_GUARD, f"contraction intermediate for {label}")


def _label_key(label):
    """Total order over int and tuple wire labels."""
    if isinstance(label, tuple):
        return (1,) + tuple(label)
    return (0, label)


def _contract_group(items, guard_label):
    """Contract (tensor, leg labels) items into one tensor.

    Labels name the trailing axes; the axes before them are batch axes, and
    the items' batch shapes broadcast together.  Legs sharing a label are
    contracted; legs that meet inside one tensor are traced first.  The
    pair order comes from :func:`_plan`, so graphs of the same trailing
    shapes and labels share one plan, stacked or not.  The size guard is
    checked against the batch size x the plan's largest step before any
    step runs.  Returns the tensor of shape batch + open legs, the open legs
    in canonical label order.
    """
    arrays, signature, batches = [], [], []
    for tensor, labels in items:
        tensor, labels = np.asarray(tensor), tuple(labels)
        nb = tensor.ndim - len(labels)
        if nb < 0:
            raise ShapeError(f"{len(labels)} leg labels for a {tensor.ndim}-axis tensor")
        arrays.append(tensor)
        signature.append((tensor.shape[nb:], labels))
        batches.append(tensor.shape[:nb])
    try:
        batch = np.broadcast_shapes(*set(batches))
    except ValueError:
        raise ShapeError(f"batch axes {sorted(set(batches))} do not broadcast") from None
    plan = _plan(tuple(signature))
    cases = math.prod(batch)
    _guard(cases * plan.peak, guard_label)
    if batch:  # one flattened batch axis, as the networks' chunks have
        arrays = [np.broadcast_to(a, batch + shape).reshape((cases,) + shape)
                  for a, (shape, _) in zip(arrays, signature)]
    return _execute(plan, arrays, (cases,) if batch else ()).reshape(batch + plan.shape)


def _execute(plan, arrays, batch):
    """Run ``plan`` on its items' arrays, which share one leading batch axis
    ``batch`` = (cases,) or none (then each step is one 2-D matmul).  Unit axes
    are dropped after the traces and restored in the result: no step has them."""
    nb = len(batch)
    tensors = dict(enumerate(arrays))
    for i, pairs in plan.traces:
        for a, b in pairs:
            tensors[i] = np.trace(tensors[i], axis1=a + nb, axis2=b + nb)
    for i, shape in plan.squeeze:
        tensors[i] = tensors[i].reshape(batch + shape)
    for i, j, perms, inner, out_shape, new_id in plan.steps:
        # np.tensordot without its per-call overhead, which dominates on the
        # many small tensors of a region.
        perm_a, perm_b = perms[nb]
        a, b = tensors.pop(i).transpose(perm_a), tensors.pop(j).transpose(perm_b)
        product = a.reshape(batch + (-1, inner)) @ b.reshape(batch + (inner, -1))
        tensors[new_id] = product.reshape(batch + out_shape)
    (tensor,) = tensors.values()
    tensor = tensor.transpose(tuple(range(nb)) + tuple(k + nb for k in plan.perm))
    return tensor.reshape(batch + plan.shape)


class _Plan(NamedTuple):
    """A pair order from shapes.  Unit legs stay in the greedy's graph, but
    no executed array carries them: the step permutations and shapes and the
    final transpose count only the axes of dim > 1."""

    traces: tuple  # (item, ((axis, axis), ...)) per item with a self-joined leg
    squeeze: tuple  # (item, traced shape without unit axes) per item with one
    steps: tuple  # (i, j, perms, inner, out_shape, new_id) per step; see below
    perm: tuple  # final transpose into canonical label order
    labels: tuple  # open labels in canonical order
    shape: tuple  # open leg dims in canonical order
    peak: int  # largest step result, in entries


def _make_plan(signature):
    """Pair order for a tuple of (shape, leg labels), from shapes alone.

    Legs of one item that share a label are traced first.  Each step then
    contracts the pair of tensors that share a leg and whose result grows
    least (result size minus the two input sizes); ties go to the lowest
    item indices, so the order is deterministic.  Tensors that share no leg
    are joined last by outer products, smallest first.  A wire joining legs
    of different sizes raises ShapeError.  The plan holds no guard: callers
    check its ``peak`` against the guard in force.
    """
    traces, squeeze, sizes, legs, holders, dims = [], [], {}, {}, {}, {}
    for i, (shape, labels) in enumerate(signature):
        shape, labels, pairs = list(shape), list(labels), []
        while (dup := _first_dup(labels)) is not None:
            if shape[dup[0]] != shape[dup[1]]:
                raise ShapeError(
                    f"wire {labels[dup[0]]!r} joins legs of dims "
                    f"{shape[dup[0]]} and {shape[dup[1]]}"
                )
            pairs.append(dup)
            shape = [dim for k, dim in enumerate(shape) if k not in dup]
            labels = [lab for k, lab in enumerate(labels) if k not in dup]
        if pairs:
            traces.append((i, tuple(pairs)))
        if 1 in shape:
            squeeze.append((i, tuple(dim for dim in shape if dim > 1)))
        sizes[i], legs[i] = math.prod(shape), labels
        for lab, dim in zip(labels, shape):
            holders.setdefault(lab, []).append(i)
            if dims.setdefault(lab, dim) != dim:
                raise ShapeError(f"wire {lab!r} joins legs of dims {dims[lab]} and {dim}")
    heap = []

    def wide(labels):  # the labels of the axes an executed array has
        return [lab for lab in labels if dims[lab] > 1]

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
        wide_a, wide_b = wide(legs[i]), wide(legs[j])
        ax_a = [wide_a.index(lab) for lab in wide(shared)]
        ax_b = [wide_b.index(lab) for lab in wide(shared)]
        perm_a = tuple([k for k in range(len(wide_a)) if k not in ax_a] + ax_a)
        perm_b = tuple(ax_b + [k for k in range(len(wide_b)) if k not in ax_b])
        out_shape = tuple(dims[lab] for lab in wide(out))
        sizes[next_id] = math.prod(out_shape)
        peak = max(peak, sizes[next_id])
        inner = math.prod(dims[lab] for lab in shared)
        # perms[nb]: the operand transposes without (0) and with (1) a batch axis.
        batched = [(0,) + tuple(k + 1 for k in perm) for perm in (perm_a, perm_b)]
        steps.append((i, j, ((perm_a, perm_b), tuple(batched)), inner, out_shape, next_id))
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
    perm = _canonical_perm(wide(labels))
    labels = tuple(labels[k] for k in _canonical_perm(labels))
    return _Plan(tuple(traces), tuple(squeeze), tuple(steps), perm, labels,
                 tuple(dims[lab] for lab in labels), peak)


_plan = functools.lru_cache(maxsize=256)(_make_plan)


def _canonical_perm(labels):
    return tuple(sorted(range(len(labels)), key=lambda k: _label_key(labels[k])))


def _first_dup(legs):
    seen = {}
    for i, w in enumerate(legs):
        if w in seen:
            return (seen[w], i)
        seen[w] = i
    return None
