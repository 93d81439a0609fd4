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
    out = _execute(plan, arrays, (cases,) if batch else ())
    nb = 1 if batch else 0
    return out.transpose((*range(nb), *[k + nb for k in plan.perm])).reshape(batch + plan.shape)


def _execute(plan, arrays, batch):
    """Run ``plan`` on its items' arrays, which share one leading batch axis
    ``batch`` = (cases,) or none (then each step is one 2-D matmul).  Unit axes
    are dropped after the traces and restored in the result: no step has them.
    Operands enter each matmul as views or copies as the plan's steps say.
    The result is in memory order, batch + ``plan.mem_shape``; ``plan.perm``
    takes it to canonical label order."""
    nb = len(batch)
    tensors = dict(enumerate(arrays))
    for i, pairs in plan.traces:
        for a, b in pairs:
            tensors[i] = np.trace(tensors[i], axis1=a + nb, axis2=b + nb)
    for i, shape in plan.squeeze:
        tensors[i] = tensors[i].reshape(batch + shape)
    for i, j, (perm_a, lead_a), (perm_b, lead_b), inner, out_shape, new_id in plan.steps:
        # np.tensordot without its per-call overhead, which dominates on the
        # many small tensors of a region.
        a, b = tensors.pop(i), tensors.pop(j)
        if perm_a is not None:
            a = a.transpose((0, *[k + 1 for k in perm_a]) if nb else perm_a)
        if perm_b is not None:
            b = b.transpose((0, *[k + 1 for k in perm_b]) if nb else perm_b)
        a = a.reshape(batch + ((inner, -1) if lead_a else (-1, inner)))
        b = b.reshape(batch + ((inner, -1) if lead_b else (-1, inner)))
        product = (a.swapaxes(-1, -2) if lead_a else a) @ (b if lead_b else b.swapaxes(-1, -2))
        tensors[new_id] = product.reshape(batch + out_shape)
    (tensor,) = tensors.values()
    return tensor.reshape(batch + plan.mem_shape)


class _Plan(NamedTuple):
    """A pair order from shapes.  Unit legs stay in the greedy's graph, but
    no executed array carries them: the step operands, shapes and the memory
    order count only the axes of dim > 1."""

    traces: tuple  # (item, ((axis, axis), ...)) per item with a self-joined leg
    squeeze: tuple  # (item, traced shape without unit axes) per item with one
    steps: tuple  # (i, j, operand i, operand j, inner, out_shape, new_id); see below
    mem_labels: tuple  # open labels in the result's memory order, unit legs last
    mem_shape: tuple  # their dims
    perm: tuple  # transpose of the result from memory into canonical label order
    labels: tuple  # open labels in canonical order
    shape: tuple  # open leg dims in canonical order
    peak: int  # largest step result, in entries


def _make_plan(signature):
    """Pair order for a tuple of (shape, leg labels), from shapes alone.

    Legs of one item that share a label are traced first.  Each step then
    contracts the pair of tensors that share a leg and whose result is
    smallest relative to its operands (result size over the sum of the two
    input sizes; Gray & Kourtis, Quantum 5, 410, 2021); ties go to the
    lowest item indices, so the order is deterministic.  Tensors that share
    no leg are joined last by outer products, smallest first.  A wire joining legs
    of different sizes raises ShapeError.  The plan holds no guard: callers
    check its ``peak`` against the guard in force.

    Arrays are taken to be in memory order: an item's axes as labelled, a
    step's result as the free axes of its first operand, then its second.
    A step's shared axes take their order from an operand where they lead
    or trail, the larger operand first; see :func:`_operand`.  So the 2-D
    reshape of that operand is a view, and only an operand whose shared and
    free axes interleave, or run in the other order, is copied.
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
        heapq.heappush(heap, (sizes[i] * sizes[j] // shared**2 / (sizes[i] + sizes[j]), i, j))

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
        axes_a, axes_b = wide(legs[i]), wide(legs[j])
        inner = set(wide(shared))
        # The larger operand's block first: when the two disagree, the smaller is copied.
        larger = (axes_a, axes_b) if sizes[i] >= sizes[j] else (axes_b, axes_a)
        blocks = [b for axes in larger
                  for b in (axes[:len(inner)], axes[len(axes) - len(inner):]) if set(b) == inner]
        order = blocks[0] if blocks else [lab for lab in axes_a if lab in inner]
        out_shape = tuple(dims[lab] for lab in wide(out))
        sizes[next_id] = math.prod(out_shape)
        peak = max(peak, sizes[next_id])
        steps.append((i, j, _operand(axes_a, order), _operand(axes_b, order),
                      math.prod(dims[lab] for lab in shared), out_shape, next_id))
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
    mem = wide(labels) + [lab for lab in labels if dims[lab] == 1]
    perm = _canonical_perm(mem)
    labels = tuple(mem[k] for k in perm)
    return _Plan(tuple(traces), tuple(squeeze), tuple(steps), tuple(mem),
                 tuple(dims[lab] for lab in mem), perm, labels,
                 tuple(dims[lab] for lab in labels), peak)


def _operand(axes, order):
    """(perm, lead) of a step operand whose axes carry ``axes`` and whose
    shared labels run in ``order``: (None, True) if they lead and (None,
    False) if they trail, a view either way; else the copying transpose
    that moves them last, with lead False."""
    k = len(order)
    if axes[:k] == order:
        return None, True
    if axes[len(axes) - k:] == order:
        return None, False
    return tuple([a for a, lab in enumerate(axes) if lab not in order]
                 + [axes.index(lab) for lab in order]), False


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
