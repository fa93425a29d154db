"""The Mocktails model generator: trace -> statistical profile.

This is the "Model Generator" box of the paper's Fig. 1. Industry runs
it on a proprietary trace; the resulting :class:`Profile` can be shared
without revealing the trace.

Two data paths build the same profile:

* the **scalar** path walks per-request objects through
  :func:`~repro.core.hierarchy.build_leaves` and fits each leaf with the
  ``leaf_factory`` — the reference implementation;
* the **columnar** path (numpy) partitions whole int64 columns into leaf
  index segments. With the default all-McC leaf factory it fits every
  leaf's four McC models in batched column passes — no per-request
  objects, no per-transition Counter churn. Any other factory (the STM
  baselines) is handed each segment's requests.

The columnar path is bit-identical to the scalar one, down to Markov
transition-dict insertion order (which serialization depends on).
:func:`build_profile` picks the path from its inputs: columnar when
numpy is importable and every value fits in int64; scalar otherwise.
Each scalar build under an active :mod:`repro.obs` registry bumps
``profile.fallback.<reason>`` (``no_numpy`` or ``int64_range``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from .hierarchy import (
    HierarchyConfig,
    SpatialLayer,
    TemporalLayer,
    build_leaves,
    two_level_ts,
)
from .leaf import LeafModel, McCAddressModel, McCOperationModel
from .markov import MarkovChain
from .mcc import CONSTANT, MARKOV, McCModel
from .request import AddressRange, MemoryRequest, Operation
from .spatial import partition_dynamic_columnar, partition_fixed_columnar
from .trace import Trace

LeafModelFactory = Callable[[Sequence[MemoryRequest], AddressRange], LeafModel]

_INT64_MAX = 2**63 - 1


def build_profile(
    trace: Union[Trace, "ColumnarTrace"],
    config: HierarchyConfig = None,
    leaf_factory: LeafModelFactory = LeafModel.fit,
    name: str = "",
):
    """Build a statistical profile from a trace.

    Args:
        trace: Time-ordered memory request trace — a :class:`Trace` or a
            :class:`~repro.core.columnar.ColumnarTrace`.
        config: Hierarchical partitioning configuration; defaults to the
            paper's ``2L-TS`` (500k-cycle temporal intervals, then dynamic
            spatial partitioning).
        leaf_factory: Builds the model for each leaf. The default fits
            all-McC leaves; pass :func:`repro.baselines.stm.stm_leaf_factory`
            for the ``2L-TS (STM)`` comparison point.
        name: Optional workload name recorded in the profile.

    Returns:
        A :class:`repro.core.profile.Profile`.
    """
    from .columnar import ColumnarTrace, numpy_or_none
    from .profile import Profile

    if config is None:
        config = two_level_ts()

    np = numpy_or_none()
    if np is None:
        _count_fallback("no_numpy")
    else:
        columns = trace if isinstance(trace, ColumnarTrace) else ColumnarTrace.from_trace(trace)
        models = _build_models_columnar(np, columns, config, leaf_factory)
        if models is not None:
            return Profile(models, hierarchy=config.describe(), name=name)
        _count_fallback("int64_range")

    if isinstance(trace, ColumnarTrace):
        trace = trace.to_trace()
    leaves = build_leaves(trace.requests, config)
    models = [leaf_factory(leaf.requests, leaf.region) for leaf in leaves]
    return Profile(models, hierarchy=config.describe(), name=name)


def _count_fallback(reason: str) -> None:
    """Bump ``profile.fallback.<reason>`` when a registry is active."""
    registry = obs.active()
    if registry is not None:
        registry.counter(f"profile.fallback.{reason}").inc()


# -- columnar path -------------------------------------------------------------


def _build_models_columnar(np, columns, config: HierarchyConfig, leaf_factory):
    """All leaf models for ``columns``, or ``None`` to fall back to scalar.

    Falls back when any value would not survive int64 arithmetic (the
    partitioning math computes address + size and timestamp deltas in
    int64).
    """
    if len(columns) == 0:
        return []
    if int(np.max(columns.timestamps)) > _INT64_MAX:
        return None
    if int(np.max(columns.addresses)) + int(np.max(columns.sizes)) > _INT64_MAX:
        return None
    if not columns.is_sorted():
        # Same contract as build_leaves on the scalar path.
        raise ValueError("requests must be sorted by timestamp")

    timestamps = columns.timestamps.astype(np.int64)
    addresses = columns.addresses.astype(np.int64)
    sizes = columns.sizes.astype(np.int64)
    ops = columns.ops.astype(np.int64)

    everything = np.arange(len(columns), dtype=np.int64)
    segments = _leaf_segments(np, timestamps, addresses, sizes, config.layers, everything, None)
    # Bound-method equality, not identity: each LeafModel.fit attribute
    # access creates a fresh bound method object.
    if leaf_factory == LeafModel.fit:
        return _fit_leaves_batched(np, timestamps, addresses, sizes, ops, segments)
    return [
        leaf_factory(requests, region)
        for requests, region in _leaf_requests(np, timestamps, addresses, sizes, ops, segments)
    ]


def _leaf_segments(np, timestamps, addresses, sizes, layers, indices, region):
    """Recursive hierarchy application over index arrays.

    Mirrors :func:`repro.core.hierarchy._build`: same recursion order,
    same leaf regions, same per-leaf request order.
    """
    if not len(indices):
        return []
    if not layers:
        if region is None:
            leaf_addresses = addresses[indices]
            region = AddressRange(
                int(leaf_addresses.min()),
                int((leaf_addresses + sizes[indices]).max()),
            )
        return [(indices, region)]

    layer, rest = layers[0], layers[1:]
    leaves = []
    if isinstance(layer, TemporalLayer):
        for chunk in _temporal_split(np, timestamps, indices, layer):
            leaves.extend(_leaf_segments(np, timestamps, addresses, sizes, rest, chunk, region))
    else:
        for sub_region, local in _spatial_split(np, timestamps, addresses, sizes, indices, layer):
            leaves.extend(
                _leaf_segments(np, timestamps, addresses, sizes, rest, indices[local], sub_region)
            )
    return leaves


def _temporal_split(np, timestamps, indices, layer: TemporalLayer):
    if layer.kind == "request_count":
        return [indices[i : i + layer.size] for i in range(0, len(indices), layer.size)]
    times = timestamps[indices]
    bins = (times - times[0]) // layer.size
    breaks = np.flatnonzero(np.diff(bins)) + 1
    return np.split(indices, breaks)


def _spatial_split(np, timestamps, addresses, sizes, indices, layer: SpatialLayer):
    if layer.kind == "fixed":
        return partition_fixed_columnar(np, addresses[indices], layer.block_size)
    return partition_dynamic_columnar(
        np, addresses[indices], sizes[indices], timestamps[indices]
    )


def _leaf_requests(np, timestamps, addresses, sizes, ops, segments):
    """Each leaf segment's requests, as the scalar path hands them over.

    One gather and one ``tolist`` per column for all leaves; each leaf
    then gets a slice of the resulting :class:`MemoryRequest` list.
    """
    if not segments:
        return []
    gather = np.concatenate([indices for indices, _ in segments])
    operation = {int(op): op for op in Operation}
    requests = [
        MemoryRequest(t, a, operation[o], s)
        for t, a, o, s in zip(
            timestamps[gather].tolist(),
            addresses[gather].tolist(),
            ops[gather].tolist(),
            sizes[gather].tolist(),
        )
    ]
    leaves = []
    start = 0
    for indices, region in segments:
        stop = start + len(indices)
        leaves.append((requests[start:stop], region))
        start = stop
    return leaves


def _fit_leaves_batched(np, timestamps, addresses, sizes, ops, segments) -> List[LeafModel]:
    """Fit every leaf's four McC models as batched column passes.

    All leaves' values are concatenated per feature; constant detection
    is a reduceat min/max pass, and every Markov chain is built from one
    global sort of transition pairs (see :func:`_fit_markov_batched`).
    """
    if not segments:
        return []
    leaf_count = len(segments)
    lengths = np.fromiter((len(s[0]) for s in segments), dtype=np.int64, count=leaf_count)
    gather = np.concatenate([s[0] for s in segments])
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)))

    leaf_times = timestamps[gather]
    leaf_addresses = addresses[gather]
    leaf_sizes = sizes[gather]
    leaf_ops = ops[gather]

    # Per-leaf diffs (deltas/strides): one global diff, then drop the
    # positions that cross a leaf boundary. Leaf i's diffs live at
    # offsets[i] - i in the compacted array.
    if len(gather) > 1:
        keep = np.ones(len(gather) - 1, dtype=bool)
        keep[offsets[1:-1] - 1] = False
        deltas = np.diff(leaf_times)[keep]
        strides = np.diff(leaf_addresses)[keep]
    else:
        deltas = np.empty(0, dtype=np.int64)
        strides = np.empty(0, dtype=np.int64)
    diff_offsets = offsets - np.arange(leaf_count + 1, dtype=np.int64)

    delta_models = _fit_mcc_batched(np, deltas, diff_offsets)
    size_models = _fit_mcc_batched(np, leaf_sizes, offsets)
    stride_models = _fit_mcc_batched(np, strides, diff_offsets)
    op_models = _fit_mcc_batched(np, leaf_ops, offsets)

    start_times = leaf_times[offsets[:-1]].tolist()
    start_addresses = leaf_addresses[offsets[:-1]].tolist()
    counts = lengths.tolist()

    models = []
    for i, (_, region) in enumerate(segments):
        models.append(
            LeafModel(
                start_time=start_times[i],
                count=counts[i],
                region=region,
                delta_time_model=delta_models[i],
                size_model=size_models[i],
                address_model=McCAddressModel(start_addresses[i], region, stride_models[i]),
                operation_model=McCOperationModel(op_models[i]),
            )
        )
    return models


def _fit_mcc_batched(np, values, offsets) -> List[McCModel]:
    """Batched :meth:`McCModel.fit` over value segments.

    ``values`` holds every segment's observed feature sequence back to
    back; segment ``i`` is ``values[offsets[i]:offsets[i+1]]``. Returns
    one model per segment, bit-identical to fitting each individually.
    """
    segment_count = len(offsets) - 1
    lengths = np.diff(offsets)
    models: List[Optional[McCModel]] = [None] * segment_count

    if len(values):
        # reduceat treats consecutive indices as segment bounds, so empty
        # segments must be dropped, not clamped: clamping an empty tail's
        # start into range truncates the preceding segment's reduction.
        # Consecutive empty segments share their successor's offset, so
        # the non-empty starts are strictly increasing and each reduction
        # ends exactly at its own segment's end.
        nonempty = lengths > 0
        starts = offsets[:-1][nonempty]
        constant_all = np.ones(segment_count, dtype=bool)
        constant_all[nonempty] = np.minimum.reduceat(values, starts) == (
            np.maximum.reduceat(values, starts)
        )
        firsts = np.zeros(segment_count, dtype=values.dtype)
        firsts[nonempty] = values[starts]
        length_list = lengths.tolist()
        constant = constant_all.tolist()
        first_list = firsts.tolist()
    else:
        length_list = [0] * segment_count
        constant = [True] * segment_count
        first_list = [None] * segment_count

    markov_ids = []
    for i in range(segment_count):
        length = length_list[i]
        if length == 0:
            models[i] = McCModel(CONSTANT, 0, constant=None)
        elif constant[i]:
            models[i] = McCModel(CONSTANT, length, constant=first_list[i])
        else:
            markov_ids.append(i)

    if markov_ids:
        chains = _fit_markov_batched(np, values, offsets, markov_ids)
        for i, chain in zip(markov_ids, chains):
            models[i] = McCModel(MARKOV, chain.length, chain=chain)
    return models  # type: ignore[return-value]


def _fit_markov_batched(np, values, offsets, markov_ids) -> List[MarkovChain]:
    """Build every Markov chain from one global pass over transition pairs.

    Transition rows must match :meth:`MarkovChain.fit` exactly —
    including dict insertion order (sources by first occurrence as a
    source, targets by first occurrence of the pair), which
    serialization's state numbering depends on. A stable lexsort groups
    identical ``(segment, src, dst)`` pairs; sorting the groups back by
    first-occurrence position rebuilds the scalar insertion order.
    """
    selected = np.asarray(markov_ids, dtype=np.int64)
    seg_starts = offsets[:-1][selected]
    seg_stops = offsets[1:][selected]
    seg_lengths = seg_stops - seg_starts
    local_offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(seg_lengths)))
    gathered = values[_concat_ranges(np, seg_starts, seg_stops)]
    segment_of = np.repeat(np.arange(len(selected), dtype=np.int64), seg_lengths)

    same_segment = segment_of[1:] == segment_of[:-1]
    src = gathered[:-1][same_segment]
    dst = gathered[1:][same_segment]
    pair_segment = segment_of[:-1][same_segment]
    pair_count = len(src)

    order = np.lexsort((dst, src, pair_segment))
    s_src = src[order]
    s_dst = dst[order]
    s_segment = pair_segment[order]
    s_position = np.arange(pair_count, dtype=np.int64)[order]

    new_group = np.ones(pair_count, dtype=bool)
    new_group[1:] = (
        (s_segment[1:] != s_segment[:-1])
        | (s_src[1:] != s_src[:-1])
        | (s_dst[1:] != s_dst[:-1])
    )
    group_starts = np.flatnonzero(new_group)
    group_counts = np.diff(np.concatenate((group_starts, np.asarray([pair_count]))))
    g_segment = s_segment[group_starts]
    g_src = s_src[group_starts]
    g_dst = s_dst[group_starts]
    # Stable sort => the first member of each group is the earliest
    # occurrence of that (segment, src, dst) pair in sequence order.
    g_first = s_position[group_starts]

    new_row = np.ones(len(group_starts), dtype=bool)
    new_row[1:] = (g_segment[1:] != g_segment[:-1]) | (g_src[1:] != g_src[:-1])
    row_id = np.cumsum(new_row) - 1
    row_first = np.minimum.reduceat(g_first, np.flatnonzero(new_row))
    emit = np.lexsort((g_first, row_first[row_id], g_segment))

    emit_segment = g_segment[emit].tolist()
    emit_src = g_src[emit].tolist()
    emit_dst = g_dst[emit].tolist()
    emit_count = group_counts[emit].tolist()

    # Counter.__init__ (via its Mapping instance check) dominates this
    # loop if called once per row; allocate bare Counters and fill them
    # with plain dict item assignment instead (Counter does not override
    # __setitem__, and item assignment is its documented write path).
    new_counter = Counter.__new__
    transitions_by_segment: List[Dict] = [dict() for _ in range(len(selected))]
    for seg, source, target, count in zip(emit_segment, emit_src, emit_dst, emit_count):
        transitions = transitions_by_segment[seg]
        row = transitions.get(source)
        if row is None:
            transitions[source] = row = new_counter(Counter)
        row[target] = count

    initial_states = gathered[local_offsets[:-1]].tolist()
    chain_lengths = seg_lengths.tolist()
    return [
        MarkovChain(initial_states[k], transitions_by_segment[k], chain_lengths[k])
        for k in range(len(selected))
    ]


def _concat_ranges(np, starts, stops):
    """Concatenate ``arange(starts[i], stops[i])`` for every segment."""
    lengths = stops - starts
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    bases = np.repeat(starts, lengths)
    ends_before = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(ends_before, lengths)
    return bases + within
