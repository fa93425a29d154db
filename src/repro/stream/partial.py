"""Mergeable sufficient statistics for the out-of-core profile build.

The single-pass profiler (:mod:`repro.core.profiler`) needs the whole
trace in memory. This module decomposes the build into *partials* that
consume fixed-size column blocks and merge associatively, so a profile
can be computed map-reduce style: feed blocks into one partial
(sequential streaming) or into several offset shards merged in stream
order (parallel streaming). The reduced profile is **bit-identical** to
the single-pass output down to serialized bytes — including Markov
transition-dict insertion order, which serialization's state numbering
depends on.

Three accumulation modes, picked from the hierarchy's outermost layer:

``stats``
    A single temporal layer: every leaf is one temporal bin, so each
    open bin is tracked as a :class:`LeafPartial` of true sufficient
    statistics (first/last values, running region, transition counts).
    Memory is O(block + unique values), independent of bin length.

``interval``
    A temporal layer above further layers (the paper's 2L-TS/2L-RS and
    micro/macro configurations). Dynamic spatial partitioning needs a
    whole interval at once (Alg. 1 sorts the interval), so the open
    outer bin's raw blocks are buffered and fitted on close via
    :func:`repro.core.profiler.fit_interval_leaves`. Memory is
    O(interval), not O(trace).

``monolith``
    A spatial outermost layer: the partition depends on every request,
    so blocks are buffered and the single-pass builder runs at
    :meth:`ProfilePartial.finish`. Documented fallback — it streams the
    *input*, not the working set.

Chunk-boundary stitching: a value sequence split across blocks or
shards is rebuilt exactly. Within one partial the previous block's last
timestamp/address carry the delta/stride across the boundary; across
two partials :meth:`McCPartial.merge` applies the boundary transition
(left's last value → right's first value) *before* folding the right
side's transition rows, which provably reproduces the global
first-occurrence insertion order (dict item assignment preserves
existing key positions and appends new keys).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..core.columnar import ColumnarTrace, numpy_or_none
from ..core.hierarchy import HierarchyConfig, SpatialLayer
from ..core.leaf import LeafModel, McCAddressModel, McCOperationModel
from ..core.markov import MarkovChain
from ..core.mcc import CONSTANT, MARKOV, McCModel
from ..core.profiler import build_profile, fit_interval_leaves
from ..core.request import AddressRange

__all__ = ["McCPartial", "LeafPartial", "ProfilePartial"]


class McCPartial:
    """Mergeable sufficient statistics for one :class:`McCModel` feature.

    Feeding values one at a time, or merging a partial fed from the
    continuation of the same sequence, accumulates exactly the state
    :meth:`McCModel.fit` derives from the full sequence: count, first
    value, constancy, and the transition multiset in first-occurrence
    insertion order.
    """

    __slots__ = ("count", "first", "last", "constant", "transitions")

    def __init__(self):
        self.count = 0
        self.first = None
        self.last = None
        self.constant = True
        self.transitions: Dict = {}

    def feed_one(self, value) -> None:
        if self.count == 0:
            self.first = value
            self.last = value
            self.count = 1
            return
        if value != self.first:
            self.constant = False
        row = self.transitions.get(self.last)
        if row is None:
            self.transitions[self.last] = row = Counter()
        row[value] += 1
        self.last = value
        self.count += 1

    def merge(self, other: "McCPartial") -> "McCPartial":
        """Absorb a partial fed from the continuation of this sequence.

        ``other`` is consumed: its rows are adopted in place and it must
        not be used afterwards. The boundary transition (``self.last`` →
        ``other.first``) is recorded *first*; it precedes every right-side
        transition in sequence order, so applying it before folding
        ``other``'s rows keeps source keys and row targets in global
        first-occurrence order.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.first = other.first
            self.last = other.last
            self.constant = other.constant
            self.transitions = other.transitions
            return self
        if not other.constant or other.first != self.first:
            self.constant = False
        row = self.transitions.get(self.last)
        if row is None:
            self.transitions[self.last] = row = Counter()
        row[other.first] += 1
        for source, other_row in other.transitions.items():
            mine = self.transitions.get(source)
            if mine is None:
                self.transitions[source] = other_row
            else:
                for target, count in other_row.items():
                    mine[target] += count
        self.last = other.last
        self.count += other.count
        return self

    def finalize(self) -> McCModel:
        """The fitted model — bit-identical to :meth:`McCModel.fit`."""
        if self.count == 0:
            return McCModel(CONSTANT, 0, constant=None)
        if self.constant:
            return McCModel(CONSTANT, self.count, constant=self.first)
        return McCModel(
            MARKOV,
            self.count,
            chain=MarkovChain(self.first, self.transitions, self.count),
        )


class LeafPartial:
    """Mergeable sufficient statistics for one all-McC leaf model.

    Used by the ``stats`` mode, where one temporal bin is one leaf. The
    delta-time and stride features are sequences of *differences*, so
    the previous request's timestamp/address are carried across block
    and shard boundaries to rebuild the exact difference sequence.
    """

    __slots__ = (
        "count",
        "start_time",
        "first_address",
        "region_start",
        "region_end",
        "last_timestamp",
        "last_address",
        "delta",
        "size",
        "stride",
        "op",
    )

    def __init__(self):
        self.count = 0
        self.start_time = None
        self.first_address = None
        self.region_start = None
        self.region_end = None
        self.last_timestamp = None
        self.last_address = None
        self.delta = McCPartial()
        self.size = McCPartial()
        self.stride = McCPartial()
        self.op = McCPartial()

    def feed_block(self, block: ColumnarTrace) -> None:
        """Consume the leaf's next requests (Python-int domain).

        ``tolist()`` converts column values to plain ints so arbitrary
        magnitudes (and the serialized JSON) never see numpy scalars.
        """
        timestamps = block.timestamps.tolist()
        if not timestamps:
            return
        addresses = block.addresses.tolist()
        sizes = block.sizes.tolist()
        ops = block.ops.tolist()
        start = 0
        if self.count == 0:
            self.start_time = timestamps[0]
            self.first_address = addresses[0]
            self.region_start = addresses[0]
            self.region_end = addresses[0] + sizes[0]
            self.size.feed_one(sizes[0])
            self.op.feed_one(ops[0])
            self.last_timestamp = timestamps[0]
            self.last_address = addresses[0]
            self.count = 1
            start = 1
        for i in range(start, len(timestamps)):
            timestamp = timestamps[i]
            address = addresses[i]
            size = sizes[i]
            self.delta.feed_one(timestamp - self.last_timestamp)
            self.stride.feed_one(address - self.last_address)
            self.size.feed_one(size)
            self.op.feed_one(ops[i])
            if address < self.region_start:
                self.region_start = address
            end = address + size
            if end > self.region_end:
                self.region_end = end
            self.last_timestamp = timestamp
            self.last_address = address
        self.count += len(timestamps) - start

    def merge(self, other: "LeafPartial") -> "LeafPartial":
        """Absorb the continuation of this leaf from another partial."""
        if other.count == 0:
            return self
        if self.count == 0:
            for slot in self.__slots__:
                setattr(self, slot, getattr(other, slot))
            return self
        self.delta.feed_one(other.start_time - self.last_timestamp)
        self.delta.merge(other.delta)
        self.stride.feed_one(other.first_address - self.last_address)
        self.stride.merge(other.stride)
        self.size.merge(other.size)
        self.op.merge(other.op)
        if other.region_start < self.region_start:
            self.region_start = other.region_start
        if other.region_end > self.region_end:
            self.region_end = other.region_end
        self.last_timestamp = other.last_timestamp
        self.last_address = other.last_address
        self.count += other.count
        return self

    def finalize(self, region: Optional[AddressRange] = None) -> LeafModel:
        """The fitted leaf — bit-identical to :meth:`LeafModel.fit`."""
        if self.count == 0:
            raise ValueError("cannot fit a leaf model to zero requests")
        leaf_region = (
            region
            if region is not None
            else AddressRange(self.region_start, self.region_end)
        )
        return LeafModel(
            start_time=self.start_time,
            count=self.count,
            region=leaf_region,
            delta_time_model=self.delta.finalize(),
            size_model=self.size.finalize(),
            address_model=McCAddressModel(
                self.first_address, leaf_region, self.stride.finalize()
            ),
            operation_model=McCOperationModel(self.op.finalize()),
        )


class _Span:
    """One open (or boundary-held) outer temporal bin.

    ``payload`` is a :class:`LeafPartial` in ``stats`` mode and a list
    of raw column blocks in ``interval`` mode.
    """

    __slots__ = ("bin", "payload")

    def __init__(self, bin_id: int, payload):
        self.bin = bin_id
        self.payload = payload


class ProfilePartial:
    """The map side of the streaming profile build.

    One partial covers a contiguous run of the trace starting at request
    ``offset``. Feed it column blocks in stream order, merge successor
    partials in stream order, and :meth:`finish` the ``offset == 0``
    partial to obtain the profile.

    A partial with ``offset > 0`` may start mid-bin, so its first span
    is held un-fitted (``head``) until :meth:`merge` can decide whether
    it continues the predecessor's open span; such a partial can never
    :meth:`finish` on its own. With a ``cycle_count`` outer layer the
    global anchor timestamp (``origin``) must be supplied, because bin
    boundaries are measured from the *stream's* first request.
    """

    def __init__(
        self,
        config: HierarchyConfig,
        name: str = "",
        offset: int = 0,
        origin: Optional[int] = None,
    ):
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.config = config
        self.layers = config.layers
        self.name = name
        self.offset = offset
        self.origin = origin
        self.count = 0
        self.first_timestamp: Optional[int] = None
        self.last_timestamp: Optional[int] = None
        self.models: List[LeafModel] = []
        self.head: Optional[_Span] = None
        self.open: Optional[_Span] = None
        self._blocks: List[ColumnarTrace] = []

        outer = self.layers[0]
        if isinstance(outer, SpatialLayer):
            self.mode = "monolith"
        elif len(self.layers) == 1:
            self.mode = "stats"
        else:
            self.mode = "interval"

        if self.mode == "monolith":
            self._lead_pending = False
        elif outer.kind == "request_count":
            # A shard starting exactly on a bin boundary cannot continue
            # the predecessor's span; only unaligned starts are held.
            self._lead_pending = offset > 0 and offset % outer.size != 0
        else:
            self._lead_pending = offset > 0
            if offset > 0 and origin is None:
                raise ValueError(
                    "a cycle_count shard with offset > 0 needs the stream's "
                    "origin timestamp"
                )

    # -- feeding ---------------------------------------------------------------

    def feed(self, block: ColumnarTrace) -> "ProfilePartial":
        """Consume the next column block of this partial's run."""
        if len(block) == 0:
            return self
        if not block.is_sorted():
            raise ValueError("requests must be sorted by timestamp")
        first_ts = int(block.timestamps[0])
        last_ts = int(block.timestamps[-1])
        if self.last_timestamp is not None and first_ts < self.last_timestamp:
            raise ValueError("requests must be sorted by timestamp")
        if self.first_timestamp is None:
            self.first_timestamp = first_ts
        if self.origin is None:
            self.origin = first_ts

        if self.mode == "monolith":
            self._blocks.append(block)
            self.count += len(block)
            self.last_timestamp = last_ts
            return self

        closed: List[_Span] = []
        for bin_id, lo, hi in self._segment(block):
            sub = block[lo:hi]
            if self.open is not None and self.open.bin == bin_id:
                self._span_extend(self.open, sub)
            else:
                if self.open is not None:
                    self._close_span(self.open, closed)
                self.open = self._new_span(bin_id, sub)
        self._flush_closed(closed)
        self.count += len(block)
        self.last_timestamp = last_ts
        return self

    def _segment(self, block: ColumnarTrace):
        """``(bin_id, start, stop)`` runs of the outer temporal layer."""
        outer = self.layers[0]
        n = len(block)
        if outer.kind == "request_count":
            size = outer.size
            position = self.offset + self.count
            runs = []
            start = 0
            while start < n:
                bin_id = (position + start) // size
                stop = min(n, (bin_id + 1) * size - position)
                runs.append((bin_id, start, stop))
                start = stop
            return runs
        size = outer.size
        origin = self.origin
        np = numpy_or_none()
        timestamps = block.timestamps
        if np is not None and isinstance(timestamps, np.ndarray):
            # Pure uint64 arithmetic: timestamps are monotonic and
            # >= origin, so the subtraction can never wrap.
            bins = (timestamps - np.uint64(origin)) // np.uint64(size)
            breaks = (np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist()
            edges = [0] + breaks + [n]
            return [
                (int(bins[edges[i]]), edges[i], edges[i + 1])
                for i in range(len(edges) - 1)
            ]
        runs = []
        start = 0
        current = None
        for i, timestamp in enumerate(timestamps):
            bin_id = (int(timestamp) - origin) // size
            if bin_id != current:
                if current is not None:
                    runs.append((current, start, i))
                current = bin_id
                start = i
        runs.append((current, start, n))
        return runs

    # -- span plumbing ---------------------------------------------------------

    def _new_span(self, bin_id: int, sub: ColumnarTrace) -> _Span:
        if self.mode == "stats":
            payload = LeafPartial()
            payload.feed_block(sub)
            return _Span(bin_id, payload)
        return _Span(bin_id, [sub])

    def _span_extend(self, span: _Span, sub: ColumnarTrace) -> None:
        if self.mode == "stats":
            span.payload.feed_block(sub)
        else:
            span.payload.append(sub)

    def _span_join(self, span: _Span, other: _Span) -> None:
        if self.mode == "stats":
            span.payload.merge(other.payload)
        else:
            span.payload.extend(other.payload)

    def _close_span(self, span: _Span, closed: List[_Span]) -> None:
        if self._lead_pending:
            self.head = span
            self._lead_pending = False
        else:
            closed.append(span)

    def _flush_closed(self, closed: List[_Span]) -> None:
        if not closed:
            return
        if self.mode == "stats":
            for span in closed:
                self.models.append(span.payload.finalize())
            return
        intervals = [
            span.payload[0]
            if len(span.payload) == 1
            else ColumnarTrace.concat(span.payload)
            for span in closed
        ]
        self.models.extend(fit_interval_leaves(intervals, self.layers[1:]))

    # -- reduction -------------------------------------------------------------

    def merge(self, other: "ProfilePartial") -> "ProfilePartial":
        """Absorb the successor partial (stream order; consumes ``other``)."""
        if other.config.describe() != self.config.describe():
            raise ValueError(
                "cannot merge partials with different hierarchies: "
                f"{self.config.describe()!r} vs {other.config.describe()!r}"
            )
        if other.count == 0:
            return self
        if other.offset != self.offset + self.count:
            raise ValueError(
                "partials must be merged in stream order: expected offset "
                f"{self.offset + self.count}, got {other.offset}"
            )
        if self.count == 0:
            for attr in (
                "origin",
                "count",
                "first_timestamp",
                "last_timestamp",
                "models",
                "head",
                "open",
                "_blocks",
                "_lead_pending",
            ):
                setattr(self, attr, getattr(other, attr))
            return self
        if other.first_timestamp < self.last_timestamp:
            raise ValueError("requests must be sorted by timestamp")

        if self.mode == "monolith":
            self._blocks.extend(other._blocks)
            self.count += other.count
            self.last_timestamp = other.last_timestamp
            return self

        outer = self.layers[0]
        if outer.kind == "cycle_count" and other.origin != self.origin:
            raise ValueError(
                "cycle_count shards must share the stream's origin timestamp: "
                f"{self.origin} vs {other.origin}"
            )

        if other._lead_pending:
            lead, trailing = other.open, None
        else:
            lead, trailing = other.head, other.open

        closed: List[_Span] = []
        if lead is not None:
            if self.open is not None and self.open.bin == lead.bin:
                self._span_join(self.open, lead)
                if not other._lead_pending:
                    # The joined span closed inside ``other``.
                    self._close_span(self.open, closed)
                    self.open = None
            else:
                if self.open is not None:
                    self._close_span(self.open, closed)
                    self.open = None
                if other._lead_pending:
                    self.open = lead
                else:
                    self._close_span(lead, closed)
        elif self.open is not None:
            # ``other`` starts exactly on a bin boundary (aligned
            # request_count shard): our open span cannot continue.
            self._close_span(self.open, closed)
            self.open = None
        self._flush_closed(closed)
        self.models.extend(other.models)
        if trailing is not None:
            self.open = trailing
        self.count += other.count
        self.last_timestamp = other.last_timestamp
        return self

    def finish(self):
        """The reduced :class:`~repro.core.profile.Profile`.

        Only the ``offset == 0`` partial — after every successor has
        been merged in — can finish; a shard's head span is otherwise
        still waiting for its predecessor.
        """
        from ..core.profile import Profile

        if self.offset != 0:
            raise ValueError(
                "only the offset-0 partial can finish; merge shards in "
                "stream order first"
            )
        if self.mode == "monolith":
            if not self._blocks:
                return Profile([], hierarchy=self.config.describe(), name=self.name)
            columns = (
                self._blocks[0]
                if len(self._blocks) == 1
                else ColumnarTrace.concat(self._blocks)
            )
            return build_profile(columns, self.config, name=self.name)
        closed: List[_Span] = []
        if self.open is not None:
            self._close_span(self.open, closed)
            self.open = None
        self._flush_closed(closed)
        return Profile(self.models, hierarchy=self.config.describe(), name=self.name)
