"""Columnar (structure-of-arrays) trace backend.

A :class:`ColumnarTrace` stores the four request features of a trace as
parallel columns — ``timestamps``, ``addresses``, ``sizes``, ``ops`` —
instead of one Python object per request. Column storage is what makes
batch processing possible: the vectorized profiler
(:mod:`repro.core.profiler`), the cache hierarchy's block expansion
(:mod:`repro.cache.hierarchy`) and chunked workload generation
(:mod:`repro.workloads.base`) all run whole-column passes instead of
per-request attribute chases.

Two storage engines back the columns:

* **numpy** (optional accelerator): columns are ``uint64``/``uint32``/
  ``uint8`` ndarrays and the heavy passes use real vector kernels.
* **stdlib ``array``** (always available): the same column layout in
  ``array.array`` typecodes. Conversions and chunking still avoid
  per-request objects; compute-heavy stages transparently fall back to
  the scalar algorithms, which keeps results bit-identical.

Column bounds match the on-disk ``.mtr`` record (``<QQBI``): 64-bit
timestamps/addresses, 32-bit sizes, 8-bit operations. Conversion to and
from :class:`~repro.core.trace.Trace` is lossless and order-preserving
within those bounds (addresses above 2**32 are routine). Trace files
load into, and save from, a ``ColumnarTrace``
(:mod:`repro.core.tracefile`).

Profile-build data path
-----------------------

:func:`~repro.core.profiler.build_profile` picks its data path from its
inputs; nothing selects it. It takes the columnar path when numpy is
importable (and not disabled with ``MOCKTAILS_NO_NUMPY``), the leaf
factory is the default all-McC one and every value fits in int64.
Otherwise it takes the scalar path. Both paths build bit-identical
profiles. :func:`resolve_backend` names the path numpy availability
selects, and :mod:`repro.store` folds that name into its cache
keys.
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable, Iterator, List, Sequence, Union

from .request import MemoryRequest, Operation
from .trace import Trace

__all__ = [
    "ColumnarTrace",
    "numpy_or_none",
    "resolve_backend",
]

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy-less environments
    _numpy = None

_NO_NUMPY_ENV = "MOCKTAILS_NO_NUMPY"

_TIME_MAX = 2**64 - 1
_ADDRESS_MAX = 2**64 - 1
_SIZE_MAX = 2**32 - 1


def numpy_or_none():
    """The numpy module, or ``None`` when absent or explicitly disabled.

    Setting ``MOCKTAILS_NO_NUMPY`` to a non-empty value forces the
    stdlib-``array`` fallback even when numpy is installed — this is how
    the test suite exercises the fallback without uninstalling numpy.
    """
    if os.environ.get(_NO_NUMPY_ENV):
        return None
    return _numpy


def resolve_backend(backend: None = None) -> str:
    """The profile-build path numpy availability selects.

    ``columnar`` when :func:`numpy_or_none` finds numpy, ``scalar``
    otherwise. There is nothing to choose, so ``backend`` must be
    ``None``.
    """
    if backend is not None:
        raise ValueError(f"unknown backend {backend!r}; the data path is not selectable")
    return "columnar" if numpy_or_none() is not None else "scalar"


def _bounds_error(field: str, value: int, limit: int) -> ValueError:
    return ValueError(
        f"{field} {value} outside the columnar range [0, {limit}] "
        "(bounds match the .mtr binary record)"
    )


def _check_columns(timestamps, addresses, sizes, ops) -> None:
    """Validate column contents (works on lists, arrays and ndarrays)."""
    counts = {len(timestamps), len(addresses), len(sizes), len(ops)}
    if len(counts) != 1:
        raise ValueError(
            "columns must have equal lengths, got "
            f"timestamps={len(timestamps)} addresses={len(addresses)} "
            f"sizes={len(sizes)} ops={len(ops)}"
        )
    if not len(timestamps):
        return
    if min(timestamps) < 0 or max(timestamps) > _TIME_MAX:
        bad = min(timestamps) if min(timestamps) < 0 else max(timestamps)
        raise _bounds_error("timestamp", int(bad), _TIME_MAX)
    if min(addresses) < 0 or max(addresses) > _ADDRESS_MAX:
        bad = min(addresses) if min(addresses) < 0 else max(addresses)
        raise _bounds_error("address", int(bad), _ADDRESS_MAX)
    if min(sizes) <= 0:
        raise ValueError(f"request size must be positive, got {int(min(sizes))}")
    if max(sizes) > _SIZE_MAX:
        raise _bounds_error("size", int(max(sizes)), _SIZE_MAX)
    if min(ops) < 0 or max(ops) > 1:
        bad = min(ops) if min(ops) < 0 else max(ops)
        raise ValueError(f"operation column values must be 0 or 1, got {int(bad)}")


class ColumnarTrace:
    """A trace stored as four parallel columns (structure of arrays).

    Columns are numpy ndarrays when numpy is available and stdlib
    ``array.array`` otherwise; both expose ``len``, indexing, slicing
    and ``tolist``. Request order is the column order — conversion to
    and from :class:`Trace` preserves it exactly.
    """

    __slots__ = ("timestamps", "addresses", "sizes", "ops")

    def __init__(self, timestamps, addresses, sizes, ops, check: bool = True):
        if check:
            _check_columns(timestamps, addresses, sizes, ops)
        np = numpy_or_none()
        if np is not None:
            self.timestamps = np.asarray(timestamps, dtype=np.uint64)
            self.addresses = np.asarray(addresses, dtype=np.uint64)
            self.sizes = np.asarray(sizes, dtype=np.uint32)
            self.ops = np.asarray(ops, dtype=np.uint8)
        else:
            self.timestamps = _as_array("Q", timestamps)
            self.addresses = _as_array("Q", addresses)
            self.sizes = _as_array("I", sizes)
            self.ops = _as_array("B", ops)

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "ColumnarTrace":
        return cls((), (), (), (), check=False)

    @classmethod
    def from_trace(cls, trace: Union[Trace, Sequence[MemoryRequest]]) -> "ColumnarTrace":
        """Lossless, order-preserving conversion from per-request objects."""
        requests = trace.requests if isinstance(trace, Trace) else trace
        timestamps = [r.timestamp for r in requests]
        addresses = [r.address for r in requests]
        sizes = [r.size for r in requests]
        ops = [int(r.operation) for r in requests]
        return cls(timestamps, addresses, sizes, ops)

    @classmethod
    def from_columns(
        cls,
        timestamps,
        addresses,
        sizes,
        ops,
        require_sorted: bool = True,
    ) -> "ColumnarTrace":
        """Build from raw columns, validating contents.

        With ``require_sorted`` (the default — generators and the
        profiler need time order) a non-monotonic timestamp column is
        rejected with the same error the scalar pipeline raises.
        """
        trace = cls(timestamps, addresses, sizes, ops)
        if require_sorted and not trace.is_sorted():
            raise ValueError("requests must be sorted by timestamp")
        return trace

    @classmethod
    def concat(cls, blocks: Iterable["ColumnarTrace"]) -> "ColumnarTrace":
        """Concatenate column blocks (the inverse of :meth:`iter_blocks`)."""
        blocks = list(blocks)
        if not blocks:
            return cls.empty()
        np = numpy_or_none()
        if np is not None:
            return cls(
                np.concatenate([b.timestamps for b in blocks]),
                np.concatenate([b.addresses for b in blocks]),
                np.concatenate([b.sizes for b in blocks]),
                np.concatenate([b.ops for b in blocks]),
                check=False,
            )
        timestamps, addresses, sizes, ops = array("Q"), array("Q"), array("I"), array("B")
        for block in blocks:
            timestamps.extend(block.timestamps)
            addresses.extend(block.addresses)
            sizes.extend(block.sizes)
            ops.extend(block.ops)
        return cls(timestamps, addresses, sizes, ops, check=False)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return ColumnarTrace(
                self.timestamps[index],
                self.addresses[index],
                self.sizes[index],
                self.ops[index],
                check=False,
            )
        return MemoryRequest(
            int(self.timestamps[index]),
            int(self.addresses[index]),
            Operation(int(self.ops[index])),
            int(self.sizes[index]),
        )

    def __iter__(self) -> Iterator[MemoryRequest]:
        return self.iter_requests()

    def iter_requests(self) -> Iterator[MemoryRequest]:
        """Yield per-request objects (drop-in for scalar consumers)."""
        for timestamp, address, op, size in zip(
            self.timestamps, self.addresses, self.ops, self.sizes
        ):
            yield MemoryRequest(int(timestamp), int(address), Operation(int(op)), int(size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self.to_lists() == other.to_lists()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        engine = "numpy" if numpy_or_none() is not None else "array"
        return f"ColumnarTrace({len(self)} requests, engine={engine})"

    # -- derived properties ---------------------------------------------------

    def is_sorted(self) -> bool:
        np = numpy_or_none()
        timestamps = self.timestamps
        if np is not None and isinstance(timestamps, np.ndarray):
            if len(timestamps) < 2:
                return True
            return bool(np.all(timestamps[1:] >= timestamps[:-1]))
        return all(
            timestamps[i] <= timestamps[i + 1] for i in range(len(timestamps) - 1)
        )

    @property
    def start_time(self) -> int:
        if not len(self):
            raise ValueError("empty trace has no start time")
        return int(min(self.timestamps))

    @property
    def end_time(self) -> int:
        if not len(self):
            raise ValueError("empty trace has no end time")
        return int(max(self.timestamps))

    @property
    def duration(self) -> int:
        """Cycles spanned by the trace, 0 when empty (parity with
        :attr:`repro.core.trace.Trace.duration`)."""
        if not len(self):
            return 0
        return self.end_time - self.start_time

    def read_count(self) -> int:
        return len(self) - self.write_count()

    def write_count(self) -> int:
        return sum(self.ops.tolist())

    def total_bytes(self) -> int:
        return sum(self.sizes.tolist())

    def head(self, count: int) -> "ColumnarTrace":
        """The first ``count`` requests (mirrors :meth:`Trace.head`)."""
        return self[:count]

    # -- conversion and chunking ----------------------------------------------

    def to_trace(self) -> Trace:
        """Materialize per-request objects, preserving order exactly."""
        return Trace(
            MemoryRequest(int(t), int(a), Operation(int(o)), int(s))
            for t, a, o, s in zip(self.timestamps, self.addresses, self.ops, self.sizes)
        )

    def to_lists(self) -> dict:
        """Plain-list columns (engine-independent, for tests and hashing)."""
        return {
            "timestamps": _tolist(self.timestamps),
            "addresses": _tolist(self.addresses),
            "sizes": _tolist(self.sizes),
            "ops": _tolist(self.ops),
        }

    def iter_blocks(self, block_requests: int = 8192) -> Iterator["ColumnarTrace"]:
        """Yield consecutive column blocks of at most ``block_requests``.

        Blocks are views/slices in request order; concatenating them
        reproduces the trace exactly. The cache hierarchy replays a
        column trace chunk by chunk through them.
        """
        if block_requests <= 0:
            raise ValueError(f"block_requests must be positive, got {block_requests}")
        for start in range(0, len(self), block_requests):
            yield self[start : start + block_requests]


def _as_array(typecode: str, values) -> array:
    """Coerce ``values`` into an ``array.array`` of ``typecode``."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, (int(v) for v in values))


def _tolist(column) -> List[int]:
    return [int(v) for v in column.tolist()]


def as_columnar(trace: Union[Trace, ColumnarTrace]) -> ColumnarTrace:
    """Coerce either trace representation to columns."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_trace(trace)


def as_scalar(trace: Union[Trace, ColumnarTrace]) -> Trace:
    """Coerce either trace representation to per-request objects."""
    if isinstance(trace, ColumnarTrace):
        return trace.to_trace()
    return trace
