"""DRAM address decoding and request-to-burst splitting.

Requests are divided into burst-sized packets to match the DRAM
interface (paper Sec. IV-A, "Read Bursts, Write Bursts"). Each burst is
decoded to a (channel, rank, bank, row, column) coordinate.

The mapping interleaves channels at burst granularity and places the
column below the bank (gem5's ``RoRaBaChCo`` spirit): a sequential
stream walks the columns of one row in one bank — maximizing row hits —
before moving to the next bank.

Two decode paths share the same arithmetic: the scalar
:meth:`AddressMap.decode` / :meth:`AddressMap.locate` pair works on one
burst at a time (``locate`` returns the plain ints the memory engine
in :mod:`repro.dram.batched` queues), and the vectorized
:meth:`AddressMap.decode_many` / :meth:`AddressMap.expand_many` pair
runs over whole address columns at once. Both produce identical
coordinates for identical addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.columnar import numpy_or_none
from ..core.request import MemoryRequest, Operation
from .config import MemoryConfig


@dataclass(frozen=True)
class DramCoordinates:
    """Decoded location of one burst."""

    __slots__ = ("channel", "rank", "bank", "row", "column")

    channel: int
    rank: int
    bank: int  # bank index within the rank
    row: int
    column: int

    @property
    def bank_id(self) -> int:
        """Flat bank index within the channel (rank-major)."""
        return self.rank * _BANK_STRIDE + self.bank

    # frozen + __slots__ needs explicit pickle support: the default
    # slot-state restore assigns through the (blocked) __setattr__.
    def __getstate__(self):
        return (self.channel, self.rank, self.bank, self.row, self.column)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


_BANK_STRIDE = 1 << 20  # large constant so bank_id never collides across ranks


@dataclass
class Burst:
    """One burst-sized DRAM packet derived from a memory request.

    ``request_id`` links bursts back to their originating request so the
    memory system can report per-request completion latency. ``bank_id``
    caches ``coordinates.bank_id``. The memory engine itself queues
    plain tuples; this object form is what :meth:`AddressMap.split_request`
    returns and :meth:`MemoryController.enqueue
    <repro.dram.controller.MemoryController.enqueue>` accepts.
    """

    __slots__ = (
        "address",
        "operation",
        "coordinates",
        "arrival_time",
        "request_id",
        "bank_id",
    )

    address: int
    operation: Operation
    coordinates: DramCoordinates
    arrival_time: int
    request_id: int

    def __post_init__(self) -> None:
        self.bank_id = self.coordinates.bank_id

    @property
    def is_read(self) -> bool:
        return self.operation is Operation.READ


class DecodedBursts:
    """Column-wise decode of a burst address column (numpy int64 arrays).

    The vectorized twin of :class:`DramCoordinates`: parallel arrays of
    channel, rank, bank, row, column and the flat ``bank_id``, one entry
    per input address. Values equal :meth:`AddressMap.decode` element
    for element.
    """

    __slots__ = ("channel", "rank", "bank", "row", "column", "bank_id")

    def __init__(self, channel, rank, bank, row, column, bank_id) -> None:
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.row = row
        self.column = column
        self.bank_id = bank_id


class BurstColumns:
    """Vectorized request→burst expansion over address/size columns.

    ``request_index[k]`` is the request owning burst ``k``;
    ``addresses[k]`` is the aligned burst address; ``offsets`` has one
    entry per request plus a terminator, so request ``i`` owns bursts
    ``offsets[i]:offsets[i+1]``. Burst order equals the scalar
    :meth:`AddressMap.split_request` order over the request sequence.
    """

    __slots__ = ("request_index", "addresses", "offsets")

    def __init__(self, request_index, addresses, offsets) -> None:
        self.request_index = request_index
        self.addresses = addresses
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.addresses)


class AddressMap:
    """Decodes byte addresses into DRAM coordinates for a configuration."""

    __slots__ = ("config", "_radices")

    def __init__(self, config: MemoryConfig):
        self.config = config
        # Mixed-radix digits of a burst number, least significant first.
        self._radices = (
            config.address_mapping == "ch_lo",
            config.num_channels,
            config.columns_per_row,
            config.banks_per_rank,
            config.ranks_per_channel,
        )

    def decode(self, address: int) -> DramCoordinates:
        """Decode the burst containing ``address``."""
        return DramCoordinates(*self._split(address // self.config.burst_size))

    def locate(self, burst_number: int) -> Tuple[int, int, int]:
        """``(channel, bank_id, row)`` of a burst number, as plain ints."""
        channel, rank, bank, row, _column = self._split(burst_number)
        return channel, rank * _BANK_STRIDE + bank, row

    def _split(self, burst_number: int) -> Tuple[int, int, int, int, int]:
        """``(channel, rank, bank, row, column)`` of a burst number."""
        channel_low, channels, columns, banks, ranks = self._radices
        if channel_low:
            # Channels interleaved at burst granularity (default).
            channel = burst_number % channels
            rest = burst_number // channels
        else:
            # "ch_hi": channel bits above the bank — contiguous memory
            # stays on one channel for a whole bank sweep.
            rest = burst_number
            channel = 0  # placed after bank/rank decode below
        column = rest % columns
        rest //= columns
        bank = rest % banks
        rest //= banks
        rank = rest % ranks
        rest //= ranks
        if not channel_low:
            channel = rest % channels
            rest //= channels
        return channel, rank, bank, rest, column

    def decode_many(self, addresses) -> DecodedBursts:
        """Vectorized :meth:`decode` over a whole address column.

        ``addresses`` is a numpy ``uint64`` (or int64) array of byte
        addresses; the result holds ``int64`` coordinate columns equal
        to the scalar decode element for element. Requires numpy.
        """
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on numpy
            raise RuntimeError("decode_many requires numpy")
        config = self.config
        addresses = np.asarray(addresses, dtype=np.uint64)
        burst_number = addresses // np.uint64(config.burst_size)
        if config.address_mapping == "ch_lo":
            channel = burst_number % np.uint64(config.num_channels)
            rest = burst_number // np.uint64(config.num_channels)
        else:
            rest = burst_number
            channel = None  # placed after bank/rank decode below
        column = rest % np.uint64(config.columns_per_row)
        rest = rest // np.uint64(config.columns_per_row)
        bank = rest % np.uint64(config.banks_per_rank)
        rest = rest // np.uint64(config.banks_per_rank)
        rank = rest % np.uint64(config.ranks_per_channel)
        rest = rest // np.uint64(config.ranks_per_channel)
        if config.address_mapping == "ch_hi":
            channel = rest % np.uint64(config.num_channels)
            rest = rest // np.uint64(config.num_channels)
        row = rest
        channel = channel.astype(np.int64)
        rank = rank.astype(np.int64)
        bank = bank.astype(np.int64)
        return DecodedBursts(
            channel=channel,
            rank=rank,
            bank=bank,
            row=row.astype(np.int64),
            column=column.astype(np.int64),
            bank_id=rank * _BANK_STRIDE + bank,
        )

    def expand_many(self, addresses, sizes) -> BurstColumns:
        """Vectorized :meth:`split_request` over address/size columns.

        Returns the aligned burst addresses of every request in order,
        with the owning request index per burst — the columnar twin of
        building per-request ``Burst`` lists. Requires numpy.
        """
        np = numpy_or_none()
        if np is None:  # pragma: no cover - callers gate on numpy
            raise RuntimeError("expand_many requires numpy")
        burst_size = self.config.burst_size
        addresses = np.asarray(addresses, dtype=np.uint64)
        sizes = np.asarray(sizes, dtype=np.uint64)
        first = addresses // np.uint64(burst_size)
        last = (addresses + sizes - np.uint64(1)) // np.uint64(burst_size)
        counts = (last - first + np.uint64(1)).astype(np.int64)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        request_index = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts
        )
        position = np.arange(int(offsets[-1]), dtype=np.int64) - offsets[request_index]
        burst_number = first[request_index] + position.astype(np.uint64)
        return BurstColumns(
            request_index=request_index,
            addresses=burst_number * np.uint64(burst_size),
            offsets=offsets,
        )

    def split_request(self, request: MemoryRequest, request_id: int) -> List[Burst]:
        """Split a request into aligned bursts covering its byte range."""
        config = self.config
        first = request.address // config.burst_size
        last = (request.end_address - 1) // config.burst_size
        bursts = []
        for burst_number in range(first, last + 1):
            address = burst_number * config.burst_size
            bursts.append(
                Burst(
                    address=address,
                    operation=request.operation,
                    coordinates=self.decode(address),
                    arrival_time=request.timestamp,
                    request_id=request_id,
                )
            )
        return bursts
