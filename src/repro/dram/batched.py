"""The memory-system engine: crossbar + FR-FCFS DRAM over primitive state.

One :class:`MemoryEngine` owns every piece of memory-system state and is
the only FR-FCFS implementation in the package.
:class:`~repro.dram.memory_system.MemorySystem`,
:class:`~repro.dram.controller.MemoryController` and
:class:`~repro.interconnect.crossbar.Crossbar` are thin views over it.

Controller semantics (gem5's minimal controller, Hansson et al. [17],
paper Sec. IV-A):

* separate read and write queues holding burst-sized packets;
* FR-FCFS scheduling (first ready — i.e. row hit — first come first
  served) over the active queue;
* ``open_adaptive`` page policy: after a column access the row stays
  open only if another queued burst (either queue) targets it,
  otherwise it is precharged; ``open`` closes rows only on conflict;
* write drain: writes are buffered until the write queue reaches the
  high watermark, then drained down to the low watermark — or serviced
  opportunistically when no reads are pending;
* read/write bus turnaround penalties.

The model is event-driven: each channel tracks when its data bus and
banks become free and issues one burst per scheduling decision.

State layout
------------

Per channel (:class:`ChannelState`), kept between calls:

* ``open_rows``: flat bank id -> open row, for open banks only, and
  ``ready_at``: bank id -> earliest start of its next column access;
* ``reads`` / ``writes``: queue dicts, sequence number ->
  ``(arrival, bank, row, request_id)``; dict order is FIFO order, which
  is also arrival order;
* ``read_rows`` / ``write_rows``: ``(bank, row)`` -> sequence numbers of
  the queued bursts targeting that row, oldest first (stale heads are
  dropped lazily), so the row-hit search is one lookup per open bank
  instead of a queue scan;
* the bus (``bus_free``), ``last_was_write``, ``draining`` and
  ``reads_since`` turnaround fields, the refresh deadline, the optional
  :class:`~repro.dram.chargecache.ChargeCache` and the channel's
  :class:`~repro.dram.stats.ControllerStats`, which is accumulated in
  place.

Per engine: the outstanding-request table (request id ->
``[bursts_left, origin, last_completion]``), request-id and
queue-sequence counters, and the in-order port's last presented and
accepted times.

Entry points
------------

Everything that issues a burst goes through :meth:`MemoryEngine.service`
— ``service(ch, limit)`` issues every burst whose scheduling decision
falls before ``limit``; ``limit=None`` issues exactly one burst (the
queue-full relief path) and returns its finish time. Around it:

* :meth:`MemoryEngine.submit` takes one request: decode its bursts with
  plain ints, service each burst's channel up to the acceptance time,
  relieve a full queue, enqueue.
* :meth:`MemoryEngine.feed` is the same loop inlined over a column
  block, crossbar forwarding included; the burst columns are decoded
  with numpy when it is available and in Python otherwise.
* :meth:`MemoryEngine.drain` services everything still queued.

Plug-ins inside :meth:`MemoryEngine.service`: refresh windows are
applied before each issue; the ChargeCache is looked up at activation
and filled at both row-close points (conflict precharge, then
open-adaptive precharge); the per-request completion hook runs when a
request's last burst completes. With an observability registry active,
every enqueue and issue updates the ``dram.*`` counters and depth
histograms and, with an event sink attached, emits ``dram.enqueue`` /
``dram.issue`` events (``dram.drain`` from :meth:`MemoryEngine.drain`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..core.columnar import numpy_or_none
from .address_map import AddressMap
from .chargecache import ChargeCache
from .config import MemoryConfig
from .stats import ControllerStats, MemorySystemStats

#: ``service`` limit that never cuts a channel off (drain).
_FOREVER = float("inf")

#: Per-request completion hook: ``(request_id, latency)``.
CompletionHook = Callable[[int, int], None]


def batched_replay_supported(config=None, crossbar_config=None) -> bool:
    """Whether the engine runs this configuration: always ``True``.

    Every configuration — refresh, ChargeCache, either page policy,
    observability sinks, with or without numpy — runs the one engine.
    """
    del config, crossbar_config
    return True


class ChannelState:
    """One channel's controller state (see the module docstring)."""

    __slots__ = (
        "stats",
        "open_rows",
        "ready_at",
        "reads",
        "writes",
        "read_rows",
        "write_rows",
        "bus_free",
        "last_was_write",
        "draining",
        "reads_since",
        "next_refresh",
        "charge_cache",
    )

    def __init__(self, config: MemoryConfig) -> None:
        self.stats = ControllerStats()
        self.open_rows: Dict[int, int] = {}
        self.ready_at: Dict[int, int] = {}
        self.reads: Dict[int, tuple] = {}
        self.writes: Dict[int, tuple] = {}
        self.read_rows: Dict[Tuple[int, int], List[int]] = {}
        self.write_rows: Dict[Tuple[int, int], List[int]] = {}
        self.bus_free = 0
        self.last_was_write: Optional[bool] = None
        self.draining = False
        self.reads_since = 0
        self.next_refresh: Optional[int] = config.timing.t_refi or None
        self.charge_cache = (
            ChargeCache(config.charge_cache) if config.charge_cache is not None else None
        )

    @property
    def pending(self) -> int:
        return len(self.reads) + len(self.writes)


class MemoryEngine:
    """All channels of one memory system plus its in-order front end."""

    __slots__ = (
        "config",
        "address_map",
        "channels",
        "stats",
        "outstanding",
        "next_id",
        "last_request_id",
        "last_presented",
        "last_submit",
        "on_request_complete",
        "_seq",
        "_timing",
        "_watermarks",
        "_obs",
        "_obs_enqueued",
        "_obs_issued",
        "_obs_row_hits",
        "_obs_read_depth",
        "_obs_write_depth",
    )

    def __init__(self, config: Optional[MemoryConfig] = None) -> None:
        config = config if config is not None else MemoryConfig()
        self.config = config
        self.address_map = AddressMap(config)
        self.channels = [ChannelState(config) for _ in range(config.num_channels)]
        self.stats = MemorySystemStats(channels=[state.stats for state in self.channels])
        self.outstanding: Dict[int, List[int]] = {}
        self.next_id = 0
        self.last_request_id: Optional[int] = None
        self.last_presented = 0
        self.last_submit = 0
        self.on_request_complete: Optional[CompletionHook] = None
        self._seq = 0
        timing = config.timing
        self._timing = (
            timing.t_rp,
            timing.t_rcd,
            timing.t_cl,
            timing.t_burst,
            timing.t_rtw,
            timing.t_wtr,
            config.page_policy == "open_adaptive",
        )
        self._watermarks = (config.write_low_watermark, config.write_high_watermark)
        # Observability: capture the active registry once; every hot-path
        # site reduces to one ``is None`` test when observability is off.
        registry = obs.active()
        self._obs = registry
        if registry is not None:
            self._obs_enqueued = registry.counter("dram.enqueued")
            self._obs_issued = registry.counter("dram.issued")
            self._obs_row_hits = registry.counter("dram.row_hits")
            self._obs_read_depth = [
                registry.histogram(f"dram.ch{c}.read_queue_depth")
                for c in range(config.num_channels)
            ]
            self._obs_write_depth = [
                registry.histogram(f"dram.ch{c}.write_queue_depth")
                for c in range(config.num_channels)
            ]

    # -- the FR-FCFS scheduler -------------------------------------------------

    def service(self, ch: int, limit) -> int:
        """Issue bursts on channel ``ch`` in FR-FCFS order.

        Issues every burst whose scheduling decision falls before
        ``limit``; ``limit=None`` issues exactly one burst regardless of
        time (the channel must hold one) and returns its finish time.
        Otherwise returns 0.
        """
        state = self.channels[ch]
        rq = state.reads
        wq = state.writes
        low, high = self._watermarks
        bus_free = state.bus_free
        draining = state.draining
        open_rows = None  # the rest of the state loads at the first issue
        freed = 0
        while rq or wq:
            # Direction: a write drain runs until the low watermark with
            # reads waiting; the high watermark (or an idle read queue)
            # starts one and records a turnaround — even when the
            # decision-time check below then cuts the issue off.
            if draining and wq and not (len(wq) <= low and rq):
                direction = True
            elif len(wq) >= high or not rq:
                draining = True
                state.stats.reads_per_turnaround.append(state.reads_since)
                state.reads_since = 0
                direction = True
            else:
                draining = False
                direction = False
            if direction:
                entries = wq
            else:
                entries = rq
            earliest = entries[next(iter(entries))][0]
            decision = bus_free if bus_free > earliest else earliest
            if limit is not None and decision >= limit:
                break
            if open_rows is None:
                t_rp, t_rcd, t_cl, t_burst, t_rtw, t_wtr, adaptive = self._timing
                open_rows = state.open_rows
                ready_at = state.ready_at
                byr = state.read_rows
                byw = state.write_rows
                stats = state.stats
                charge_cache = state.charge_cache
                last_was_write = state.last_was_write
                next_refresh = state.next_refresh
                outstanding = self.outstanding
                registry = self._obs
            byrow = byw if direction else byr
            # Pick: the first-arrived row hit, else the FIFO-oldest burst
            # (whose arrival never exceeds the decision time).
            best = None
            for bank_id, open_row in open_rows.items():
                key = (bank_id, open_row)
                row_queue = byrow.get(key)
                if row_queue is None:
                    continue
                while row_queue and row_queue[0] not in entries:
                    del row_queue[0]
                if not row_queue:
                    del byrow[key]
                    continue
                seq = row_queue[0]
                if best is None or seq < best:
                    best = seq
            if best is not None and entries[best][0] <= decision:
                seq = best
            else:
                seq = next(iter(entries))
            if next_refresh is not None and decision >= next_refresh:
                bus_free, decision = self._refresh(state, bus_free, decision)
                next_refresh = state.next_refresh
            # Issue.
            _arrival, bank_id, row, rid = entries.pop(seq)
            key = (bank_id, row)
            row_queue = byrow.get(key)
            if row_queue is not None:
                while row_queue and row_queue[0] not in entries:
                    del row_queue[0]
                if not row_queue:
                    del byrow[key]
                    row_queue = None
            open_row = open_rows.get(bank_id)
            row_hit = open_row == row
            start = ready_at.get(bank_id, 0)
            if decision > start:
                start = decision
            if last_was_write is not None and last_was_write != direction:
                stalled = bus_free + (t_wtr if last_was_write else t_rtw)
                if stalled > start:
                    start = stalled
            if not row_hit:
                if open_row is not None:
                    start += t_rp
                    if charge_cache is not None:
                        charge_cache.insert(bank_id, open_row, start)
                if charge_cache is not None and charge_cache.lookup(bank_id, row, start):
                    # A recently closed row still holds charge: faster activate.
                    start += max(0, t_rcd - charge_cache.activation_saving)
                else:
                    start += t_rcd
            finish = start + t_burst
            bus_free = finish
            last_was_write = direction
            open_rows[bank_id] = row
            ready_at[bank_id] = finish
            if adaptive:
                # Keep the row open while either queue still targets it;
                # ``row_queue`` already answers for the issuing queue.
                pending_hit = row_queue is not None
                if not pending_hit:
                    other_entries, other_byrow = (rq, byr) if direction else (wq, byw)
                    row_queue = other_byrow.get(key)
                    if row_queue is not None:
                        while row_queue and row_queue[0] not in other_entries:
                            del row_queue[0]
                        if row_queue:
                            pending_hit = True
                        else:
                            del other_byrow[key]
                if not pending_hit:
                    del open_rows[bank_id]
                    ready_at[bank_id] = finish + t_rp
                    if charge_cache is not None:
                        charge_cache.insert(bank_id, row, finish + t_rp)
            if stats.first_issue_time < 0:
                stats.first_issue_time = start
            stats.last_finish_time = finish
            stats.data_bus_busy_cycles += t_burst
            if direction:
                stats.write_bursts += 1
                stats.write_row_hits += row_hit
                stats.per_bank_writes[bank_id] += 1
                completion = finish
            else:
                stats.read_bursts += 1
                stats.read_row_hits += row_hit
                stats.per_bank_reads[bank_id] += 1
                state.reads_since += 1
                completion = finish + t_cl
            if registry is not None:
                self._observe_issue(ch, bank_id, direction, row_hit, finish)
            entry = outstanding[rid]
            entry[0] -= 1
            if completion > entry[2]:
                entry[2] = completion
            if entry[0] == 0:
                latency = entry[2] - entry[1]
                self.stats.latency_sum += latency
                self.stats.latency_count += 1
                del outstanding[rid]
                if self.on_request_complete is not None:
                    self.on_request_complete(rid, latency)
            if limit is None:
                freed = finish
                break
        state.bus_free = bus_free
        state.draining = draining
        if open_rows is not None:
            state.last_was_write = last_was_write
        return freed

    def _refresh(self, state: ChannelState, bus_free: int, decision: int):
        """Stall for every refresh window that expires before ``decision``.

        A refresh closes every row of the channel and holds its banks
        and bus for ``t_rfc``. Returns the new ``(bus_free, decision)``.
        """
        timing = self.config.timing
        next_refresh = state.next_refresh
        while decision >= next_refresh:
            refresh_end = next_refresh + timing.t_rfc
            state.open_rows.clear()
            ready_at = state.ready_at
            for bank_id, ready in ready_at.items():
                if ready < refresh_end:
                    ready_at[bank_id] = refresh_end
            if bus_free < refresh_end:
                bus_free = refresh_end
            if decision < refresh_end:
                decision = refresh_end
            next_refresh += timing.t_refi
            state.stats.refreshes += 1
        state.next_refresh = next_refresh
        return bus_free, decision

    # -- one request at a time -------------------------------------------------

    def enqueue(self, ch: int, is_write, bank: int, row: int, arrival: int, rid: int) -> None:
        """Queue one burst of request ``rid`` on channel ``ch``.

        The queue must have room, and ``rid`` must be outstanding.
        """
        state = self.channels[ch]
        if is_write:
            entries, byrow = state.writes, state.write_rows
            state.stats.write_queue_len_seen[len(entries)] += 1
        else:
            entries, byrow = state.reads, state.read_rows
            state.stats.read_queue_len_seen[len(entries)] += 1
        seq = self._seq
        self._seq = seq + 1
        entries[seq] = (arrival, bank, row, rid)
        row_queue = byrow.get((bank, row))
        if row_queue is None:
            byrow[(bank, row)] = [seq]
        else:
            row_queue.append(seq)
        if self._obs is not None:
            self._observe_enqueue(ch, is_write, bank, row, arrival)

    def submit(self, presented: int, address: int, size: int, is_write, origin: int) -> int:
        """Present one request to the in-order port; returns its acceptance time.

        ``presented`` is when the request reaches the port (requests must
        arrive in time order) and ``origin`` when its device issued it,
        which latency is measured from. Acceptance is delayed past
        ``presented`` by the previous acceptance (the port is in-order)
        and by full queues (backpressure).
        """
        if presented < self.last_presented:
            raise ValueError(
                f"requests must be submitted in time order "
                f"({presented} < {self.last_presented})"
            )
        self.last_presented = presented
        accept = presented if presented > self.last_submit else self.last_submit
        rid = self.next_id
        self.next_id = rid + 1
        self.last_request_id = rid
        config = self.config
        burst_size = config.burst_size
        first = address // burst_size
        last = (address + size - 1) // burst_size
        self.outstanding[rid] = [last - first + 1, origin, 0]
        capacity = config.write_queue_size if is_write else config.read_queue_size
        locate = self.address_map.locate
        service = self.service
        for number in range(first, last + 1):
            ch, bank, row = locate(number)
            service(ch, accept)
            state = self.channels[ch]
            entries = state.writes if is_write else state.reads
            while len(entries) >= capacity:
                freed = service(ch, None)
                if freed > accept:
                    accept = freed
            self.enqueue(ch, is_write, bank, row, accept, rid)
        self.stats.backpressure_delay += accept - presented
        self.last_submit = accept
        return accept

    def drain(self, channels=None) -> None:
        """Service every queued burst (of ``channels``; default all)."""
        registry = self._obs
        for ch in range(len(self.channels)) if channels is None else channels:
            pending = self.channels[ch].pending
            if not pending:
                continue
            if registry is not None and registry.sink is not None:
                registry.event("dram.drain", channel=ch, pending=pending)
            self.service(ch, _FOREVER)

    # -- a column block at a time ----------------------------------------------

    def feed(self, block, crossbar) -> None:
        """Forward a time-ordered column block through ``crossbar``.

        The inlined twin of ``crossbar.send`` per request: identical
        forwarding, acceptance, backpressure relief and statistics,
        without per-request objects or method dispatch outside
        :meth:`service`.
        """
        n = len(block)
        if not n:
            return
        ts_l, off_l, chan_l, bank_l, row_l, ops_l = self._burst_columns(block)
        service = self.service
        channels = self.channels
        rq_l = [state.reads for state in channels]
        wq_l = [state.writes for state in channels]
        byr_l = [state.read_rows for state in channels]
        byw_l = [state.write_rows for state in channels]
        rseen_l = [state.stats.read_queue_len_seen for state in channels]
        wseen_l = [state.stats.write_queue_len_seen for state in channels]
        read_capacity = self.config.read_queue_size
        write_capacity = self.config.write_queue_size
        latency = crossbar.config.latency
        gap = crossbar.config.min_gap
        carry = crossbar._last_forward_time
        observe = self._obs is not None
        observe_crossbar = crossbar._obs is not None
        outstanding = self.outstanding
        last_submit = self.last_submit
        next_id = self.next_id
        seq = self._seq
        backpressure = 0
        delay_total = 0
        forward = 0
        for k in range(n):
            t_k = ts_l[k]
            forward = t_k + latency
            if carry is not None and carry + gap > forward:
                forward = carry + gap
            accept = forward if forward > last_submit else last_submit
            rid = next_id
            next_id += 1
            first_burst = off_l[k]
            last_burst = off_l[k + 1]
            outstanding[rid] = [last_burst - first_burst, t_k, 0]
            is_write = ops_l[k]
            for j in range(first_burst, last_burst):
                ch = chan_l[j]
                service(ch, accept)
                if is_write:
                    entries = wq_l[ch]
                    byrow = byw_l[ch]
                    seen = wseen_l[ch]
                    capacity = write_capacity
                else:
                    entries = rq_l[ch]
                    byrow = byr_l[ch]
                    seen = rseen_l[ch]
                    capacity = read_capacity
                while len(entries) >= capacity:
                    freed = service(ch, None)
                    if freed > accept:
                        accept = freed
                seen[len(entries)] += 1
                bank = bank_l[j]
                row = row_l[j]
                entries[seq] = (accept, bank, row, rid)
                row_queue = byrow.get((bank, row))
                if row_queue is None:
                    byrow[(bank, row)] = [seq]
                else:
                    row_queue.append(seq)
                seq += 1
                if observe:
                    self._observe_enqueue(ch, is_write, bank, row, accept)
            backpressure += accept - forward
            last_submit = accept
            carry = accept
            delay = accept - (t_k + latency)
            delay_total += delay
            if observe_crossbar:
                crossbar._observe(delay)
        self._seq = seq
        self.next_id = next_id
        self.last_request_id = next_id - 1
        self.last_presented = forward
        self.last_submit = last_submit
        self.stats.backpressure_delay += backpressure
        crossbar._last_forward_time = carry
        crossbar.total_delay += delay_total

    def _burst_columns(self, block):
        """Plain-int request and burst columns of a block.

        Returns ``(timestamps, offsets, channels, banks, rows, ops)``:
        request ``k`` owns bursts ``offsets[k]:offsets[k + 1]``.
        """
        address_map = self.address_map
        timestamps = block.timestamps.tolist()
        ops = block.ops.tolist()
        np = numpy_or_none()
        if np is not None:
            expand = address_map.expand_many(block.addresses, block.sizes)
            decoded = address_map.decode_many(expand.addresses)
            return (
                timestamps,
                expand.offsets.tolist(),
                decoded.channel.tolist(),
                decoded.bank_id.tolist(),
                decoded.row.tolist(),
                ops,
            )
        burst_size = self.config.burst_size
        locate = address_map.locate
        offsets = [0]
        channels: List[int] = []
        banks: List[int] = []
        rows: List[int] = []
        for address, size in zip(block.addresses.tolist(), block.sizes.tolist()):
            for number in range(address // burst_size, (address + size - 1) // burst_size + 1):
                ch, bank, row = locate(number)
                channels.append(ch)
                banks.append(bank)
                rows.append(row)
            offsets.append(len(channels))
        return timestamps, offsets, channels, banks, rows, ops

    # -- observability ---------------------------------------------------------

    def _observe_enqueue(self, ch, is_write, bank, row, arrival) -> None:
        registry = self._obs
        state = self.channels[ch]
        self._obs_enqueued.inc()
        if is_write:
            self._obs_write_depth[ch].observe(len(state.writes))
        else:
            self._obs_read_depth[ch].observe(len(state.reads))
        if registry.sink is not None:
            registry.event(
                "dram.enqueue",
                channel=ch,
                bank=bank,
                row=row,
                is_read=not is_write,
                arrival=arrival,
                read_queue=len(state.reads),
                write_queue=len(state.writes),
            )

    def _observe_issue(self, ch, bank, is_write, row_hit, finish) -> None:
        registry = self._obs
        self._obs_issued.inc()
        if row_hit:
            self._obs_row_hits.inc()
        if registry.sink is not None:
            registry.event(
                "dram.issue",
                channel=ch,
                bank=bank,
                is_read=not is_write,
                row_hit=bool(row_hit),
                finish=finish,
            )
