"""Reuse/stack distance computation and histograms.

Stack distance (LRU stack processing, Mattson et al. [29]; Bennett &
Kruskal [7]) is the number of *unique* addresses referenced between
consecutive accesses to the same address. The STM and HRD baselines are
built on these profiles.

The scan runs an :class:`LRUStack`, a Fenwick (binary indexed) tree over
access slots, the standard O(n log n) formulation, so full SPEC-scale
traces profile quickly.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import Counter
from itertools import accumulate
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

COLD = -1  # marker for an infinite (cold-miss) stack distance


def stack_distances(items: Sequence[Hashable]) -> List[int]:
    """Per-access LRU stack distances; ``COLD`` (-1) marks first touches.

    A distance of 0 means the immediately-preceding unique item was the
    same item (back-to-back reuse).
    """
    access = LRUStack().access
    return [access(item) for item in items]


class LRUStack:
    """An LRU stack with O(log n) access, depth-selection and removal.

    Every access takes the next time slot; the item in the highest
    occupied slot is the most-recently used. A Fenwick (binary indexed)
    tree over the slots, kept in a plain list, counts the occupied ones,
    so the depth of an item is the number of occupied slots above its
    own and the item at a depth is found by one k-th-slot descent. Used
    by HRD synthesis, where stack depths can reach the workload
    footprint (a plain list would make synthesis quadratic), and by
    :func:`stack_distances`.
    """

    __slots__ = ("_slot_of", "_item_at", "_tree", "_size")

    def __init__(self):
        self._slot_of: Dict[Hashable, int] = {}  # item -> its 1-based slot
        self._item_at: List[Hashable] = []  # slot - 1 -> the item that took it
        self._size = 1024  # slots the tree covers; always a power of two
        self._tree = [0] * (self._size + 1)

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._slot_of

    def access(self, item: Hashable) -> int:
        """Move ``item`` to the front (inserting it if absent).

        Returns the depth ``item`` had before the access (its LRU stack
        distance), or ``COLD`` if it was absent.
        """
        tree = self._tree
        size = self._size
        slot_of = self._slot_of
        items = self._item_at
        slot = slot_of.pop(item, None)
        if slot is None:
            depth = COLD
        elif slot == len(items):
            # Already in the newest slot: the order does not change.
            slot_of[item] = slot
            return 0
        else:
            occupied = 0  # occupied slots up to and including ``slot``
            index = slot
            while index:
                occupied += tree[index]
                index &= index - 1
            depth = len(slot_of) + 1 - occupied
            index = slot
            while index <= size:
                tree[index] -= 1
                index += index & -index
        items.append(item)
        slot = len(items)
        if slot > size:
            # Doubling keeps every existing node: the new nodes cover
            # empty slots, except the new root, which covers them all.
            tree.extend([0] * (size - 1))
            tree.append(len(slot_of))
            size = self._size = size * 2
        index = slot
        while index <= size:
            tree[index] += 1
            index += index & -index
        slot_of[item] = slot
        return depth

    def remove(self, item: Hashable) -> None:
        index = self._slot_of.pop(item)
        tree = self._tree
        size = self._size
        while index <= size:
            tree[index] -= 1
            index += index & -index

    def depth_of(self, item: Hashable) -> int:
        """Depth of ``item``: 0 means most-recently used."""
        tree = self._tree
        occupied = 0
        index = self._slot_of[item]
        while index:
            occupied += tree[index]
            index &= index - 1
        return len(self._slot_of) - occupied

    def at_depth(self, depth: int) -> Hashable:
        """The item at ``depth`` (0 = most recent)."""
        count = len(self._slot_of)
        if not 0 <= depth < count:
            raise IndexError(f"depth {depth} out of range for stack of {count}")
        # Descend to the rank-th occupied slot in ascending order: the
        # largest prefix of slots holding fewer than ``rank`` items ends
        # just below it.
        rank = count - depth
        tree = self._tree
        index = 0
        bit = self._size >> 1  # the root covers every slot, so skip it
        while bit:
            probe = index + bit
            if tree[probe] < rank:
                index = probe
                rank -= tree[probe]
            bit >>= 1
        return self._item_at[index]


class ReuseHistogram:
    """A discrete distribution of stack distances, including cold misses.

    The STM stride table also draws its global stride distribution
    through one.
    """

    def __init__(self, counts: Optional[Counter] = None):
        self.counts: Counter = counts if counts is not None else Counter()
        # (sorted distances, their cumulative counts, total), built on the
        # first draw and dropped by ``add``.
        self._table: Optional[Tuple[List[int], List[int], float]] = None

    @classmethod
    def fit(cls, distances: Sequence[int]) -> "ReuseHistogram":
        return cls(Counter(distances))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def cold_count(self) -> int:
        return self.counts.get(COLD, 0)

    def cold_fraction(self) -> float:
        total = self.total
        return self.counts.get(COLD, 0) / total if total else 0.0

    def add(self, distance: int) -> None:
        self.counts[distance] += 1
        self._table = None

    def sample(self, rng: random.Random) -> int:
        """Sample a distance (may return ``COLD``).

        Keys are sorted so sampling is invariant to insertion order
        (profiles must behave identically after serialization). The draw
        is exactly ``rng.choices(sorted keys, weights=counts)``: one
        ``random()`` call, resolved to the same insertion point in the
        cumulative counts. Update ``counts`` through :meth:`add` only,
        which drops the cached cumulative table.
        """
        table = self._table
        if table is None:
            if not self.counts:
                return COLD
            distances = sorted(self.counts)
            cumulative = list(accumulate(self.counts[d] for d in distances))
            table = self._table = (distances, cumulative, cumulative[-1] + 0.0)
        distances, cumulative, total = table
        return distances[bisect(cumulative, rng.random() * total, 0, len(distances) - 1)]

    def clamped(self, max_rows: int) -> "ReuseHistogram":
        """Clamp finite distances into ``max_rows`` rows (STM uses 32).

        Distances >= max_rows are folded into the last row; COLD is kept.
        """
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        folded: Counter = Counter()
        for distance, count in self.counts.items():
            if distance == COLD:
                folded[COLD] += count
            else:
                folded[min(distance, max_rows - 1)] += count
        return ReuseHistogram(folded)

    def to_dict(self) -> dict:
        return {"counts": sorted(self.counts.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "ReuseHistogram":
        return cls(Counter(dict((int(k), int(v)) for k, v in data["counts"])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReuseHistogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReuseHistogram({self.total} samples, {self.cold_count} cold)"
