"""Replacement policies as per-set data structures.

The paper name-drops LRU, LFU, CLOCK, FIFO and random as interchangeable
fast-to-slow eviction policies (Sec. III-E) and uses LRU in the SRAM
hierarchy, LRU for stage-area block replacement and FIFO for sub-block
replacement. Each policy here is a small class managing one set's lines;
the cache composes one instance per set. Entries carry a ``dirty`` flag and
an opaque ``payload`` so higher-level structures (e.g. Unison's footprint
bitmaps) can ride along.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Optional


class CacheLine:
    """One resident line: tag plus dirty bit plus policy/user state."""

    __slots__ = ("tag", "dirty", "payload", "counter", "referenced", "stamp")

    def __init__(self, tag: Hashable, dirty: bool = False, payload=None) -> None:
        self.tag = tag
        self.dirty = dirty
        self.payload = payload
        self.counter = 0  # LFU frequency / FIFO sequence number
        self.referenced = False  # CLOCK reference bit
        self.stamp = 0  # LFU insertion order (tiebreak)


class BaseSet:
    """Common storage: a dict of resident lines keyed by tag."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.lines: Dict[Hashable, CacheLine] = {}

    def lookup(self, tag: Hashable) -> Optional[CacheLine]:
        return self.lines.get(tag)

    def is_full(self) -> bool:
        return len(self.lines) >= self.ways

    def touch(self, line: CacheLine) -> None:
        """Policy hook called on every hit."""
        raise NotImplementedError

    def insert(self, line: CacheLine) -> None:
        """Add a line; the caller must have evicted if the set was full."""
        if self.is_full():
            raise ValueError("insert into full set; evict first")
        self.lines[line.tag] = line
        self.touch(line)

    def victim(self) -> CacheLine:
        """Policy hook: choose (without removing) the eviction victim."""
        raise NotImplementedError

    def evict(self, tag: Hashable) -> CacheLine:
        return self.lines.pop(tag)

    def invalidate(self, tag: Hashable) -> Optional[CacheLine]:
        return self.lines.pop(tag, None)


class LruSet(BaseSet):
    """Least-recently-used via a monotonic timestamp per line.

    The reference LRU policy object. The simulator's own LRU structures
    (the SRAM hierarchy, the remap cache, the Simple and Unison block
    sets) keep each set as a plain ``{tag: value}`` dict in LRU->MRU
    insertion order instead; ``tests/test_lru_oracle.py`` checks them
    against this class.

    ``touch`` stamps the line from the set clock and re-inserts it at
    the tail of ``lines``, so the head is always the least-recently-used
    entry and ``victim`` is O(1). Timestamps are unique and strictly
    increasing, so dict order and counter order agree and the O(1)
    victim is exactly the line a minimum-stamp scan would pick.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._clock = 0

    def touch(self, line: CacheLine) -> None:
        self._clock += 1
        line.counter = self._clock
        # Move to the tail of the recency order.
        tag = line.tag
        lines = self.lines
        lines[tag] = lines.pop(tag)

    def victim(self) -> CacheLine:
        return next(iter(self.lines.values()))

    def mru(self) -> Optional[CacheLine]:
        """Most-recently-used line (needed by the MRUMissCnt statistic)."""
        if not self.lines:
            return None
        return next(reversed(self.lines.values()))


class FifoSet(BaseSet):
    """First-in-first-out: timestamp assigned at insert only.

    Hits never reorder, so dict insertion order *is* FIFO order and the
    head of ``lines`` is the oldest entry — an O(1) victim identical to
    the counter-minimum scan (timestamps are unique and increasing).
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._clock = 0

    def touch(self, line: CacheLine) -> None:
        if line.counter == 0:
            self._clock += 1
            line.counter = self._clock

    def victim(self) -> CacheLine:
        return next(iter(self.lines.values()))


class LfuSet(BaseSet):
    """Least-frequently-used with insertion-order tiebreak."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._clock = 0

    def touch(self, line: CacheLine) -> None:
        line.counter += 1
        if line.stamp == 0:
            self._clock += 1
            line.stamp = self._clock

    def victim(self) -> CacheLine:
        return min(self.lines.values(), key=lambda l: (l.counter, l.stamp))


class ClockSet(BaseSet):
    """Second-chance CLOCK over an explicit ring of tags."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._ring: List[Hashable] = []
        self._hand = 0

    def touch(self, line: CacheLine) -> None:
        line.referenced = True

    def insert(self, line: CacheLine) -> None:
        super().insert(line)
        self._ring.append(line.tag)

    def _ring_remove(self, tag: Hashable) -> None:
        """Drop ``tag`` from the ring, keeping the hand on the same line.

        Removing an element below the hand shifts every later element left
        one position, so the hand must follow it or it silently skips a
        line's second chance.
        """
        index = self._ring.index(tag)
        self._ring.pop(index)
        if index < self._hand:
            self._hand -= 1
        if self._hand >= len(self._ring):
            self._hand = 0

    def evict(self, tag: Hashable) -> CacheLine:
        self._ring_remove(tag)
        return super().evict(tag)

    def invalidate(self, tag: Hashable) -> Optional[CacheLine]:
        line = super().invalidate(tag)
        if line is not None:
            self._ring_remove(tag)
        return line

    def victim(self) -> CacheLine:
        while True:
            tag = self._ring[self._hand]
            line = self.lines[tag]
            if not line.referenced:
                return line
            line.referenced = False
            self._hand = (self._hand + 1) % len(self._ring)


class RandomSet(BaseSet):
    """Uniform random victim; deterministic under a seeded RNG."""

    def __init__(self, ways: int, rng: Optional[random.Random] = None) -> None:
        super().__init__(ways)
        self._rng = rng or random.Random(0xBA51C)

    def touch(self, line: CacheLine) -> None:
        pass

    def victim(self) -> CacheLine:
        tags = sorted(self.lines.keys(), key=repr)
        return self.lines[self._rng.choice(tags)]


REPLACEMENT_POLICIES: Dict[str, Callable[[int], BaseSet]] = {
    "lru": LruSet,
    "fifo": FifoSet,
    "lfu": LfuSet,
    "clock": ClockSet,
    "random": RandomSet,
}


def make_set(policy: str, ways: int) -> BaseSet:
    """Instantiate one set with the named replacement policy."""
    try:
        factory = REPLACEMENT_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {policy!r}; "
            f"choose from {sorted(REPLACEMENT_POLICIES)}"
        ) from None
    return factory(ways)
