"""Common scaffolding for baseline controllers.

Each baseline owns the same :class:`~repro.devices.memory.HybridMemoryDevices`
pair as Baryon and returns :class:`~repro.core.events.AccessResult` objects,
so the system simulator and the analysis code treat all designs uniformly.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.config import BaryonConfig
from repro.common.stats import CounterGroup
from repro.core.events import CASE_COUNTER_KEYS, FAST_CASES, AccessResult
from repro.devices.memory import HybridMemoryDevices
from repro.obs.tracer import NULL_TRACER


class BaselineController(abc.ABC):
    """Base class: devices, stats, clock, and the access() contract."""

    name = "baseline"

    #: May the simulator drive this controller through the deferred
    #: ``(serve, flush, replay)`` triple from ``make_deferred_server()``?
    #: Baselines are scalar-only unless they implement it and shadow this.
    supports_batching = False

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
    ) -> None:
        self.config = config or BaryonConfig()
        self.geometry = self.config.geometry
        self.devices = devices or HybridMemoryDevices(self.config.timings)
        self.stats = CounterGroup(self.name)
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER
        self._now = 0.0

    def _advance(self, now: Optional[float]) -> float:
        if now is not None:
            self._now = now
        else:
            self._now += 1.0
        return self._now

    @abc.abstractmethod
    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        """Serve one 64 B memory-level access."""

    def _count(
        self, result: AccessResult, is_write: bool, addr: Optional[int] = None
    ) -> AccessResult:
        stats = self.stats
        stats.inc("accesses")
        stats.inc("writes" if is_write else "reads")
        fast = result.case in FAST_CASES
        if fast:
            stats.inc("served_fast")
        stats.inc(CASE_COUNTER_KEYS[result.case])
        if self.obs.enabled:
            self.obs.emit(
                "access", t=self._now, addr=addr,
                block=None if addr is None else self.geometry.block_id(addr),
                case=result.case.value, write=is_write,
                latency=result.latency_cycles, fast=fast,
                overflow=result.write_overflow,
            )
        return result

    def serve_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("served_fast") / accesses if accesses else 0.0
