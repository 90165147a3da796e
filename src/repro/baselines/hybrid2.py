"""Hybrid2 (Vasilakis et al., HPCA 2020): the flat-mode baseline.

Hybrid2 combines caching and migration in a flat hybrid memory: a small
fixed section of the fast memory acts as a sub-blocked (256 B) cache for
hot slow-memory data, and blocks whose cached footprint stabilizes are
*migrated* (swapped) into the OS-visible fast memory, with the decision
driven by write-back traffic (dirty sub-block counts).

That is exactly Baryon's pipeline with three features removed, which is
also how the paper frames the comparison (Sec. III-E: "when k = 0, the
policy only cares about the write traffic similar to Hybrid2"):

* no compression (every range has CF 1, no Z bit, no CF hints);
* no physical-block sharing (one logical block per fast block space);
* commit benefit = the dirty-traffic term only (k = 0).

So this class configures and wraps the shared
:class:`~repro.core.controller.BaryonController` accordingly. The cache
section size reuses the stage-area knob (Hybrid2's provisioned cache is of
the same tens-of-MB magnitude).

The wrapper forwards the whole controller contract to the inner
controller, including the deferred ``(serve, flush, replay)`` server and
its gate, so the simulator drives Hybrid2 through the same fast path as
Baryon and every batching gate (faults, tracing, the checker) still
applies. A stage-phase tracker is handed to the inner controller, whose
cache section is the stage area it observes. Callers that need the
Baryon internals unwrap through ``_inner``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.common.config import BaryonConfig, CommitConfig
from repro.core.controller import BaryonController
from repro.core.tracking import StagePhaseTracker
from repro.core.events import AccessResult
from repro.devices.memory import HybridMemoryDevices


class Hybrid2:
    """Flat, fully-associative, sub-blocked, compression-free baseline."""

    name = "hybrid2"

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
        seed: int = 1,
        tracker: Optional[StagePhaseTracker] = None,
    ) -> None:
        base = config or BaryonConfig.fully_associative()
        # Hybrid2 is flat + fully-associative with a provisioned cache
        # section; honour a caller-specified flat fraction, defaulting to
        # a 75/25 flat/cache split when the config was cache-mode.
        flat_fraction = base.layout.flat_fraction or 0.75
        layout = dataclasses.replace(
            base.layout, flat_fraction=flat_fraction, fully_associative=True
        )
        self.config = dataclasses.replace(
            base,
            layout=layout,
            commit=CommitConfig(k=0.0),
            compression_enabled=False,
            share_physical_blocks=False,
            compressed_writeback=False,
        )
        self._inner = BaryonController(
            self.config, devices=devices, seed=seed, tracker=tracker
        )

    # -- delegation: same duck type as every other controller ----------------
    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        return self._inner.access(addr, is_write, now)

    @property
    def devices(self) -> HybridMemoryDevices:
        return self._inner.devices

    @property
    def stats(self):
        return self._inner.stats

    @property
    def geometry(self):
        return self._inner.geometry

    @property
    def tracker(self) -> Optional[StagePhaseTracker]:
        return self._inner.tracker

    def serve_rate(self) -> float:
        return self._inner.serve_rate()

    # -- delegation: the deferred server contract -------------------------------
    def batching_gate(self) -> Optional[str]:
        return self._inner.batching_gate()

    @property
    def supports_batching(self) -> bool:
        return self._inner.supports_batching

    def make_deferred_server(self):
        return self._inner.make_deferred_server()

    @property
    def deferred_declines(self) -> Dict[str, int]:
        return self._inner.deferred_declines
