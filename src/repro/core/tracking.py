"""Instrumentation for the stage-phase experiments (Fig. 3 and Fig. 4).

:class:`StagePhaseTracker` records, per logical block, its current stage
phase (from first staging to commit/eviction) and classifies every access
as S (block currently staged) or C (block currently committed), with the
outcome types the paper plots: read/write hit, read/write miss, and write
overflow. For Fig. 4 it keeps per-phase miss timelines of a sample of
blocks and bins them over normalized phase time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.stats import OnlineStats


@dataclass
class _Phase:
    """One block's in-progress stage phase."""

    start_access: int
    #: (access_index, was_miss) events against this block during the phase.
    events: List[Tuple[int, bool]] = field(default_factory=list)


class StagePhaseTracker:
    """Collects the S/C access breakdown and stage-phase MPKI trends."""

    OUTCOMES = ("read_hit", "read_miss", "write_hit", "write_miss", "write_overflow")

    def __init__(self, sample_blocks: int = 1024, bins: int = 10) -> None:
        self.sample_blocks = sample_blocks
        self.bins = bins
        self._access_no = 0
        self._phases: Dict[int, _Phase] = {}
        #: breakdown[("S"|"C", outcome)] -> count
        self.breakdown: Dict[Tuple[str, str], int] = {}
        #: per-bin distribution of phase miss rates (misses per kilo-access).
        self.bin_stats: List[OnlineStats] = [
            OnlineStats(keep_samples=True) for _ in range(bins)
        ]
        self._sampled_phases = 0

    # -- phase lifecycle -------------------------------------------------------
    def tick(self) -> None:
        """Advance the global access clock (call once per memory access)."""
        self._access_no += 1

    def block_staged(self, block_id: int) -> None:
        if self._sampled_phases >= self.sample_blocks:
            return
        if block_id not in self._phases:
            self._phases[block_id] = _Phase(start_access=self._access_no)

    def block_unstaged(self, block_id: int, committed: bool) -> None:
        """Close a phase at commit or eviction and bin its miss timeline."""
        phase = self._phases.pop(block_id, None)
        if phase is None:
            return
        if self._sampled_phases >= self.sample_blocks:
            return
        span = self._access_no - phase.start_access
        if span <= 0 or len(phase.events) < 2:
            return
        self._sampled_phases += 1
        bin_events = [[0, 0] for _ in range(self.bins)]  # [accesses, misses]
        for access_no, was_miss in phase.events:
            rel = (access_no - phase.start_access) / span
            index = min(self.bins - 1, int(rel * self.bins))
            bin_events[index][0] += 1
            if was_miss:
                bin_events[index][1] += 1
        for index, (accesses, misses) in enumerate(bin_events):
            if accesses:
                self.bin_stats[index].add(1000.0 * misses / accesses)

    def finalize(self) -> None:
        """Flush phases still open at end of run.

        Without this, any block staged but neither committed nor evicted by
        the time the trace ends never reaches the Fig. 3b/4 bins, silently
        dropping the tail of every trace.
        """
        for block_id in list(self._phases):
            self.block_unstaged(block_id, committed=False)

    def open_phases(self) -> Dict[int, Tuple[int, List[Tuple[int, bool]]]]:
        """Phases not yet closed: block -> (start access, events)."""
        return {
            block_id: (phase.start_access, list(phase.events))
            for block_id, phase in self._phases.items()
        }

    # -- access classification ----------------------------------------------------
    def record(
        self,
        block_id: int,
        staged: bool,
        committed: bool,
        is_write: bool,
        miss: bool,
        overflow: bool,
    ) -> None:
        """Classify one access for the Fig. 3 breakdown.

        ``staged``/``committed`` describe the block *before* the access.
        """
        if staged:
            category = "S"
            if self._sampled_phases < self.sample_blocks:
                phase = self._phases.get(block_id)
                if phase is not None:
                    phase.events.append((self._access_no, miss))
        elif committed:
            category = "C"
        else:
            return
        if overflow and is_write:
            outcome = "write_overflow"
        else:
            outcome = ("write_" if is_write else "read_") + ("miss" if miss else "hit")
        key = (category, outcome)
        self.breakdown[key] = self.breakdown.get(key, 0) + 1

    # -- reports --------------------------------------------------------------------
    def breakdown_fractions(self, category: str) -> Dict[str, float]:
        """Outcome fractions within one category ('S' or 'C')."""
        total = sum(
            count for (cat, _), count in self.breakdown.items() if cat == category
        )
        if total == 0:
            return {outcome: 0.0 for outcome in self.OUTCOMES}
        return {
            outcome: self.breakdown.get((category, outcome), 0) / total
            for outcome in self.OUTCOMES
        }

    def miss_rate(self, category: str) -> float:
        fractions = self.breakdown_fractions(category)
        return fractions["read_miss"] + fractions["write_miss"]

    def overflow_rate(self, category: str) -> float:
        return self.breakdown_fractions(category)["write_overflow"]

    def mpki_distribution(self) -> List[Dict[str, float]]:
        """Per-bin quartiles/tails of the stage-phase miss trend (Fig. 4)."""
        out: List[Dict[str, float]] = []
        for index, stats in enumerate(self.bin_stats):
            if stats.count == 0:
                out.append({"bin": index / self.bins, "count": 0.0})
                continue
            out.append(
                {
                    "bin": index / self.bins,
                    "count": float(stats.count),
                    "p5": stats.percentile(0.05),
                    "p25": stats.percentile(0.25),
                    "median": stats.percentile(0.50),
                    "p75": stats.percentile(0.75),
                    "p95": stats.percentile(0.95),
                    "mean": stats.mean,
                }
            )
        return out
