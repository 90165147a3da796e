"""Access-by-access reference generators for the episodic workloads.

The library builds the SPEC and Zipf proxies' traces with batched numpy
draws (``EpisodeMixin._episode_addrs``, ``SpecProxyWorkload.generate``).
These subclasses keep the original definition of the same streams — one
``rng`` call per step, in trace order — so the parity tests can require
the batched generators to reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.workloads.base import Trace
from repro.workloads.spec import SpecProxyWorkload
from repro.workloads.synthetic import ZipfWorkload, _zipf_ranks, block_footprint


class _Episode:
    """One in-flight block episode: a walk over the block's footprint."""

    __slots__ = ("footprint", "pos", "remaining")

    def __init__(self, footprint: np.ndarray, length: int, offset: int):
        self.footprint = footprint
        self.pos = offset
        self.remaining = length

    def next_line(self) -> int:
        line = int(self.footprint[self.pos % len(self.footprint)])
        self.pos += 1
        self.remaining -= 1
        return line


class ScalarEpisodeMixin:
    """``_episode_addrs`` with one slot draw and one episode step per access."""

    def _episode_addrs(
        self,
        n_accesses: int,
        blocks: int,
        theta: float,
        coverage: float,
        active: int = 24,
        revisit: float = 1.75,
    ) -> np.ndarray:
        rng = self.rng
        g = self.geometry
        lines_per_block = g.block_size // 64
        blocks_per_super = g.super_block_blocks
        supers = max(1, blocks // blocks_per_super)
        perm_stride = 2654435761 % supers or 1
        pool = _zipf_ranks(rng, supers, max(1024, n_accesses // 8), theta)
        pool_pos = 0

        def new_episode() -> _Episode:
            nonlocal pool_pos, pool
            if pool_pos >= len(pool):
                pool = _zipf_ranks(rng, supers, len(pool), theta)
                pool_pos = 0
            super_id = (int(pool[pool_pos]) * perm_stride) % supers
            pool_pos += 1
            h = (super_id * 0x9E3779B97F4A7C15 + self.seed) & ((1 << 64) - 1)
            n_blocks = 2 + (h >> 17) % 4
            base = super_id * blocks_per_super
            hot_blocks = sorted(
                {base + ((h >> (5 * i)) % blocks_per_super) for i in range(n_blocks)}
            )
            walk = []
            for block in hot_blocks:
                footprint = block_footprint(block, lines_per_block, coverage, self.seed)
                walk.extend(block * lines_per_block + line for line in footprint)
            walk = np.asarray(walk, dtype=np.int64)
            length = max(2, int(rng.integers(1, int(len(walk) * revisit * 2))))
            return _Episode(walk, length, int(rng.integers(0, len(walk))))

        episodes = [new_episode() for _ in range(active)]
        addrs = np.empty(n_accesses, dtype=np.uint64)
        for i in range(n_accesses):
            e = episodes[int(rng.integers(0, active))]
            addrs[i] = e.next_line() * 64
            if e.remaining <= 0:
                episodes[episodes.index(e)] = new_episode()
        return addrs


class ScalarZipfWorkload(ScalarEpisodeMixin, ZipfWorkload):
    """:class:`ZipfWorkload` on the access-by-access episode stream."""


class ScalarSpecProxyWorkload(ScalarEpisodeMixin, SpecProxyWorkload):
    """:class:`SpecProxyWorkload` with the access-by-access mixing loop."""

    def generate(self, n_accesses: int) -> Trace:
        p = self.params
        rng = self.rng
        lines = self.footprint_bytes // 64
        blocks = max(1, self.footprint_bytes // self.geometry.block_size)
        behaviours = list(p["mix"].items())
        names = [b for b, _ in behaviours]
        weights = np.asarray([w for _, w in behaviours])
        weights = weights / weights.sum()
        choices = rng.choice(len(names), size=n_accesses, p=weights)

        addrs = np.empty(n_accesses, dtype=np.uint64)
        episodic = {
            "hot": self._episode_addrs(
                n_accesses, max(1, blocks // 40), theta=0.6, coverage=0.5
            ),
            "zipf": self._episode_addrs(n_accesses, blocks, theta=0.95, coverage=0.45),
            "ws": self._episode_addrs(
                n_accesses,
                max(1, int(blocks * p.get("ws_frac", 0.5))),
                theta=0.3,
                coverage=0.9,
            ),
        }
        episodic_pos = {k: 0 for k in episodic}
        sweep_frac = p.get("sweep_frac", 1.0)
        sweep_lines = max(1, int(lines * sweep_frac))
        sweep_passes = 4
        sweep_origin = 0
        scan_pos = 0
        window_base = 0
        window_lines = max(64, lines // 200)
        chase_arcs = max(1, lines // 3)
        chase_segment = 64
        chase_seg_base = 0
        chase_visits_left = 0
        chase_run = 0
        chase_line = 0
        window_run = 0
        window_line = 0
        for i in range(n_accesses):
            kind = names[choices[i]]
            if kind == "scan":
                addrs[i] = ((sweep_origin + scan_pos % sweep_lines) % lines) * 64
                scan_pos += 1
                if scan_pos >= sweep_lines * sweep_passes:
                    scan_pos = 0
                    sweep_origin = (sweep_origin + sweep_lines) % lines
            elif kind in episodic:
                addrs[i] = episodic[kind][episodic_pos[kind]]
                episodic_pos[kind] += 1
            elif kind == "chase":
                if chase_run == 0:
                    if chase_visits_left == 0:
                        chase_seg_base = int(
                            rng.integers(0, max(1, chase_arcs - chase_segment))
                        )
                        chase_visits_left = int(rng.integers(16, 48))
                    arc = chase_seg_base + int(rng.integers(0, chase_segment))
                    chase_visits_left -= 1
                    chase_line = arc * 3
                    chase_run = 3
                addrs[i] = (chase_line % lines) * 64
                chase_line += 1
                chase_run -= 1
            elif kind == "window":
                if i % 256 == 0:
                    window_base = int(rng.integers(0, max(1, lines - window_lines)))
                if window_run == 0:
                    window_line = window_base + int(rng.integers(0, window_lines))
                    window_run = int(rng.integers(3, 14))
                addrs[i] = (window_line % lines) * 64
                window_line += 1
                window_run -= 1
            else:
                raise ConfigurationError(f"unknown behaviour {kind}")
        writes = rng.random(n_accesses) < p["write_fraction"]
        lo, hi = p["igap"]
        return Trace(
            name=self.name,
            addrs=addrs,
            writes=writes,
            igaps=rng.integers(lo, hi, n_accesses, dtype=np.uint32),
            cores=rng.integers(0, self.cores, n_accesses).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile=p["profile"],
        )
