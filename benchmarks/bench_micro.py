"""Micro-benchmarks of the hot code paths (true pytest-benchmark timing).

These complement the figure benchmarks: they time the real FPC/BDI
implementations, the metadata encode/decode paths, and the controller's
per-access cost, so performance regressions in the library itself are
visible.

Run directly as a script, this file also measures the sweep-level
optimizations of the parallel runner and compression memo and records
the numbers in a ``BENCH_parallel.json`` artifact (see
docs/performance.md)::

    PYTHONPATH=src python benchmarks/bench_micro.py \
        --workloads YCSB-B,557.xz_r --designs simple,baryon \
        --accesses 2000 --scale 512 --jobs 4 --out BENCH_parallel.json

The script asserts that the legacy per-cell serial path, the
trace-reusing serial path, and the process-pool parallel path all
produce bit-identical results before it reports any timing.
"""

import random
import struct

from repro.compression import BdiCompressor, CompressionEngine, FpcCompressor
from repro.core import BaryonController
from repro.metadata.remap import RemapEntry, locate_sub_block
from repro.metadata.stage_tag import RangeSlot, StageTagEntry

from common import bench_system


def _patterned_block(n=256):
    base = 1 << 40
    return b"".join(
        struct.pack(">q", base + (i % 50) - 25) for i in range(n // 8)
    )


def test_fpc_compress_256b(benchmark):
    fpc = FpcCompressor()
    data = _patterned_block()
    result = benchmark(fpc.compress, data)
    assert fpc.decompress(result) == data


def test_bdi_compress_256b(benchmark):
    bdi = BdiCompressor()
    data = _patterned_block()
    result = benchmark(bdi.compress, data)
    assert bdi.decompress(result) == data


def test_stage_tag_entry_roundtrip(benchmark):
    entry = StageTagEntry(
        tag=0x1FFFF,
        valid=True,
        slots=[RangeSlot(cf=2, blk_off=i % 8, sub_start=(i % 4) * 2) for i in range(8)],
        miss_count=77,
    )

    def roundtrip():
        return StageTagEntry.decode(entry.encode())

    decoded = benchmark(roundtrip)
    assert decoded.tag == entry.tag


def test_remap_position_lookup(benchmark):
    entries = [
        RemapEntry(remap=0xF0, pointer=1, cf4=0b10),
        RemapEntry(remap=0x0F, pointer=1, cf2=0b0011),
        RemapEntry(remap=0xFF, pointer=1, cf2=0b1100, cf4=0b01),
    ] + [RemapEntry()] * 5

    def locate():
        return locate_sub_block(entries, 2, 6)

    position = benchmark(locate)
    assert position is not None


def test_compression_memo_hot_fits(benchmark):
    """fits() on a recurring byte range: one dict probe after the first
    FPC+BDI evaluation (the content-keyed memo's hot path)."""
    engine = CompressionEngine()
    data = _patterned_block(512)
    engine.fits(data)  # warm the memo
    fits = benchmark(engine.fits, data)
    assert fits
    assert engine.stats.get("memo_hits") > 0


def test_controller_access_throughput(benchmark):
    config, _ = bench_system()
    ctrl = BaryonController(config, seed=1)
    rng = random.Random(7)
    footprint = 2 * config.layout.fast_capacity
    addrs = [(rng.randrange(footprint) // 64) * 64 for _ in range(2048)]
    index = 0

    def one_access():
        nonlocal index
        ctrl.access(addrs[index % len(addrs)], index % 4 == 0)
        index += 1

    benchmark(one_access)
    assert ctrl.stats.get("accesses") > 0


# ---------------------------------------------------------------------------
# Script mode: sweep-level before/after numbers -> BENCH_parallel.json
# ---------------------------------------------------------------------------

def _bench_matrix(workloads, designs, scale, accesses, seed, jobs):
    """Time the legacy serial path vs. trace-reuse serial vs. parallel.

    Returns the timing dict after asserting all three paths produce
    bit-identical results.
    """
    from time import perf_counter

    from repro.analysis import run_matrix, run_one
    from repro.parallel import clear_trace_cache, fork_available
    from repro.workloads import scaled_system

    config, sim_config = scaled_system(scale)

    t0 = perf_counter()
    legacy = {
        (w, d): run_one(w, d, config, sim_config, n_accesses=accesses, seed=seed)
        for w in workloads
        for d in designs
    }
    legacy_s = perf_counter() - t0

    clear_trace_cache()
    t0 = perf_counter()
    serial = run_matrix(
        workloads, designs, config, sim_config,
        n_accesses=accesses, seed=seed, jobs=1,
    )
    serial_s = perf_counter() - t0

    clear_trace_cache()
    t0 = perf_counter()
    parallel = run_matrix(
        workloads, designs, config, sim_config,
        n_accesses=accesses, seed=seed, jobs=jobs,
    )
    parallel_s = perf_counter() - t0

    assert set(legacy) == set(serial) == set(parallel)
    for key in legacy:
        if not (legacy[key].to_dict() == serial[key].to_dict()
                == parallel[key].to_dict()):
            raise AssertionError(f"results diverge across runner paths: {key}")

    return {
        "cells": len(legacy),
        "workloads": list(workloads),
        "designs": list(designs),
        "accesses": accesses,
        "scale": scale,
        "jobs": jobs,
        "fork_available": fork_available(),
        "serial_legacy_s": round(legacy_s, 4),
        "serial_reuse_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup_parallel_vs_serial": round(serial_s / parallel_s, 3),
        "speedup_parallel_vs_legacy": round(legacy_s / parallel_s, 3),
        "results_match": True,
    }


def _hotpath_breakdown(ctrl, sim, trace, workload, design):
    """One untimed batched run with the controller entry points wrapped.

    Attributes wall time to the deferred fast path (serve plus batched
    replay) versus the scalar ``access`` fallback, and reports the
    full-run :class:`AccessCase` counts plus the per-reason decline
    counters — so a hot-path regression is attributable to a specific
    case mix shift, a fallback-rate change, or one decline reason.

    The simulator drives every batching controller (Baryon and
    ``simple`` alike) through one contract, the ``(serve, flush,
    replay)`` triple from ``make_deferred_server()``, so only that
    factory is wrapped: the serve/replay closures it returns are timed.
    """
    from time import perf_counter

    acc = {
        "deferred_ops": 0, "deferred_declined": 0, "deferred_s": 0.0,
        "batch_flushes": 0, "batch_s": 0.0,
        "fallback_calls": 0, "fallback_s": 0.0,
    }
    real_access = ctrl.access

    def timed_access(addr, is_write, now):
        t0 = perf_counter()
        out = real_access(addr, is_write, now)
        acc["fallback_s"] += perf_counter() - t0
        acc["fallback_calls"] += 1
        return out

    # Instance attributes shadow the class methods, so the simulator's
    # lookups bind the wrappers without any simulator-side hooks.
    ctrl.access = timed_access
    if getattr(ctrl, "supports_batching", False):
        real_make_server = ctrl.make_deferred_server

        def timed_make_server():
            serve, flush, replay = real_make_server()

            def timed_serve(addr, is_write):
                t0 = perf_counter()
                op = serve(addr, is_write)
                acc["deferred_s"] += perf_counter() - t0
                if op is None:
                    acc["deferred_declined"] += 1
                else:
                    acc["deferred_ops"] += 1
                return op

            def timed_replay(ops, cycles, mlp, sink=None):
                t0 = perf_counter()
                out = replay(ops, cycles, mlp, sink)
                acc["batch_s"] += perf_counter() - t0
                acc["batch_flushes"] += 1
                return out

            return timed_serve, flush, timed_replay

        ctrl.make_deferred_server = timed_make_server
    decline_base = dict(getattr(ctrl, "deferred_declines", None) or {})
    sim.run(trace, workload, design)
    cases = {
        key[len("case_"):]: value
        for key, value in ctrl.stats.as_dict().items()
        if key.startswith("case_")
    }
    # Authoritative decline accounting: the controller's per-reason
    # counters, where it keeps them.
    decline_counters = getattr(ctrl, "deferred_declines", None)
    if decline_counters is not None:
        decline_reasons = {
            reason: count - decline_base.get(reason, 0)
            for reason, count in decline_counters.items()
        }
        declined = sum(decline_reasons.values())
    else:
        decline_reasons = {}
        declined = acc["deferred_declined"]
    return {
        "access_cases": cases,
        "fast_path": {
            "deferred_ops": acc["deferred_ops"],
            "classify_s": round(acc["deferred_s"], 4),
            "batch_flushes": acc["batch_flushes"],
            "replay_s": round(acc["batch_s"], 4),
        },
        "scalar_fallback": {
            "calls": acc["fallback_calls"],
            "declined_classifications": declined,
            "decline_reasons": decline_reasons,
            "time_s": round(acc["fallback_s"], 4),
        },
    }


def _bench_hotpath(workloads, designs, scale, accesses, seed, repeats=3):
    """Time the batched simulation loop against the scalar reference loop.

    Each (workload, design) cell runs the same pre-generated trace through
    a fresh controller in both modes; the cell's results must be
    bit-identical before any timing is reported.

    Returns ``(summary, results_by_cell)`` — the latter keyed
    ``"workload/design"`` with the batched :meth:`SimResult.to_dict`, for
    comparison against a reference-revision run.
    """
    from time import perf_counter

    from repro.analysis import build_controller
    from repro.sim import SystemSimulator
    from repro.workloads import build_workload, scaled_system

    config, sim_config = scaled_system(scale)
    cells = []
    results_by_cell = {}
    total_scalar = 0.0
    total_batched = 0.0
    for workload in workloads:
        trace = build_workload(
            workload, config.layout.fast_capacity, n_accesses=accesses, seed=seed
        )
        for design in designs:
            times = {}
            results = {}
            for mode, scalar in (("scalar", True), ("batched", False)):
                best = None
                for _ in range(repeats):
                    ctrl = build_controller(design, config, seed=seed)
                    if hasattr(ctrl, "oracle"):
                        trace.apply_compressibility(ctrl.oracle)
                    sim = SystemSimulator(ctrl, sim_config)
                    t0 = perf_counter()
                    result = sim.run(trace, workload, design, scalar=scalar)
                    elapsed = perf_counter() - t0
                    payload = result.to_dict()
                    if mode in results and results[mode] != payload:
                        raise AssertionError(
                            f"{mode} run not deterministic across repeats: "
                            f"({workload}, {design})"
                        )
                    results[mode] = payload
                    best = elapsed if best is None else min(best, elapsed)
                times[mode] = best
            if results["scalar"] != results["batched"]:
                raise AssertionError(
                    f"hot path diverges from scalar loop: ({workload}, {design})"
                )
            total_scalar += times["scalar"]
            total_batched += times["batched"]
            results_by_cell[f"{workload}/{design}"] = results["batched"]
            ctrl = build_controller(design, config, seed=seed)
            if hasattr(ctrl, "oracle"):
                trace.apply_compressibility(ctrl.oracle)
            breakdown = _hotpath_breakdown(
                ctrl, SystemSimulator(ctrl, sim_config), trace, workload, design
            )
            # Coverage smoke check: any batching-capable design (simple
            # included) must actually enter the deferred seam — a cell
            # with zero deferred ops means the seam silently disengaged.
            if (getattr(ctrl, "supports_batching", False)
                    and not breakdown["fast_path"]["deferred_ops"]):
                raise AssertionError(
                    f"deferred seam never engaged: ({workload}, {design}) "
                    "reports deferred_ops == 0"
                )
            cells.append({
                "workload": workload,
                "design": design,
                "scalar_s": round(times["scalar"], 4),
                "batched_s": round(times["batched"], 4),
                "speedup": round(times["scalar"] / times["batched"], 3),
                "breakdown": breakdown,
            })
    summary = {
        "workloads": list(workloads),
        "designs": list(designs),
        "accesses": accesses,
        "scale": scale,
        "repeats": repeats,
        "cells": cells,
        "scalar_total_s": round(total_scalar, 4),
        "batched_total_s": round(total_batched, 4),
        "loop_speedup": round(total_scalar / total_batched, 3),
        "results_match": True,
    }
    return summary, results_by_cell


#: Sweep script executed (via ``python -c``) against a reference checkout's
#: ``src`` so the pre-change revision's modules time the same cells
#: end-to-end. It reads the cell spec as JSON on stdin and prints one JSON
#: line: total wall seconds plus, per cell, the best wall time and the
#: SimResult dict (the script text ships with *this* tree, so the output
#: format does not depend on the reference revision).
_REF_SWEEP_SCRIPT = r"""
import json, sys
from time import perf_counter
from repro.workloads import scaled_system, build_workload
from repro.analysis import build_controller
from repro.sim import SystemSimulator

spec = json.loads(sys.stdin.read())
config, sim_config = scaled_system(spec["scale"])
total = 0.0
cells = {}
for workload in spec["workloads"]:
    trace = build_workload(
        workload, config.layout.fast_capacity,
        n_accesses=spec["accesses"], seed=spec["seed"],
    )
    for design in spec["designs"]:
        best = None
        for _ in range(spec.get("repeats", 1)):
            ctrl = build_controller(design, config, seed=spec["seed"])
            if hasattr(ctrl, "oracle"):
                trace.apply_compressibility(ctrl.oracle)
            sim = SystemSimulator(ctrl, sim_config)
            t0 = perf_counter()
            result = sim.run(trace, workload, design)
            elapsed = perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        total += best
        cells[workload + "/" + design] = {
            "best_s": best, "result": result.to_dict(),
        }
print(json.dumps({"total_s": total, "cells": cells}))
"""


def _bench_hotpath_reference(
    ref_src, workloads, designs, scale, accesses, seed, repeats=3
):
    """End-to-end time of the same sweep on a reference checkout's code.

    The subprocess imports ``repro`` from ``ref_src`` (PYTHONPATH), so the
    numbers measure the whole pre-change stack — per-access loop and
    subsystems — not just the loop. Returns the parsed result dict.
    """
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=ref_src)
    spec = {
        "workloads": list(workloads),
        "designs": list(designs),
        "scale": scale,
        "accesses": accesses,
        "seed": seed,
        "repeats": repeats,
    }
    proc = subprocess.run(
        [sys.executable, "-c", _REF_SWEEP_SCRIPT],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _add_ref_worktree(rev):
    """Materialize ``rev`` in a temporary git worktree; returns its path."""
    import subprocess
    import tempfile

    path = tempfile.mkdtemp(prefix="hotpath-ref-")
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--force", path, rev],
        check=True,
        capture_output=True,
        text=True,
    )
    return path


def _remove_ref_worktree(path):
    import shutil
    import subprocess

    subprocess.run(
        ["git", "worktree", "remove", "--force", path],
        check=False,
        capture_output=True,
    )
    shutil.rmtree(path, ignore_errors=True)


def _bench_memo(scale, accesses, memo_capacity):
    """One controller run over a real-content (FPC/BDI) oracle."""
    from time import perf_counter

    from repro.workloads import scaled_system
    from repro.workloads.datagen import ContentBackedCompressibility, ContentStore

    config, _ = scaled_system(scale)
    ctrl = BaryonController(config, seed=2)
    store = ContentStore(pattern="small_ints", seed=4)
    engine = CompressionEngine(
        geometry=store.geometry, memo_capacity=memo_capacity
    )
    ctrl.oracle = ContentBackedCompressibility(
        store, engine=engine, write_noise=0.05, seed=4
    )
    rng = random.Random(6)
    footprint = 2 * config.layout.fast_capacity
    # A hot working set small enough to be re-staged repeatedly — the
    # regime where the controller re-probes the same content and the
    # memo's one-evaluation-per-distinct-range guarantee pays off.
    hot = footprint // 256
    t0 = perf_counter()
    for _ in range(accesses):
        region = hot if rng.random() < 0.9 else footprint
        addr = (rng.randrange(region) // 64) * 64
        ctrl.access(addr, rng.random() < 0.2)
    return perf_counter() - t0, engine


def main(argv=None):
    import argparse
    import json
    import os
    import sys
    from datetime import datetime, timezone

    parser = argparse.ArgumentParser(
        description="Sweep-level benchmark: parallel runner + compression "
        "memo before/after numbers, recorded as a JSON artifact.",
    )
    parser.add_argument("--workloads", default="YCSB-B,557.xz_r",
                        help="comma-separated workload list")
    parser.add_argument("--designs", default="simple,baryon",
                        help="comma-separated design list")
    parser.add_argument("--accesses", type=int, default=10_000)
    parser.add_argument("--scale", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--memo-accesses", type=int, default=4_000,
                        help="accesses for the real-content memo benchmark")
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--hotpath-accesses", type=int, default=40_000,
                        help="accesses per cell for the hot-path benchmark")
    parser.add_argument("--hotpath-out", default="BENCH_hotpath.json",
                        help="artifact for the batched-vs-scalar loop numbers")
    parser.add_argument("--hotpath-repeats", type=int, default=3,
                        help="repeats per cell/mode; best-of-N is reported")
    parser.add_argument("--min-hotpath-speedup", type=float, default=0.0,
                        help="fail when the end-to-end hot-path speedup "
                        "falls below this factor (0 disables the check)")
    parser.add_argument("--hotpath-ref-rev", default=None,
                        help="git revision of the pre-change code to time "
                        "end-to-end (materialized in a temporary worktree)")
    parser.add_argument("--hotpath-ref-src", default=None,
                        help="path to a pre-change checkout's src/ to time "
                        "end-to-end (overrides --hotpath-ref-rev)")
    parser.add_argument("--ratio-baseline", default=None,
                        help="JSON baseline of design-time ratios (e.g. "
                        "baryon/simple); fail when a ratio regresses past "
                        "the tolerance")
    parser.add_argument("--max-ratio-regression", type=float, default=0.15,
                        help="allowed fractional worsening of a baseline "
                        "design-time ratio (default 0.15 = +15%%)")
    parser.add_argument("--skip-matrix", action="store_true",
                        help="skip the parallel-runner/memo benchmarks and "
                        "only run the hot-path benchmark")
    args = parser.parse_args(argv)

    workloads = [w for w in args.workloads.split(",") if w]
    designs = [d for d in args.designs.split(",") if d]

    hotpath, batched_results = _bench_hotpath(
        workloads, designs, args.scale, args.hotpath_accesses, args.seed,
        repeats=args.hotpath_repeats,
    )
    print(f"hot path {len(hotpath['cells'])} cells x "
          f"{args.hotpath_accesses} accesses: "
          f"scalar {hotpath['scalar_total_s']}s -> "
          f"batched {hotpath['batched_total_s']}s "
          f"({hotpath['loop_speedup']}x loop speedup, bit-identical results)")

    # End-to-end measurement against the pre-change revision. The scalar
    # loop above shares this tree's optimized subsystems, so it isolates
    # only the loop overhead; the reference run times the whole old stack.
    headline = hotpath["loop_speedup"]
    ref_src = args.hotpath_ref_src
    ref_label = ref_src
    worktree = None
    if ref_src is None and args.hotpath_ref_rev:
        try:
            worktree = _add_ref_worktree(args.hotpath_ref_rev)
            ref_src = os.path.join(worktree, "src")
            ref_label = args.hotpath_ref_rev
        except Exception as err:  # shallow clone, detached worktree, ...
            print(f"reference worktree for {args.hotpath_ref_rev!r} "
                  f"unavailable, skipping end-to-end comparison: {err}",
                  file=sys.stderr)
    if ref_src is not None:
        try:
            ref = _bench_hotpath_reference(
                ref_src, workloads, designs,
                args.scale, args.hotpath_accesses, args.seed,
                repeats=args.hotpath_repeats,
            )
            # ``energy`` and ``extra`` intentionally changed semantics
            # (measured-window deltas instead of full-run totals), so the
            # bit-identity requirement covers every *counter* field only.
            def _counters(result):
                return {
                    k: v for k, v in result.items()
                    if k not in ("energy", "extra")
                }

            mismatched = [
                cell for cell, payload in ref["cells"].items()
                if _counters(batched_results.get(cell, {}))
                != _counters(payload["result"])
            ]
            if mismatched:
                raise AssertionError(
                    "batched results diverge from the reference revision: "
                    + ", ".join(sorted(mismatched))
                )
            end_to_end = round(ref["total_s"] / hotpath["batched_total_s"], 3)
            # Per-cell end-to-end ratios: the baryon cells are the ones
            # the deferred path targets, so they are judged individually
            # instead of being averaged with the baseline cells.
            for cell in hotpath["cells"]:
                ref_cell = ref["cells"].get(
                    cell["workload"] + "/" + cell["design"]
                )
                if ref_cell is not None:
                    cell["ref_s"] = round(ref_cell["best_s"], 4)
                    cell["end_to_end"] = round(
                        ref_cell["best_s"] / cell["batched_s"], 3
                    )
            hotpath["reference"] = {
                "rev": ref_label,
                "total_s": round(ref["total_s"], 4),
                "end_to_end_speedup": end_to_end,
                "results_match": True,
            }
            headline = end_to_end
            print(f"reference {ref_label}: {hotpath['reference']['total_s']}s "
                  f"-> batched {hotpath['batched_total_s']}s "
                  f"({end_to_end}x end-to-end, bit-identical results)")
            for cell in hotpath["cells"]:
                if "end_to_end" in cell:
                    print(f"  {cell['workload']}/{cell['design']}: "
                          f"ref {cell['ref_s']}s -> {cell['batched_s']}s "
                          f"({cell['end_to_end']}x)")
        finally:
            if worktree is not None:
                _remove_ref_worktree(worktree)
    hotpath["speedup"] = headline

    # Design-time ratios (e.g. baryon/simple per workload): machine speed
    # cancels inside one run, so these are the stable regression signal
    # the CI gate checks against the committed baseline.
    by_cell = {(c["workload"], c["design"]): c["batched_s"]
               for c in hotpath["cells"]}
    ratios = {}
    if "simple" in designs:
        for workload in workloads:
            simple_s = by_cell.get((workload, "simple"))
            if not simple_s:
                continue
            for design in designs:
                if design != "simple" and (workload, design) in by_cell:
                    ratios[f"{workload}:{design}/simple"] = round(
                        by_cell[(workload, design)] / simple_s, 3
                    )
    hotpath["design_time_ratios"] = ratios

    hotpath_payload = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "hotpath": hotpath,
    }
    with open(args.hotpath_out, "w", encoding="utf-8") as sink:
        json.dump(hotpath_payload, sink, indent=2)
        sink.write("\n")
    print(f"wrote {args.hotpath_out}")
    if args.min_hotpath_speedup and hotpath["speedup"] < args.min_hotpath_speedup:
        print(f"hot-path speedup {hotpath['speedup']}x below required "
              f"{args.min_hotpath_speedup}x", file=sys.stderr)
        return 1
    if args.ratio_baseline and ratios:
        with open(args.ratio_baseline, encoding="utf-8") as source:
            baseline = json.load(source)
        tolerance = args.max_ratio_regression
        regressed = []
        for key, base in baseline.get("ratios", {}).items():
            current = ratios.get(key)
            if current is not None and current > base * (1.0 + tolerance):
                regressed.append(
                    f"{key}: {current} vs baseline {base} "
                    f"(+{(current / base - 1.0):.0%} > {tolerance:.0%})"
                )
        if regressed:
            print("design-time ratio regression:\n  "
                  + "\n  ".join(regressed), file=sys.stderr)
            return 1
    if args.skip_matrix:
        return 0

    matrix = _bench_matrix(
        workloads, designs, args.scale, args.accesses, args.seed, args.jobs
    )
    print(f"matrix {matrix['cells']} cells: "
          f"legacy {matrix['serial_legacy_s']}s, "
          f"reuse {matrix['serial_reuse_s']}s, "
          f"jobs={args.jobs} {matrix['parallel_s']}s "
          f"({matrix['speedup_parallel_vs_serial']}x vs serial, "
          f"{matrix['speedup_parallel_vs_legacy']}x vs legacy); "
          f"results match")

    cold_s, cold_engine = _bench_memo(args.scale, args.memo_accesses, 0)
    memo_s, memo_engine = _bench_memo(
        args.scale, args.memo_accesses, CompressionEngine().memo_capacity
    )
    assert memo_engine.stats.get("memo_hits") > 0, "memo never hit"
    memo = {
        "accesses": args.memo_accesses,
        "content_pattern": "small_ints",
        "cold_s": round(cold_s, 4),
        "memo_s": round(memo_s, 4),
        "speedup": round(cold_s / memo_s, 3),
        "hit_rate": round(memo_engine.memo_hit_rate, 4),
        "memo_hits": memo_engine.stats.get("memo_hits"),
        "memo_misses": memo_engine.stats.get("memo_misses"),
        "memo_evictions": memo_engine.stats.get("memo_evictions"),
    }
    print(f"compression memo: cold {memo['cold_s']}s -> memo {memo['memo_s']}s "
          f"({memo['speedup']}x, hit rate {memo['hit_rate']:.1%})")

    payload = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "matrix": matrix,
        "compression_memo": memo,
    }
    with open(args.out, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)
        sink.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
