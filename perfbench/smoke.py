#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` untraced and traced at 400
accesses per cell, and checks that each run exits 0 and ends with the
result object; that the object carries every metric ``BENCHMARK.json``
names, with its unit, and no other; that the result is correct; that the
correctness checks ran; and that both runs of a workload print the same
``sim_digest``. Last, it checks that the benchmark exits non-zero without
a result line in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files. Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = ("scalar-vs-batched prefix", "digest repeat", "counter repeat")


def bench(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, problems: list) -> str:
    """Run one tiny benchmark; returns its ``sim_digest`` line."""
    where = f"{workload} --trace {trace}"
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--accesses", "400")
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return ""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {result.get('failed')} failed; {proc.stderr[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        problems.append(f"{where}: metrics missing {missing}, extra {extra}, wrong unit {units}")
    for value in result.get("metrics", {}).values():
        if not isinstance(value.get("value"), (int, float)):
            problems.append(f"{where}: non-numeric metric {value}")
    checks = next((l for l in lines if l.startswith("checks: ")), "")
    expected = CHECKS + (("traced == untraced",) if trace else ())
    for name in expected:
        if name not in checks:
            problems.append(f"{where}: check {name!r} did not run")
    return next((l for l in lines if l.startswith("sim_digest ")), "")


def check_bare_directory(problems: list) -> None:
    """Without the program source the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            problems.append(f"bare directory: exit {proc.returncode}, last line {last[0]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        digests = {check_run(workload, trace, problems) for trace in (0, 1)}
        if len(digests) != 1:
            problems.append(f"{workload}: sim_digest differs between runs: {sorted(digests)}")
        print(f"{workload}: done", flush=True)
    check_bare_directory(problems)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
