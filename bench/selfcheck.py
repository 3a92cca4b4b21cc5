"""Checks that the benchmark's own gates fire. Run from the root of a checkout::

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` declares exactly the metrics and units ``run.py`` prints.
2. With one corrupted S-box entry, passed to ``PipelineSimulator`` through its
   public constructor, each library workload counts failed blocks, reports
   ``correct: false`` and exits 1.
3. A drifted pin (one stall cycle more than the model produces) fails every
   block of the run it describes.
4. In a directory holding only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits nonzero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import SATURATED_JOBS, Context, SaturatedMixed, load_pins

ROOT = run.ROOT
BENCH = Path(__file__).resolve().parent


def check(condition: bool, message: str) -> bool:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    return condition


def declared_metrics() -> bool:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = check({m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS,
               "BENCHMARK.json end_to_end matches run.py")
    return ok & check({m["name"]: m["unit"] for m in config["per_layer"]} == run.LAYER_UNITS,
                      "BENCHMARK.json per_layer matches run.py")


def corrupted_sbox(workload: str) -> bool:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--corrupt-sbox"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(done.stdout.splitlines()[-1])
    return check(done.returncode == 1 and not result["correct"] and result["failed"] > 0,
                 f"{workload} with a corrupted S-box: exit {done.returncode}, "
                 f"{result['failed']} of {result['attempted']} blocks failed")


def drifted_pin() -> bool:
    pins = copy.deepcopy(load_pins())
    pins["runs"][str(SATURATED_JOBS)]["stall_cycles"] += 1
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        with Context(workdir, pins) as ctx:
            SaturatedMixed(ctx, 1).run_pass(0, traced=False)
    finally:
        shutil.rmtree(workdir)
    return check(ctx.failed == SATURATED_JOBS and ctx.problems,
                 f"a drifted stall-cycle pin fails the run: {ctx.failed} blocks, "
                 f"{ctx.problems[:1]}")


def bare_directory() -> bool:
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "saturated_mixed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    return check(done.returncode != 0 and '"correct"' not in done.stdout,
                 f"without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    results = [
        declared_metrics(),
        corrupted_sbox("saturated_mixed"),
        corrupted_sbox("rekey_bursts"),
        drifted_pin(),
        bare_directory(),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
