"""Regenerate ``pins.json``, the golden simulated statistics the benchmark checks.

Run from the root of a checkout, only when a change to the modelled design
is intended (a speed-up must reproduce the pins unchanged)::

    python3 bench/pin.py

For every job count a workload uses, it records the run statistics and the
trace size, and refuses to pin unless mixed, all-encrypt and all-decrypt
streams from several seeds agree exactly. For each seed in ``PIN_SEEDS`` it
records the SHA-256 of the ``cli_files`` trace and output files.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run  # puts the checkout's src/ on sys.path
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT
from workloads import (
    CLI_FILE_BYTES,
    CLI_JOBS,
    PINS_PATH,
    REKEY_SIZES,
    SATURATED_JOBS,
    CliFiles,
    Context,
    mixed_jobs,
    random_bytes,
    run_stats,
)

PIN_SEEDS = (*range(100), 0xD12AB)


def job_streams(n: int):
    for seed in (1, 2, 3):
        yield mixed_jobs(random.Random(seed), n)
    rng = random.Random(4)
    for mode in (MODE_ENCRYPT, MODE_DECRYPT):
        yield [Job(i, mode, random_bytes(rng, 16)) for i in range(n)]


def pin_runs() -> dict:
    sim = PipelineSimulator()
    pins = {}
    for n in sorted({*REKEY_SIZES, SATURATED_JOBS, CLI_JOBS, CLI_FILE_BYTES // 16}):
        seen = []
        for jobs in job_streams(n):
            trace = io.StringIO()
            summary = sim.run(bytes(range(16)), jobs, trace=trace).summary
            seen.append({**run_stats(summary), "trace_bytes": len(trace.getvalue().encode())})
        if any(entry != seen[0] for entry in seen):
            sys.exit(f"statistics for {n} jobs depend on the job stream: {seen}")
        pins[str(n)] = seen[0]
    return pins


def pin_cli(run_pins: dict) -> dict:
    build_dir = Path(run.ROOT) / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    digests = {}
    for seed in PIN_SEEDS:
        workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=build_dir))
        try:
            with Context(workdir, {"runs": run_pins, "cli_files": {}}) as ctx:
                workload = CliFiles(ctx, seed)
                workload.run_pass(0, traced=True)
        finally:
            shutil.rmtree(workdir)
        if ctx.failed or ctx.problems:
            sys.exit(f"seed {seed}: cli_files pass failed: {ctx.problems}")
        digests[str(seed)] = {
            "trace_sha256": workload.trace_sha256,
            "outputs_sha256": workload.outputs_sha256,
        }
    return digests


def main() -> None:
    run_pins = pin_runs()
    pins = {"runs": run_pins, "cli_files": pin_cli(run_pins)}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}: {len(run_pins)} job counts, {len(pins['cli_files'])} seeds")


if __name__ == "__main__":
    main()
