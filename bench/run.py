"""drablocus benchmark: host speed and modelled-design figures, checked against aesref.

Usage, from the root of a checkout::

    python3 bench/run.py --workload saturated_mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run: it measures the workload untraced for a
third of ``--seconds``, then wraps the model's classes from outside
(``layers.py``) for the rest and reports the per-layer metrics, including
``trace.overhead_ratio``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the environment. The exit
code is 1 when any output, trace or simulated statistic is wrong.

Host times and rates, end-to-end and per layer, are in reference seconds
(``hostprobe.py``): the time measured on the host, divided by how much
slower than its reference time a fixed probe loop ran around it.

``--corrupt-sbox`` flips one bit of S-box entry 0x53 in the image handed
to ``PipelineSimulator(sbox_image=...)``, as ``drablocus vectors
--corrupt-tables`` does; the run must then count failed blocks and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))

import drablocus  # noqa: E402

if not Path(drablocus.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"drablocus imported from {drablocus.__file__}, not from {SRC}")

from drablocus.simulator import PipelineSimulator  # noqa: E402
from drablocus.tables import build_mixcolumns_image, build_sbox_image  # noqa: E402
from hostprobe import REFERENCE_PROBE_S  # noqa: E402
from layers import LayerTrace, WrapperCost, calibrate, reference_ns  # noqa: E402
from workloads import (  # noqa: E402
    FIPS_KEY,
    PHASES,
    WORKLOADS,
    Context,
    check_reference,
    load_pins,
    median_of,
    mixed_jobs,
    run_passes,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycles_per_s": "cycles/s",
    "blocks_per_s": "blocks/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "ref_mb_per_s": "MB/s",
    "sim_cli_mb_per_s": "MB/s",
    "traced_cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "latency_cycles_max": "cycles",
    "modelled_gbps": "Gbps",
    "verified_fraction": "ratio",
}

FABRIC = ("bram", "dsp", "reg", "lutsr")
DATAPATH = ("sub_bytes", "shift_rows", "mix_columns", "ark_main", "ark_init", "ark_final", "round")
CONTROLLER = ("decide", "check", "commit")

LAYER_UNITS = {
    **{f"fabric.{kind}.calls_per_cycle": "calls/cycle" for kind in FABRIC},
    "fabric.self_ns_per_cycle": "ns/cycle",
    **{f"datapath.{unit}.self_ns_per_cycle": "ns/cycle" for unit in DATAPATH},
    **{f"controller.{group}.ns_per_cycle": "ns/cycle" for group in CONTROLLER},
    "controller.stall_ratio": "ratio",
    "keyschedule.compute.ns_per_cycle": "ns/cycle",
    "keyschedule.init_cycles": "cycles",
    "simulator.core_build_ms": "ms",
    **{f"simulator.phase_cycles.{phase}": "cycles" for phase in PHASES},
    "simulator.run.self_ns_per_cycle": "ns/cycle",
    "simulator.emit_trace.ns_per_cycle": "ns/cycle",
    "simulator.trace_bytes_per_block": "B/block",
    "aesref.encrypt_block.ns_per_block": "ns/block",
    "aesref.decrypt_block.ns_per_block": "ns/block",
    "aesref.key_expand.us": "us",
    "tables.build_sbox_image.ms": "ms",
    "tables.build_mixcolumns_image.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.wrapper_ns_per_call": "ns/call",
}

SETUP_REPEATS = 7
SETUP_CODE = (
    "import time\n"
    "from hostprobe import probe_seconds\n"
    "before = probe_seconds()\n"
    "t0 = time.perf_counter()\n"
    "import drablocus\n"
    "drablocus.PipelineSimulator()\n"
    "elapsed = time.perf_counter() - t0\n"
    "print(elapsed, (before + probe_seconds()) / 2)\n"
)
TABLE_REPEATS = 5
CALIBRATION_JOBS = 200


def environment() -> dict:
    """Where a result came from: code version, interpreter and machine."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha, dirty = "unknown", "unknown"
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            git_sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                     text=True, check=True, timeout=30).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, check=True, timeout=30)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": git_sha,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure_setup() -> float:
    """Median over fresh interpreters of importing drablocus and building a simulator.

    In reference seconds: each interpreter times the host probe before and
    after its set-up. One untimed interpreter runs first, so every timed one
    finds the bytecode cache written.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        elapsed, probe_s = map(float, done.stdout.split())
        times.append(elapsed * REFERENCE_PROBE_S / probe_s)
    return statistics.median(times[1:])


def run_ms_percentiles(samples: list[dict]) -> tuple[float, float]:
    """p50 and p90 of host ms per untraced ``run`` call, over the workload's call shapes.

    Each shape (job count) contributes its median over repeats, so the
    percentiles follow the workload's mix of short and long calls; a burst
    of host noise would otherwise read as tail latency of a deterministic
    simulator.
    """
    by_jobs = defaultdict(list)
    for sample in samples:
        for jobs, ms in sample.get("run_ms", ()):
            by_jobs[jobs].append(ms)
    typical = sorted(statistics.median(times) for times in by_jobs.values())
    if len(typical) == 1:
        return typical[0], typical[0]
    return statistics.median(typical), statistics.quantiles(typical, n=10)[8]


def end_to_end(ctx: Context, workload_cls, seed: int, seconds: float) -> dict[str, float]:
    setup_s = measure_setup()
    samples = run_passes(workload_cls(ctx, seed), seconds)
    run_ms_p50, run_ms_p90 = run_ms_percentiles(samples)
    return {
        "setup_s": setup_s,
        "cycles_per_s": median_of(samples, "cycles_per_s"),
        "blocks_per_s": median_of(samples, "blocks_per_s"),
        "run_ms_p50": run_ms_p50,
        "run_ms_p90": run_ms_p90,
        "ref_mb_per_s": median_of(samples, "ref_mb_per_s"),
        "sim_cli_mb_per_s": median_of(samples, "sim_cli_mb_per_s"),
        "traced_cycles_per_s": median_of(samples, "traced_cycles_per_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": median_of(samples, "sim_cycles"),
        "latency_cycles_max": max(max(r.stats["latencies"]) for r in ctx.records),
        "modelled_gbps": median_of(samples, "modelled_gbps"),
        "verified_fraction": (ctx.attempted - ctx.failed) / ctx.attempted,
        "host_slowdown": median_of(samples, "slowdown"),
    }


def _median_ms(build) -> float:
    return statistics.median(reference_ns(build) / 1e6 for _ in range(TABLE_REPEATS))


def per_layer(ctx: Context, workload_cls, seed: int, seconds: float) -> dict[str, float]:
    untraced = median_of(run_passes(workload_cls(ctx, seed), seconds / 3), "cycles_per_s")
    sim = PipelineSimulator()
    calibration_jobs = mixed_jobs(random.Random(seed), CALIBRATION_JOBS)
    cost = calibrate(lambda: sim.run(FIPS_KEY, calibration_jobs))
    first = len(ctx.records)
    trace = LayerTrace().install()
    try:
        samples = run_passes(workload_cls(ctx, seed), 2 * seconds / 3)
    finally:
        trace.restore()
    # The wrapper's cost at the host speed of the wrapped passes, which are timed in host ns.
    slowdown = median_of(samples, "slowdown")
    cost = WrapperCost(cost.inside * slowdown, cost.outside * slowdown)
    records = ctx.records[first:]
    cycles = sum(r.cycles for r in records)
    traced_cycles = sum(r.cycles for r in records if r.traced)
    stalls = sum(r.stats["stall_cycles"] for r in records)

    def self_ns(key: str) -> float:
        return trace.self_ns(key, cost)

    def per_call(key: str) -> float:
        return self_ns(key) / trace.calls(key)

    values = {f"fabric.{kind}.calls_per_cycle": trace.calls(f"fabric.{kind}") / cycles
              for kind in FABRIC}
    values["fabric.self_ns_per_cycle"] = sum(self_ns(f"fabric.{kind}") for kind in FABRIC) / cycles
    for unit in DATAPATH:
        values[f"datapath.{unit}.self_ns_per_cycle"] = self_ns(f"datapath.{unit}") / cycles
    for group in CONTROLLER:
        values[f"controller.{group}.ns_per_cycle"] = self_ns(f"controller.{group}") / cycles
    values["controller.stall_ratio"] = stalls / (stalls + sum(r.jobs for r in records))
    values["keyschedule.compute.ns_per_cycle"] = self_ns("keyschedule.compute") / cycles
    values["keyschedule.init_cycles"] = statistics.median(r.stats["key_init_cycles"]
                                                          for r in records)
    values["simulator.core_build_ms"] = self_ns("simulator.core_build") / len(records) / 1e6
    for phase in PHASES:
        values[f"simulator.phase_cycles.{phase}"] = ctx.phase_cycles[phase] / ctx.traced_runs
    values["simulator.run.self_ns_per_cycle"] = self_ns("simulator.run") / cycles
    values["simulator.emit_trace.ns_per_cycle"] = self_ns("simulator.emit_trace") / traced_cycles
    values["simulator.trace_bytes_per_block"] = ctx.trace_bytes / ctx.traced_blocks
    values["aesref.encrypt_block.ns_per_block"] = per_call("aesref.encrypt_block")
    values["aesref.decrypt_block.ns_per_block"] = per_call("aesref.decrypt_block")
    values["aesref.key_expand.us"] = per_call("aesref.key_expand") / 1000
    values["trace.overhead_ratio"] = untraced / median_of(samples, "cycles_per_s")
    values["trace.wrapper_ns_per_call"] = cost.inside + cost.outside
    # Layer times are totals over the wrapped part, so they take the median
    # conversion of its passes to reference time.
    values["host_slowdown"] = slowdown
    for name, unit in LAYER_UNITS.items():
        if name in values and unit.split("/")[0] in ("ns", "us", "ms"):
            values[name] /= slowdown
    values["tables.build_sbox_image.ms"] = _median_ms(build_sbox_image)
    values["tables.build_mixcolumns_image.ms"] = _median_ms(build_mixcolumns_image)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", default=0xD12AB,
                        type=lambda text: int(text, 16) if text.lower().startswith("0x") else int(text))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-sbox", action="store_true",
                        help="self-check: corrupt one S-box entry; the run must fail")
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]

    sbox_image = None
    if args.corrupt_sbox:
        if workload_cls is WORKLOADS["cli_files"]:
            parser.error("--corrupt-sbox needs a workload that builds its own simulator")
        sbox_image = build_sbox_image()
        sbox_image[0x53] ^= 0x01

    env = environment()
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="drablocus-", dir=build_dir))
    try:
        with Context(workdir, load_pins(), sbox_image) as ctx:
            check_reference(ctx)
            measure = per_layer if args.trace else end_to_end
            values = measure(ctx, workload_cls, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = ctx.failed == 0 and not ctx.problems
    for problem in ctx.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"drablocus benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} run_calls={len(ctx.records)}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    print(f"  attempted={ctx.attempted} failed={ctx.failed} correct={correct}")
    print(f"  host time is in reference seconds; the host ran "
          f"{values['host_slowdown']:.3f}x slower than reference (median over passes)")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
