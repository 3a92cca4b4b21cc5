"""The three workloads of the drablocus benchmark and the checks on their outputs.

A workload runs as a sequence of *passes*. A pass is a fixed unit of work
whose simulated statistics depend only on its shape, never on the seed:
greedy admission and the fixed 115-cycle latency make a run's cycle counts
a function of its job count alone. Those statistics are pinned in
``pins.json`` per job count and checked on every run call, so any drift
is a correctness failure, not a slowdown. Every output block is checked
against ``aesref``; every cycle trace is checked against its pinned size,
its status-line count and the expected ``fin`` data, and on ``cli_files``
against a pinned SHA-256 for the seeds in the pin table.

Every third pass (index 1, 4, 7, ...) writes a cycle trace, which gives
``traced_cycles_per_s`` without a second run. Load comes from one caller in
one thread: each call starts when the previous one has returned (a closed
loop with a single client). Host rates and times are given in reference
seconds: each pass is scaled by the ``hostprobe`` timings taken around it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from drablocus import aesref, cli
from drablocus.simulator import MODE_NAMES, Job, PipelineSimulator, RunSummary, measure_cadence
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT
from hostprobe import REFERENCE_PROBE_S, probe_seconds

PINS_PATH = Path(__file__).with_name("pins.json")

FREQ_MHZ = 528.262
FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

SATURATED_JOBS = 500
REKEY_SIZES = tuple(range(1, 25))
CLI_JOBS = 120
CLI_FILE_BYTES = 8192
TRACE_EVERY = 3
MIN_PASSES = 3

# Statistics pinned per job count; a run call must reproduce them exactly.
PINNED_STATS = (
    "total_cycles",
    "stall_cycles",
    "key_init_cycles",
    "flush_cycles",
    "max_loop_occupancy",
    "latencies",
    "cadence_blocks_per_cycle",
    "cadence_gbps",
)
PHASES = ("reset", "key_init", "flush", "run")
# Sample keys measured in host time, per second; ``run_ms`` is the other.
HOST_RATES = ("cycles_per_s", "blocks_per_s", "ref_mb_per_s", "sim_cli_mb_per_s",
              "traced_cycles_per_s")


def run_stats(summary: RunSummary) -> dict:
    cadence = measure_cadence(summary, freq_mhz=FREQ_MHZ)
    return {
        "total_cycles": summary.total_cycles,
        "stall_cycles": summary.stall_cycles,
        "key_init_cycles": summary.key_init_cycles,
        "flush_cycles": summary.flush_cycles,
        "max_loop_occupancy": summary.max_loop_occupancy,
        "latencies": sorted(set(summary.latencies.values())),
        "cadence_blocks_per_cycle": cadence.measured_blocks_per_cycle,
        "cadence_gbps": cadence.measured_gbps,
    }


def random_bytes(rng: random.Random, n: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(n))


def mixed_jobs(rng: random.Random, n: int) -> list[Job]:
    """Independently random modes and blocks, drawn as the acceptance suite draws them."""
    return [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)), random_bytes(rng, 16))
        for i in range(n)
    ]


def expected_outputs(key, jobs: list[Job]) -> list[bytes]:
    """Reference outputs; ``key`` is raw bytes or a pair of expanded key sets."""
    if isinstance(key, bytes):
        key = (aesref.key_expand(key), aesref.key_expand_equivalent_inverse(key))
    enc_keys, dec_keys = key
    return [
        aesref.encrypt_block(enc_keys, job.block) if job.mode == MODE_ENCRYPT
        else aesref.decrypt_block(dec_keys, job.block)
        for job in jobs
    ]


@dataclass
class RunRecord:
    """One ``run`` call: its host time and its simulated statistics (``run_stats``)."""

    seconds: float
    stats: dict
    jobs: int
    traced: bool

    @property
    def cycles(self) -> int:
        return self.stats["total_cycles"]


@dataclass
class TraceFacts:
    size: int
    sha256: str
    status_lines: int
    fin_data: list[bytes]
    phase_cycles: Counter


def read_trace(path: Path) -> TraceFacts:
    """Size, digest, per-phase status lines and ``fin`` data of a cycle trace, read line by line."""
    digest = hashlib.sha256()
    size = 0
    fin = []
    phases: Counter = Counter()
    with open(path, "rb") as stream:
        for line in stream:
            digest.update(line)
            size += len(line)
            if b" fsm=" in line:
                phases[line.split(b" fsm=", 1)[1].split(b" ", 1)[0].decode()] += 1
            elif b" stage=fin " in line:
                fin.append(bytes.fromhex(line.rsplit(b"data=", 1)[1].decode()))
    return TraceFacts(size, digest.hexdigest(), sum(phases.values()), fin, phases)


class Context:
    """Shared state of one benchmark process: the run recorder, pins and failure tally.

    An operation is one output block. A run call or command whose simulated
    statistics, trace or digests drift fails all its blocks; otherwise each
    block that differs from ``aesref`` fails.
    """

    def __init__(self, workdir: Path, pins: dict, sbox_image=None):
        self.workdir = workdir
        self.pins = pins
        self.sbox_image = sbox_image
        self.records: list[RunRecord] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.phase_cycles: Counter = Counter()
        self.traced_runs = 0
        self.traced_blocks = 0
        self.trace_bytes = 0
        self._original_run = None

    def __enter__(self) -> "Context":
        """Record the duration and statistics of every ``PipelineSimulator.run`` call."""
        original = self._original_run = PipelineSimulator.run
        records = self.records
        clock = time.perf_counter

        def run(sim, key, jobs, trace=None):
            t0 = clock()
            result = original(sim, key, jobs, trace)
            seconds = clock() - t0
            records.append(RunRecord(seconds, run_stats(result.summary), len(jobs),
                                     trace is not None))
            return result

        PipelineSimulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        PipelineSimulator.run = self._original_run

    def account(self, what: str, got: list[bytes | None], want: list[bytes],
                problems: list[str]) -> None:
        self.attempted += len(want)
        wrong = [i for i, w in enumerate(want) if i >= len(got) or got[i] != w]
        self.failed += len(want) if problems else len(wrong)
        if wrong:
            problems = problems + [f"{len(wrong)} of {len(want)} blocks differ from aesref "
                                   f"(first at block {wrong[0]})"]
        if problems and len(self.problems) < 20:
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def check_run(self, record: RunRecord) -> list[str]:
        """Differences between a run's simulated statistics and the pins for its job count."""
        pinned = self.pins["runs"].get(str(record.jobs))
        if pinned is None:
            return [f"no pinned statistics for {record.jobs} jobs"]
        return [f"{k}={record.stats[k]} drifted from pinned {pinned[k]}"
                for k in PINNED_STATS if record.stats[k] != pinned[k]]

    def check_trace(self, path: Path, record: RunRecord, want: list[bytes]) -> tuple[str, list[str]]:
        """Check a cycle trace against its pinned size and the expected outputs; returns its SHA-256."""
        facts = read_trace(path)
        pinned_size = self.pins["runs"].get(str(record.jobs), {}).get("trace_bytes")
        problems = []
        if facts.size != pinned_size:
            problems.append(f"trace has {facts.size} bytes, pinned {pinned_size}")
        if facts.status_lines != record.cycles:
            problems.append(f"trace has {facts.status_lines} status lines for "
                            f"{record.cycles} cycles")
        if facts.fin_data != want:
            problems.append("trace fin lines differ from the expected outputs")
        self.phase_cycles.update(facts.phase_cycles)
        self.traced_runs += 1
        self.traced_blocks += record.jobs
        self.trace_bytes += facts.size
        return facts.sha256, problems

    def simulate(self, sim: PipelineSimulator, key: bytes, jobs: list[Job], want: list[bytes],
                 traced: bool, what: str) -> RunRecord | None:
        """One library run call, checked; None when the model raised a fault."""
        trace_path = self.workdir / "trace.txt"
        try:
            if traced:
                with open(trace_path, "w") as stream:
                    result = sim.run(key, jobs, trace=stream)
            else:
                result = sim.run(key, jobs)
        except RuntimeError as exc:  # every modelled fault derives from RuntimeError
            self.account(what, [], want, [f"{type(exc).__name__}: {exc}"])
            return None
        record = self.records[-1]
        problems = self.check_run(record)
        if traced:
            problems += self.check_trace(trace_path, record, want)[1]
        self.account(what, [result.outputs.get(job.seq) for job in jobs], want, problems)
        return record


def _rates(records: list[RunRecord], seconds: float | None = None) -> tuple[float, float]:
    """(cycles/s, blocks/s) over records, timed by their own duration unless given."""
    seconds = sum(r.seconds for r in records) if seconds is None else seconds
    cycles = sum(r.cycles for r in records)
    return cycles / seconds, sum(r.jobs for r in records) / seconds


class SaturatedMixed:
    """One key; each pass is one run of 500 mixed jobs, about 89% of cycles admission stalls."""

    name = "saturated_mixed"

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.sim = PipelineSimulator(sbox_image=ctx.sbox_image)
        self.keys = (aesref.key_expand(FIPS_KEY), aesref.key_expand_equivalent_inverse(FIPS_KEY))

    def run_pass(self, index: int, traced: bool) -> dict:
        jobs = mixed_jobs(self.rng, SATURATED_JOBS)
        t0 = time.perf_counter()
        want = expected_outputs(self.keys, jobs)
        ref_seconds = time.perf_counter() - t0
        record = self.ctx.simulate(self.sim, FIPS_KEY, jobs, want, traced, f"pass {index}")
        sample = {"ref_mb_per_s": 16 * len(jobs) / ref_seconds / 1e6}
        if record is None:
            return sample
        sample["sim_cycles"] = record.cycles
        sample["modelled_gbps"] = record.stats["cadence_gbps"]
        cycles_per_s, blocks_per_s = _rates([record])
        if traced:
            sample["traced_cycles_per_s"] = cycles_per_s
        else:
            sample.update(cycles_per_s=cycles_per_s, blocks_per_s=blocks_per_s,
                          sim_cli_mb_per_s=16 * blocks_per_s / 1e6,
                          run_ms=[(record.jobs, 1000 * record.seconds)])
        return sample


class RekeyBursts:
    """Each pass is 24 run calls with fresh keys, one of each size 1..24 in seeded order."""

    name = "rekey_bursts"

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.sim = PipelineSimulator(sbox_image=ctx.sbox_image)

    def run_pass(self, index: int, traced: bool) -> dict:
        sizes = list(REKEY_SIZES)
        self.rng.shuffle(sizes)
        records = []
        ref_seconds = 0.0
        for burst, n in enumerate(sizes):
            key = random_bytes(self.rng, 16)
            jobs = mixed_jobs(self.rng, n)
            t0 = time.perf_counter()
            want = expected_outputs(key, jobs)
            ref_seconds += time.perf_counter() - t0
            record = self.ctx.simulate(self.sim, key, jobs, want, traced,
                                       f"pass {index} burst {burst}")
            if record is not None:
                records.append(record)
        sample = {"ref_mb_per_s": 16 * sum(sizes) / ref_seconds / 1e6}
        if len(records) < len(sizes):
            return sample
        cycles = sum(r.cycles for r in records)
        sample["sim_cycles"] = cycles
        # Bursts never reach steady state; this is the modelled rate including re-keying.
        sample["modelled_gbps"] = 128 * FREQ_MHZ * sum(sizes) / cycles / 1000
        cycles_per_s, blocks_per_s = _rates(records)
        if traced:
            sample["traced_cycles_per_s"] = cycles_per_s
        else:
            sample.update(cycles_per_s=cycles_per_s, blocks_per_s=blocks_per_s,
                          sim_cli_mb_per_s=16 * blocks_per_s / 1e6,
                          run_ms=[(r.jobs, 1000 * r.seconds) for r in records])
        return sample


class CliFiles:
    """Each pass drives ``cli.main``: simulate with a trace, then encrypt/decrypt on both engines."""

    name = "cli_files"

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        rng = random.Random(seed)
        self.key_hex = random_bytes(rng, 16).hex()
        self.jobs = mixed_jobs(rng, CLI_JOBS)
        self.data = random_bytes(rng, CLI_FILE_BYTES)
        key = bytes.fromhex(self.key_hex)
        self.want_jobs = expected_outputs(key, self.jobs)
        blocks = [self.data[i:i + 16] for i in range(0, len(self.data), 16)]
        self.want_files = {
            "encrypt": b"".join(expected_outputs(key, [Job(i, MODE_ENCRYPT, b)
                                                       for i, b in enumerate(blocks)])),
            "decrypt": b"".join(expected_outputs(key, [Job(i, MODE_DECRYPT, b)
                                                       for i, b in enumerate(blocks)])),
        }
        d = ctx.workdir
        self.paths = {name: d / name for name in ("jobs.txt", "data.bin", "results.txt",
                                                  "trace.txt", "out.bin")}
        self.paths["jobs.txt"].write_text("".join(
            f"{job.seq} {MODE_NAMES[job.mode]} {job.block.hex()}\n" for job in self.jobs))
        self.paths["data.bin"].write_bytes(self.data)
        pinned = ctx.pins["cli_files"].get(str(seed))
        self.pinned_trace = pinned["trace_sha256"] if pinned else None
        self.pinned_outputs = pinned["outputs_sha256"] if pinned else None
        self.trace_sha256: str | None = None
        self.outputs_sha256: str | None = None

    def _main(self, *argv: str) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except RuntimeError as exc:  # a modelled fault the command does not catch
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue().strip(), seconds

    def run_pass(self, index: int, traced: bool) -> dict:
        """One simulate, then encrypt and decrypt on each engine; ``traced`` is unused
        because every pass writes the simulate trace."""
        ctx, p = self.ctx, self.paths
        sample: dict = {}
        ops: list[tuple[str, list[bytes | None], list[bytes], list[str]]] = []
        outputs = hashlib.sha256()

        mark = len(ctx.records)
        code, stdout, stderr, seconds = self._main(
            "simulate", "--key", self.key_hex, "--jobs", str(p["jobs.txt"]),
            "--out", str(p["results.txt"]), "--trace", str(p["trace.txt"]), "--freq", str(FREQ_MHZ))
        simulated = ctx.records[mark] if code == cli.EXIT_OK and len(ctx.records) > mark else None
        if simulated is None:
            ops.append(("simulate", [], self.want_jobs, [f"exit {code}: {stderr}"]))
        else:
            results = p["results.txt"].read_bytes()
            outputs.update(results)
            got = {}
            for line in results.decode().splitlines():
                seq, block = line.split()
                got[int(seq)] = bytes.fromhex(block)
            trace_sha256, problems = ctx.check_trace(p["trace.txt"], simulated, self.want_jobs)
            problems += ctx.check_run(simulated)
            problems += self._check_digest("trace_sha256", trace_sha256, self.pinned_trace)
            printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
            gbps = f"{simulated.stats['cadence_gbps']:.3f}"
            if printed.get("measured_gbps") != gbps:
                problems.append(f"printed measured_gbps={printed.get('measured_gbps')}, "
                                f"expected {gbps}")
            ops.append(("simulate", [got.get(job.seq) for job in self.jobs], self.want_jobs,
                        problems))
            sample["traced_cycles_per_s"] = simulated.cycles / seconds
            sample["modelled_gbps"] = float(gbps)

        timings = {"ref": 0.0, "sim": 0.0}
        sim_records = []
        for engine in ("ref", "sim"):
            for command in ("encrypt", "decrypt"):
                mark = len(ctx.records)
                p["out.bin"].unlink(missing_ok=True)
                code, _, stderr, seconds = self._main(
                    command, "--key", self.key_hex, "--in", str(p["data.bin"]),
                    "--out", str(p["out.bin"]), "--engine", engine)
                timings[engine] += seconds
                problems = [] if code == cli.EXIT_OK else [f"exit {code}: {stderr}"]
                result = p["out.bin"].read_bytes() if code == cli.EXIT_OK else b""
                outputs.update(result)
                for record in ctx.records[mark:]:
                    problems += ctx.check_run(record)
                    sim_records.append(record)
                want = self.want_files[command]
                ops.append((f"{command} --engine {engine}",
                            [result[i:i + 16] for i in range(0, len(result), 16)],
                            [want[i:i + 16] for i in range(0, len(want), 16)], problems))

        # A drifted output digest makes every output of the pass suspect.
        digest_problems = self._check_digest("outputs_sha256", outputs.hexdigest(),
                                             self.pinned_outputs)
        for what, got, want, problems in ops:
            ctx.account(f"pass {index} {what}", got, want, problems + digest_problems)

        sample["ref_mb_per_s"] = 2 * CLI_FILE_BYTES / timings["ref"] / 1e6
        if len(sim_records) == 2 and simulated is not None:
            cycles_per_s, blocks_per_s = _rates(sim_records, timings["sim"])
            sample.update(cycles_per_s=cycles_per_s, blocks_per_s=blocks_per_s,
                          sim_cli_mb_per_s=2 * CLI_FILE_BYTES / timings["sim"] / 1e6,
                          run_ms=[(r.jobs, 1000 * r.seconds) for r in sim_records],
                          sim_cycles=sum(r.cycles for r in [simulated, *sim_records]))
        return sample

    def _check_digest(self, name: str, digest: str, pinned: str | None) -> list[str]:
        """Match the pinned digest, or for a seed not in the pin table the first pass's."""
        first = getattr(self, name)
        if first is None:
            setattr(self, name, digest)
            first = digest
        expected = pinned or first
        if digest == expected:
            return []
        source = "pinned" if pinned else "first pass"
        return [f"{name} {digest[:16]}... differs from {source} {expected[:16]}..."]


WORKLOADS = {cls.name: cls for cls in (SaturatedMixed, RekeyBursts, CliFiles)}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def check_reference(ctx: Context) -> None:
    """The oracle itself must pass FIPS-197 Appendix C.1 before it judges anything."""
    ctx.account("aesref FIPS-197 C.1",
                [aesref.encrypt_block(FIPS_KEY, FIPS_PT), aesref.decrypt_block(FIPS_KEY, FIPS_CT)],
                [FIPS_CT, FIPS_PT], [])


def to_reference(sample: dict, probe_s: float) -> None:
    """Convert a pass's host rates and times to reference seconds (``hostprobe``)."""
    slowdown = probe_s / REFERENCE_PROBE_S
    for key in HOST_RATES:
        if key in sample:
            sample[key] *= slowdown
    if "run_ms" in sample:
        sample["run_ms"] = [(jobs, ms / slowdown) for jobs, ms in sample["run_ms"]]
    sample["slowdown"] = slowdown


def run_passes(workload, seconds: float) -> list[dict]:
    """Run passes until ``seconds`` have elapsed, and at least MIN_PASSES of them.

    The host probe runs before the first pass and after every pass; a pass
    is converted to reference seconds by the mean of the probes on either
    side of it, which the host's slow phases (seconds long; a pass takes
    under 1.5 s) mostly cover whole.
    """
    samples = []
    start = time.perf_counter()
    index = 0
    before = probe_seconds()
    while index < MIN_PASSES or time.perf_counter() - start < seconds:
        sample = workload.run_pass(index, traced=index % TRACE_EVERY == 1)
        after = probe_seconds()
        to_reference(sample, (before + after) / 2)
        samples.append(sample)
        before = after
        index += 1
    return samples


def median_of(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples if key in s]
    if not values:
        raise ValueError(f"no pass produced {key}")
    return statistics.median(values)
