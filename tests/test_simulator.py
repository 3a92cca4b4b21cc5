"""Simulator harness: oracle equivalence, timing, tracing, file formats."""

import copy
import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import drablocus
from cycle_protocol import (
    HELD, before_each_pass, cap_passes, core_in_run, lines, step_every_cycle,
)
from drablocus import aesref
from drablocus.controller import (
    FLUSH, KEY_INIT, KEY_READY_CYCLE, RESET, RUN, STAGE_PHASE_OFFSET, Controller,
)
from drablocus.datapath import (
    BLOCK_LATENCY, NUM_LOOP_STAGES, TAG_BITS, TAG_VALID, TRACK_CYCLES, DatapathTables,
    RoundDatapath,
)
from drablocus.keyschedule import KEY_INIT_CYCLES, KeyScheduler
from drablocus.simulator import (
    BATCH_PERIOD,
    CLOCK_MHZ,
    PASS_CYCLES,
    RUN_START_CYCLE,
    Job,
    JobError,
    PipelineSimulator,
    RunSummary,
    cycle_budget,
    measure_cadence,
    parse_jobs,
    write_outputs,
)
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT, build_mixcolumns_image, build_sbox_image

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


@pytest.fixture(scope="module")
def sim():
    return PipelineSimulator()


def mixed_jobs(n, seed):
    rng = random.Random(seed)
    return [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)), bytes(rng.randrange(256) for _ in range(16)))
        for i in range(n)
    ]


def oracle(key, job):
    if job.mode == MODE_ENCRYPT:
        return aesref.encrypt_block(key, job.block)
    return aesref.decrypt_block(key, job.block)


def test_single_fips_job(sim):
    result = sim.run(FIPS_KEY, [Job(0, MODE_ENCRYPT, FIPS_PT)])
    assert result.outputs[0] == FIPS_CT
    assert result.summary.latencies == {0: BLOCK_LATENCY}


def test_24_mixed_jobs_match_oracle_and_fill_the_loop(sim):
    jobs = mixed_jobs(24, seed=101)
    result = sim.run(FIPS_KEY, jobs)
    for job in jobs:
        assert result.outputs[job.seq] == oracle(FIPS_KEY, job)
    assert result.summary.max_loop_occupancy == 12
    assert set(result.summary.latencies.values()) == {BLOCK_LATENCY}


def test_latency_invariant_under_congestion(sim):
    # Stalls delay admission, never in-flight latency.
    jobs = mixed_jobs(60, seed=102)
    result = sim.run(FIPS_KEY, jobs)
    assert set(result.summary.latencies.values()) == {BLOCK_LATENCY}
    assert result.summary.stall_cycles > 0


@pytest.mark.parametrize("way", ["planned", "capped", "stepped", "traced"])
def test_summary_completions_are_the_ones_the_datapath_returns(sim, monkeypatch, way):
    # The summary derives each completion from its admission; here the
    # completions are observed where the datapath returns them, at the
    # pass's first cycle plus their offset, however the run is cut in passes.
    if way == "capped":
        cap_passes(monkeypatch, 97)
    elif way == "stepped":
        step_every_cycle(monkeypatch)
    pass_start = []
    before_each_pass(monkeypatch, lambda ctrl, dp, ks: pass_start.append(ctrl.cycle))
    compute_cycle, observed = RoundDatapath.compute_cycle, {}

    def observing(self, **kwargs):
        completions = compute_cycle(self, **kwargs)
        for offset, tag, _ in completions:
            observed[tag >> TAG_BITS] = pass_start[-1] + offset
        return completions

    monkeypatch.setattr(RoundDatapath, "compute_cycle", observing)
    trace = io.StringIO() if way == "traced" else None
    summary = sim.run(FIPS_KEY, mixed_jobs(300, seed=300), trace=trace).summary
    assert len(observed) == 300
    assert observed == summary.completion_cycles
    assert all(observed[seq] == cycle + BLOCK_LATENCY
               for seq, cycle in summary.admission_cycles.items())


# The width of each data rank's register, and of the tag rank's 12 fields.
RANK_WIDTHS = {
    **dict.fromkeys(("s0", "s1", "s2", "s8", "s11", "ia_out", "fa_out"), 128),
    **dict.fromkeys(("s3", "s4", "s5"), 512),
    "s6": 384,
    **dict.fromkeys(("s7", "s9", "s10", "ia_in", "fa_in"), 256),
    "tags": TAG_BITS * NUM_LOOP_STAGES,
}
EDGE_TAGS = ("ia_in_tag", "ia_out_tag", "fa_in_tag", "fa_out_tag")


def misfit_ranks(dp):
    """The ranks of ``dp`` that do not fit their registers: a rank wider
    than its register, a field of the tag rank with bits but no valid bit,
    or an edge tag with bits but no valid bit."""
    misfits = [name for name, width in RANK_WIDTHS.items()
               if not 0 <= getattr(dp, name) < 1 << width]
    fields = (dp.tags >> TAG_BITS * k & (1 << TAG_BITS) - 1 for k in range(NUM_LOOP_STAGES))
    if any(field and not field & TAG_VALID for field in fields):
        misfits.append("tags")
    return misfits + [name for name in EDGE_TAGS
                      if getattr(dp, name) and not getattr(dp, name) & TAG_VALID]


@pytest.mark.parametrize("way", ["planned", "capped", "stepped", "traced"])
def test_every_rank_and_tag_of_the_core_is_an_int(sim, monkeypatch, way):
    # One tag format in the core: after every commit each register rank and
    # tag of the datapath holds an int, and each planned admission and each
    # completion carries its word's tag as an int; Word is only a view.
    # Each rank also fits its register, and each tag field and edge tag is
    # zero or has its valid bit set.
    if way == "capped":
        cap_passes(monkeypatch, 97)
    elif way == "stepped":
        step_every_cycle(monkeypatch)
    not_ranks = {"seqs", "fused_cycles", "_sbox", "_lanes", "_tables", "_next"}
    ranks = [name for name in RoundDatapath.__slots__ if name not in not_ranks]
    commit_cycle, compute_cycle = RoundDatapath.commit_cycle, RoundDatapath.compute_cycle
    admit, strays, seen, misfits = Controller.admit, Counter(), Counter(), []

    def checked_commit(self):
        commit_cycle(self)
        seen["commits"] += 1
        strays.update(name for name in ranks if type(getattr(self, name)) is not int)
        if not strays:
            # The committed state is that of the cycle after the pass.
            misfits.extend(f"{name} on cycle {seen['cycles']}" for name in misfit_ranks(self))

    def checked_compute(self, **kwargs):
        completions = compute_cycle(self, **kwargs)
        seen["cycles"] += kwargs["plan"].cycles
        seen["completions"] += len(completions)
        strays.update("completion" for _, tag, _ in completions if type(tag) is not int)
        return completions

    def checked_admit(self, jobs, initial_keys):
        admit(self, jobs, initial_keys)
        seen["admissions"] += len(self.plan.admissions)
        strays.update("admission" for tag in self.plan.words[2::3] if type(tag) is not int)

    monkeypatch.setattr(RoundDatapath, "commit_cycle", checked_commit)
    monkeypatch.setattr(RoundDatapath, "compute_cycle", checked_compute)
    monkeypatch.setattr(Controller, "admit", checked_admit)
    trace = io.StringIO() if way == "traced" else None
    result = sim.run(FIPS_KEY, mixed_jobs(300, seed=300), trace=trace)
    assert "tags" in ranks and "ia_in_tag" in ranks and "fa_out_tag" in ranks
    assert set(RANK_WIDTHS) | set(EDGE_TAGS) == set(ranks)
    assert not strays
    assert not misfits
    assert seen == {"commits": result.passes, "cycles": result.summary.total_cycles,
                    "completions": 300, "admissions": 300}


def test_stalls_and_peak_occupancy_follow_from_the_admission_cycles(sim):
    # A word holds a loop stage from STAGE_PHASE_OFFSET cycles after its
    # admission until its divert, TRACK_CYCLES after it. So on every status
    # line of a traced run the occupancy register counts the admissions of
    # the 111 cycles up to it, the summary's peak is the largest such count,
    # and its stalls are the lines that stall.
    for n in (1, 11, 12, 13, 37, 150):
        trace = io.StringIO()
        key = random.Random(n).randbytes(16)
        summary = sim.run(key, mixed_jobs(n, seed=n), trace=trace).summary
        admitted = set(summary.admission_cycles.values())
        assert len(admitted) == n
        counts, stalls = [], 0
        for line in trace.getvalue().splitlines():
            if " occ=" in line:
                cycle, _, occupancy, stall = line.split()
                cycle = int(cycle.removeprefix("cycle="))
                count = len(admitted.intersection(
                    range(cycle - TRACK_CYCLES, cycle - STAGE_PHASE_OFFSET + 1)))
                assert occupancy.count("1") == count, line
                counts.append(count)
                stalls += stall == "stall=1"
        assert len(counts) == summary.total_cycles
        assert summary.max_loop_occupancy == max(counts), n
        assert summary.stall_cycles == stalls, n
    # At the window's edges: two admissions 110 cycles apart share a cycle
    # in the loop, 111 apart they do not.
    for admitted, peak, stalls in (([], 0, 0), ([0], 1, 0), ([0, 110], 2, 109), ([0, 111], 1, 110)):
        summary = RunSummary(0, 0, {
            seq: RUN_START_CYCLE + offset for seq, offset in enumerate(admitted)})
        assert (summary.max_loop_occupancy, summary.stall_cycles) == (peak, stalls)


def test_outputs_collected_in_admission_order(sim):
    jobs = mixed_jobs(30, seed=103)
    result = sim.run(FIPS_KEY, jobs)
    completions = result.summary.completion_cycles
    admissions = result.summary.admission_cycles
    order_by_completion = sorted(completions, key=completions.get)
    order_by_admission = sorted(admissions, key=admissions.get)
    assert order_by_completion == order_by_admission


def test_empty_job_list_rejected(sim):
    with pytest.raises(JobError):
        sim.run(FIPS_KEY, [])


def test_bad_key_rejected(sim):
    with pytest.raises(JobError):
        sim.run(b"short", [Job(0, MODE_ENCRYPT, FIPS_PT)])


def test_non_dense_sequence_ids_rejected(sim):
    with pytest.raises(JobError):
        sim.run(FIPS_KEY, [Job(1, MODE_ENCRYPT, FIPS_PT)])
    with pytest.raises(JobError):
        sim.run(
            FIPS_KEY,
            [Job(0, MODE_ENCRYPT, FIPS_PT), Job(0, MODE_DECRYPT, FIPS_PT)],
        )


def test_malformed_job_rejected():
    with pytest.raises(JobError):
        Job(0, MODE_ENCRYPT, b"short")
    with pytest.raises(JobError):
        Job(0, 7, FIPS_PT)


@pytest.mark.parametrize("block", ["0123456789abcdef", 16], ids=["str", "int"])
def test_str_and_int_job_blocks_rejected(block):
    # A 16-character str has the length of a block, and len() of an int
    # raises its own TypeError; both are refused by name, as aesref does.
    with pytest.raises(TypeError, match=r"^job 3: block must be bytes-like, got (str|int)$"):
        Job(3, MODE_ENCRYPT, block)


@pytest.mark.parametrize("seq", [0.0, "1", None, True], ids=["float", "str", "none", "bool"])
def test_non_int_sequence_ids_rejected(seq):
    # A float would key its output by 0.0, and a str beside an int would end
    # the run's density check in a TypeError from sorted().
    with pytest.raises(JobError, match=r"^job .*: sequence id must be an int, got (float|str|NoneType|bool)$"):
        Job(seq, MODE_ENCRYPT, FIPS_PT)


def test_job_is_an_immutable_value():
    job = Job(seq=2, mode=MODE_DECRYPT, block=FIPS_PT)
    assert job == Job(2, MODE_DECRYPT, bytes(FIPS_PT))
    assert job != Job(2, MODE_ENCRYPT, FIPS_PT)
    assert len({job, Job(2, MODE_DECRYPT, FIPS_PT)}) == 1
    for name in ("seq", "mode", "block", "other"):
        with pytest.raises(AttributeError):
            setattr(job, name, 0)


def test_job_freezes_its_block(sim):
    # A bytes-like block is kept as bytes: the job hashes like the one built
    # from bytes, and a later write to the caller's buffer reaches neither
    # the job nor the run.
    job = Job(0, MODE_ENCRYPT, FIPS_PT)
    for block in (bytearray(FIPS_PT), memoryview(bytearray(FIPS_PT))):
        frozen = Job(0, MODE_ENCRYPT, block)
        assert frozen == job and hash(frozen) == hash(job)
        assert type(frozen.block) is bytes
    buffer = bytearray(FIPS_PT)
    frozen = Job(0, MODE_ENCRYPT, buffer)
    buffer[0] ^= 0xFF
    assert frozen.block == FIPS_PT
    assert sim.run(FIPS_KEY, [frozen]).outputs == {0: FIPS_CT}


def test_runs_cut_in_different_passes_take_equal_summaries(sim):
    # The summary holds what the run took, the result how it computed it: a
    # planned, a traced, a capped and a stepped run of the same jobs take
    # equal summaries in different numbers of passes.
    jobs = mixed_jobs(60, seed=60)
    results = {"planned": sim.run(FIPS_KEY, jobs),
               "traced": sim.run(FIPS_KEY, jobs, trace=io.StringIO())}
    for way, cycles in (("capped", 97), ("stepped", 1)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            cap_passes(monkeypatch, cycles)
            results[way] = sim.run(FIPS_KEY, jobs)
    for way, result in results.items():
        assert result.summary == results["planned"].summary, way
    passes = [result.passes for result in results.values()]
    assert len(set(passes)) == len(passes), passes
    assert results["stepped"].passes == results["stepped"].summary.total_cycles


def test_set_up_imports_no_dataclasses():
    # -S keeps site-packages' .pth files, which may import anything, out.
    # The CLI, which loads metrics, is imported too: every command pays it.
    code = ("import sys, drablocus; drablocus.PipelineSimulator(); import drablocus.cli; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules, "
            "'drablocus.metrics' in sys.modules)")
    src = str(Path(drablocus.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("key", ["0123456789abcdef", 16], ids=["str", "int"])
def test_str_and_int_keys_rejected(sim, key):
    # bytes(16) is sixteen zero bytes: an int key would otherwise run as
    # the all-zero key.
    with pytest.raises(TypeError, match=r"^key must be bytes-like, got (str|int)$"):
        sim.run(key, [Job(0, MODE_ENCRYPT, FIPS_PT)])


def test_bytes_like_job_blocks_run(sim):
    blocks = [FIPS_PT, bytearray(FIPS_PT), memoryview(FIPS_PT)]
    result = sim.run(FIPS_KEY, [Job(i, MODE_ENCRYPT, block) for i, block in enumerate(blocks)])
    assert list(result.outputs.values()) == [FIPS_CT] * 3


def test_trace_replay_is_byte_identical(sim):
    jobs = mixed_jobs(24, seed=104)
    first, second = io.StringIO(), io.StringIO()
    out1 = sim.run(FIPS_KEY, jobs, trace=first)
    out2 = sim.run(FIPS_KEY, jobs, trace=second)
    assert out1.outputs == out2.outputs
    assert first.getvalue() == second.getvalue()
    assert len(first.getvalue()) > 0


def test_trace_format(sim):
    stream = io.StringIO()
    sim.run(FIPS_KEY, [Job(0, MODE_ENCRYPT, FIPS_PT)], trace=stream)
    lines = stream.getvalue().splitlines()
    status = [l for l in lines if " fsm=" in l]
    taps = [l for l in lines if " stage=" in l]
    assert status[0] == "cycle=0 fsm=reset occ=000000000000 stall=0"
    assert len(taps) > 0
    for line in taps:
        fields = dict(part.split("=") for part in line.split())
        assert set(fields) == {"cycle", "stage", "slot", "mode", "data"}
        assert fields["stage"] in ("ia", "sb", "sr", "mc", "ark", "fin")
        assert len(fields["data"]) == 32
    # The final-output tap carries the ciphertext.
    fin = [l for l in taps if " stage=fin " in l]
    assert fin[-1].endswith(FIPS_CT.hex())


def test_cadence_saturating_run(sim):
    result = sim.run(FIPS_KEY, mixed_jobs(120, seed=105))
    report = measure_cadence(result.summary)
    assert report.steady_state
    assert report.measured_blocks_per_cycle == 12 / 120
    assert report.nominal_blocks_per_cycle == pytest.approx(12 / 115)
    assert report.nominal_gbps == pytest.approx(7.0557, abs=1e-3)


@pytest.mark.parametrize("n_jobs", [36, 39, 44, 47, 53, 60, 120])
def test_cadence_is_one_batch_per_batch_period(sim, n_jobs):
    # A partial last batch completes in a shorter burst; the window ends at
    # that burst's start, so it cannot lift the figure above 12 per 120.
    result = sim.run(FIPS_KEY, mixed_jobs(n_jobs, seed=n_jobs))
    report = measure_cadence(result.summary, freq_mhz=CLOCK_MHZ)
    assert report.steady_state
    assert report.measured_blocks_per_cycle == NUM_LOOP_STAGES / BATCH_PERIOD
    assert report.measured_gbps == 6.7617536
    assert report.measured_blocks_per_cycle <= report.nominal_blocks_per_cycle


def test_cadence_under_three_batches_is_not_steady_state(sim):
    for n_jobs in range(2, 3 * NUM_LOOP_STAGES):
        report = measure_cadence(sim.run(FIPS_KEY, mixed_jobs(n_jobs, seed=n_jobs)).summary)
        assert not report.steady_state, n_jobs
        assert report.measured_gbps is None


def test_cadence_single_job_not_steady_state(sim):
    result = sim.run(FIPS_KEY, [Job(0, MODE_ENCRYPT, FIPS_PT)])
    report = measure_cadence(result.summary)
    assert not report.steady_state
    assert report.measured_blocks_per_cycle is None


def test_rekeying_with_fresh_run(sim):
    key2 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    r1 = sim.run(FIPS_KEY, [Job(0, MODE_ENCRYPT, FIPS_PT)])
    r2 = sim.run(key2, [Job(0, MODE_ENCRYPT, FIPS_PT)])
    assert r1.outputs[0] == aesref.encrypt_block(FIPS_KEY, FIPS_PT)
    assert r2.outputs[0] == aesref.encrypt_block(key2, FIPS_PT)


def test_default_simulators_share_their_tables():
    # Simulators built on no images share the built-in images' tables; one
    # built on a corrupted image in between gets its own and changes
    # neither the shared tables nor the images the builders return.
    first = PipelineSimulator()
    corrupt = build_sbox_image()
    corrupt[FIPS_PT[1] ^ FIPS_KEY[1]] ^= 0x01  # read by the first round
    other = PipelineSimulator(sbox_image=corrupt)
    second = PipelineSimulator()
    assert second._tables is first._tables is not other._tables
    assert other._tables.sbox != first._tables.sbox
    healthy = DatapathTables(build_sbox_image(), build_mixcolumns_image())
    assert (first._tables.sbox, first._tables.lanes) == (healthy.sbox, healthy.lanes)
    job = Job(0, MODE_ENCRYPT, FIPS_PT)
    assert second.run(FIPS_KEY, [job]).outputs[0] == FIPS_CT
    assert other.run(FIPS_KEY, [job]).outputs[0] != FIPS_CT


@pytest.mark.parametrize("n", [1, 12, 13, 120, 1000])
def test_cycle_budget_bounds_each_run_tightly(sim, n):
    # A wedge is reported no later than one batch period and one block
    # latency after the cycle a healthy run of the same jobs ends on.
    summary = sim.run(FIPS_KEY, mixed_jobs(n, seed=106)).summary
    assert summary.run_start_cycle == RUN_START_CYCLE
    assert summary.total_cycles <= cycle_budget(n)
    assert cycle_budget(n) < summary.total_cycles + BATCH_PERIOD + BLOCK_LATENCY


# Python-level calls per simulated cycle of the 120-job run below: 7.44
# when a bound of 8.0 was set, 6.99 with the flush skip, 2.14 since an
# untraced run computes its event-free windows in one call each, and 2.11
# since a window's first cycle is computed in the window's call, when this
# bound was lowered from 3.0 to 2.5; 0.88 since an untraced run computes
# each planned pass of up to a batch period, admissions, diverts and
# completions included, in one call each, when it was lowered to 1.0; 0.71
# since key initialization is one pass, when it was lowered to 0.8; 0.44
# since a pass admits its jobs in one controller call and the run checks
# the sequence ids without a generator, when it was lowered to 0.5; 0.23
# since a word's tag is built without a Python frame and a steady pass's
# events are fused, when it was lowered to 0.26; 0.066 (90 calls over the
# run's 1,368 cycles) since an untraced run phase is one pass, from the first
# run cycle to the last completion, when it was lowered to 0.077, about 15
# calls over. The count is deterministic, so the bound catches per-object
# dispatch returning to the per-cycle path, or passes shortening, without
# timing noise.
CALLS_PER_CYCLE_BOUND = 0.077
# The same run writing a trace: 7.92 when this bound was set, with the trace
# writer reading the taps' tags from the datapath's tag ranks; 8.84 since the
# writer builds its status line with the helper the skipped flush lines share;
# 0.93 since a traced run plans its passes as an untraced one does and writes
# each pass's trace from the datapath's tap records in one call, when this
# bound was lowered from 9.0 to 1.1; 0.73 since key initialization is one
# pass, when it was lowered to 0.8; 0.37 since a pass admits its jobs in one
# controller call, when it was lowered to 0.42; 0.20 since a word's tag is
# built without a Python frame, when it was lowered to 0.22; 0.12 since the
# flush is computed at once rather than stepped to its fixed point and
# skipped, when it was lowered to 0.15.
TRACED_CALLS_PER_CYCLE_BOUND = 0.15
# A one-job run with a fresh key, where key initialization is a sixth of
# the cycles and the flush most of the rest: 1.91 with 59 passes, 47
# of them one key-initialization cycle each, and 1.08 since key
# initialization is one pass, whose program the datapath resumes once per
# cycle, when this bound was set at 1.2; 0.68 with 4 passes, one per phase,
# since the flush is one pass that the datapath ends at its fixed point,
# when it was lowered to 0.9, and to 0.75 at the same count; 0.30 (0.32
# in a process whose fused tables this run builds) since a fresh key's
# initialization pass is computed at once, with no resume of the program
# after the reset cycle's, when it was lowered to 0.35; 0.32 since the flush
# pass is computed at once too.
FRESH_KEY_CALLS_PER_CYCLE_BOUND = 0.35
# The same run writing a trace: 0.68 while a traced key-initialization pass
# resumed the key-store program on each of its cycles, and 0.29 since it is
# computed at once as an untraced one is, when this bound was set.
TRACED_FRESH_KEY_CALLS_PER_CYCLE_BOUND = 0.35


def python_calls_per_cycle(sim, trace=None, key=FIPS_KEY, jobs=None):
    jobs = mixed_jobs(120, seed=0xD12AB) if jobs is None else jobs
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = sim.run(key, jobs, trace=trace)
    finally:
        sys.setprofile(previous)
    return calls / result.summary.total_cycles


def test_python_calls_per_cycle_stay_bounded(sim):
    per_cycle = python_calls_per_cycle(sim)
    assert per_cycle <= CALLS_PER_CYCLE_BOUND, f"{per_cycle:.2f} Python calls per cycle"


def test_traced_python_calls_per_cycle_stay_bounded(sim):
    per_cycle = python_calls_per_cycle(sim, trace=io.StringIO())
    assert per_cycle <= TRACED_CALLS_PER_CYCLE_BOUND, (
        f"{per_cycle:.2f} Python calls per cycle with a trace"
    )


def test_fresh_key_python_calls_per_cycle_stay_bounded(sim):
    key, jobs = random.Random(0x6B01).randbytes(16), mixed_jobs(1, seed=107)
    per_cycle = python_calls_per_cycle(sim, key=key, jobs=jobs)
    assert per_cycle <= FRESH_KEY_CALLS_PER_CYCLE_BOUND, (
        f"{per_cycle:.2f} Python calls per cycle with a fresh key"
    )


def test_traced_fresh_key_python_calls_per_cycle_stay_bounded(sim):
    key, jobs = random.Random(0x6B01).randbytes(16), mixed_jobs(1, seed=107)
    per_cycle = python_calls_per_cycle(sim, trace=io.StringIO(), key=key, jobs=jobs)
    assert per_cycle <= TRACED_FRESH_KEY_CALLS_PER_CYCLE_BOUND, (
        f"{per_cycle:.2f} Python calls per cycle with a fresh key and a trace"
    )


def passes_by_phase(monkeypatch, plans=None):
    """Count a run's passes by the controller's phase on each pass's
    datapath call, and append each pass's ``(phase, plan)`` to ``plans``."""
    passes = Counter()

    def record(ctrl, dp, ks):
        passes[ctrl.fsm] += 1
        if plans is not None:
            plans.append((ctrl.fsm, ctrl.plan))

    before_each_pass(monkeypatch, record)
    return passes


def test_fresh_key_run_takes_one_pass_per_phase(sim, monkeypatch):
    # A one-job run takes one pass per phase: reset, key initialization, the
    # flush and run. Each pass before run holds its lines up to the end of
    # its phase, and the datapath computes key initialization's and the
    # flush's at once. The run's pass is planned from the admission to the
    # completion.
    plans = []
    passes = passes_by_phase(monkeypatch, plans)
    result = sim.run(random.Random(0x6B01).randbytes(16), mixed_jobs(1, seed=107))
    summary = result.summary
    assert passes == {RESET: 1, KEY_INIT: 1, FLUSH: 1, RUN: 1}
    assert [fsm for fsm, _ in plans] == [RESET, KEY_INIT, FLUSH, RUN]
    assert [lines(plan) for _, plan in plans[:3]] == [
        [HELD], [HELD] * (KEY_INIT_CYCLES + 1), [HELD] * TRACK_CYCLES,
    ]
    assert (summary.total_cycles, result.passes, result.fused_cycles) == (277, 4, 114)
    assert summary.key_init_cycles == KEY_INIT_CYCLES
    assert summary.flush_cycles == TRACK_CYCLES


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_fresh_key_run_resumes_the_key_program_on_the_reset_cycle_only(sim, monkeypatch, traced):
    # Traced or not, a fresh key's initialization pass is computed at once:
    # the key-store program resumes once, on the reset cycle, and the trace
    # has a status line for each of the pass's cycles, with no tap line.
    resumes, step = [], KeyScheduler._init_cycle

    def counted(self, s1, s8):
        resumes.append(s1)
        return step(self, s1, s8)

    monkeypatch.setattr(KeyScheduler, "_init_cycle", counted)
    trace = io.StringIO() if traced else None
    key, jobs = random.Random(0x6B01).randbytes(16), mixed_jobs(1, seed=107)
    result = sim.run(key, jobs, trace=trace)
    assert len(resumes) == 1
    assert result.outputs[0] == oracle(key, jobs[0])
    if traced:
        lines = trace.getvalue().splitlines()
        assert lines[1:KEY_READY_CYCLE + 1] == [
            f"cycle={cycle} fsm=key_init occ=000000000000 stall=0"
            for cycle in range(1, KEY_READY_CYCLE + 1)
        ]
        assert lines[KEY_READY_CYCLE + 1].startswith(f"cycle={KEY_READY_CYCLE + 1} fsm=flush ")


def test_saturated_run_makes_at_most_two_passes_per_batch_period(sim, monkeypatch):
    # From the first run cycle on, an untraced run plans one pass to the
    # last completion: every batch's admissions, diverts and completions
    # ride inside it, and the controller admits all of its jobs in one call.
    # Key initialization is one pass, so the run makes one pass per phase.
    admitted = []
    admit = Controller.admit

    def counted_admit(self, jobs, initial_keys):
        admitted.append(len(jobs))
        admit(self, jobs, initial_keys)

    monkeypatch.setattr(Controller, "admit", counted_admit)
    plans = []
    passes = passes_by_phase(monkeypatch, plans)
    result = sim.run(FIPS_KEY, mixed_jobs(500, seed=0x5A7))
    summary = result.summary
    assert summary.max_loop_occupancy == NUM_LOOP_STAGES
    assert sum(passes.values()) == result.passes
    assert admitted == [len(plan.admissions) for _, plan in plans if plan.admissions]
    assert sum(admitted) == 500
    assert passes[KEY_INIT] == 1
    periods = (summary.total_cycles - summary.run_start_cycle) / BATCH_PERIOD
    assert periods > 40
    assert passes[RUN] <= 2 * periods, f"{passes[RUN]} passes over {periods:.2f} batch periods"
    assert passes == {RESET: 1, KEY_INIT: 1, FLUSH: 1, RUN: 1} and admitted == [500]
    assert (summary.total_cycles, summary.stall_cycles, result.passes) == (5204, 4428, 4)


class TestJobFile:
    def test_round_trip(self):
        text = "0 enc 00112233445566778899aabbccddeeff\n# comment\n1 dec " + "ab" * 16 + "\n"
        jobs = parse_jobs(text)
        assert jobs == [
            Job(0, MODE_ENCRYPT, bytes.fromhex("00112233445566778899aabbccddeeff")),
            Job(1, MODE_DECRYPT, bytes.fromhex("ab" * 16)),
        ]

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("0 enc", "line 1"),
            ("x enc " + "00" * 16, "bad sequence id"),
            ("1_0 enc " + "00" * 16, "bad sequence id"),
            ("0 encrypt " + "00" * 16, "mode"),
            ("0 enc 0011", "32 hex chars"),
            ("0 enc " + "zz" * 16, "bad hex"),
        ],
    )
    def test_errors_cite_line_numbers(self, line, fragment):
        with pytest.raises(JobError) as err:
            parse_jobs(line)
        assert "line 1" in str(err.value)
        assert fragment in str(err.value)

    def test_write_outputs_in_input_order(self):
        jobs = [Job(1, MODE_ENCRYPT, bytes(16)), Job(0, MODE_ENCRYPT, bytes(16))]
        outputs = {0: bytes.fromhex("00" * 16), 1: bytes.fromhex("11" * 16)}
        stream = io.StringIO()
        write_outputs(jobs, outputs, stream)
        assert stream.getvalue().splitlines() == ["1 " + "11" * 16, "0 " + "00" * 16]


def planned_peak(ctrl, pending):
    """The record a copy of ``ctrl`` plans for the longest pass with
    ``pending`` jobs waiting, and the peak bytes planning it allocates under
    ``tracemalloc``."""
    ctrl = copy.deepcopy(ctrl)
    tracemalloc.start()
    try:
        plan = ctrl.begin_cycle(pending, PASS_CYCLES)
        return plan, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_pass_record_grows_with_its_events_not_its_cycles():
    # With no job waiting, the longest pass from an empty loop has no event,
    # and its record holds nothing a cycle: planning it allocates under 4 KB,
    # where a list of lines a cycle takes about 245 KB. A saturated pass over
    # the same cycles, 3,072 admissions and their diverts, allocates under
    # 64 bytes an event.
    dp, ctrl, ks = core_in_run(int.from_bytes(FIPS_KEY, "big"))
    quiet, quiet_peak = planned_peak(ctrl, 0)
    assert quiet.cycles == PASS_CYCLES and not (quiet.admissions or quiet.diverts)
    assert quiet_peak < 4096
    full, full_peak = planned_peak(ctrl, PASS_CYCLES // BATCH_PERIOD * NUM_LOOP_STAGES)
    events = len(full.admissions) + len(full.diverts)
    assert full.cycles == PASS_CYCLES and len(full.admissions) == 3072
    assert full_peak < 64 * events


def test_passes_end_within_the_longest_pass(sim, monkeypatch):
    # A pass holds its plan and completions until it ends, so an untraced
    # run phase longer than PASS_CYCLES splits: 3,100 saturated jobs take a
    # pass of PASS_CYCLES and one to the last completion, and complete as
    # aesref computes them. A traced pass also holds its taps, and ends
    # within one batch period.
    plans = []
    passes = passes_by_phase(monkeypatch, plans)
    jobs = mixed_jobs(3100, seed=31)
    result = sim.run(FIPS_KEY, jobs)
    lengths = [plan.cycles for fsm, plan in plans if fsm == RUN]
    assert lengths == [PASS_CYCLES, result.summary.total_cycles - RUN_START_CYCLE - PASS_CYCLES]
    assert passes[RUN] == 2 and result.passes == 5
    assert result.summary.max_loop_occupancy == NUM_LOOP_STAGES
    keys = {MODE_ENCRYPT: aesref.key_expand(FIPS_KEY),
            MODE_DECRYPT: aesref.key_expand_equivalent_inverse(FIPS_KEY)}
    cipher = {MODE_ENCRYPT: aesref.encrypt_block, MODE_DECRYPT: aesref.decrypt_block}
    assert [result.outputs[job.seq] for job in jobs] == [
        cipher[job.mode](keys[job.mode], job.block) for job in jobs
    ]
    plans.clear()
    sim.run(FIPS_KEY, jobs[:40], trace=io.StringIO())
    lengths = [plan.cycles for fsm, plan in plans if fsm == RUN]
    assert len(lengths) == 4 and max(lengths) == BATCH_PERIOD
