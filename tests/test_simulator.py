"""Simulator harness: oracle equivalence, timing, tracing, file formats."""

import io
import random
import sys

import pytest

from drablocus import aesref
from drablocus.datapath import BLOCK_LATENCY, NUM_LOOP_STAGES, RoundDatapath
from drablocus.simulator import (
    BATCH_PERIOD,
    CLOCK_MHZ,
    RUN_START_CYCLE,
    Job,
    JobError,
    PipelineSimulator,
    cycle_budget,
    measure_cadence,
    parse_jobs,
    write_outputs,
)
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT

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


@pytest.mark.parametrize("n", [1, 12, 13, 120, 1000])
def test_cycle_budget_bounds_each_run_tightly(sim, n):
    # A wedge is reported no later than one batch period and one block
    # latency after the cycle a healthy run of the same jobs ends on.
    summary = sim.run(FIPS_KEY, mixed_jobs(n, seed=106)).summary
    assert summary.run_start_cycle == RUN_START_CYCLE
    assert summary.total_cycles <= cycle_budget(n)
    assert cycle_budget(n) < summary.total_cycles + BATCH_PERIOD + BLOCK_LATENCY


# Python-level calls per simulated cycle of the 120-job run below: 7.44
# when this bound was set. The count is deterministic, so the bound catches
# per-object dispatch returning to the per-cycle path without timing noise.
CALLS_PER_CYCLE_BOUND = 8.0
# The same run writing a trace: 7.92 when this bound was set, with the trace
# writer reading the taps' tags from the datapath's tag ranks; 8.84 since the
# writer builds its status line with the helper the skipped flush lines share.
TRACED_CALLS_PER_CYCLE_BOUND = 9.0


def python_calls_per_cycle(sim, trace=None):
    jobs = mixed_jobs(120, seed=0xD12AB)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = sim.run(FIPS_KEY, jobs, trace=trace)
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


def test_fresh_key_run_skips_the_quiescent_flush(sim, monkeypatch):
    # A one-job run steps reset, key initialization and the flush until the
    # core is at a fixed point, skips the rest of the flush, then steps run.
    calls = 0
    original = RoundDatapath.compute_cycle

    def counted(self, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, **kwargs)

    monkeypatch.setattr(RoundDatapath, "compute_cycle", counted)
    summary = sim.run(random.Random(0x6B01).randbytes(16), mixed_jobs(1, seed=107)).summary
    assert summary.total_cycles == 277
    assert summary.skipped_cycles >= 100
    assert calls <= 177
    assert calls + summary.skipped_cycles == summary.total_cycles


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
