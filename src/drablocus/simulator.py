"""Top-level harness: composed pipeline, job schedules, traces, statistics.

A run owns one cipher key: the key schedule fills its store during an
initialization phase, the tracking registers flush, and only then are
jobs admitted (greedily, on the first non-conflicting cycle). Every
block completes exactly BLOCK_LATENCY cycles after admission; admission
pressure shows up as stalls, never as in-flight delay.

Most of the flush is a fixed point: the loop holds no word, the track
chains are clear and the data ranks have settled. Once a flush cycle's
computed next state equals its committed state, with no tag, tracking
bit, key-store write or changing key-store output, every flush cycle left
would repeat it exactly, so the run fast-forwards the cycle and flush
counters to the transition into run and writes those cycles' status
lines, which are all a trace shows of them. The test is exact: an upset
that breaks the fixed point delays the skip. ``RunSummary.skipped_cycles``
counts the cycles skipped; the other statistics count them as cycles.

File formats (stable, line-delimited):

* job file: ``<seq> <enc|dec> <32 hex chars>``, with ``<seq>`` in ASCII
  decimal digits; ``#`` starts a comment.
* output file: ``<seq> <32 hex chars>`` in input order.
* trace file: one controller status line per cycle,
  ``cycle=<n> fsm=<state> occ=<12 bits> stall=<0|1>``, followed by one
  line per valid word at each tap,
  ``cycle=<n> stage=<id> slot=<id> mode=<e|d> data=<32 hex>``, with
  stages in the fixed order ia, sb, sr, mc, ark, fin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import IO, Sequence

from .controller import _RANK_MARK, FLUSH, KEY_INIT, RESET, RUN, Controller
from .datapath import (
    BLOCK_LATENCY,
    MAIN_ROUNDS,
    NUM_LOOP_STAGES,
    TAG_BITS,
    TAG_VALID,
    TRACK_CYCLES,
    DatapathTables,
    RoundDatapath,
)
from .faults import SimulationFault, TimingFault
from .keyschedule import KEY_INIT_CYCLES, KeyScheduler
from .keyschedule import READY as KEY_SCHEDULE_READY
from .tables import MODE_DECRYPT, MODE_ENCRYPT
from .textlines import split_lines

MODE_NAMES = {MODE_ENCRYPT: "enc", MODE_DECRYPT: "dec"}
MODE_VALUES = {"enc": MODE_ENCRYPT, "dec": MODE_DECRYPT}

# Loop capacity over block latency: the cadence the loop could sustain.
NOMINAL_BLOCKS_PER_CYCLE = NUM_LOOP_STAGES / BLOCK_LATENCY

# The published clock of the core; derived figures use it unless given another.
CLOCK_MHZ = 528.262

# Greedy admission refills the loop's twelve slots once per batch period:
# a slot stays reserved for its block's main rounds and its final pass.
BATCH_PERIOD = NUM_LOOP_STAGES * (MAIN_ROUNDS + 1)

# The first run cycle: one reset cycle, key initialization (its program,
# then the cycle that reports the schedule ready), and the flush.
RUN_START_CYCLE = 1 + KEY_INIT_CYCLES + 1 + TRACK_CYCLES


def cycle_budget(n_jobs: int) -> int:
    """Cycles a run of ``n_jobs`` may take before it counts as wedged.

    Every batch of twelve is admitted within one batch period of the
    previous one, and its last block completes BLOCK_LATENCY cycles after
    its admission.
    """
    batches = -(-n_jobs // NUM_LOOP_STAGES)
    return RUN_START_CYCLE + batches * BATCH_PERIOD + BLOCK_LATENCY


class JobError(ValueError):
    """A malformed job or job file."""


@dataclass(frozen=True)
class Job:
    seq: int
    mode: int
    block: bytes

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ENCRYPT, MODE_DECRYPT):
            raise JobError(f"job {self.seq}: unknown mode {self.mode!r}")
        if len(self.block) != 16:
            raise JobError(f"job {self.seq}: block must be 16 bytes, got {len(self.block)}")


@dataclass
class RunSummary:
    total_cycles: int = 0
    key_init_cycles: int = 0
    flush_cycles: int = 0
    run_start_cycle: int = 0
    blocks_completed: int = 0
    stall_cycles: int = 0
    max_loop_occupancy: int = 0
    # Flush cycles fast-forwarded from a fixed point, not stepped.
    skipped_cycles: int = 0
    admission_cycles: dict[int, int] = field(default_factory=dict)
    completion_cycles: dict[int, int] = field(default_factory=dict)

    @property
    def latencies(self) -> dict[int, int]:
        return {
            seq: self.completion_cycles[seq] - self.admission_cycles[seq]
            for seq in self.completion_cycles
        }


@dataclass(frozen=True)
class CadenceReport:
    steady_state: bool
    measured_blocks_per_cycle: float | None
    measured_gbps: float | None
    nominal_blocks_per_cycle: float
    nominal_gbps: float
    note: str


@dataclass(frozen=True)
class RunResult:
    outputs: dict[int, bytes]
    summary: RunSummary
    # The 32-word key-store image the run's key schedule wrote.
    key_store: tuple[int, ...]


# Trace text. Every line of a cycle starts with its ``cycle=<n>`` text,
# formatted once per cycle. A status line goes on with _status_text. A tap
# line goes on with its tap's `` stage=<id> slot=<s> mode=<e|d> data=``
# text, from the tap's table at the low five bits, ``slot << 1 | mode``,
# of the word's tag field, then the word's 16 bytes in hex.
_IA_TEXT, _SB_TEXT, _SR_TEXT, _MC_TEXT, _ARK_TEXT, _FIN_TEXT = (
    tuple(
        f" stage={stage_id} slot={code >> 1} mode={'ed'[code & 1]} data="
        for code in range(TAG_VALID)
    )
    for stage_id in ("ia", "sb", "sr", "mc", "ark", "fin")
)
# The loop taps (sb, sr, mc, ark) are loop stages 1, 2, 8 and 11, whose
# fields of the tag rank are bits 6k..6k+5, valid bit highest.
_LOOP_TAP_VALID = sum(TAG_VALID << TAG_BITS * k for k in (1, 2, 8, 11))
_FSM_TEXT = {fsm: f" fsm={fsm} occ=" for fsm in (RESET, KEY_INIT, FLUSH, RUN)}
_STALL_TEXT = (" stall=0\n", " stall=1\n")


def _status_text(fsm: str, tags: int, stalled: bool) -> str:
    """A status line after its ``cycle=<n>`` text:
    `` fsm=<state> occ=<12 bits> stall=<0|1>`` and the newline, with the
    occupancy read from the valid bits of the controller's tag rank."""
    return _FSM_TEXT[fsm] + bin(tags | _RANK_MARK)[3::TAG_BITS] + _STALL_TEXT[stalled]


class PipelineSimulator:
    """Derives the datapath tables from the RAM images once (the built-in
    images unless given); each run re-initializes a fresh core on them."""

    def __init__(self, sbox_image=None, mc_image=None):
        self._tables = DatapathTables(sbox_image, mc_image)

    def run(
        self,
        key: bytes,
        jobs: Sequence[Job],
        trace: IO[str] | None = None,
    ) -> RunResult:
        key = bytes(key)
        if len(key) != 16:
            raise JobError(f"key must be 16 bytes, got {len(key)}")
        jobs = list(jobs)
        if not jobs:
            raise JobError("job list is empty")
        seqs = sorted(job.seq for job in jobs)
        if seqs != list(range(len(jobs))):
            raise JobError("job sequence ids must be unique and dense from 0")

        dp = RoundDatapath(self._tables)
        ctrl = Controller()
        ks = KeyScheduler(int.from_bytes(key, "big"))

        pending = deque(jobs)
        outputs: dict[int, bytes] = {}
        summary = RunSummary()
        admission_cycles = summary.admission_cycles
        completion_cycles = summary.completion_cycles
        budget = cycle_budget(len(jobs))
        phase_starts: dict[str, int] = {}
        max_occupancy = 0
        stall_cycles = 0
        skipped_cycles = 0

        # The per-cycle methods, looked up once per run.
        begin_cycle = ctrl.begin_cycle
        check_against = ctrl.check_against
        ctrl_commit = ctrl.commit
        ks_compute = ks.compute
        ks_commit = ks.commit
        dp_compute = dp.compute_cycle
        dp_commit = dp.commit_cycle
        fsm = None

        try:
            while len(outputs) < len(jobs):
                cycle = ctrl.cycle
                if cycle >= budget:
                    raise TimingFault(
                        f"simulation exceeded its cycle budget ({budget}); pipeline wedged"
                    )
                begin_cycle(ks.fsm == KEY_SCHEDULE_READY)
                if ctrl.fsm != fsm:
                    fsm = ctrl.fsm
                    phase_starts.setdefault(fsm, cycle)

                admit_arg = None
                stalled = False
                if pending and fsm == RUN:
                    if ctrl.admit_ready:
                        job = pending.popleft()
                        tag = ctrl.admit(job.seq, job.mode)
                        ks.on_admission(tag.slot)
                        admit_arg = (
                            int.from_bytes(job.block, "big"),
                            ks.initial_keys[job.mode],
                            tag,
                        )
                        admission_cycles[job.seq] = cycle
                    else:
                        stalled = True
                        stall_cycles += 1

                ks_compute(dp, fsm)
                dp_compute(
                    admit=admit_arg,
                    divert=ctrl.divert,
                    main_key=ks.out_a,
                    final_key=ks.out_b,
                    initial_reset=ctrl.initial_reset,
                    main_reset=ctrl.main_reset,
                    shift_rows_reset=ctrl.shift_rows_reset,
                    final_reset=ctrl.final_reset,
                    ks_sub_bytes=ks.sub_bytes_inject,
                    ks_mix_columns=ks.mix_columns_inject,
                )

                tag = dp.fa_out_tag
                if tag is not None:
                    outputs[tag.seq] = dp.fa_out.to_bytes(16, "big")
                    completion_cycles[tag.seq] = cycle
                    latency = cycle - admission_cycles[tag.seq]
                    if latency != BLOCK_LATENCY:
                        raise TimingFault(
                            f"block {tag.seq} completed after {latency} cycles, "
                            f"expected {BLOCK_LATENCY}"
                        )

                occupancy = check_against(dp).bit_count()
                if occupancy > max_occupancy:
                    max_occupancy = occupancy

                if trace is not None:
                    self._emit_trace(trace, ctrl, dp, stalled)

                # Decided on the computed next state, before it is latched.
                quiescent = (
                    fsm == FLUSH
                    and dp.at_fixed_point()
                    and ctrl.at_fixed_point()
                    and ks.at_fixed_point()
                )
                dp_commit()
                ctrl_commit()
                ks_commit()
                if quiescent:
                    # Each flush cycle left repeats this one: the same inputs
                    # and state, no tag to trace. Only the counters move.
                    first = ctrl.cycle
                    span = ctrl.skip_flush()
                    skipped_cycles += span
                    if trace is not None:
                        status = _status_text(ctrl.fsm, ctrl.tags, False)
                        trace.write(
                            "".join([f"cycle={c}{status}" for c in range(first, first + span)])
                        )
        except SimulationFault as fault:
            # No component keeps the cycle count but the controller; the run
            # names the cycle of every fault raised inside it.
            fault.cycle = ctrl.cycle
            raise

        summary.total_cycles = ctrl.cycle
        summary.blocks_completed = len(outputs)
        summary.stall_cycles = stall_cycles
        summary.skipped_cycles = skipped_cycles
        summary.max_loop_occupancy = max_occupancy
        summary.key_init_cycles = ks.init_cycles
        summary.run_start_cycle = phase_starts.get(RUN, 0)
        summary.flush_cycles = summary.run_start_cycle - phase_starts.get(FLUSH, 0)
        return RunResult(outputs=outputs, summary=summary, key_store=tuple(ks.image))

    @staticmethod
    def _emit_trace(trace: IO[str], ctrl: Controller, dp: RoundDatapath, stalled: bool) -> None:
        cycle = f"cycle={ctrl.cycle}"
        parts = [cycle, _status_text(ctrl.fsm, ctrl.tags, stalled)]
        # One line per tap carrying a word, in trace order.
        tag = dp.ia_out_tag
        if tag is not None:
            parts += (
                cycle, _IA_TEXT[tag.slot << 1 | tag.mode],
                dp.ia_out.to_bytes(16, "big").hex(), "\n",
            )
        tags = dp.tags
        if tags & _LOOP_TAP_VALID:
            if tags & 1 << 11:
                parts += (
                    cycle, _SB_TEXT[tags >> 6 & 31], dp.s1.to_bytes(16, "big").hex(), "\n",
                )
            if tags & 1 << 17:
                parts += (
                    cycle, _SR_TEXT[tags >> 12 & 31], dp.s2.to_bytes(16, "big").hex(), "\n",
                )
            if tags & 1 << 53:
                parts += (
                    cycle, _MC_TEXT[tags >> 48 & 31], dp.s8.to_bytes(16, "big").hex(), "\n",
                )
            if tags & 1 << 71:
                parts += (
                    cycle, _ARK_TEXT[tags >> 66 & 31], dp.s11.to_bytes(16, "big").hex(), "\n",
                )
        tag = dp.fa_out_tag
        if tag is not None:
            parts += (
                cycle, _FIN_TEXT[tag.slot << 1 | tag.mode],
                dp.fa_out.to_bytes(16, "big").hex(), "\n",
            )
        trace.write("".join(parts))


def measure_cadence(summary: RunSummary, freq_mhz: float = CLOCK_MHZ) -> CadenceReport:
    """Steady-state block cadence, from the first completion burst's start
    to the last burst's start.

    A burst starts at the first completion and wherever consecutive
    completions are more than one cycle apart; ending the window at a start
    leaves a partial last batch out. The nominal figure is loop capacity
    over block latency (12 per 115 cycles). The measured figure is what
    greedy admission sustains; it needs a saturated loop, three full
    batches and two bursts.
    """
    nominal_gbps = 128 * freq_mhz * NOMINAL_BLOCKS_PER_CYCLE / 1000.0
    completions = sorted(summary.completion_cycles.values())
    # Index of the last burst's start; 0 when the first burst is the only one.
    last_start = max(
        (i for i in range(1, len(completions)) if completions[i] - completions[i - 1] > 1),
        default=0,
    )
    if (
        len(completions) < 3 * NUM_LOOP_STAGES
        or summary.max_loop_occupancy != NUM_LOOP_STAGES
        or last_start == 0
    ):
        return CadenceReport(
            steady_state=False,
            measured_blocks_per_cycle=None,
            measured_gbps=None,
            nominal_blocks_per_cycle=NOMINAL_BLOCKS_PER_CYCLE,
            nominal_gbps=nominal_gbps,
            note="not steady state: needs >= 3 full batches, a saturated loop and two bursts",
        )
    window = completions[last_start] - completions[0]
    blocks_per_cycle = last_start / window
    return CadenceReport(
        steady_state=True,
        measured_blocks_per_cycle=blocks_per_cycle,
        measured_gbps=128 * freq_mhz * blocks_per_cycle / 1000.0,
        nominal_blocks_per_cycle=NOMINAL_BLOCKS_PER_CYCLE,
        nominal_gbps=nominal_gbps,
        note=f"steady-state window: {last_start} blocks over {window} cycles",
    )


def parse_jobs(text: str) -> list[Job]:
    """Parse the line-delimited job format (lines end as ``split_lines``
    ends them); errors cite line numbers."""
    jobs: list[Job] = []
    for number, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise JobError(f"line {number}: expected '<seq> <enc|dec> <32 hex>', got {raw!r}")
        seq_text, mode_text, hex_text = parts
        # ASCII decimal digits only: int() also takes a sign, underscores and
        # other scripts' digits, which the output file would write back as
        # different text. int() still refuses an over-long digit string.
        try:
            if not (seq_text.isascii() and seq_text.isdigit()):
                raise ValueError(seq_text)
            seq = int(seq_text)
        except ValueError:
            raise JobError(f"line {number}: bad sequence id {seq_text!r}") from None
        if mode_text not in MODE_VALUES:
            raise JobError(f"line {number}: mode must be 'enc' or 'dec', got {mode_text!r}")
        if len(hex_text) != 32:
            raise JobError(f"line {number}: block must be 32 hex chars, got {len(hex_text)}")
        try:
            block = bytes.fromhex(hex_text)
        except ValueError:
            raise JobError(f"line {number}: bad hex block {hex_text!r}") from None
        jobs.append(Job(seq=seq, mode=MODE_VALUES[mode_text], block=block))
    return jobs


def write_outputs(jobs: Sequence[Job], outputs: dict[int, bytes], stream: IO[str]) -> None:
    """Emit '<seq> <32 hex>' lines in input order."""
    for job in jobs:
        stream.write(f"{job.seq} {outputs[job.seq].hex()}\n")
