"""Top-level harness: composed pipeline, job schedules, traces, statistics.

A run owns one cipher key: the key schedule fills its store during an
initialization phase, the tracking registers flush, and only then are
jobs admitted (greedily, on the first non-conflicting cycle). Every
block completes exactly BLOCK_LATENCY cycles after admission; admission
pressure shows up as stalls, never as in-flight delay.

The flush holds no word, and its resets zero the substitution input, so
every rank forgets where it started within one loop traversal: the
datapath computes the flush's pass at once, to the state that follows
from the tables and the key store, as it computes a fresh key's
initialization pass. The flush is one pass like any other, whose
controller commit covers all its cycles.

The run is a sequence of passes. Each pass makes one call to the
datapath, which takes the controller's plan, the one record of the
pass's events (its admissions, with their words, and its diverts, from
which the reset lines of every cycle follow, the first included), and
takes every cycle's keys from the key store: it serves the store on each
of them, or resumes the store's program once per cycle with the ranks the
program reads back (the datapath computes key initialization and the
flush at once). In run, the controller plans a pass from registered
state and the count of pending jobs: the cycles it admits on and its
diverts, which follow from the track chains alone. A pass ends at the
budget, the last job's completion or :data:`PASS_CYCLES`, so an untraced
run phase of up to 3,072 saturated jobs is one pass, and a traced pass,
which holds each cycle's taps until it ends, within one batch period.
Each phase before run is one held pass, up to the constant cycle the
controller ends it on: the reset cycle, key initialization up to the
cycle the key store's program reports ready on, and the flush. The run
takes the next jobs, one for each of the plan's admissions, and admits
them in one controller call that appends each job's word to the plan,
records their admission cycles, from which ``RunSummary`` derives
the stalls, the peak loop occupancy and the completions, and checks the
latency of every completion the datapath returns with its offset, so the
completions it derives are the ones the run saw; the controller checks
itself against the datapath on each pass's first cycle, and its commit
covers every cycle of the plan. A fault raised
inside a pass, a key read past the last main round among them, carries
its offset, and the run names the cycle, and ends the trace on the cycle
before it, as a run stepping every cycle would, once the controller has
checked the first cycle. Every pass commits the datapath, the controller
and the key store once each, over all the cycles it covers (each resume
of the key-store program commits the cycle before it), and writes its
trace in one call from the taps the datapath records on each cycle.
``RunResult.passes`` counts the passes; the summary records what the run
took, which is the same however the passes are cut.

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

from typing import IO, NamedTuple, Sequence

from .controller import (
    _RANK_MARK, BATCH_PERIOD, FLUSH, KEY_INIT, RESET, RUN, RUN_START_CYCLE, STAGE_PHASE_OFFSET,
    Controller,
)
from .datapath import (
    BLOCK_LATENCY,
    NUM_LOOP_STAGES,
    TAG_BITS,
    TAG_VALID,
    TRACK_CYCLES,
    DatapathTables,
    RoundDatapath,
    built_in_tables,
)
from .faults import SimulationFault, TimingFault
from .keyschedule import KeyScheduler
from .tables import MODE_DECRYPT, MODE_ENCRYPT
from .textlines import split_lines

MODE_NAMES = {MODE_ENCRYPT: "enc", MODE_DECRYPT: "dec"}
MODE_VALUES = {"enc": MODE_ENCRYPT, "dec": MODE_DECRYPT}

# Loop capacity over block latency: the cadence the loop could sustain.
NOMINAL_BLOCKS_PER_CYCLE = NUM_LOOP_STAGES / BLOCK_LATENCY

# The published clock of the core; derived figures use it unless given another.
CLOCK_MHZ = 528.262

# The longest untraced pass. A pass holds the record of its events, its
# admitted blocks and its completions until it ends, a few hundred bytes a
# job, and pays a fixed cost of some 70 us: 256 batch periods (3,072 jobs
# of a saturated run) bound the one and make the other negligible. A traced
# pass also holds each cycle's taps and trace text, and lasts one batch
# period.
PASS_CYCLES = 256 * BATCH_PERIOD


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


class _JobFields(NamedTuple):
    seq: int
    mode: int
    block: bytes


class Job(_JobFields):
    """One block for the pipeline: its sequence id, mode and 16 bytes."""

    __slots__ = ()

    def __new__(cls, seq: int, mode: int, block: bytes) -> Job:
        # A bool is an int, but would key its output as True or False.
        if isinstance(seq, bool) or not isinstance(seq, int):
            raise JobError(f"job {seq!r}: sequence id must be an int, got {type(seq).__name__}")
        if mode not in (MODE_ENCRYPT, MODE_DECRYPT):
            raise JobError(f"job {seq}: unknown mode {mode!r}")
        if isinstance(block, (int, str)):
            raise TypeError(f"job {seq}: block must be bytes-like, got {type(block).__name__}")
        # Frozen: a caller's buffer written later must not reach the job.
        block = bytes(block)
        if len(block) != 16:
            raise JobError(f"job {seq}: block must be 16 bytes, got {len(block)}")
        return super().__new__(cls, seq, mode, block)


class RunSummary(NamedTuple):
    """What a run took, cycle by cycle: a planned, a traced and a stepped run
    of the same jobs take the same.

    The admission cycles are the one per-job record: the run checks that
    every block completes BLOCK_LATENCY cycles after its admission, so the
    completions, the latencies and the count of blocks follow from them."""

    total_cycles: int
    key_init_cycles: int
    admission_cycles: dict[int, int]

    # The tracking registers' flush before the run, and the first run cycle.
    flush_cycles = TRACK_CYCLES
    run_start_cycle = RUN_START_CYCLE

    @property
    def blocks_completed(self) -> int:
        return len(self.admission_cycles)

    @property
    def completion_cycles(self) -> dict[int, int]:
        return {seq: cycle + BLOCK_LATENCY for seq, cycle in self.admission_cycles.items()}

    @property
    def latencies(self) -> dict[int, int]:
        return dict.fromkeys(self.admission_cycles, BLOCK_LATENCY)

    @property
    def stall_cycles(self) -> int:
        """Run cycles up to the last admission that admit no job: every job
        waits from the run's start, so each of them admits or stalls."""
        admitted = self.admission_cycles.values()
        return max(admitted) - self.run_start_cycle + 1 - len(admitted) if admitted else 0

    @property
    def max_loop_occupancy(self) -> int:
        """The most words the loop holds on one cycle: a word holds a stage
        from STAGE_PHASE_OFFSET cycles after its admission until its divert,
        TRACK_CYCLES after it, so the most admissions in any 111 cycles."""
        admitted = sorted(self.admission_cycles.values())
        peak = 0
        for last, cycle in enumerate(admitted):
            # A span of peak + 1 admissions ending at this one fits.
            if cycle - admitted[last - peak] <= TRACK_CYCLES - STAGE_PHASE_OFFSET:
                peak += 1
        return peak


class CadenceReport(NamedTuple):
    steady_state: bool
    measured_blocks_per_cycle: float | None
    measured_gbps: float | None
    nominal_blocks_per_cycle: float
    nominal_gbps: float
    note: str


class RunResult(NamedTuple):
    """A run's outputs, what it took, and how it computed them."""

    outputs: dict[int, bytes]
    summary: RunSummary
    # The 32-word key-store image the run's key schedule wrote.
    key_store: tuple[int, ...]
    # The passes, one datapath call each, and the cycles computed in fused
    # rounds (all but an untraced run pass's last two).
    passes: int
    fused_cycles: int


# Trace text. Every line of a cycle starts with its ``cycle=<n>`` text,
# formatted once per cycle. A status line goes on with its fsm text, the
# tag rank's valid bits and its stall text. A tap line goes on with its tap's
# `` stage=<id> slot=<s> mode=<e|d> data=`` text, from the tap's table at
# the low five bits, ``slot << 1 | mode``, of the word's tag, then the
# word's 16 bytes in hex.
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


class PipelineSimulator:
    """Derives the datapath tables from the RAM images once (shares the
    built-in images' unless given); each run re-initializes a fresh core on them."""

    def __init__(self, sbox_image=None, mc_image=None):
        given = sbox_image is not None or mc_image is not None
        self._tables = DatapathTables(sbox_image, mc_image) if given else built_in_tables()

    def run(
        self,
        key: bytes,
        jobs: Sequence[Job],
        trace: IO[str] | None = None,
    ) -> RunResult:
        # bytes() would take an int as a length and a str needs an encoding.
        if isinstance(key, (int, str)):
            raise TypeError(f"key must be bytes-like, got {type(key).__name__}")
        key = bytes(key)
        if len(key) != 16:
            raise JobError(f"key must be 16 bytes, got {len(key)}")
        jobs = list(jobs)
        if not jobs:
            raise JobError("job list is empty")
        seqs = sorted([job.seq for job in jobs])
        if seqs != list(range(len(jobs))):
            raise JobError("job sequence ids must be unique and dense from 0")

        dp = RoundDatapath(self._tables)
        ctrl = Controller()
        ks = KeyScheduler(int.from_bytes(key, "big"))

        # Jobs are admitted in order: those before ``taken`` are admitted.
        taken = 0
        outputs: dict[int, bytes] = {}
        admission_cycles: dict[int, int] = {}
        budget = cycle_budget(len(jobs))
        # The cycle after the last completion, once the last job is admitted.
        run_end = budget
        passes = 0

        try:
            while len(outputs) < len(jobs):
                cycle = ctrl.cycle
                if cycle >= budget:
                    message = f"simulation exceeded its cycle budget ({budget}); pipeline wedged"
                    # Name the block lost: the first admitted one with no output.
                    lost = next((seq for seq in admission_cycles if seq not in outputs), None)
                    if lost is not None:
                        message += (f"; block {lost}, admitted on cycle "
                                    f"{admission_cycles[lost]}, never completed")
                    raise TimingFault(message)
                # Each pass is planned up to the budget, the last completion and
                # the longest pass.
                waiting = len(jobs) - taken
                limit = min((run_end if run_end > cycle else budget) - cycle,
                            PASS_CYCLES if trace is None else BATCH_PERIOD)
                plan = ctrl.begin_cycle(waiting, limit)
                fsm = ctrl.fsm

                # The planned admissions take the next jobs in order.
                admissions = plan.admissions
                if admissions:
                    admitted = jobs[taken:taken + len(admissions)]
                    taken += len(admissions)
                    ctrl.admit(admitted, ks.initial_keys)
                    for offset, job in zip(admissions, admitted):
                        admission_cycles[job.seq] = cycle + offset
                    if taken == len(jobs):
                        run_end = min(budget, cycle + admissions[-1] + BLOCK_LATENCY + 1)

                taps = None if trace is None else []
                try:
                    completions = dp.compute_cycle(plan=plan, store=ks, taps=taps,
                                                held_reset=ctrl.held_reset)
                    for offset, tag, data in completions:
                        seq = tag >> TAG_BITS
                        try:
                            latency = cycle + offset - admission_cycles[seq]
                        except KeyError:
                            latency = -1
                        if latency != BLOCK_LATENCY:
                            # A block the pass admits after this cycle has no
                            # admission yet, as in a run stepping every cycle.
                            fault = TimingFault(
                                f"block {seq} completed without an admission" if latency < 0
                                else f"block {seq} completed after {latency} cycles, "
                                f"expected {BLOCK_LATENCY}"
                            )
                            fault.offset = offset
                            fault.completions = completions
                            raise fault
                        # The job's own seq object keys its output; an int made
                        # from the tag would be one more object retained a job.
                        outputs[seqs[seq]] = data.to_bytes(16, "big")
                except SimulationFault as fault:
                    # A stepped run checks the first cycle before a later one faults.
                    if fault.offset:
                        ctrl.check_against(dp)
                    raise

                ctrl.check_against(dp)
                if taps is not None:
                    self._emit_trace(trace, cycle, taps, completions, fsm, waiting, admissions)

                dp.commit_cycle()
                ctrl.commit()
                ks.commit()
                passes += 1
        except SimulationFault as fault:
            # No component keeps the cycle count but the controller; the run
            # names the cycle of every fault raised inside it, at the offset
            # into the pass a fault on a later cycle carries.
            offset = fault.offset
            fault.cycle = ctrl.cycle + offset
            # A fault of the datapath or the latency check, raised before the
            # pass's trace is written, carries the completions before it.
            if trace is not None and fault.completions is not None:
                completions = fault.completions
                self._emit_trace(trace, cycle, taps[:offset], completions, fsm, waiting, admissions)
            raise

        summary = RunSummary(ctrl.cycle, ks.init_cycles, admission_cycles)
        return RunResult(outputs, summary, tuple(ks.image), passes, dp.fused_cycles)

    @staticmethod
    def _emit_trace(trace: IO[str], cycle: int, taps: list, completions: list, fsm: str,
                    waiting: int, admissions: Sequence[int]) -> None:
        """Write the trace of the pass that opens on ``cycle`` from the taps
        the datapath recorded on each of its cycles and the completions, the
        fin taps, at their offsets. With jobs ``waiting`` in run, every cycle
        but the ``admissions`` stalls up to the last job's admission."""
        fsm_text = _FSM_TEXT[fsm]
        waited = 0
        if waiting and fsm == RUN:
            waited = admissions[-1] + 1 if len(admissions) == waiting else len(taps)
        fins = iter(completions)
        fin = next(fins, None)
        parts = []
        for offset, (tags, ia_out, ia_tag, s1, s2, s8, s11) in enumerate(taps):
            text = f"cycle={cycle + offset}"
            stalled = offset < waited and offset not in admissions
            # The occupancy is the valid bits of the tag rank.
            parts += (text, fsm_text, bin(tags | _RANK_MARK)[3::TAG_BITS], _STALL_TEXT[stalled])
            # One line per tap carrying a word, in trace order.
            if ia_tag & TAG_VALID:
                parts += (text, _IA_TEXT[ia_tag & 31], ia_out.to_bytes(16, "big").hex(), "\n")
            if tags & _LOOP_TAP_VALID:
                if tags & 1 << 11:
                    parts += (text, _SB_TEXT[tags >> 6 & 31], s1.hex(), "\n")
                if tags & 1 << 17:
                    parts += (text, _SR_TEXT[tags >> 12 & 31], bytes(s2).hex(), "\n")
                if tags & 1 << 53:
                    parts += (text, _MC_TEXT[tags >> 48 & 31], s8.to_bytes(16, "big").hex(), "\n")
                if tags & 1 << 71:
                    parts += (text, _ARK_TEXT[tags >> 66 & 31], s11.to_bytes(16, "big").hex(), "\n")
            if fin is not None and fin[0] == offset:
                _, tag, data = fin
                parts += (text, _FIN_TEXT[tag & 31], data.to_bytes(16, "big").hex(), "\n")
                fin = next(fins, None)
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

    Every completion follows its admission by BLOCK_LATENCY cycles, so the
    completion bursts are the admission bursts shifted, and the sorted
    admission cycles give the same window.
    """
    nominal_gbps = 128 * freq_mhz * NOMINAL_BLOCKS_PER_CYCLE / 1000.0
    admitted = sorted(summary.admission_cycles.values())
    # Index of the last burst's start; 0 when the first burst is the only one.
    last_start = max(
        (i for i in range(1, len(admitted)) if admitted[i] - admitted[i - 1] > 1),
        default=0,
    )
    if (
        len(admitted) < 3 * NUM_LOOP_STAGES
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
    window = admitted[last_start] - admitted[0]
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
