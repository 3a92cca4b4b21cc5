"""Control FSM and tracking registers for the round datapath.

The controller enforces the dataflow rules the OR-multiplexed datapath
depends on:

1. every block is tracked from admission until it must divert into the
   final key-add instance (one 113-bit LUT shift register per pipeline
   slot; only the final bit is read);
2. the mode of the block in each stage is delivered where needed (a
   12-bit mode register rotating in lockstep with the loop);
3. new inputs stall while pipeline data is moving from the key-add
   stages back into substitution (stage 9 occupied means the loop's S0
   register is claimed two cycles out, exactly when an admitted block
   would arrive there);
4. the initial key-add output is held at zero except on the cycle that
   latches a newly admitted block;
5. the main key-add output is reset on the cycle after an admission, so
   stale loop contents cannot reach the OR mux alongside the new block;
6. the key-add and shift-rows instances are held in reset while the key
   schedule computes round keys through the datapath taps.

Power-up sequence: reset, key_init, flush (113 zero-shifts, since the
LUT chains have no reset line), then run. Slot numbering is anchored to
the admission cycle modulo 12, which makes the slot of the word in loop
stage k equal to (cycle - 3 - k) mod 12; the tag pipeline is checked
against this every cycle. The datapath carries the slot with the word,
in its tag rank, and never derives it from the phase, so the check
compares two independent records.

Like the datapath's ranks, the twelve track chains are held as one int:
chain s is the bit field 113s..113s+112, newest bit lowest, so a commit
shifts all twelve with one shift and one mask.

Each pass of a run has one shape, and one controller call per duty.
:meth:`Controller.begin_cycle` plans the pass from registered state alone
(the FSM, the cycle, the track rank and the occupancy register): the
lines of every cycle of the pass, the first included. In run, given the
count of pending jobs and a limit, a pass lasts up to the limit or the
last pending job's completion, however many batch periods that takes;
its lines follow from those registers, since a divert waits for a track
chain's final bit and an admission for its slot's chain to empty, so a
saturated slot admits once a batch period.
Outside run a pass holds :data:`HOLD` lines up to the end of its phase.
Power-up is a fixed program, so each phase before run ends on a constant
cycle, read from one table: the reset cycle, key initialization up to
:data:`KEY_READY_CYCLE`, the cycle the key schedule's program reports
ready on, and the flush up to :data:`RUN_START_CYCLE`. The controller
reads nothing from the key store. The one line held over a pass,
``held_reset`` (rule 6), is a plain attribute, and the admission
handshake is the plan's admission offsets: a waiting job stalls on every
other cycle. :meth:`Controller.admit` writes the pass's jobs in order
into the plan's entries of the cycles it admits on.
:meth:`Controller.check_against` reconciles the registers and the first
cycle's lines with the datapath's tags once the datapath has computed
the pass. :meth:`Controller.commit` moves the registers over
every cycle the plan covers, with the admissions and diverts it holds;
no other method shifts them or moves the cycle.

A plan is a list with one entry per cycle of the pass, each ``(admit,
divert, initial_reset, main_reset)``, the lines the datapath takes. A
cycle with no admission, divert or arriving word shares the one entry
:data:`QUIET`, and every cycle outside run shares :data:`HOLD`; an event
cycle has a list of its own, whose ``admit`` :meth:`Controller.admit`
fills with the admitted job's block, initial key and tag, an int in the
datapath's layout: ``seq << TAG_BITS | valid << 5 | slot << 1 | mode``.

The occupancy and mode registers rotate with the words, so they are held
in the datapath's tag layout: ``Controller.tags`` has one 6-bit
``valid << 5 | slot << 1 | mode`` field per loop stage, with the
occupancy register as its valid bits, the mode register as its mode bits
and its slot bits zero. On a passing cycle the check is one compare:
the datapath's rank XOR the controller's XOR the ``slot << 1`` fields the
phase math requires, masked to the whole fields of the stages live on
either side, is zero exactly when both sides hold the same stages and
each live word has its slot and the controller's mode. A multiply
spreads the live stages' valid bits to their whole fields. Only a failed
compare walks the stages, to name the one at fault.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .datapath import (
    _SLOT_FIELD, _TAGS_MASK, _VALID2, BLOCK_LATENCY, FIELD_LSBS, HOLD, MAIN_ROUNDS, NUM_LOOP_STAGES,
    QUIET, TAG_BITS, TAG_FIELD, TAG_VALID, TRACK_CYCLES, RoundDatapath,
)
from .faults import AdmissionError, ControlFault
from .keyschedule import KEY_INIT_CYCLES

RESET = "reset"
KEY_INIT = "key_init"
FLUSH = "flush"
RUN = "run"

# Data committed into loop stage 0 trails the admission commit by the two
# initial key-add ranks; a word occupies stage k in cycles where
# (cycle - STAGE_PHASE_OFFSET - k) mod 12 equals its slot.
STAGE_PHASE_OFFSET = 3

# Greedy admission refills the loop's twelve slots once per batch period:
# a slot stays reserved for its block's main rounds and its final pass, so
# a saturated slot admits once a period.
BATCH_PERIOD = NUM_LOOP_STAGES * (MAIN_ROUNDS + 1)

# The cycle the key schedule reports ready on, which ends key
# initialization: one reset cycle, then the program's cycles.
KEY_READY_CYCLE = 1 + KEY_INIT_CYCLES
# The first run cycle: the flush follows the cycle the key schedule
# reports ready on.
RUN_START_CYCLE = KEY_READY_CYCLE + 1 + TRACK_CYCLES
# Each phase before run: the phase after it, and the cycle that one starts on.
_PHASE_ENDS = {
    RESET: (KEY_INIT, 1), KEY_INIT: (FLUSH, KEY_READY_CYCLE + 1), FLUSH: (RUN, RUN_START_CYCLE),
}

_VALID9 = TAG_VALID << 9 * TAG_BITS
_VALID10 = TAG_VALID << 10 * TAG_BITS
# The slot bits of a stage's field.
_SLOT_BITS = _SLOT_FIELD << 1
_TRACK_FINAL = TRACK_CYCLES - 1

# Track rank: per slot, its admission bit (bit 0 of its field) and its
# whole field.
_TRACK_ADMIT = tuple(1 << TRACK_CYCLES * s for s in range(NUM_LOOP_STAGES))
_TRACK_FIELDS = tuple(((1 << TRACK_CYCLES) - 1) << TRACK_CYCLES * s for s in range(NUM_LOOP_STAGES))
# Per count n of cycles a commit covers, up to a chain's length: the bits
# of every chain that stay in it over n shifts. The others pass the final
# bit, and a shift would carry them into the next chain.
_TRACK_ADMITS = sum(_TRACK_ADMIT)
_TRACK_KEEP = tuple(((1 << TRACK_CYCLES - n) - 1) * _TRACK_ADMITS for n in range(TRACK_CYCLES + 1))

# Per cycle phase (cycle mod 12): the slot the phase math requires in each
# loop stage.
_EXPECTED_SLOTS = tuple(
    tuple((phase - STAGE_PHASE_OFFSET - k) % NUM_LOOP_STAGES for k in range(NUM_LOOP_STAGES))
    for phase in range(NUM_LOOP_STAGES)
)

# The same as a tag rank's slot bits (field k, bits 6k+1..6k+4, for loop
# stage k).
_EXPECTED_TAGS = tuple(
    sum(slot << 1 << TAG_BITS * k for k, slot in enumerate(expected))
    for expected in _EXPECTED_SLOTS
)
_RANK_BITS = TAG_BITS * NUM_LOOP_STAGES
# Set above a tag rank's top field, so bin() keeps the leading fields'
# zeros: bin(tags | _RANK_MARK)[3::6] is the rank's valid bits and [8::6]
# its mode bits, stage 11 first.
_RANK_MARK = 1 << _RANK_BITS
# The divert reads the chain of slot (cycle - _DIVERT_PHASE) mod 12.
_DIVERT_PHASE = STAGE_PHASE_OFFSET + 2
# Per commit offset t mod 12 in a pass: the field of the rank before the
# pass that t + 1 rotations bring to S0 and to S3.
_S0_SHIFTS = tuple(TAG_BITS * (-1 - t) % _RANK_BITS for t in range(NUM_LOOP_STAGES))
_S3_SHIFTS = tuple(TAG_BITS * (2 - t) % _RANK_BITS for t in range(NUM_LOOP_STAGES))


class Controller:
    def __init__(self):
        self.fsm = RESET
        self.cycle = 0
        # The twelve LUT shift-register chains, one per slot, as bit fields.
        # Like the fabric chains, each is read only at its final bit, plus
        # the model-level any-set inspection.
        self.track = 0
        # The occupancy and mode registers, in the datapath's tag layout.
        self.tags = 0
        # The reset of the shift-rows register and the final key-add output
        # (rule 6), held over the pass and set by begin_cycle.
        self.held_reset = True
        # Mirrors the two initial key-add ranks: the field each word en route
        # to stage 0 will take there, ``TAG_VALID | mode``, or 0 for none.
        self._arriving0 = 0
        self._arriving1 = 0
        # The pass's plan, its admission offsets and its planned diverts.
        self.plan = [HOLD]
        self.admissions = ()
        self._diverts = ()

    # FSM sequencing and every control line, evaluated from registered
    # conditions at the top of each pass.
    def begin_cycle(self, pending: int = 0, limit: int = 1) -> list[Sequence]:
        """Decide the lines of the pass of up to ``limit`` cycles that
        starts on this cycle: in run up to the last pending job's
        completion, and outside run up to the end of the phase.

        Returns the plan, the lines of each cycle of the pass, and sets
        ``admissions``: the offsets of the cycles the pass admits
        ``pending`` jobs on, in order. Outside run each cycle's lines are
        :data:`HOLD`, and each phase ends on its constant cycle.
        """
        fsm = self.fsm
        while fsm != RUN:
            after, end = _PHASE_ENDS[fsm]
            if self.cycle < end:
                # The resets are held up to the flush.
                self.held_reset = fsm != FLUSH
                self.admissions = ()
                self.plan = plan = [HOLD] * min(limit, end - self.cycle)
                return plan
            self.fsm = fsm = after
        stage9_busy = bool(self.tags & _VALID9)
        if stage9_busy == (not self.track & _TRACK_FIELDS[self.cycle % NUM_LOOP_STAGES]):
            # The two views are equivalent by the phase math; disagreement
            # means a tracking register slipped.
            raise ControlFault("stage-9 occupancy and slot tracking disagree")
        self._plan_pass(pending, limit)
        return self.plan

    def _plan_pass(self, pending: int, limit: int) -> None:
        """Plan the pass from the track chains alone.

        A block diverts when its chain's bit reaches the final bit, and its
        slot's stage-9 field is free from the cycle its chain empties, so a
        waiting job takes the slot when the phase next brings it round, and
        the slot's next job a batch period later. A block admitted in the
        pass diverts TRACK_CYCLES later, and a word arrives from the initial
        key-add the cycle after its admission. The pass ends at ``limit`` or
        on the cycle the last pending job completes. Every cycle of the pass
        follows these rules, the first included: its admissions and its
        diverts, at any offset, are the events :meth:`commit` applies.
        """
        cycle = self.cycle
        span = limit
        # Every tracking bit, highest first: the last one seen in a chain
        # is its newest.
        diverts = []
        newest = [None] * NUM_LOOP_STAGES
        rest = self.track
        while rest:
            top = rest.bit_length() - 1
            rest ^= 1 << top
            slot, bit = divmod(top, TRACK_CYCLES)
            newest[slot] = bit
            offset = _TRACK_FINAL - bit
            if (cycle + offset - _DIVERT_PHASE - slot) % NUM_LOOP_STAGES == 0:
                diverts.append(offset)
        # Each slot's first free turn, within a batch period: on this cycle
        # for the phase's slot with an empty chain.
        frees = []
        for slot, bit in enumerate(newest):
            free = 0 if bit is None else TRACK_CYCLES - bit
            frees.append(free + (slot - cycle - free) % NUM_LOOP_STAGES)
        frees.sort()
        admissions = []
        for k in range(pending):
            offset = frees[k % NUM_LOOP_STAGES] + k // NUM_LOOP_STAGES * BATCH_PERIOD
            if offset >= span:
                break
            admissions.append(offset)
        if admissions and len(admissions) == pending:
            span = min(span, admissions[-1] + BLOCK_LATENCY + 1)

        # Each event cycle has an entry of its own. admit() fills in an
        # admission's; the word arrives from the initial key-add the cycle
        # after, which lifts the initial key-add's reset and resets the main.
        events = {0: [None, False, False, True]} if self._arriving0 else {}
        for offset in admissions:
            events.setdefault(offset, list(QUIET))
            if offset + 1 < span:
                events.setdefault(offset + 1, list(QUIET))[2:] = False, True
            diverts.append(offset + TRACK_CYCLES)
        diverts.sort()
        diverts = diverts[:bisect_left(diverts, span)]
        for offset in diverts:
            events.setdefault(offset, list(QUIET))[1] = True
        self._diverts = diverts
        self.plan = plan = [QUIET] * span
        for offset, entry in events.items():
            plan[offset] = entry
        self.admissions = admissions

    def admit(self, jobs: Sequence, initial_keys: Sequence[int]) -> None:
        """Admit ``jobs``, each with a ``seq``, a ``mode`` and a ``block``, in
        order on the cycles the plan admits on, one for each: each job's
        entry takes its block, the initial key of its mode from
        ``initial_keys`` and its tag."""
        if self.fsm != RUN:
            raise AdmissionError(f"admission while controller is in {self.fsm}")
        planned = len(self.admissions)
        if len(jobs) > planned:
            raise AdmissionError("admission attempted on a stalled cycle")
        if len(jobs) < planned:
            raise AdmissionError(f"admission given {len(jobs)} of {planned} planned jobs")
        cycle, plan = self.cycle, self.plan
        for offset, job in zip(self.admissions, jobs):
            slot = (cycle + offset) % NUM_LOOP_STAGES
            tag = job.seq << TAG_BITS | TAG_VALID | slot << 1 | job.mode
            plan[offset][0] = (int.from_bytes(job.block, "big"), initial_keys[job.mode], tag)

    @property
    def occupancy(self) -> int:
        """The occupancy register: bit k set while loop stage k holds a word."""
        return int(bin(self.tags | _RANK_MARK)[3::TAG_BITS], 2)

    def check_against(self, datapath: RoundDatapath) -> None:
        """Reconcile the registers and this cycle's lines with the datapath's
        tags, or raise :class:`ControlFault` naming the first disagreement."""
        phase = self.cycle % NUM_LOOP_STAGES
        dp_tags = datapath.tags
        tags = self.tags
        _, divert, _, main_reset = self.plan[0]
        # Bit 0 of the field of each stage live on either side; times
        # TAG_FIELD, the whole fields.
        live = (dp_tags | tags) >> 5 & FIELD_LSBS
        if (dp_tags ^ tags ^ _EXPECTED_TAGS[phase]) & live * TAG_FIELD or (
            divert and not dp_tags & _VALID2
        ):
            expected = _EXPECTED_SLOTS[phase]
            found = datapath.loop_tags
            if divert and (found[2] is None or found[2].slot != expected[2]):
                raise ControlFault(
                    f"track {expected[2]} expired without its block at the "
                    f"shift-rows register (found {found[2]})"
                )
            for stage, word in enumerate(found):
                if word is not None and word.slot != expected[stage]:
                    raise ControlFault(
                        f"stage {stage} holds slot {word.slot}, "
                        f"phase math requires {expected[stage]}"
                    )
            occupancy = self.occupancy
            valid = sum(1 << stage for stage, word in enumerate(found) if word is not None)
            if valid != occupancy:
                raise ControlFault(f"occupancy register {occupancy:012b} vs datapath {valid:012b}")
            # The slot bits of the controller's rank model no register.
            stray = tags & live * _SLOT_BITS
            if stray:
                stage = ((stray & -stray).bit_length() - 1) // TAG_BITS
                raise ControlFault(
                    f"stage {stage} of the controller's tag rank holds slot bits "
                    f"{tags >> TAG_BITS * stage + 1 & _SLOT_FIELD:04b}, which model no register"
                )
            modes = int(bin(tags | _RANK_MARK)[8::TAG_BITS], 2)
            raise ControlFault(f"mode register {modes:012b} disagrees with datapath tags")
        if (self._arriving1 ^ datapath.ia_out_tag) & TAG_VALID:
            raise ControlFault("initial-stage tracking out of step")
        if main_reset and dp_tags & _VALID10:
            raise ControlFault(f"output reset would scrub live block {datapath.loop_tags[10]}")

    def commit(self) -> None:
        """Commit this cycle and every later one the plan covers, with the
        admissions and diverts the plan holds: a whole pass, each of whose
        planned admissions :meth:`admit` has filled.

        The track chains shift one place a cycle, each admission's bit
        entering its slot's chain at its offset. The occupancy and mode
        registers rotate as many stages, and on each commit an arriving
        word's field takes S0 and a divert clears S3: the arriving
        registers' fields on commits 0 and 1, an admission's on commit o + 2
        and a divert's on its own. A field whose commit falls past the pass
        stays in the arriving registers. The pass's admissions and diverts
        are spent: a later commit without a new plan applies none of them
        again.
        """
        plan = self.plan
        cycles = len(plan)
        track = self.track
        if track:
            track = (track & _TRACK_KEEP[cycles if cycles < TRACK_CYCLES else TRACK_CYCLES]) << cycles
        # The events, (commit offset, clears S3, field entering S0), in
        # commit order; on one commit the field enters S0 before S3 clears.
        events = [(0, 0, self._arriving1), (1, 0, self._arriving0)]
        for offset in self.admissions:
            tag = plan[offset][0][2]
            events.append((offset + 2, 0, tag & (TAG_VALID | 1)))
            age = cycles - 1 - offset
            if age < TRACK_CYCLES:
                track |= _TRACK_ADMIT[tag >> 1 & _SLOT_FIELD] << age
        self.admissions = ()
        self.track = track
        for offset in self._diverts:
            if plan[offset][1]:
                events.append((offset, 1, 0))
        self._diverts = ()
        events.sort()
        # Commit t rotates the rank t + 1 stages from the pass's first, so each
        # event lands on the field that rotates into S0 or S3 by then.
        tags = self.tags
        arriving = [0, 0]
        for offset, clear, field in events:
            if offset >= cycles:
                arriving[offset - cycles] = field
            elif clear:
                tags &= ~(TAG_FIELD << _S3_SHIFTS[offset % NUM_LOOP_STAGES])
            elif field:
                shift = _S0_SHIFTS[offset % NUM_LOOP_STAGES]
                if tags >> shift & TAG_VALID:
                    fault = ControlFault("occupancy wrap collides with admission")
                    fault.offset = offset
                    raise fault
                tags = tags & ~(TAG_FIELD << shift) | field << shift
        tags <<= TAG_BITS * (cycles % NUM_LOOP_STAGES)
        self.tags = (tags | tags >> _RANK_BITS) & _TAGS_MASK
        self._arriving1, self._arriving0 = arriving
        self.cycle += cycles
