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

Each cycle has one shape. :meth:`Controller.begin_cycle` decides every
control line from registered state alone (the FSM, the cycle, the track
rank and the occupancy register) and sets it as a plain attribute: the
four reset lines, ``divert`` into the final key-add and ``admit_ready``.
:meth:`Controller.check_against` is the one reconciliation of those
registers and lines with the datapath's tags, made once the datapath has
computed the cycle, and :meth:`Controller.commit` shifts the registers.
Between admissions and diverts the registers only rotate, so one commit
covers the computed cycle and any number of such cycles after it:
:meth:`Controller.event_free_cycles` counts them ahead from registered
state. Each pass of a run commits the controller once, over one cycle,
a window of event-free cycles, or a fixed-point flush cycle and the
flush cycles left after it, up to ``Controller.flush_end``; no other
method shifts the registers or moves the cycle.

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

from .datapath import (
    _CLEAR_TAG3, _SLOT_FIELD, _TAGS_MASK, _VALID2, FIELD_LSBS, NUM_LOOP_STAGES,
    TAG_BITS, TAG_FIELD, TAG_VALID, TRACK_CYCLES, RoundDatapath, Word,
)
from .faults import AdmissionError, ControlFault

RESET = "reset"
KEY_INIT = "key_init"
FLUSH = "flush"
RUN = "run"

# Data committed into loop stage 0 trails the admission commit by the two
# initial key-add ranks; a word occupies stage k in cycles where
# (cycle - STAGE_PHASE_OFFSET - k) mod 12 equals its slot.
STAGE_PHASE_OFFSET = 3

_VALID9 = TAG_VALID << 9 * TAG_BITS
_VALID10 = TAG_VALID << 10 * TAG_BITS
# The slot bits of a stage's field.
_SLOT_BITS = _SLOT_FIELD << 1
_TRACK_FINAL = TRACK_CYCLES - 1

# Track rank: per slot, its admission bit (bit 0 of its field), its whole
# field and its final bit. A commit shifts every field by the cycles it
# covers; the mask drops each chain's carry-out into the next field, which
# only a one-cycle commit can have, and clears bit 0.
_TRACK_ADMIT = tuple(1 << TRACK_CYCLES * s for s in range(NUM_LOOP_STAGES))
_TRACK_FIELDS = tuple(((1 << TRACK_CYCLES) - 1) << TRACK_CYCLES * s for s in range(NUM_LOOP_STAGES))
_TRACK_FINALS = tuple(bit << _TRACK_FINAL for bit in _TRACK_ADMIT)
_TRACK_SHIFT_MASK = sum(_TRACK_FIELDS) ^ sum(_TRACK_ADMIT)

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
# The loop stages in the order the rotation brings them to stage 9.
_STAGE9_FIRST = tuple((9 - k) % NUM_LOOP_STAGES for k in range(NUM_LOOP_STAGES))
_RANK_BITS = TAG_BITS * NUM_LOOP_STAGES
# Set above a tag rank's top field, so bin() keeps the leading fields'
# zeros: bin(tags | _RANK_MARK)[3::6] is the rank's valid bits and [8::6]
# its mode bits, stage 11 first.
_RANK_MARK = 1 << _RANK_BITS
# Per cycle phase: the final bit of the chain whose block the phase math
# puts at the shift-rows register (loop stage 2), the divert point.
_DIVERT_FINALS = tuple(_TRACK_FINALS[expected[2]] for expected in _EXPECTED_SLOTS)


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
        # Control lines for this cycle, set by begin_cycle.
        self.initial_reset = True
        self.main_reset = True
        self.shift_rows_reset = True
        self.final_reset = True
        self.divert = False
        self.admit_ready = False
        # Mirrors the two initial key-add ranks: the field each word en route
        # to stage 0 will take there, ``TAG_VALID | mode``, or 0 for none.
        self._arriving0 = 0
        self._arriving1 = 0
        self._admitted_now = 0
        # The cycle the flush ends on, set on the change into flush.
        self.flush_end = 0

    # FSM sequencing and every control line, evaluated from registered
    # conditions at the top of each cycle.
    def begin_cycle(self, key_schedule_ready: bool) -> None:
        fsm = self.fsm
        if fsm != RUN:
            if fsm == RESET:
                if self.cycle > 0:
                    fsm = KEY_INIT
            elif fsm == KEY_INIT and key_schedule_ready:
                fsm = FLUSH
                self.flush_end = self.cycle + TRACK_CYCLES
            elif fsm == FLUSH and self.cycle >= self.flush_end:
                fsm = RUN
            self.fsm = fsm
            # The hold lines follow the FSM alone, which never leaves run.
            self.shift_rows_reset = self.final_reset = fsm == RESET or fsm == KEY_INIT
        admitted = self._arriving0 != 0
        self.initial_reset = not admitted
        self.main_reset = admitted or fsm != RUN
        if fsm != RUN:
            self.divert = self.admit_ready = False
            return
        phase = self.cycle % NUM_LOOP_STAGES
        track = self.track
        stage9_busy = bool(self.tags & _VALID9)
        if stage9_busy == (not track & _TRACK_FIELDS[phase]):
            # The two views are equivalent by the phase math; disagreement
            # means a tracking register slipped.
            raise ControlFault("stage-9 occupancy and slot tracking disagree")
        self.admit_ready = not stage9_busy
        self.divert = bool(track & _DIVERT_FINALS[phase])

    def admit(self, seq: int, mode: int) -> Word:
        if self.fsm != RUN:
            raise AdmissionError(f"admission while controller is in {self.fsm}")
        if not self.admit_ready:
            raise AdmissionError("admission attempted on a stalled cycle")
        self._admitted_now = TAG_VALID | mode & 1
        return Word(seq=seq, mode=mode, slot=self.cycle % NUM_LOOP_STAGES)

    @property
    def occupancy(self) -> int:
        """The occupancy register: bit k set while loop stage k holds a word."""
        return int(bin(self.tags | _RANK_MARK)[3::TAG_BITS], 2)

    def check_against(self, datapath: RoundDatapath) -> int:
        """Reconcile the registers and this cycle's lines with the datapath's tags.

        Returns the live stages, bit 6k for loop stage k.
        """
        phase = self.cycle % NUM_LOOP_STAGES
        dp_tags = datapath.tags
        tags = self.tags
        # Bit 0 of the field of each stage live on either side; times
        # TAG_FIELD, the whole fields.
        live = (dp_tags | tags) >> 5 & FIELD_LSBS
        if (dp_tags ^ tags ^ _EXPECTED_TAGS[phase]) & live * TAG_FIELD or (
            self.divert and not dp_tags & _VALID2
        ):
            expected = _EXPECTED_SLOTS[phase]
            found = datapath.loop_tags
            if self.divert and (found[2] is None or found[2].slot != expected[2]):
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
        if (not self._arriving1) != (datapath.ia_out_tag is None):
            raise ControlFault("initial-stage tracking out of step")
        if self.main_reset and dp_tags & _VALID10:
            raise ControlFault(f"output reset would scrub live block {datapath.loop_tags[10]}")
        return live

    def at_fixed_point(self) -> bool:
        """Whether the commit changes no register but the cycle: no tracking
        bit is set and no word is in the loop or on its way there."""
        return not (self.track or self.tags or self._arriving0 or self._arriving1)

    def event_free_cycles(self, pending: bool, limit: int) -> int:
        """From registered state: how many cycles, this one first and at
        most ``limit``, pass in run with no admission, no divert and no word
        on the initial key-add ranks.

        A divert waits for a track chain to reach its final bit, so the
        chain with the highest set bit bounds the count. While jobs are
        pending, an admission waits for the rotating occupancy register to
        bring an empty field to stage 9.
        """
        if self.fsm != RUN or self._arriving0 or self._arriving1:
            return 0
        track = self.track
        if track:
            # The twelve chains ORed into one field: its top bit is the highest.
            chains = 0
            for slot in range(NUM_LOOP_STAGES):
                chains |= track >> TRACK_CYCLES * slot
            limit = min(limit, TRACK_CYCLES - (chains & _TRACK_FIELDS[0]).bit_length())
        if pending:
            tags = self.tags
            for occupied, stage in enumerate(_STAGE9_FIRST):
                if not tags >> TAG_BITS * stage & TAG_VALID:
                    return min(limit, occupied)
        return limit

    def commit(self, cycles: int = 1) -> None:
        """Commit this cycle and the ``cycles - 1`` after it, which must admit
        and divert nothing, hold no word on the initial key-add ranks and
        shift no track bit past its chain's final bit: over them the track
        chains only shift and the occupancy and mode registers only rotate."""
        # Track registers shift every cycle; the admitted slot's register
        # takes the tracking bit at the admission commit itself.
        admitted = self._admitted_now
        track = (self.track << cycles) & _TRACK_SHIFT_MASK
        if admitted:
            track |= _TRACK_ADMIT[self.cycle % NUM_LOOP_STAGES]
        self.track = track

        # The occupancy and mode registers rotate as many stages; the arriving
        # word's field takes S0 in place of the one that wraps there.
        tags = self.tags << TAG_BITS * (cycles % NUM_LOOP_STAGES)
        tags = (tags | tags >> _RANK_BITS) & _TAGS_MASK
        entering = self._arriving1
        if entering:
            if tags & TAG_VALID:
                raise ControlFault("occupancy wrap collides with admission")
            tags = tags >> TAG_BITS << TAG_BITS | entering
        if self.divert:
            tags &= _CLEAR_TAG3
        self.tags = tags

        self._arriving1 = self._arriving0
        self._arriving0 = admitted
        self._admitted_now = 0
        self.cycle += cycles
