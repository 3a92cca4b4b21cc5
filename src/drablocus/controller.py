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
Both sides hold their per-stage state as packed ranks, so on a passing
cycle the check is two int compares. The first XORs the datapath's tag
rank with the ``slot << 1`` fields the phase math requires and with the
mode register spread to bit 0 of each field, masked to the live stages'
fields: it is zero when every live word has its slot and its mode. The
second is the occupancy register against the datapath's valid rank.
Only a failed compare walks the stages, to name the one at fault.
"""

from __future__ import annotations

from .datapath import (
    _STAGE2, _STAGES_MASK, _WRAP_SHIFT, NUM_LOOP_STAGES, TAG_BITS, TAG_FIELD, TRACK_CYCLES,
    RoundDatapath, Word,
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

_STAGE9 = 1 << 9
_DIVERT_STAGE = 1 << 3
_TRACK_FINAL = TRACK_CYCLES - 1

# Track rank: per slot, its admission bit (bit 0 of its field), its whole
# field and its final bit. A commit shifts every field by one; the mask
# drops each chain's carry-out into the next field and clears bit 0.
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

# The same as a tag rank's slot bits (field k, bits 5k+1..5k+4, for loop
# stage k).
_EXPECTED_TAGS = tuple(
    sum(slot << 1 << TAG_BITS * k for k, slot in enumerate(expected))
    for expected in _EXPECTED_SLOTS
)


def _spread(field: int) -> tuple[int, ...]:
    """Per 12-bit stage mask, ``field`` at the tag-rank field of each stage set."""
    masks = [0]
    for k in range(NUM_LOOP_STAGES):
        masks += [mask | field << TAG_BITS * k for mask in masks]
    return tuple(masks)


# Per valid rank, its live stages' whole fields; per mode register, its
# bits at bit 0 of each field.
_LIVE_FIELDS = _spread(TAG_FIELD)
_MODE_BITS = _spread(1)
# Every field's slot bits, and stage 2's.
_SLOT_MASK = _LIVE_FIELDS[_STAGES_MASK] ^ _MODE_BITS[_STAGES_MASK]
_STAGE2_SLOT = (TAG_FIELD ^ 1) << 2 * TAG_BITS
_STAGE10 = 1 << 10
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
        self.occupancy = 0
        self.modes = 0
        # Control lines for this cycle, set by begin_cycle.
        self.initial_reset = True
        self.main_reset = True
        self.shift_rows_reset = True
        self.final_reset = True
        self.divert = False
        self.admit_ready = False
        # Mirrors the two initial key-add ranks: tags en route to stage 0.
        self._arriving0: Word | None = None
        self._arriving1: Word | None = None
        self._admitted_now: Word | None = None
        self._flush_count = 0

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
                self._flush_count = 0
            elif fsm == FLUSH and self._flush_count >= TRACK_CYCLES:
                fsm = RUN
            self.fsm = fsm
            # The hold lines follow the FSM alone, which never leaves run.
            self.shift_rows_reset = self.final_reset = fsm == RESET or fsm == KEY_INIT
        admitted = self._arriving0 is not None
        self.initial_reset = not admitted
        self.main_reset = admitted or fsm != RUN
        if fsm != RUN:
            self.divert = self.admit_ready = False
            return
        phase = self.cycle % NUM_LOOP_STAGES
        track = self.track
        stage9_busy = bool(self.occupancy & _STAGE9)
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
        tag = Word(seq=seq, mode=mode, slot=self.cycle % NUM_LOOP_STAGES)
        self._admitted_now = tag
        return tag

    def check_against(self, datapath: RoundDatapath) -> int:
        """Reconcile the registers and this cycle's lines with the datapath's tags.

        Returns the datapath's occupancy, one bit per live loop stage.
        """
        phase = self.cycle % NUM_LOOP_STAGES
        valid = datapath.valid
        # Tag bits that differ from the phase math's slots and the mode
        # register, live stages or not.
        slipped = datapath.tags ^ _EXPECTED_TAGS[phase] ^ _MODE_BITS[self.modes]
        if self.divert and (not valid & _STAGE2 or slipped & _STAGE2_SLOT):
            raise ControlFault(
                f"track {_EXPECTED_SLOTS[phase][2]} expired without its "
                f"block at the shift-rows register (found {datapath.loop_tags[2]})"
            )
        slipped &= _LIVE_FIELDS[valid]
        wrong_slots = slipped & _SLOT_MASK
        if wrong_slots:
            stage = ((wrong_slots & -wrong_slots).bit_length() - 1) // TAG_BITS
            raise ControlFault(
                f"stage {stage} holds slot {datapath.loop_tags[stage].slot}, "
                f"phase math requires {_EXPECTED_SLOTS[phase][stage]}"
            )
        if valid != self.occupancy:
            raise ControlFault(f"occupancy register {self.occupancy:012b} vs datapath {valid:012b}")
        if slipped:
            raise ControlFault(f"mode register {self.modes:012b} disagrees with datapath tags")
        if (self._arriving1 is None) != (datapath.ia_out_tag is None):
            raise ControlFault("initial-stage tracking out of step")
        if self.main_reset and valid & _STAGE10:
            raise ControlFault(f"output reset would scrub live block {datapath.loop_tags[10]}")
        return valid

    def at_fixed_point(self) -> bool:
        """Whether the commit changes no register but the cycle and flush
        counters: no tracking bit is set and no word is in the loop or on
        its way there."""
        return (
            not (self.track or self.occupancy or self.modes)
            and self._arriving0 is None
            and self._arriving1 is None
        )

    def skip_flush(self) -> int:
        """Advance the cycle and flush counters to the transition into run,
        as the flush cycles left would from a fixed point; returns how many
        cycles that skips."""
        span = TRACK_CYCLES - self._flush_count
        self.cycle += span
        self._flush_count = TRACK_CYCLES
        return span

    def commit(self) -> None:
        # Track registers shift every cycle; the admitted slot's register
        # takes the tracking bit at the admission commit itself.
        admitted = self._admitted_now
        track = (self.track << 1) & _TRACK_SHIFT_MASK
        if admitted is not None:
            track |= _TRACK_ADMIT[admitted.slot]
        self.track = track

        entering = self._arriving1
        occ = self.occupancy
        modes = self.modes
        wrap_occ = occ >> _WRAP_SHIFT & 1
        if entering is not None:
            if wrap_occ:
                raise ControlFault("occupancy wrap collides with admission")
            bit0_occ, bit0_mode = 1, entering.mode & 1
        else:
            bit0_occ, bit0_mode = wrap_occ, modes >> _WRAP_SHIFT & 1
        occ = ((occ << 1) & _STAGES_MASK) | bit0_occ
        modes = ((modes << 1) & _STAGES_MASK) | bit0_mode
        if self.divert:
            occ &= ~_DIVERT_STAGE
            modes &= ~_DIVERT_STAGE
        self.occupancy = occ
        self.modes = modes

        self._arriving1 = self._arriving0
        self._arriving0 = admitted
        self._admitted_now = None
        if self.fsm == FLUSH:
            self._flush_count += 1
        self.cycle += 1
