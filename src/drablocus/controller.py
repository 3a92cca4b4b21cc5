"""Control FSM and tracking registers for the round datapath.

The controller enforces the dataflow rules the OR-multiplexed datapath
depends on:

1. every block is tracked from admission until it must divert into the
   final key-add instance (one 113-bit LUT shift register per pipeline
   slot, held as an int; only the final bit is read);
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
against this every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datapath import NUM_LOOP_STAGES, TRACK_CYCLES, RoundDatapath, Word
from .fabric import SimulationFault

RESET = "reset"
KEY_INIT = "key_init"
FLUSH = "flush"
RUN = "run"

# Data committed into loop stage 0 trails the admission commit by the two
# initial key-add ranks; a word occupies stage k in cycles where
# (cycle - STAGE_PHASE_OFFSET - k) mod 12 equals its slot.
STAGE_PHASE_OFFSET = 3

_OCC_MASK = (1 << NUM_LOOP_STAGES) - 1
_TRACK_MASK = (1 << TRACK_CYCLES) - 1
_TRACK_FINAL = TRACK_CYCLES - 1


class ControlFault(SimulationFault):
    """The controller's registers disagree with the datapath's tags."""


class AdmissionError(SimulationFault):
    """Admission attempted outside the run state."""


@dataclass(frozen=True)
class ControlSignals:
    initial_reset: bool
    main_reset: bool
    shift_rows_reset: bool
    final_reset: bool
    divert: bool


@dataclass(frozen=True)
class ControllerStatus:
    cycle: int
    fsm: str
    occupancy: int
    stalled: bool


class Controller:
    def __init__(self):
        self.fsm = RESET
        self.cycle = 0
        # One LUT shift-register chain per slot, newest bit lowest. Like the
        # fabric chains, it is read only at its final bit, plus the
        # model-level any-set inspection.
        self.track = [0] * NUM_LOOP_STAGES
        self.occupancy = 0
        self.modes = 0
        # Mirrors the two initial key-add ranks: tags en route to stage 0.
        self._arriving: list[Word | None] = [None, None]
        self._admitted_now: Word | None = None
        self._admitted_prev = False
        self._flush_count = 0
        self._divert = False

    # FSM sequencing, evaluated from registered conditions at the top of
    # each cycle.
    def begin_cycle(self, key_schedule_ready: bool) -> None:
        if self.fsm == RESET:
            if self.cycle > 0:
                self.fsm = KEY_INIT
        elif self.fsm == KEY_INIT and key_schedule_ready:
            self.fsm = FLUSH
            self._flush_count = 0
        elif self.fsm == FLUSH and self._flush_count >= TRACK_CYCLES:
            self.fsm = RUN

    def admission_allowed(self) -> bool:
        if self.fsm != RUN:
            return False
        stage9_busy = bool(self.occupancy >> 9 & 1)
        slot_free = not self.track[self.cycle % NUM_LOOP_STAGES]
        if stage9_busy == slot_free:
            # The two views are equivalent by the phase math; disagreement
            # means a tracking register slipped.
            raise ControlFault(
                f"cycle {self.cycle}: stage-9 occupancy and slot tracking disagree"
            )
        return not stage9_busy

    def admit(self, seq: int, mode: int) -> Word:
        if self.fsm != RUN:
            raise AdmissionError(f"admission while controller is in {self.fsm}")
        if not self.admission_allowed():
            raise AdmissionError("admission attempted on a stalled cycle")
        slot = self.cycle % NUM_LOOP_STAGES
        tag = Word(seq=seq, mode=mode, slot=slot)
        self._admitted_now = tag
        return tag

    def divert_decision(self, datapath: RoundDatapath) -> bool:
        slot = (self.cycle - STAGE_PHASE_OFFSET - 2) % NUM_LOOP_STAGES
        divert = self.fsm == RUN and self.track[slot] >> _TRACK_FINAL == 1
        tag = datapath.loop_tags[2]
        if divert:
            if tag is None or tag.slot != slot:
                raise ControlFault(
                    f"cycle {self.cycle}: track {slot} expired without its block at "
                    f"the shift-rows register (found {tag})"
                )
        self._divert = divert
        return divert

    def signals(self) -> ControlSignals:
        holding = self.fsm in (RESET, KEY_INIT)
        return ControlSignals(
            initial_reset=not self._admitted_prev,
            main_reset=self._admitted_prev or self.fsm != RUN,
            shift_rows_reset=holding,
            final_reset=holding,
            divert=self._divert,
        )

    def status(self, stalled: bool = False) -> ControllerStatus:
        return ControllerStatus(
            cycle=self.cycle, fsm=self.fsm, occupancy=self.occupancy, stalled=stalled
        )

    def check_against(self, datapath: RoundDatapath) -> None:
        """Reconcile the tracking registers with the datapath's tag pipeline."""
        occ = 0
        modes = 0
        for k, tag in enumerate(datapath.loop_tags):
            if tag is None:
                continue
            occ |= 1 << k
            modes |= (tag.mode & 1) << k
            expected_slot = (self.cycle - STAGE_PHASE_OFFSET - k) % NUM_LOOP_STAGES
            if tag.slot != expected_slot:
                raise ControlFault(
                    f"cycle {self.cycle}: stage {k} holds slot {tag.slot}, "
                    f"phase math requires {expected_slot}"
                )
        if occ != self.occupancy:
            raise ControlFault(
                f"cycle {self.cycle}: occupancy register {self.occupancy:012b} "
                f"vs datapath {occ:012b}"
            )
        if modes != self.modes & occ:
            raise ControlFault(
                f"cycle {self.cycle}: mode register {self.modes:012b} disagrees "
                f"with datapath tags"
            )
        arriving = self._arriving[1]
        dp_arriving = datapath.initial_tags[1]
        if (arriving is None) != (dp_arriving is None):
            raise ControlFault(f"cycle {self.cycle}: initial-stage tracking out of step")

    def commit(self) -> None:
        # Track registers shift every cycle; the admitted slot's register
        # takes the tracking bit at the admission commit itself.
        self.track = [(chain << 1) & _TRACK_MASK for chain in self.track]
        if self._admitted_now is not None:
            self.track[self._admitted_now.slot] |= 1

        entering = self._arriving[1]
        wrap_occ = self.occupancy >> (NUM_LOOP_STAGES - 1) & 1
        wrap_mode = self.modes >> (NUM_LOOP_STAGES - 1) & 1
        if entering is not None:
            if wrap_occ:
                raise ControlFault(
                    f"cycle {self.cycle}: occupancy wrap collides with admission"
                )
            bit0_occ, bit0_mode = 1, entering.mode & 1
        else:
            bit0_occ, bit0_mode = wrap_occ, wrap_mode
        occ = ((self.occupancy << 1) & _OCC_MASK) | bit0_occ
        modes = ((self.modes << 1) & _OCC_MASK) | bit0_mode
        if self._divert:
            occ &= ~(1 << 3)
            modes &= ~(1 << 3)
        self.occupancy = occ
        self.modes = modes

        self._arriving = [self._admitted_now, self._arriving[0]]
        self._admitted_prev = self._admitted_now is not None
        self._admitted_now = None
        self._divert = False
        if self.fsm == FLUSH:
            self._flush_count += 1
        self.cycle += 1
