"""Controller sequencing: FSM, stalls, tracking, and reset lines."""

import random

import pytest

from cycle_protocol import core_in_run, new_core, step_cycle
from drablocus.controller import FLUSH, KEY_INIT, RESET, RUN, Controller
from drablocus.datapath import NUM_LOOP_STAGES, TAG_BITS, TRACK_CYCLES
from drablocus.fabric import LutShiftRegister
from drablocus.faults import AdmissionError
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT


def drive_to_run():
    """Bring a composed core through reset/key_init/flush into run."""
    return core_in_run(0x000102030405060708090A0B0C0D0E0F)


def test_power_up_sequence_order():
    dp, ctrl, ks = new_core(0)
    states = []
    while ctrl.fsm != RUN:
        if not states or states[-1][0] != ctrl.fsm:
            states.append((ctrl.fsm, ctrl.cycle))
        step_cycle(dp, ctrl, ks)
        if ctrl.cycle > 400:
            raise AssertionError("never reached run")
    states.append((RUN, ctrl.cycle))
    names = [s[0] for s in states]
    assert names == [RESET, KEY_INIT, FLUSH, RUN]
    flush_start = states[2][1]
    run_start = states[3][1]
    assert run_start - flush_start == TRACK_CYCLES


def test_empty_pipeline_admits_immediately():
    dp, ctrl, ks = drive_to_run()
    assert ctrl.admit_ready
    tag = step_cycle(dp, ctrl, ks, job=(0, MODE_ENCRYPT, 0x1234))
    assert tag is not None and tag.slot == (ctrl.cycle - 1) % 12


def test_admission_rejected_outside_run():
    # Outside a run no cycle is named: only PipelineSimulator.run sets it.
    ctrl = Controller()
    with pytest.raises(AdmissionError, match="^admission while controller is in reset$") as err:
        ctrl.admit(0, MODE_ENCRYPT)
    assert err.value.cycle is None


def test_stall_exactly_when_stage9_occupied():
    dp, ctrl, ks = drive_to_run()
    t0 = ctrl.cycle
    tag = step_cycle(dp, ctrl, ks, job=(0, MODE_ENCRYPT, 0xAB))
    assert tag is not None
    # The block occupies stage 9 during t0 + 12(m+1): admission must stall
    # on exactly those cycles for nine traversals.
    stalled_cycles = []

    def record(divert):
        if not ctrl.admit_ready:
            stalled_cycles.append(ctrl.cycle)

    for _ in range(130):
        step_cycle(dp, ctrl, ks, mid_cycle=record)
    assert stalled_cycles == [t0 + 12 * (m + 1) for m in range(9)]


def test_track_final_bit_marks_final_arrival():
    dp, ctrl, ks = drive_to_run()
    t0 = ctrl.cycle
    tag = step_cycle(dp, ctrl, ks, job=(0, MODE_DECRYPT, 0xCD))
    diverted_at = None

    def record(divert):
        nonlocal diverted_at
        if divert:
            diverted_at = ctrl.cycle

    for _ in range(TRACK_CYCLES + 4):
        step_cycle(dp, ctrl, ks, mid_cycle=record)
    assert diverted_at == t0 + TRACK_CYCLES
    assert dp.loop_tags.count(tag) == 0


def test_thirteenth_block_stalls_until_slot_frees():
    key = bytes(range(16))
    rng = random.Random(51)
    jobs = [
        Job(i, MODE_ENCRYPT, bytes(rng.randrange(256) for _ in range(16)))
        for i in range(13)
    ]
    result = PipelineSimulator().run(key, jobs)
    s = result.summary
    admissions = sorted(s.admission_cycles.values())
    # First batch goes back to back; the 13th waits for the first slot's
    # next admission window, 120 cycles after the slot's previous owner.
    assert admissions[11] - admissions[0] == 11
    assert admissions[12] - admissions[0] == 120
    assert s.max_loop_occupancy == 12


def test_requirement5_reset_never_hits_valid_data():
    # Saturating traffic: the main key-add reset fires on every admission;
    # the run completing bit-exact (checked elsewhere) plus this assertion
    # shows the reset only ever scrubbed stale contents.
    key = bytes(range(16))
    dp, ctrl, ks = drive_to_run()
    rng = random.Random(52)
    sent = 0

    def scrubs_only_stale_contents(divert):
        if ctrl.main_reset:
            assert dp.loop_tags[10] is None

    for _ in range(400):
        job = (sent, rng.getrandbits(1), rng.getrandbits(128)) if sent < 30 else None
        if step_cycle(dp, ctrl, ks, job=job, mid_cycle=scrubs_only_stale_contents) is not None:
            sent += 1


def test_mode_register_tracks_word_modes():
    dp, ctrl, ks = drive_to_run()
    rng = random.Random(53)
    for i in range(40):
        job = (i, rng.getrandbits(1), rng.getrandbits(128)) if i < 12 else None
        step_cycle(dp, ctrl, ks, job=job)
        for k, tag in enumerate(dp.loop_tags):
            if tag is not None:
                assert ctrl.tags >> TAG_BITS * k & 1 == tag.mode


def test_packed_track_rank_matches_lut_chains(monkeypatch):
    # Specification of Controller.track: twelve fabric chains, one per slot,
    # stepped on the controller's commits and fed by its admissions.
    chains = [LutShiftRegister(TRACK_CYCLES) for _ in range(NUM_LOOP_STAGES)]
    field = (1 << TRACK_CYCLES) - 1
    occupancies = []
    admit, check_against, commit = Controller.admit, Controller.check_against, Controller.commit

    def admit_into_chain(self, seq, mode):
        tag = admit(self, seq, mode)
        chains[tag.slot].present(1)
        return tag

    def counted_check(self, datapath):
        occ = check_against(self, datapath)
        live = NUM_LOOP_STAGES - datapath.loop_tags.count(None)
        assert occ.bit_count() == live, f"cycle {self.cycle}"
        occupancies.append(live)
        return occ

    def lockstep_commit(self):
        commit(self)
        for slot, chain in enumerate(chains):
            chain.commit()
            bits = self.track >> TRACK_CYCLES * slot & field
            assert chain.final == bits >> TRACK_CYCLES - 1, f"cycle {self.cycle} slot {slot}"
            assert chain.any_set == (bits != 0), f"cycle {self.cycle} slot {slot}"

    monkeypatch.setattr(Controller, "admit", admit_into_chain)
    monkeypatch.setattr(Controller, "check_against", counted_check)
    monkeypatch.setattr(Controller, "commit", lockstep_commit)
    rng = random.Random(0x7AC)
    jobs = [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)),
            bytes(rng.randrange(256) for _ in range(16)))
        for i in range(100)
    ]
    result = PipelineSimulator().run(bytes(range(16)), jobs)
    assert result.summary.blocks_completed == 100
    # The chains are all clear over the flush cycles the run skips, so
    # skipping their commits leaves them as stepping would.
    assert result.summary.skipped_cycles > 0
    assert len(occupancies) + result.summary.skipped_cycles == result.summary.total_cycles
    assert max(occupancies) == NUM_LOOP_STAGES
