"""Modelled faults: each check the per-cycle step makes is shown to fire.

Every fault type derives from :class:`SimulationFault`. The datapath
faults are raised by driving the flat :class:`RoundDatapath` and the
composition of the unit classes with the same inputs; both must fail
the same way. The controller faults come from single upsets of its
registers or control lines in the middle of a simulator run, made after
:meth:`Controller.begin_cycle` has decided the cycle.
"""

import random

import pytest

from composed_datapath import ComposedDatapath
from cycle_protocol import core_in_run, step_cycle
from drablocus.controller import RUN, AdmissionError, ControlFault, Controller
from drablocus.datapath import (
    NUM_LOOP_STAGES,
    TRACK_CYCLES,
    CollisionError,
    ProtocolError,
    RoundDatapath,
    Word,
)
from drablocus.fabric import SimulationFault
from drablocus.keyschedule import READY, KeyStoreFault
from drablocus.simulator import Job, PipelineSimulator, TimingFault
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT, build_mixcolumns_image, build_sbox_image

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def mixed_jobs(n, seed=7):
    rng = random.Random(seed)
    return [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)),
            bytes(rng.randrange(256) for _ in range(16)))
        for i in range(n)
    ]


def drive_both(schedule, fault):
    """Step both datapaths through ``schedule``; both must raise ``fault``, with one message."""
    messages = []
    for dp in (ComposedDatapath(), RoundDatapath()):
        with pytest.raises(fault) as err:
            for kwargs in schedule:
                dp.compute_cycle(**kwargs)
                dp.commit_cycle()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[1]


@pytest.mark.parametrize(
    "fault",
    [ProtocolError, CollisionError, ControlFault, AdmissionError, TimingFault, KeyStoreFault],
)
def test_every_modelled_fault_is_a_simulation_fault(fault):
    assert issubclass(fault, SimulationFault)


def test_substitution_mux_with_two_sources_raises_protocol_error():
    # The admitted block leaves the initial key-add on cycle 2, when the
    # key schedule also drives the substitution input.
    tag = Word(seq=0, mode=MODE_ENCRYPT, slot=0)
    schedule = [
        {"admit": (0xAB, 0, tag)},
        {"initial_reset": False},
        {"ks_sub_bytes": (0xCD, MODE_ENCRYPT)},
    ]
    message = drive_both(schedule, ProtocolError)
    assert message == (
        "OR-mux driven by multiple nonzero sources: "
        "0x00000000000000000000000000000000, "
        "0x000000000000000000000000000000ab, "
        "0x000000000000000000000000000000cd"
    )


def test_product_mux_with_two_sources_raises_protocol_error():
    # Out of reset the shift-rows register holds the substitution of zero,
    # so an injected key on the product path collides with it.
    schedule = [{}, {}, {}, {"ks_mix_columns": (0x1, MODE_DECRYPT)}]
    message = drive_both(schedule, ProtocolError)
    assert message == (
        "OR-mux driven by multiple nonzero sources: "
        f"{int.from_bytes(bytes([0x63] * 16), 'big'):#034x}, "
        "0x00000000000000000000000000000001"
    )


def test_word_arriving_at_s0_as_another_wraps_raises_collision_error():
    # The first word wraps from S11 into S0 at the end of cycle 14; the
    # second, admitted at cycle 12 with zero data and key, arrives then.
    first = Word(seq=0, mode=MODE_ENCRYPT, slot=0)
    second = Word(seq=1, mode=MODE_ENCRYPT, slot=0)
    schedule = []
    for cycle in range(15):
        admit = {0: (0x1234, 0, first), 12: (0, 0, second)}.get(cycle)
        schedule.append({"admit": admit, "initial_reset": cycle not in (1, 13)})
    message = drive_both(schedule, CollisionError)
    assert message == f"stage S0 claimed by arriving {second} and recirculating {first}"


FULL_LOOP = (1 << NUM_LOOP_STAGES) - 1


def loop_full(ctrl):
    return ctrl.occupancy == FULL_LOOP


def run_with_upset(monkeypatch, upset, jobs, when=lambda ctrl: True):
    """Run ``jobs`` and apply ``upset(controller)`` once the cycle is decided,
    on the first run cycle for which ``when(controller)`` holds."""
    original = Controller.begin_cycle
    state = {"done": False}

    def begin_cycle(self, key_schedule_ready):
        original(self, key_schedule_ready)
        if self.fsm == RUN and not state["done"] and when(self):
            state["done"] = True
            upset(self)

    monkeypatch.setattr(Controller, "begin_cycle", begin_cycle)
    return PipelineSimulator().run(FIPS_KEY, jobs)


def test_unupset_run_completes(monkeypatch):
    result = run_with_upset(monkeypatch, lambda ctrl: None, mixed_jobs(13))
    assert result.summary.blocks_completed == 13


def test_flipped_track_bit_in_a_free_slot_raises_control_fault(monkeypatch):
    # The next cycle's slot now looks taken while stage 9 is free.
    def upset(ctrl):
        ctrl.track ^= 1 << TRACK_CYCLES * ((ctrl.cycle + 1) % 12)

    with pytest.raises(ControlFault, match="stage-9 occupancy and slot tracking disagree"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13))


def test_flipped_track_final_bit_raises_control_fault(monkeypatch):
    # The chain read for the next cycle's divert reaches its final bit at
    # the next commit and expires with no block at S2.
    def upset(ctrl):
        ctrl.track ^= 1 << TRACK_CYCLES * ((ctrl.cycle - 4) % 12) + TRACK_CYCLES - 2

    with pytest.raises(ControlFault, match="expired without its block"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13))


def test_flipped_occupancy_bit_raises_control_fault(monkeypatch):
    def upset(ctrl):
        ctrl.occupancy ^= 1 << 5

    with pytest.raises(ControlFault, match="occupancy register"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13))


def test_flipped_mode_bit_raises_control_fault(monkeypatch):
    def upset(ctrl):
        ctrl.modes ^= 1 << 5

    with pytest.raises(ControlFault, match="mode register [01]{12} disagrees with datapath tags"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13), when=loop_full)


def test_slipped_phase_counter_raises_control_fault(monkeypatch):
    # Every live stage now holds the slot of the previous phase.
    def upset(ctrl):
        ctrl.cycle += 1

    with pytest.raises(ControlFault, match=r"stage 0 holds slot \d+, phase math requires \d+"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13), when=loop_full)


def test_phantom_arrival_raises_control_fault(monkeypatch):
    # The initial key-add tracking claims a block the datapath does not hold.
    def upset(ctrl):
        ctrl._arriving1 = Word(seq=99, mode=MODE_ENCRYPT, slot=0)

    with pytest.raises(ControlFault, match="initial-stage tracking out of step"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13), when=loop_full)


def test_output_reset_on_a_live_block_raises_control_fault(monkeypatch):
    def upset(ctrl):
        ctrl.main_reset = True

    with pytest.raises(ControlFault, match="output reset would scrub live block"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13), when=loop_full)


def test_dropped_divert_raises_key_store_fault(monkeypatch):
    # The first block due to divert stays in the loop; the controller's
    # occupancy follows the same dropped line, so no check of it fires.
    # Five cycles on the block reaches stage 7 and asks for a tenth
    # main-loop key.
    def upset(ctrl):
        assert ctrl.cycle == 274
        ctrl.divert = False

    with pytest.raises(KeyStoreFault) as err:
        run_with_upset(monkeypatch, upset, mixed_jobs(13), when=lambda ctrl: ctrl.divert)
    assert str(err.value) == "cycle 279: slot 5 requested main-loop key for round 10"


def test_admission_on_a_stalled_cycle_raises_admission_error():
    # Twelve cycles after its admission the first block is in stage 9, so
    # the controller stalls that cycle; a caller admitting anyway is refused.
    dp, ctrl, ks = core_in_run(int.from_bytes(FIPS_KEY, "big"))
    step_cycle(dp, ctrl, ks, job=(0, MODE_ENCRYPT, 0xAB))
    for _ in range(11):
        step_cycle(dp, ctrl, ks)
    ctrl.begin_cycle(ks.fsm == READY)
    assert not ctrl.admit_ready
    with pytest.raises(
        AdmissionError, match=f"^cycle {ctrl.cycle}: admission attempted on a stalled cycle$"
    ):
        ctrl.admit(1, MODE_ENCRYPT)


def test_wedged_pipeline_raises_timing_fault(monkeypatch):
    original = Controller.begin_cycle

    def begin_cycle(self, key_schedule_ready):
        original(self, key_schedule_ready)
        self.admit_ready = False

    monkeypatch.setattr(Controller, "begin_cycle", begin_cycle)
    with pytest.raises(TimingFault, match="pipeline wedged"):
        PipelineSimulator().run(FIPS_KEY, mixed_jobs(1))


@pytest.mark.parametrize(
    "image_arg, broken, match",
    [
        ("sbox_image", build_sbox_image()[:511], "511 entries"),
        ("sbox_image", build_sbox_image()[:7] + [0x100] + build_sbox_image()[8:], "exceeds"),
        ("mc_image", build_mixcolumns_image()[:511], "511 entries"),
        ("mc_image", [1 << 32] + build_mixcolumns_image()[1:], "exceeds"),
    ],
)
def test_bad_image_raises_at_construction(image_arg, broken, match):
    with pytest.raises(SimulationFault, match=match):
        PipelineSimulator(**{image_arg: broken})
