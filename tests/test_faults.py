"""Modelled faults: each check the per-cycle step makes is shown to fire.

Every fault type derives from :class:`SimulationFault`. The datapath
faults are raised by driving the flat :class:`RoundDatapath` and the
composition of the unit classes with the same inputs; both must fail
the same way. The controller faults come from single upsets of its
registers or control lines in the middle of a simulator run, made after
:meth:`Controller.begin_cycle` has decided the cycle; upsets of the
datapath's packed tag rank show that each compare of it fires, and every
single-bit upset of either side's tag rank on sampled cycles fails or
passes the one-compare check as the ordered checks would. Upsets made
during the flush show that the run fast-forwards the flush only from an
exact fixed point. Data upsets, which no check covers, complete with
wrong outputs.
"""

import random

import pytest

from composed_datapath import ComposedDatapath
from cycle_protocol import core_in_run, step_cycle
from drablocus import aesref
from drablocus.controller import FLUSH, RUN, Controller
from drablocus.datapath import (
    NUM_LOOP_STAGES,
    TAG_BITS,
    TAG_VALID,
    TRACK_CYCLES,
    RoundDatapath,
    Word,
)
from drablocus.faults import (
    AdmissionError,
    CollisionError,
    ControlFault,
    KeyStoreFault,
    ProtocolError,
    SimulationFault,
    TimingFault,
)
from drablocus.keyschedule import READY, KeyScheduler
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import (
    MODE_DECRYPT,
    MODE_ENCRYPT,
    build_mixcolumns_image,
    build_sbox_image,
    key_store_address,
)

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
    [
        ProtocolError,
        CollisionError,
        ControlFault,
        AdmissionError,
        TimingFault,
        KeyStoreFault,
        SimulationFault,
    ],
)
def test_every_modelled_fault_is_a_simulation_fault(fault):
    assert issubclass(fault, SimulationFault)
    assert fault.__module__ == "drablocus.faults"


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
        ctrl.tags ^= TAG_VALID << TAG_BITS * 5

    with pytest.raises(ControlFault, match="occupancy register"):
        run_with_upset(monkeypatch, upset, mixed_jobs(13))


def test_flipped_mode_bit_raises_control_fault(monkeypatch):
    def upset(ctrl):
        ctrl.tags ^= 1 << TAG_BITS * 5

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
        ctrl._arriving1 = TAG_VALID | MODE_ENCRYPT

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
    # The run names the cycle on the fault the key store raised, not on a copy.
    assert err.value.cycle == 279
    assert err.value.__cause__ is None


def run_with_rank_upset(monkeypatch, upset, jobs, when):
    """Run ``jobs`` and apply ``upset(controller, datapath)`` once, on the
    first cycle for which ``when(controller, datapath)`` holds: after the
    controller has decided the cycle and before the key schedule or the
    datapath reads a rank."""
    original_begin, original_compute = Controller.begin_cycle, KeyScheduler.compute
    state = {"ctrl": None, "done": False}

    def begin_cycle(self, key_schedule_ready):
        original_begin(self, key_schedule_ready)
        state["ctrl"] = self

    def compute(self, datapath, controller_fsm):
        if not state["done"] and when(state["ctrl"], datapath):
            state["done"] = True
            upset(state["ctrl"], datapath)
        original_compute(self, datapath, controller_fsm)

    monkeypatch.setattr(Controller, "begin_cycle", begin_cycle)
    monkeypatch.setattr(KeyScheduler, "compute", compute)
    return PipelineSimulator().run(FIPS_KEY, jobs)


def datapath_full(ctrl, dp):
    return None not in dp.loop_tags


# Each packed tag rank of the datapath, upset on a live stage of a full loop,
# fires the check that compares it. Stage 5 is read by neither the key
# schedule nor the divert check.
UPSET_STAGE = 5


def test_flipped_slot_field_raises_control_fault(monkeypatch):
    def upset(ctrl, dp):
        dp.tags ^= 2 << TAG_BITS * UPSET_STAGE

    with pytest.raises(ControlFault) as err:
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=datapath_full)
    assert str(err.value) == "cycle 175: stage 5 holds slot 10, phase math requires 11"
    assert err.value.cycle == 175


def test_flipped_mode_rank_bit_raises_control_fault(monkeypatch):
    def upset(ctrl, dp):
        dp.tags ^= 1 << TAG_BITS * UPSET_STAGE

    with pytest.raises(ControlFault, match="mode register [01]{12} disagrees with datapath tags"):
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=datapath_full)


def test_cleared_valid_bit_raises_control_fault(monkeypatch):
    def upset(ctrl, dp):
        dp.tags ^= TAG_VALID << TAG_BITS * UPSET_STAGE

    with pytest.raises(ControlFault) as err:
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=datapath_full)
    assert str(err.value) == (
        "cycle 175: occupancy register 111111111111 vs datapath 111111011111"
    )
    assert err.value.cycle == 175


def test_valid_bit_set_at_s11_as_a_word_arrives_raises_collision_error(monkeypatch):
    # The phantom word at S11 wraps into S0 on the commit that takes the
    # first block there; the datapath raises before the controller checks.
    def upset(ctrl, dp):
        dp.tags |= TAG_VALID << TAG_BITS * (NUM_LOOP_STAGES - 1)

    def arriving(ctrl, dp):
        return dp.ia_out_tag is not None

    with pytest.raises(CollisionError) as err:
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=arriving)
    assert str(err.value) == (
        "cycle 163: stage S0 claimed by arriving Word(seq=0, mode=1, slot=5) "
        "and recirculating Word(seq=0, mode=0, slot=0)"
    )
    assert err.value.cycle == 163
    assert err.value.__cause__ is None


def test_overwritten_sequence_id_raises_timing_fault(monkeypatch):
    # The block in stage 5 takes the sequence id of the one behind it in
    # stage 4, admitted a cycle later, so it completes a cycle early by
    # that block's admission.
    def upset(ctrl, dp):
        tags = dp.loop_tags
        dp.seqs[tags[UPSET_STAGE].slot] = dp.seqs[tags[UPSET_STAGE - 1].slot]

    with pytest.raises(TimingFault) as err:
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=datapath_full)
    assert str(err.value) == "cycle 282: block 7 completed after 114 cycles, expected 115"
    assert err.value.cycle == 282


@pytest.mark.parametrize(
    "stage, message",
    [
        # The divert reads S2's slot to name the word it sends to the final
        # key-add; the key store reads S7's, the counter increment S8's, and
        # S11's wraps into S0.
        (2, "cycle 274: track 5 expired without its block at the shift-rows register "
            "(found Word(seq=0, mode=1, slot=13))"),
        (7, "cycle 171: stage 7 holds slot 13, phase math requires 5"),
        (8, "cycle 172: stage 8 holds slot 13, phase math requires 5"),
        (11, "cycle 175: stage 11 holds slot 13, phase math requires 5"),
    ],
)
def test_slot_field_upset_past_eleven_raises_control_fault(monkeypatch, stage, message):
    # Flipping the top slot bit of a word in slots 4-7 gives it slot 12-15,
    # which a 4-bit field can hold and no phase requires. Every per-slot
    # table has an entry for it, so the check names the fault.
    def when(ctrl, dp):
        word = dp.loop_tags[stage]
        return word is not None and 4 <= word.slot < 8 and (stage != 2 or ctrl.divert)

    def upset(ctrl, dp):
        dp.tags ^= 1 << 4 << TAG_BITS * stage

    with pytest.raises(ControlFault) as err:
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when)
    assert str(err.value) == message


def reference_check(ctrl, dp):
    """The controller's checks as ordered tests over 12-bit views of both
    tag ranks: the fault message, or the datapath's occupancy."""
    phase = ctrl.cycle % NUM_LOOP_STAGES
    expected = [(phase - 3 - k) % NUM_LOOP_STAGES for k in range(NUM_LOOP_STAGES)]
    fields = [dp.tags >> TAG_BITS * k & 0x3F for k in range(NUM_LOOP_STAGES)]
    slots = [field >> 1 & 0xF for field in fields]

    def bits(rank, bit):
        return sum((rank >> TAG_BITS * k + bit & 1) << k for k in range(NUM_LOOP_STAGES))

    valid, dp_modes = bits(dp.tags, 5), bits(dp.tags, 0)
    occupancy, modes = bits(ctrl.tags, 5), bits(ctrl.tags, 0)
    if ctrl.divert and (not valid & 1 << 2 or slots[2] != expected[2]):
        found = Word(dp.seqs[slots[2]], fields[2] & 1, slots[2]) if valid & 1 << 2 else None
        return (
            f"track {expected[2]} expired without its block at the shift-rows register "
            f"(found {found})"
        )
    for k in range(NUM_LOOP_STAGES):
        if valid >> k & 1 and slots[k] != expected[k]:
            return f"stage {k} holds slot {slots[k]}, phase math requires {expected[k]}"
    if valid != occupancy:
        return f"occupancy register {occupancy:012b} vs datapath {valid:012b}"
    if (dp_modes ^ modes) & valid:
        return f"mode register {modes:012b} disagrees with datapath tags"
    if (not ctrl._arriving1) != (dp.ia_out_tag is None):
        return "initial-stage tracking out of step"
    if ctrl.main_reset and valid & 1 << 10:
        return f"output reset would scrub live block {dp.loop_tags[10]}"
    return valid


def test_one_compare_check_matches_the_ordered_checks_under_every_single_bit_upset(
    monkeypatch,
):
    # On sampled run cycles, each bit of the datapath's tag rank and each
    # valid and mode bit of the controller's is flipped in turn before the
    # check; the fault it raises, or the occupancy it passes with, must be
    # the reference's.
    original = Controller.check_against
    controller_bits = [TAG_BITS * k + bit for k in range(NUM_LOOP_STAGES) for bit in (0, 5)]
    outcomes, sampled = [], []

    def outcome(ctrl, dp):
        try:
            live = original(ctrl, dp)
        except ControlFault as fault:
            return str(fault)
        return sum((live >> TAG_BITS * k & 1) << k for k in range(NUM_LOOP_STAGES))

    def checked(self, datapath):
        if self.fsm == RUN and self.cycle % 3 == 0:
            sampled.append(self.cycle)
            upsets = [(datapath, bit) for bit in range(TAG_BITS * NUM_LOOP_STAGES)]
            upsets += [(self, bit) for bit in controller_bits]
            for owner, bit in upsets:
                owner.tags ^= 1 << bit
                got = outcome(self, datapath)
                assert got == reference_check(self, datapath), (self.cycle, owner, bit)
                owner.tags ^= 1 << bit
                outcomes.append(got)
        return original(self, datapath)

    monkeypatch.setattr(Controller, "check_against", checked)
    result = PipelineSimulator().run(FIPS_KEY, mixed_jobs(24))
    assert result.summary.blocks_completed == 24
    assert len(sampled) > 70
    assert len(outcomes) == 96 * len(sampled)
    kinds = {o if isinstance(o, int) else o.split(" ")[0] for o in outcomes}
    assert {"track", "stage", "occupancy", "mode"} <= kinds
    assert any(isinstance(o, int) for o in outcomes)


# Upsets during the flush: the run fast-forwards the flush only from an
# exact fixed point, so each upset leaves the run as stepping every cycle
# would.
def on_flush_cycle(n):
    """A ``when`` holding on the flush cycle with ``n`` flush commits behind it."""
    return lambda ctrl, dp: ctrl.fsm == FLUSH and ctrl._flush_count == n


def test_track_bit_set_after_first_flush_commit_fires_in_run(monkeypatch):
    # Shifted 112 times, slot 5's admission bit reaches the final bit on the
    # first run cycle, which reads slot 5's chain with stage 9 free.
    def upset(ctrl, dp):
        ctrl.track ^= 1 << TRACK_CYCLES * 5

    with pytest.raises(
        ControlFault, match="^cycle 161: stage-9 occupancy and slot tracking disagree$"
    ) as err:
        run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=on_flush_cycle(1))
    assert err.value.cycle == 161


@pytest.mark.parametrize("bit, skipped", [(0, 0), (TRACK_CYCLES - 1, 103)])
def test_track_bit_set_on_first_flush_cycle_is_flushed(monkeypatch, bit, skipped):
    # The flush's 113 commits shift any bit out of its chain. An admission
    # bit stays in the rank until the last flush commit, so no cycle is
    # skipped; the top bit leaves on the first commit and the skip is
    # unchanged.
    expected = PipelineSimulator().run(FIPS_KEY, mixed_jobs(13))
    assert expected.summary.skipped_cycles == 103

    def upset(ctrl, dp):
        ctrl.track ^= 1 << TRACK_CYCLES * 3 + bit

    result = run_with_rank_upset(monkeypatch, upset, mixed_jobs(13), when=on_flush_cycle(0))
    assert result.outputs == expected.outputs
    assert result.summary.total_cycles == expected.summary.total_cycles
    assert result.summary.skipped_cycles == skipped


def test_datapath_upset_in_flush_delays_the_skip(monkeypatch):
    # Upset on the cycle the skip would start from, the cascade bit takes six
    # cycles to pass through s6..s10 into the main key-add output, which the
    # flush holds in reset; the skip starts once it is gone.
    expected = PipelineSimulator().run(FIPS_KEY, mixed_jobs(13))
    span = expected.summary.skipped_cycles

    def upset(ctrl, dp):
        dp.s5 ^= 1

    result = run_with_rank_upset(
        monkeypatch, upset, mixed_jobs(13), when=on_flush_cycle(TRACK_CYCLES - span - 1)
    )
    assert result.outputs == expected.outputs
    assert result.summary.total_cycles == expected.summary.total_cycles
    assert result.summary.skipped_cycles == span - 6


# Data upsets that no check covers: the model checks tags and control, not
# data values. An upset of the encrypt half of the key store or of the
# substitution table at the start of the run corrupts encrypt outputs and
# leaves the decrypt outputs, and the run, untouched.
def assert_only_encrypt_outputs_differ(result, jobs):
    assert result.summary.blocks_completed == len(jobs)
    differing = 0
    for job in jobs:
        if job.mode == MODE_DECRYPT:
            assert result.outputs[job.seq] == aesref.decrypt_block(FIPS_KEY, job.block)
        else:
            differing += result.outputs[job.seq] != aesref.encrypt_block(FIPS_KEY, job.block)
    assert differing > 0


def test_flipped_encrypt_round_key_bit_completes_with_wrong_encrypt_outputs(monkeypatch):
    original = KeyScheduler.on_admission
    admissions = []

    def on_admission(self, slot):
        if not admissions:
            self.image[key_store_address(MODE_ENCRYPT, 5)] ^= 1 << 77
        admissions.append(slot)
        original(self, slot)

    monkeypatch.setattr(KeyScheduler, "on_admission", on_admission)
    jobs = mixed_jobs(24)
    assert_only_encrypt_outputs_differ(PipelineSimulator().run(FIPS_KEY, jobs), jobs)


def test_flipped_encrypt_sbox_entry_completes_with_wrong_encrypt_outputs(monkeypatch):
    def upset(ctrl, dp):
        encrypt = bytearray(dp._sbox[MODE_ENCRYPT])
        encrypt[0x53] ^= 1
        dp._sbox = (bytes(encrypt), dp._sbox[MODE_DECRYPT])

    jobs = mixed_jobs(24)
    result = run_with_rank_upset(
        monkeypatch, upset, jobs, when=lambda ctrl, dp: ctrl.fsm == RUN
    )
    assert_only_encrypt_outputs_differ(result, jobs)


def test_admission_on_a_stalled_cycle_raises_admission_error():
    # Twelve cycles after its admission the first block is in stage 9, so
    # the controller stalls that cycle; a caller admitting anyway is refused.
    # Stepped outside a run, the fault names no cycle.
    dp, ctrl, ks = core_in_run(int.from_bytes(FIPS_KEY, "big"))
    step_cycle(dp, ctrl, ks, job=(0, MODE_ENCRYPT, 0xAB))
    for _ in range(11):
        step_cycle(dp, ctrl, ks)
    ctrl.begin_cycle(ks.fsm == READY)
    assert not ctrl.admit_ready
    with pytest.raises(AdmissionError, match="^admission attempted on a stalled cycle$") as err:
        ctrl.admit(1, MODE_ENCRYPT)
    assert err.value.cycle is None


def test_occupancy_wrap_into_an_arriving_word_raises_control_fault():
    # No run reaches this check: a slip that sets occupancy bit 11 as a word
    # arrives is caught first by check_against's occupancy compare, and a
    # real wrap into a claimed S0 by the datapath's CollisionError. Driven on
    # the controller alone, it fires and names no cycle.
    ctrl = Controller()
    ctrl.fsm = RUN
    ctrl.tags = TAG_VALID << TAG_BITS * (NUM_LOOP_STAGES - 1)
    ctrl._arriving1 = TAG_VALID | MODE_ENCRYPT
    with pytest.raises(ControlFault, match="^occupancy wrap collides with admission$") as err:
        ctrl.commit()
    assert err.value.cycle is None


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
        ("sbox_image", build_sbox_image() + [0x63], "513 entries"),
        ("mc_image", build_mixcolumns_image() + [1 << 40], "513 entries"),
        ("sbox_image", build_sbox_image() * 2, "1024 entries"),
    ],
)
def test_bad_image_raises_at_construction(image_arg, broken, match):
    with pytest.raises(SimulationFault, match=match):
        PipelineSimulator(**{image_arg: broken})
