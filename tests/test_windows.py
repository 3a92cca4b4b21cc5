"""Passes: a run computes each pass of cycles in one call, traced or not.

Computing a pass must leave the core exactly as stepping each of its
cycles would, and writing its trace must write what stepping them would.
The lockstep test snapshots every rank, tag rank, track chain, key-store
output and round counter after each commit of a run, pass ends included,
and compares each snapshot with a stepped run's at the same cycle; the
stepped run takes passes of one cycle. The property tests compare the
controller's plan of a pass with the lines its cycles take one at a
time, and whole runs: untraced, traced and stepped, their traces byte
for byte. Key initialization is one pass, whose end state must be the
stepped run's for any key and S-box image. So is the flush, which the
datapath computes at once from twelve cycles on: under pass caps, and
from states upset on its first cycle, its commits must be the stepped
run's, a pass one cycle short of twelve must step its cycles, and so
must a state with a tag, two sources on the substitution mux, a word at
an edge rank or a key-store inject. A fault of each class that can arise
inside a pass is fired in each kind of run, and must name the same cycle
with the same message; the traced runs' traces must end on the same
line. An untraced pass computes its cycles in fused windows,
events included: the runs above compare them with the stepped run's
cycles, on healthy and on flipped RAM images and under pass caps that put
events on every offset, and each case in which a window must leave its
pass to the cycle loop is made by an upset or a hand-made plan and
compared with a run that steps it.
"""

import copy
import io
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_protocol import (
    HELD, QUIET, before_each_pass, cap_passes, core_in_run, cut, end_passes_at, lines, make_plan,
    new_core, single_cycles, step_cycle, step_every_cycle, word_tag,
)
from drablocus import aesref
from drablocus.controller import (
    BATCH_PERIOD, FLUSH, KEY_INIT, KEY_READY_CYCLE, RESET, RUN, Controller,
)
from drablocus.datapath import (
    _SLOT_FIELD, BLOCK_LATENCY, MAIN_ROUNDS, NUM_LOOP_STAGES, TAG_BITS, TAG_VALID, TRACK_CYCLES,
    DatapathTables, RoundDatapath, Word,
)
from drablocus.faults import (
    CollisionError, ControlFault, KeyStoreFault, ProtocolError, SimulationFault, TimingFault,
)
from drablocus.keyschedule import EXPANDING, KEY_INIT_CYCLES, READY, KeyScheduler
from drablocus.simulator import RUN_START_CYCLE, Job, PipelineSimulator
from drablocus.tables import (
    MODE_DECRYPT, MODE_ENCRYPT, build_mixcolumns_image, build_sbox_image,
)

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def mixed_jobs(n, seed):
    rng = random.Random(seed)
    return [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)), rng.randbytes(16)) for i in range(n)
    ]


def snapshot(dp, ctrl, ks):
    return (
        dp.s0, dp.s1, dp.s2, dp.s3, dp.s4, dp.s5, dp.s6, dp.s7, dp.s8, dp.s9, dp.s10, dp.s11,
        dp.ia_in, dp.ia_out, dp.fa_in, dp.fa_out, dp.tags, tuple(dp.seqs),
        dp.ia_in_tag, dp.ia_out_tag, dp.fa_in_tag, dp.fa_out_tag,
        ctrl.fsm, ctrl.track, ctrl.tags, ctrl._arriving0, ctrl._arriving1,
        ks.out_a, ks.out_b, ks.addr_a, ks.addr_b, tuple(ks.round_counters),
        ks.fsm, ks.init_cycles, ks.sub_bytes_inject, ks.mix_columns_inject, tuple(ks.image),
    )


def committed_states(monkeypatch, key, jobs, stepped=False, sbox_image=None, mc_image=None,
                     upset=None, cap=None, ends=()):
    """The core's state after every commit of one run on ``sbox_image`` and
    ``mc_image``, by the cycle it leads into, and the cycles at which passes
    of more than one cycle end. A ``stepped`` run takes passes of one cycle,
    passes are at most ``cap`` cycles long, and a pass opens on each cycle of
    ``ends``. An ``upset``, ``(cycle, core)``, applies ``core(ks, dp)`` before the
    datapath computes ``cycle``, on which a pass then opens."""
    core, states, pass_ends = {}, {}, []
    for cls in (RoundDatapath, Controller):
        def init(self, *args, _original=cls.__init__, _cls=cls):
            _original(self, *args)
            core[_cls] = self
        monkeypatch.setattr(cls, "__init__", init)
    commit, ctrl_commit = KeyScheduler.commit, Controller.commit

    def recorded_commit(self):
        commit(self)
        ctrl = core[Controller]
        states[ctrl.cycle] = snapshot(core[RoundDatapath], ctrl, self)

    def recorded_ctrl_commit(self):
        cycles = self.plan.cycles
        ctrl_commit(self)
        if cycles > 1 and self.fsm == RUN:
            pass_ends.append(self.cycle)

    monkeypatch.setattr(KeyScheduler, "commit", recorded_commit)
    monkeypatch.setattr(Controller, "commit", recorded_ctrl_commit)
    if upset is not None:
        def upset_pass(ctrl, dp, ks):
            if ctrl.cycle == upset[0]:
                upset[1](ks, dp)

        before_each_pass(monkeypatch, upset_pass)
        ends = (*ends, upset[0])
    if ends:
        end_passes_at(monkeypatch, ends)
    if stepped:
        step_every_cycle(monkeypatch)
    if cap is not None:
        cap_passes(monkeypatch, cap)
    result = PipelineSimulator(sbox_image=sbox_image, mc_image=mc_image).run(key, jobs)
    monkeypatch.undo()
    return result, states, pass_ends


def flipped_images(corrupt):
    """The S-box and product-RAM images, with one entry of the ``corrupt``
    one flipped: an S-box entry of the decrypt half, or a product entry of
    the encrypt half, each read by every round of its mode."""
    if corrupt == "sbox":
        image = build_sbox_image()
        image[0x153] ^= 0x10
        return image, None
    if corrupt == "mcprod":
        image = build_mixcolumns_image()
        image[0x0A7] ^= 0x0100
        return None, image
    return None, None


# Job counts that end a pass on the last completion, run the queue dry
# inside a burst of admissions or between bursts, or fill whole batches;
# the longest run also on images with one entry flipped, which the fused
# windows must read as the cycles read them.
@pytest.mark.parametrize(
    "n_jobs, corrupt",
    [(n, None) for n in (1, 12, 13, 25, 120, 500)] + [(500, "sbox"), (500, "mcprod")],
    ids=["1", "12", "13", "25", "120", "500", "500-sbox", "500-mcprod"],
)
@pytest.mark.parametrize("fresh_key", [False, True], ids=["fips", "fresh"])
def test_window_ends_match_per_cycle_stepping(monkeypatch, n_jobs, corrupt, fresh_key):
    key = random.Random(n_jobs).randbytes(16) if fresh_key else FIPS_KEY
    jobs = mixed_jobs(n_jobs, seed=n_jobs)
    sbox_image, mc_image = flipped_images(corrupt)
    images = {"sbox_image": sbox_image, "mc_image": mc_image}
    passed, states, pass_ends = committed_states(monkeypatch, key, jobs, **images)
    stepped, reference, no_passes = committed_states(monkeypatch, key, jobs, stepped=True, **images)

    assert passed.passes < stepped.passes == stepped.summary.total_cycles
    assert len(pass_ends) > 0 and no_passes == []
    # The run phase is one pass, which computes all of its cycles in fused
    # windows but its last two, events included.
    assert passed.fused_cycles == passed.summary.total_cycles - RUN_START_CYCLE - 2
    assert stepped.fused_cycles == 0
    assert set(pass_ends) <= set(states)
    for cycle, state in states.items():
        assert state == reference[cycle], f"cycle {cycle}"
    assert passed.outputs == stepped.outputs
    assert passed.summary == stepped.summary
    assert passed.summary.stall_cycles == stepped.summary.stall_cycles
    assert passed.summary.max_loop_occupancy == stepped.summary.max_loop_occupancy


def batched_calls(monkeypatch):
    """The ``(mode, legs)`` of each call that computes a mode's whole legs at
    once, ``legs`` their number."""
    calls = []
    whole_legs = DatapathTables.whole_legs

    def recorded(self, mode, legs, keys):
        calls.append((mode, len(legs) // 3))
        return whole_legs(self, mode, legs, keys)

    monkeypatch.setattr(DatapathTables, "whole_legs", recorded)
    return calls


def jobs_holding(whole, seed):
    """Jobs whose run holds ``whole[mode]`` whole legs of each mode: in a
    run that admits every job as its slot frees, each job but the last
    twelve is diverted in the run pass's window and followed by an arrival
    at its loop position."""
    rng = random.Random(seed)
    modes = [MODE_ENCRYPT] * whole[MODE_ENCRYPT] + [MODE_DECRYPT] * whole[MODE_DECRYPT]
    rng.shuffle(modes)
    modes += rng.choices((MODE_ENCRYPT, MODE_DECRYPT), k=NUM_LOOP_STAGES)
    return [Job(i, mode, rng.randbytes(16)) for i, mode in enumerate(modes)]


def random_images(seed):
    """An S-box image of two random permutations and a product image of
    random 32-bit words, which no column mix, linear or not, gives."""
    rng = random.Random(seed)
    sbox = rng.sample(range(256), 256) + rng.sample(range(256), 256)
    return {"sbox_image": sbox, "mc_image": [rng.getrandbits(32) for _ in range(512)]}


# Whole legs per mode on both sides of the break-even of twelve, one mode
# or both, and about forty; the last on random images too.
@pytest.mark.parametrize("whole, images", [
    ((11, 0), False), ((0, 12), False), ((13, 0), False), ((0, 40), False),
    ((12, 11), False), ((11, 13), False), ((40, 12), False), ((13, 41), True),
], ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else
   "random-images" if value else "built-in")
def test_whole_legs_at_once_match_stepping(monkeypatch, whole, images):
    jobs = jobs_holding(whole, seed=sum(whole))
    images = random_images(sum(whole)) if images else {}
    calls, batched = batched_calls(monkeypatch), [
        (mode, n) for mode, n in enumerate(whole) if n >= NUM_LOOP_STAGES]
    passed = PipelineSimulator(**images).run(FIPS_KEY, jobs)
    assert calls == batched
    step_every_cycle(monkeypatch)
    stepped = PipelineSimulator(**images).run(FIPS_KEY, jobs)
    assert calls == batched and stepped.passes == stepped.summary.total_cycles
    assert passed.outputs == stepped.outputs
    assert passed.summary == stepped.summary
    assert passed.fused_cycles == passed.summary.total_cycles - RUN_START_CYCLE - 2
    assert stepped.fused_cycles == 0


def test_a_full_loop_computes_each_mode_whole_legs_in_one_call(monkeypatch):
    # A saturated run's one run pass completes nearly all of its words as
    # whole legs; a run that fills the loop about once completes none so.
    calls = batched_calls(monkeypatch)
    PipelineSimulator().run(FIPS_KEY, mixed_jobs(500, seed=500))
    assert sorted(mode for mode, _ in calls) == [MODE_ENCRYPT, MODE_DECRYPT]
    assert min(legs for _, legs in calls) >= 200
    calls.clear()
    PipelineSimulator().run(FIPS_KEY, mixed_jobs(13, seed=13))
    assert calls == []


def test_steady_passes_give_each_position_one_divert_admission_and_reset():
    # The shape a fused window takes events in. Each steady batch period of
    # a saturated run, which diverts and admits twelve, diverts on offsets
    # 113-119 and 0-4, admits on 0-11 and resets S11 on 1-12. Each loop
    # position, named by its stage on the period's first cycle, sees exactly
    # one of each: the divert on its S2 visit d, the admission on d + 7
    # (modulo the batch period, for a word diverted late in the period
    # before) and the reset on the cycle after, as its S11 value is the one
    # the admitted word replaces. An arrival's cycle lifts the initial
    # key-add's reset as it resets S11, and no other entry does either. The
    # run's passes end at the second batch, so that the periods are those of
    # the one pass that runs from it to the last completion.
    plans = []
    second_batch = RUN_START_CYCLE + BATCH_PERIOD
    with pytest.MonkeyPatch.context() as monkeypatch:
        end_passes_at(monkeypatch, [second_batch])
        before_each_pass(monkeypatch, lambda ctrl, dp, ks: plans.append((ctrl.cycle, ctrl.plan)))
        PipelineSimulator().run(FIPS_KEY, mixed_jobs(500, seed=500))
    (last,) = [lines(plan) for cycle, plan in plans if cycle == second_batch]
    assert len(last) > 40 * BATCH_PERIOD
    periods = [last[start:start + BATCH_PERIOD] for start in range(0, len(last), BATCH_PERIOD)]
    steady = [
        period for period in periods if len(period) == BATCH_PERIOD
        and sum(entry[0] is not None for entry in period) == sum(entry[1] for entry in period) == 12
    ]
    assert len(steady) == 500 // NUM_LOOP_STAGES - 1
    for period in steady:
        diverts = [o for o, entry in enumerate(period) if entry[1]]
        admissions = [o for o, entry in enumerate(period) if entry[0] is not None]
        resets = [o for o, entry in enumerate(period) if entry[3]]
        assert diverts == [*range(5), *range(113, 120)]
        assert admissions == list(range(12)) and resets == list(range(1, 13))
        assert all(entry[2] != entry[3] for entry in period)
        # The position at S2, at S11 two cycles on, or at S10 on each cycle.
        divert_at = {(2 - o) % NUM_LOOP_STAGES: o for o in diverts}
        admit_at = {(9 - o) % NUM_LOOP_STAGES: o for o in admissions}
        reset_at = {(10 - o) % NUM_LOOP_STAGES: o for o in resets}
        assert len(divert_at) == len(admit_at) == len(reset_at) == NUM_LOOP_STAGES
        for p in range(NUM_LOOP_STAGES):
            assert (admit_at[p] - divert_at[p]) % BATCH_PERIOD == 7
            assert reset_at[p] == admit_at[p] + 1


@pytest.mark.parametrize("corrupt", [None, "sbox", "mcprod"], ids=["500", "500-sbox", "500-mcprod"])
def test_capped_passes_with_events_on_every_offset_match_stepping(monkeypatch, corrupt):
    # Passes capped at 97 cycles open at every phase of the batch period, so
    # that over a 500-job run events fall on every offset of a pass, its
    # first and last cycle included, and take diverts, admissions and resets
    # at every offset a window covers. Passes capped at two batch periods and
    # 17 cycles, and the uncapped run's one pass from the first run cycle to
    # the last completion, take several diverts and admissions at each
    # position. A run pass fuses all but its last two cycles when it is at
    # least 14 cycles long, opens with no word on its way in and admits on
    # neither of the two offsets before those last two; it fuses none
    # otherwise. Every committed state equals a stepped run's, on healthy
    # images and on images with one entry flipped.
    jobs = mixed_jobs(500, seed=500)
    sbox_image, mc_image = flipped_images(corrupt)
    images = {"sbox_image": sbox_image, "mc_image": mc_image}
    stepped, reference, _ = committed_states(monkeypatch, FIPS_KEY, jobs, stepped=True, **images)
    for cap in (97, 2 * BATCH_PERIOD + 17, None):
        offsets, lengths, fused_before, expected = set(), [], [], []

        def record(ctrl, dp, ks):
            if ctrl.fsm == RUN:
                n = ctrl.plan.cycles
                lengths.append(n)
                if n == cap:
                    offsets.update(o for o, entry in enumerate(lines(ctrl.plan)) if entry != QUIET)
                quiet_in = not (dp.ia_in or dp.ia_out or (dp.ia_in_tag | dp.ia_out_tag) & TAG_VALID)
                fuses = (n >= NUM_LOOP_STAGES + 2 and quiet_in
                         and not {n - 4, n - 3} & set(ctrl.plan.admissions))
                fused_before.append(dp.fused_cycles)
                expected.append(n - 2 if fuses else 0)

        before_each_pass(monkeypatch, record)
        passed, states, pass_ends = committed_states(monkeypatch, FIPS_KEY, jobs, cap=cap, **images)
        if cap is None:
            assert lengths == [passed.summary.total_cycles - RUN_START_CYCLE]
        else:
            assert max(lengths) == cap and offsets == set(range(cap)), cap
            # Both rules are taken.
            assert 0 < expected.count(0) < len(expected), cap
        fused_after = [*fused_before[1:], passed.fused_cycles]
        assert [b - a for a, b in zip(fused_before, fused_after)] == expected, cap
        assert set(pass_ends) <= set(states)
        for cycle, state in states.items():
            assert state == reference[cycle], f"cap {cap}, cycle {cycle}"
        assert passed.outputs == stepped.outputs
        assert passed.summary == stepped.summary


# The cycle after the key-initialization phase, which ends on the cycle
# that reports the schedule ready.
KEY_INIT_END = KEY_READY_CYCLE + 1


def program_resumes(monkeypatch):
    """A list that gets one entry for each resume of the key-store program
    in the runs that follow, the reset cycle's included."""
    resumes, step = [], KeyScheduler._init_cycle

    def counted(self, s1, s8):
        resumes.append(s1)
        return step(self, s1, s8)

    monkeypatch.setattr(KeyScheduler, "_init_cycle", counted)
    return resumes


def flipped(image, entry, bits):
    image[entry] ^= bits
    return image


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(key=st.one_of(st.just(FIPS_KEY), st.binary(min_size=16, max_size=16)))
def test_key_init_pass_equals_stepped_cycles(key):
    # Key initialization is one pass, computed at once with no resume of
    # the program after the reset cycle's; the state its commit leaves is
    # the stepped run's: every datapath rank, the key store's image, outputs
    # and round counters, 46 program cycles and cleared injects. The same
    # holds on an S-box image corrupted where the first round's substitution
    # reads it, whose key store differs from the healthy one, and on images
    # corrupted where the held ranks read them: S-box entry 0, product
    # entry 0 of each half, and a product entry the inversion reads for
    # this key. On the first two images, passes capped at 7 cycles split key
    # initialization into seven, each planned up to the cap or the ready
    # cycle, and every commit of them leaves the stepped run's state; capped
    # at 60, it is one pass.
    jobs = mixed_jobs(1, seed=3)
    inner = aesref.key_expand(key).keys[MAIN_ROUNDS][0]
    corruptions = [
        (None, None),
        (flipped(build_sbox_image(), key[13], 0x01), None),
        (flipped(build_sbox_image(), 0, 0x01), None),
        (None, flipped(build_mixcolumns_image(), 0, 0x0100)),
        (None, flipped(build_mixcolumns_image(), 0x100, 0x0100)),
        (None, flipped(build_mixcolumns_image(), 0x100 | inner, 0x0100)),
    ]
    images = []
    for index, (sbox_image, mc_image) in enumerate(corruptions):
        images_of = {"sbox_image": sbox_image, "mc_image": mc_image}
        with pytest.MonkeyPatch.context() as monkeypatch:
            resumes = program_resumes(monkeypatch)
            passed, states, _ = committed_states(monkeypatch, key, jobs, **images_of)
            assert len(resumes) == 1
            stepped, reference, _ = committed_states(monkeypatch, key, jobs, stepped=True,
                                                     **images_of)
            capped = {} if index > 1 else {
                cap: committed_states(monkeypatch, key, jobs, cap=cap, **images_of)[1]
                for cap in (7, 60)
            }
        # One pass: no commit between the reset cycle's and its own.
        assert not any(1 < cycle < KEY_INIT_END for cycle in states)
        assert states[KEY_INIT_END] == reference[KEY_INIT_END]
        for cap, commits in ((7, [1, 8, 15, 22, 29, 36, 43, KEY_INIT_END]), (60, [1, KEY_INIT_END])):
            if cap in capped:
                assert [cycle for cycle in capped[cap] if cycle <= KEY_INIT_END] == commits
                for cycle in commits:
                    assert capped[cap][cycle] == reference[cycle], f"cap {cap}, cycle {cycle}"
        *_, fsm, init_cycles, sub_bytes_inject, mix_columns_inject, image = states[KEY_INIT_END]
        assert (fsm, init_cycles) == (READY, KEY_INIT_CYCLES) and KEY_INIT_CYCLES == 46
        assert sub_bytes_inject == mix_columns_inject == (0, 0)
        assert image == passed.key_store == stepped.key_store
        images.append(image)
    assert images[0] != images[1]

    # A traced fresh-key run of one job writes the stepped run's trace.
    trace, stepped_trace = io.StringIO(), io.StringIO()
    PipelineSimulator().run(key, jobs, trace=trace)
    with pytest.MonkeyPatch.context() as monkeypatch:
        step_every_cycle(monkeypatch)
        PipelineSimulator().run(key, jobs, trace=stepped_trace)
    assert trace.getvalue() == stepped_trace.getvalue()


@pytest.mark.parametrize("cap, traced", [(None, False), (None, True), (1, False), (7, False),
                                        (60, False)], ids=["planned", "traced", "1", "7", "60"])
def test_power_up_schedule_is_the_key_store_program(monkeypatch, cap, traced):
    # The controller ends each phase before run on a constant cycle and reads
    # nothing from the key store, so the store's program must keep to the
    # same schedule however the passes are cut: expanding in every state
    # committed before cycle 48 and ready, after its KEY_INIT_CYCLES program
    # cycles, from 48 on, as the controller enters flush on 48 and run on 161.
    core, states, entered = {}, [], {}
    begin_cycle, commit = Controller.begin_cycle, KeyScheduler.commit

    def recorded_begin(self, *args):
        plan = begin_cycle(self, *args)
        core["ctrl"] = self
        entered.setdefault(self.fsm, self.cycle)
        return plan

    def recorded_commit(self):
        commit(self)
        states.append((core["ctrl"].cycle, self.fsm, self.init_cycles))

    monkeypatch.setattr(Controller, "begin_cycle", recorded_begin)
    monkeypatch.setattr(KeyScheduler, "commit", recorded_commit)
    if cap is not None:
        cap_passes(monkeypatch, cap)
    result = PipelineSimulator().run(FIPS_KEY, mixed_jobs(13, seed=13),
                                     trace=io.StringIO() if traced else None)
    assert entered == {RESET: 0, KEY_INIT: 1, FLUSH: KEY_INIT_END, RUN: RUN_START_CYCLE}
    assert KEY_INIT_END == 48 and RUN_START_CYCLE == 161
    for cycle, fsm, init_cycles in states:
        if cycle < KEY_INIT_END:
            assert fsm == EXPANDING, cycle
        else:
            assert (fsm, init_cycles) == (READY, KEY_INIT_CYCLES), cycle
    assert states[0][0] < KEY_INIT_END <= states[-1][0]
    assert result.summary.key_init_cycles == KEY_INIT_CYCLES


@pytest.mark.parametrize(
    "cap, resumes",
    [(None, 0), (60, 0), (7, KEY_INIT_CYCLES + 1), (KEY_INIT_CYCLES, KEY_INIT_CYCLES + 1)],
    ids=["uncapped", "60", "7", "46"],
)
def test_key_init_pass_is_computed_at_once_only_uncapped(monkeypatch, cap, resumes):
    # A key-initialization pass from the reset cycle's state, planned up to
    # the ready cycle, resumes the program on none of its cycles. A cap of
    # 60 does not bind on the 47-cycle pass, so its plan is the uncapped
    # one. Passes capped at 7 cycles, or at 46, one short of the ready
    # cycle, step each key-initialization cycle through the cycle loop, one
    # resume each; every run completes its block as aesref does.
    counted = program_resumes(monkeypatch)
    if cap is not None:
        cap_passes(monkeypatch, cap)
    jobs = mixed_jobs(2, seed=11)
    result = PipelineSimulator().run(FIPS_KEY, jobs)
    assert len(counted) == 1 + resumes
    for job in jobs:
        cipher = aesref.decrypt_block if job.mode else aesref.encrypt_block
        assert result.outputs[job.seq] == cipher(FIPS_KEY, job.block)
    assert result.summary.key_init_cycles == KEY_INIT_CYCLES


def pending_store_write(ks, dp):
    # A write the reset cycle did not leave, to an address no key takes.
    ks.pending_write = (aesref.NUM_ROUNDS + 2, 0xABC)


def cascade_word(ks, dp):
    # A value in a cascade rank, which the held cycles flush.
    dp.s5 = 1


@pytest.mark.parametrize("upset", [pending_store_write, cascade_word])
def test_key_init_pass_from_an_upset_state_steps_its_cycles(monkeypatch, upset):
    # Only the reset cycle's state, in the key store and in every rank,
    # starts a pass that is computed at once. From an upset one the pass
    # resumes the program on each cycle, and its commit leaves the stepped
    # run's state.
    jobs = mixed_jobs(1, seed=5)
    resumes = program_resumes(monkeypatch)
    passed, states, _ = committed_states(monkeypatch, FIPS_KEY, jobs, upset=(1, upset))
    assert len(resumes) == 1 + KEY_INIT_CYCLES + 1
    stepped, reference, _ = committed_states(
        monkeypatch, FIPS_KEY, jobs, stepped=True, upset=(1, upset)
    )
    assert states[KEY_INIT_END] == reference[KEY_INIT_END]
    assert passed.key_store == stepped.key_store


def test_key_init_pass_without_the_held_reset_steps_its_cycles(monkeypatch):
    # A pass is computed at once only under the held reset. With it released
    # on key initialization the pass resumes the program on each cycle as a
    # stepped run does, and S2 drives the product mux beside the first
    # inverse-mix inject, which faults on the same cycle in both runs.
    jobs = mixed_jobs(1, seed=5)
    runs = []
    for stepped in (False, True):
        def released(self, *args, _begin=Controller.begin_cycle):
            plan = _begin(self, *args)
            if self.fsm == KEY_INIT:
                self.held_reset = False
            return plan

        monkeypatch.setattr(Controller, "begin_cycle", released)
        resumes = program_resumes(monkeypatch)
        with pytest.raises(ProtocolError, match="^cycle 32: OR-mux driven by multiple") as err:
            committed_states(monkeypatch, FIPS_KEY, jobs, stepped=stepped)
        monkeypatch.undo()
        runs.append((err.value.cycle, str(err.value), len(resumes)))
    assert runs[0] == runs[1] and runs[0][2] > 1


def flush_passes(monkeypatch):
    """A list that gets, for each pass of held lines the datapath gets in
    service in the run that follows (a flush pass), its length and whether
    it was computed at once."""
    passes, power_up = [], RoundDatapath._power_up

    def recorded(self, plan, store, *lines):
        computed = power_up(self, plan, store, *lines)
        if store.resume is None:
            passes.append((plan.cycles, computed))
        return computed

    monkeypatch.setattr(RoundDatapath, "_power_up", recorded)
    return passes


@pytest.mark.parametrize("cap", [1, 7, 12, 60, None], ids=["1", "7", "12", "60", "uncapped"])
def test_flush_pass_equals_stepped_cycles(monkeypatch, cap):
    # The flush is one pass of held lines, which the datapath computes at
    # once to its fixed point. Passes capped at 60 or 12 cycles split the
    # flush into passes, each computed at once but a last one shorter than
    # the twelve cycles the fixed point needs, which steps its cycles as
    # every flush pass capped at 7 does. Every commit through the first run
    # cycle leaves the stepped run's state.
    key, jobs = random.Random(0xF1).randbytes(16), mixed_jobs(1, seed=5)
    stepped, reference, _ = committed_states(monkeypatch, key, jobs, stepped=True)
    flushes = flush_passes(monkeypatch)
    passed, states, _ = committed_states(monkeypatch, key, jobs, cap=cap)
    step = cap or RUN_START_CYCLE
    starts = range(KEY_INIT_END, RUN_START_CYCLE, step)
    commits = [1, *range(1 + step, KEY_INIT_END, step), *starts, RUN_START_CYCLE]
    assert [cycle for cycle in states if cycle <= RUN_START_CYCLE] == commits
    for cycle in commits:
        assert states[cycle] == reference[cycle], f"cap {cap}, cycle {cycle}"
    lengths = [min(step, RUN_START_CYCLE - start) for start in starts]
    assert flushes == [(n, n >= NUM_LOOP_STAGES) for n in lengths]
    assert stepped.passes == stepped.summary.total_cycles
    assert passed.summary.total_cycles == stepped.summary.total_cycles
    assert passed.outputs == stepped.outputs


def upset_flush_sources(ks, dp):
    # S11, which the substitution mux takes into S0 and the loop carries to
    # S10 on the flush's twelfth cycle; S0, S1 and S9 on their way to S10;
    # and port a's output, which S9 takes.
    dp.s0 ^= 1
    dp.s1 ^= 2
    dp.s9 ^= 3 << 128
    dp.s11 ^= 4
    ks.out_a ^= 5


@pytest.mark.parametrize("cap", [11, 12])
def test_flush_pass_from_an_upset_state_is_computed_from_twelve_cycles(monkeypatch, cap):
    # Upset on the flush's first cycle, the loop holds S11's round in S10
    # on the commit eleven cycles on and reaches the clean run's state on
    # the next. A flush pass of twelve cycles is computed at once from the
    # upset state; one of eleven steps its cycles. Every commit equals a
    # stepped run's under the same upset.
    key, jobs = random.Random(0xF1).randbytes(16), mixed_jobs(1, seed=5)
    upset = (KEY_INIT_END, upset_flush_sources)
    _, clean, _ = committed_states(monkeypatch, key, jobs, stepped=True)
    stepped, reference, _ = committed_states(monkeypatch, key, jobs, stepped=True, upset=upset)
    flushes = flush_passes(monkeypatch)
    passed, states, _ = committed_states(monkeypatch, key, jobs, cap=cap, upset=upset)
    eleven, twelve = KEY_INIT_END + 11, KEY_INIT_END + 12
    assert reference[eleven] != clean[eleven] and reference[twelve] == clean[twelve]
    assert flushes[0] == (cap, cap == NUM_LOOP_STAGES)
    assert set(states) >= {eleven if cap == 11 else twelve}
    for cycle, state in states.items():
        assert state == reference[cycle], f"cap {cap}, cycle {cycle}"
    assert passed.outputs == stepped.outputs


def upset_final_output(ks, dp):
    dp.fa_out ^= 1


def upset_port_a_word(ks, dp):
    # Port a reads word 0 while stage 7 is empty; no word in flight reads it.
    ks.image[0] ^= 1


@pytest.mark.parametrize("upset", [upset_final_output, upset_port_a_word], ids=["fa_out", "port_a"])
def test_flush_upset_matches_stepped_cycles(monkeypatch, upset):
    # Upset on the flush's first cycle: the final key-add output, which no
    # other rank reads and the next cycle overwrites, and the word port a
    # reads on every flush cycle, which S9 and S10 take beside S8. A flush
    # stepped in passes of 9 cycles, or computed at once in passes of 60 or
    # whole, leaves every commit as a stepped run does.
    jobs = mixed_jobs(1, seed=5)
    at = (KEY_INIT_END, upset)
    stepped, reference, _ = committed_states(monkeypatch, FIPS_KEY, jobs, upset=at, stepped=True)
    for cap in (9, 60, None):
        result, states, _ = committed_states(monkeypatch, FIPS_KEY, jobs, upset=at, cap=cap)
        assert result.outputs == stepped.outputs
        for cycle in states:
            assert states[cycle] == reference[cycle], f"cap {cap}, cycle {cycle}"


def mux_sources_in_flush(ks, dp):
    # Two sources on the substitution mux on the flush's first cycle.
    dp.s11, dp.ia_out = 1, 2


def test_flush_mux_fault_names_its_own_cycle(monkeypatch):
    # The substitution mux is the one check a flush cycle with no tag can
    # fire, on its first cycle only. With S11 and the initial key-add output
    # both set there, the flush pass steps its cycles, and planned and
    # stepped runs, traced or not, raise the same fault on that cycle; the
    # traces end on the cycle before it.
    jobs, upset = mixed_jobs(1, seed=5), {"core": mux_sources_in_flush}
    trace, stepped_trace = io.StringIO(), io.StringIO()
    flushes = flush_passes(monkeypatch)
    passed, _ = run_with_pass_upset(monkeypatch, jobs, KEY_INIT_END, **upset)
    traced, _ = run_with_pass_upset(monkeypatch, jobs, KEY_INIT_END, trace=trace, **upset)
    stepped, _ = run_with_pass_upset(
        monkeypatch, jobs, KEY_INIT_END, trace=stepped_trace, stepped=True, **upset
    )
    assert flushes == [(TRACK_CYCLES, False)]
    assert type(passed) is type(traced) is type(stepped) is ProtocolError
    assert str(passed) == str(traced) == str(stepped)
    assert str(passed).startswith(f"cycle {KEY_INIT_END}: OR-mux driven by multiple nonzero")
    assert passed.cycle == traced.cycle == stepped.cycle == KEY_INIT_END
    assert trace.getvalue() == stepped_trace.getvalue()
    assert trace.getvalue().splitlines()[-1].startswith(f"cycle={KEY_INIT_END - 1} ")


def stray_tag_in_flush(ks, dp):
    # A mode bit without its valid bit in S3's tag field, which no check
    # reads: rotating with the loop, it selects the decrypt row shift and
    # final key whenever it passes S1, and stays clear of the run's word.
    dp.tags |= 1 << 3 * TAG_BITS


def test_flush_pass_with_a_tag_steps_its_cycles(monkeypatch):
    # A tag in the loop, here a stray mode bit, makes the flush pass step its
    # cycles, and every commit equals a stepped run's under the same upset.
    key, jobs = random.Random(0xF1).randbytes(16), mixed_jobs(1, seed=5)
    upset = (KEY_INIT_END, stray_tag_in_flush)
    stepped, reference, _ = committed_states(monkeypatch, key, jobs, stepped=True, upset=upset)
    flushes = flush_passes(monkeypatch)
    passed, states, _ = committed_states(monkeypatch, key, jobs, upset=upset)
    assert flushes == [(TRACK_CYCLES, False)]
    for cycle, state in states.items():
        assert state == reference[cycle], f"cycle {cycle}"
    assert passed.outputs == stepped.outputs
    clean = PipelineSimulator().run(key, jobs)
    assert passed.outputs == clean.outputs and passed.key_store == clean.key_store


FLUSH_UPSETS = {
    "clean": lambda ks, dp: None,
    # A word in the initial key-add input rank, which enters S0 two cycles on.
    "ia_in_tag": lambda ks, dp: setattr(dp, "ia_in_tag", word_tag(0, MODE_DECRYPT, 3)),
    # A word in the final key-add input rank, which completes on the next cycle.
    "fa_in_tag": lambda ks, dp: setattr(dp, "fa_in_tag", word_tag(0, MODE_ENCRYPT, 3)),
    # Store injects, which hold over every cycle in service: the substitution
    # one takes S0's input, and the product one meets S2 at its mux once S2
    # leaves key initialization's reset, on the second cycle.
    "sub_bytes_inject": lambda ks, dp: setattr(ks, "sub_bytes_inject", (1 << 100, MODE_DECRYPT)),
    "mix_columns_inject": lambda ks, dp: setattr(ks, "mix_columns_inject", (1, MODE_DECRYPT)),
}


def flush_by_hand(upset, planned):
    """Compute a fresh-key core's flush, without the controller, from
    ``upset(ks, dp)`` on its first cycle, as one pass of held lines or as
    passes of one cycle each. Returns the state it leaves and its
    completions by offset, or its fault's type, message and offset."""
    dp, ctrl, ks = new_core(0xF1F1F1F1)
    while ctrl.cycle < KEY_INIT_END:
        step_cycle(dp, ctrl, ks)
    upset(ks, dp)
    done, completions = 0, []
    held = make_plan(TRACK_CYCLES, held=True)
    try:
        for plan in [held] if planned else single_cycles(held):
            completions += [(done + offset, tag, data)
                            for offset, tag, data in dp.compute_cycle(plan=plan, store=ks)]
            dp.commit_cycle()
            ks.commit()
            done += plan.cycles
    except SimulationFault as fault:
        return type(fault), str(fault), done + fault.offset
    return snapshot(dp, ctrl, ks), completions


@pytest.mark.parametrize("name", sorted(FLUSH_UPSETS))
def test_flush_pass_with_an_edge_word_or_inject_steps_its_cycles(monkeypatch, name):
    # A flush pass is computed at once only with no word at an edge rank and
    # no store inject; from such a state it steps its cycles, and leaves the
    # state, completions or fault that passes of one cycle do.
    flushes = flush_passes(monkeypatch)
    planned = flush_by_hand(FLUSH_UPSETS[name], planned=True)
    assert flushes[0] == (TRACK_CYCLES, name == "clean")
    assert planned == flush_by_hand(FLUSH_UPSETS[name], planned=False)
    if name == "fa_in_tag":
        assert [offset for offset, _, _ in planned[1]] == [1]
    if name == "mix_columns_inject":
        assert planned[0] is ProtocolError and planned[2] == 1


def registers(ctrl):
    return ctrl.track, ctrl.tags, ctrl._arriving0, ctrl._arriving1, ctrl.cycle


def decided(ctrl):
    return ctrl.fsm, lines(ctrl.plan)[0], ctrl.held_reset, tuple(ctrl.plan.admissions)


def step_each_cycle(ctrl, pending, cycles, modes):
    """Step ``cycles`` cycles one at a time, admitting greedily from
    ``pending`` jobs of ``modes``. Returns the admission offsets and each
    cycle's (divert, initial_reset, main_reset)."""
    admissions, taken = [], []
    for offset in range(cycles):
        plan = ctrl.begin_cycle(pending - len(admissions))
        taken.append(lines(plan)[0][1:])
        if plan.admissions:
            job = Job(len(admissions), modes[len(admissions) % len(modes)], bytes(16))
            ctrl.admit([job], (0, 0))
            admissions.append(offset)
        ctrl.commit()
    return admissions, taken


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    warmup=st.integers(0, 3 * BATCH_PERIOD),
    arrival=st.sampled_from((0.05, 0.2, 1.0)),
    pending=st.integers(0, 60),
    limit=st.integers(1, 6 * BATCH_PERIOD),
    start=st.integers(0, 10**6),
)
def test_planned_lines_equal_single_cycle_steps(seed, warmup, arrival, pending, limit, start):
    # From a run-phase state reached by stepping a controller with jobs
    # arriving at random, the planned pass admits on the cycles, and takes
    # the lines, that stepping its cycles one at a time gives from the same
    # registers and pending count; it ends at the limit or on the last
    # pending job's completion, however many batch periods on, and one
    # commit over it leaves the registers as stepping does. A pass of one
    # cycle from the same registers plans the first cycle's lines.
    rng = random.Random(seed)
    ctrl = Controller()
    ctrl.fsm = RUN
    ctrl.cycle = start
    queue = 0
    for _ in range(warmup):
        queue += rng.random() < arrival
        if ctrl.begin_cycle(queue).admissions:
            ctrl.admit([Job(0, rng.randrange(2), bytes(16))], (0, 0))
            queue -= 1
        ctrl.commit()
    modes = [rng.randrange(2) for _ in range(NUM_LOOP_STAGES)]

    planned = copy.deepcopy(ctrl)
    plan = planned.begin_cycle(pending, limit)
    span = plan.cycles
    admissions, taken = step_each_cycle(copy.deepcopy(ctrl), pending, span, modes)

    assert plan.admissions == admissions
    assert [entry[1:] for entry in lines(plan)] == taken
    single = copy.deepcopy(ctrl).begin_cycle(pending, 1)
    assert single.cycles == 1 and lines(single)[0] == lines(plan)[0]
    expected = limit
    if pending and len(admissions) == pending:
        expected = min(expected, admissions[-1] + BLOCK_LATENCY + 1)
    assert span == expected

    planned.admit([
        Job(index, modes[index % len(modes)], bytes(16)) for index in range(len(plan.admissions))
    ], (0, 0))
    planned.commit()
    stepped = copy.deepcopy(ctrl)
    step_each_cycle(stepped, pending, span, modes)
    assert registers(planned) == registers(stepped)


def test_key_init_plan_holds_the_lines_of_its_cycles():
    # From the first key-initialization cycle, the plan up to the cycle the
    # schedule reports ready on holds the lines that stepping its cycles one
    # at a time takes: no admission, no divert, and both key-add outputs in
    # reset.
    ctrl = Controller()
    ctrl.begin_cycle()
    ctrl.commit()
    planned = copy.deepcopy(ctrl)
    plan = planned.begin_cycle(0, 10 * BATCH_PERIOD)
    assert planned.fsm == KEY_INIT and KEY_READY_CYCLE == 47
    assert lines(plan) == [HELD] * 47 and HELD == (None, False, True, True)
    admissions, taken = step_each_cycle(ctrl, 0, plan.cycles, [MODE_ENCRYPT])
    assert admissions == []
    assert taken == [entry[1:] for entry in lines(plan)]


def test_commit_over_a_span_matches_its_single_commits():
    # On every run cycle and every flush cycle of a hand-stepped core, one
    # commit over the pass the controller plans from it, or over the rest
    # of the flush, leaves the controller's registers,
    # and the next cycle's FSM state and lines, as committing its cycles one
    # by one does.
    dp, ctrl, ks = new_core(int.from_bytes(FIPS_KEY, "big"))
    jobs = deque((job.seq, job.mode, int.from_bytes(job.block, "big")) for job in mixed_jobs(13, 5))
    modes = [MODE_ENCRYPT, MODE_DECRYPT]
    checked = {FLUSH: 0, RUN: 0}
    while ctrl.cycle < 400:
        probe = copy.deepcopy(ctrl)
        probe.begin_cycle(len(jobs), 1000)
        fsm = probe.fsm
        if fsm == FLUSH:
            span = RUN_START_CYCLE - probe.cycle
            spanned = probe
            spanned.commit()
        elif fsm == RUN:
            spanned = copy.deepcopy(ctrl)
            plan = spanned.begin_cycle(len(jobs), 1000)
            span = plan.cycles
            spanned.admit([
                Job(index, modes[index % len(modes)], bytes(16))
                for index in range(len(plan.admissions))
            ], (0, 0))
            spanned.commit()
        else:
            span = 0
        if span:
            stepped = copy.deepcopy(ctrl)
            step_each_cycle(stepped, len(jobs) if fsm == RUN else 0, span, modes)
            assert registers(spanned) == registers(stepped), probe.cycle
            # With a job waiting, both admit it on the next cycle or stall.
            spanned.begin_cycle(1)
            stepped.begin_cycle(1)
            assert decided(spanned) == decided(stepped), probe.cycle
            checked[fsm] += 1
        if step_cycle(dp, ctrl, ks, job=jobs[0] if jobs else None) is not None:
            jobs.popleft()
    assert not jobs and not dp.fa_out_tag & TAG_VALID
    assert checked[FLUSH] == TRACK_CYCLES and checked[RUN] > 100


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    cycles=st.integers(1, TRACK_CYCLES - 2),
    tags=st.integers(0, (1 << TAG_BITS * NUM_LOOP_STAGES) - 1),
    cycle=st.integers(0, 10**6),
)
def test_commit_of_n_run_cycles_equals_n_commits(data, cycles, tags, cycle):
    # A run-phase state with no arriving word, admission or divert, whose
    # track chains stay short of their final bit over the n cycles.
    chains = data.draw(
        st.lists(
            st.integers(0, (1 << TRACK_CYCLES - 1 - cycles) - 1),
            min_size=NUM_LOOP_STAGES,
            max_size=NUM_LOOP_STAGES,
        )
    )
    ctrl = Controller()
    ctrl.fsm = RUN
    ctrl.cycle = cycle
    ctrl.tags = tags
    ctrl.track = sum(chain << TRACK_CYCLES * slot for slot, chain in enumerate(chains))
    spanned = copy.copy(ctrl)
    spanned.plan = make_plan(cycles)
    spanned.commit()
    for _ in range(cycles):
        ctrl.commit()
    assert registers(spanned) == registers(ctrl)


def commit_outcome(ctrl, plans):
    """Commit each plan in turn, with the admissions and diverts it holds.
    Returns the registers it leaves, or the message of the fault a commit
    raises and its cycle's offset from the first."""
    done = 0
    for plan in plans:
        ctrl.plan = plan
        try:
            ctrl.commit()
        except ControlFault as fault:
            return str(fault), done + fault.offset
        done += plan.cycles
    return registers(ctrl)


ARRIVING_FIELDS = st.sampled_from((0, TAG_VALID | MODE_ENCRYPT, TAG_VALID | MODE_DECRYPT))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    chains=st.lists(
        st.integers(0, (1 << TRACK_CYCLES) - 1), min_size=NUM_LOOP_STAGES, max_size=NUM_LOOP_STAGES
    ),
    cycles=st.one_of(st.integers(1, 3), st.integers(TRACK_CYCLES - 2, 6 * BATCH_PERIOD)),
    tags=st.integers(0, (1 << TAG_BITS * NUM_LOOP_STAGES) - 1),
    cycle=st.integers(0, 10**6),
    arriving=st.tuples(ARRIVING_FIELDS, ARRIVING_FIELDS),
    late=st.tuples(*[st.sampled_from((None, MODE_ENCRYPT, MODE_DECRYPT))] * 2),
    diverts=st.sets(st.integers(0, 2)),
)
def test_commit_past_a_chain_length_equals_its_single_commits(
    chains, cycles, tags, cycle, arriving, late, diverts
):
    # A commit over a span of 1 to 3 cycles, or as long as a track chain or
    # longer, up to six batch periods, shifts every chain's bits past its
    # final bit, none into the next chain, and rotates the tag rank, as that
    # many single commits do from any chains. The fields of the arriving
    # registers, of admissions on the span's last two offsets and the S3
    # clears of diverts on its first three take effect on the commits single
    # commits apply them on, a field whose commit falls past the span staying
    # in the arriving registers, and a wrap into an arriving field faults on
    # the same commit.
    ctrl = Controller()
    ctrl.fsm = RUN
    ctrl.cycle = cycle
    ctrl.tags = tags
    ctrl.track = sum(chain << TRACK_CYCLES * slot for slot, chain in enumerate(chains))
    ctrl._arriving0, ctrl._arriving1 = arriving
    admissions = {
        offset: (0, 0, word_tag(offset, mode, (cycle + offset) % NUM_LOOP_STAGES))
        for offset, mode in zip((cycles - 2, cycles - 1), late)
        if offset >= 0 and mode is not None
    }
    plan = make_plan(cycles, admissions, [offset for offset in diverts if offset < cycles])
    spanned = commit_outcome(copy.copy(ctrl), [plan])
    assert spanned == commit_outcome(ctrl, single_cycles(plan))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    modes_and_blocks=st.integers(1, 60).flatmap(
        lambda n: st.lists(
            st.tuples(st.sampled_from((MODE_ENCRYPT, MODE_DECRYPT)), st.binary(min_size=16, max_size=16)),
            min_size=n,
            max_size=n,
        )
    ),
    key=st.one_of(st.just(FIPS_KEY), st.binary(min_size=16, max_size=16)),
)
def test_untraced_run_equals_traced_run(modes_and_blocks, key):
    # A traced run plans its passes as an untraced one does, but for ending
    # each within one batch period, and writes the trace a stepped run
    # writes, byte for byte.
    jobs = [Job(i, mode, block) for i, (mode, block) in enumerate(modes_and_blocks)]
    sim = PipelineSimulator()
    untraced = sim.run(key, jobs)
    trace, stepped_trace = io.StringIO(), io.StringIO()
    traced = sim.run(key, jobs, trace=trace)
    with pytest.MonkeyPatch.context() as monkeypatch:
        step_every_cycle(monkeypatch)
        stepped = sim.run(key, jobs, trace=stepped_trace)
    assert trace.getvalue() == stepped_trace.getvalue()
    assert untraced.outputs == traced.outputs == stepped.outputs
    assert untraced.key_store == traced.key_store == stepped.key_store
    assert untraced.summary == traced.summary == stepped.summary
    assert untraced.passes == 4
    assert 4 <= traced.passes < stepped.passes == stepped.summary.total_cycles


# Faults inside a pass. Each upset is made on a cycle that opens a pass in
# the planned runs, or on the record a pass plans for a later cycle, and the
# same upset is made on the same cycle of a run that steps every cycle.


def run_with_pass_upset(monkeypatch, jobs, cycle, trace=None, stepped=False, edit=None, core=None):
    """Run ``jobs``, applying ``edit(plan, offset)`` to the record of the
    pass that covers ``cycle``, at its offset, or applying ``core(ks, dp)``
    before the datapath computes ``cycle``, on which a pass then opens; a
    ``stepped`` run takes passes of one cycle. Returns the fault the run
    raises and each pass's first cycle and planned length."""
    passes = []
    if core is not None:
        end_passes_at(monkeypatch, [cycle])
    if stepped:
        step_every_cycle(monkeypatch)
    original_begin = Controller.begin_cycle

    def begin_cycle(self, *args):
        plan = original_begin(self, *args)
        passes.append((self.cycle, plan.cycles))
        offset = cycle - self.cycle
        if edit is not None and 0 <= offset < plan.cycles:
            edit(plan, offset)
        return plan

    def upset_pass(ctrl, dp, ks):
        if core is not None and ctrl.cycle == cycle:
            core(ks, dp)

    monkeypatch.setattr(Controller, "begin_cycle", begin_cycle)
    before_each_pass(monkeypatch, upset_pass)
    try:
        with pytest.raises(Exception) as err:
            PipelineSimulator().run(FIPS_KEY, jobs, trace=trace)
    finally:
        monkeypatch.undo()
    return err.value, passes


def divert_from_s2_takes_next_seq(ks, dp):
    # The word at S2 diverts on this cycle; it takes the sequence id of the
    # word behind it in S1, admitted a cycle later, and completes early by
    # that word's admission.
    words = dp.loop_tags
    dp.seqs[words[2].slot] = dp.seqs[words[1].slot]


def phantom_arrival(ks, dp):
    # A word appears in the initial key-add's input rank with no admission
    # behind it; it takes S0 on the next commit, as a loop word wraps there.
    dp.ia_in_tag = word_tag(0, MODE_ENCRYPT, 3)


def round_counter_past_the_window(ks, dp):
    # The word in S5 has read its key for round 5; its counter jumps to 8, so
    # that it asks for round 10 on its second read from the window's start.
    word = dp.loop_tags[5]
    assert ks.round_counters[word.slot] == 4
    ks.round_counters[word.slot] = 8


class ResetToLastMainRound(list):
    def __setitem__(self, slot, value):
        super().__setitem__(slot, value or MAIN_ROUNDS)


def seq_never_admitted(ks, dp):
    # The word due to divert first, in slot 0, takes sequence id 40 of a
    # 36-job run, which no admission wrote.
    dp.seqs[0] = 40


def seq_admitted_later(ks, dp):
    # The same word takes the sequence id of block 15, which the pass admits
    # on cycle 284, a cycle after the word completes.
    dp.seqs[0] = 15


def counters_reset_to_last_round(ks, dp):
    # Each later write of 0 to a round counter stores the last main round.
    ks.round_counters = ResetToLastMainRound(ks.round_counters)


def product_mux_second_source(ks, dp):
    # The key store drives the product path while the shift-rows register
    # holds zero; the register's next value collides with it.
    dp.s2 = 0
    ks.mix_columns_inject = (1, MODE_DECRYPT)


def substitution_mux_second_source(ks, dp):
    # The key store drives the substitution path as the run opens, with
    # S10 holding a zero word and key, so that S11 stays clear up to the
    # first block's arrival; the block from the initial key-add collides
    # with it there.
    dp.s10 = 0
    ks.sub_bytes_inject = (1, MODE_ENCRYPT)


def drop_divert(plan, offset):
    # The divert is removed from the record, for every reader.
    plan.diverts.remove(offset)


# name: (jobs, upset cycle, upset, fault, message prefix)
PASS_FAULTS = {
    # The plan's divert of the first block due is dropped for every
    # consumer; five cycles on it asks the key store for a tenth key.
    "dropped_divert": (13, 274, {"edit": drop_divert}, KeyStoreFault,
                       "cycle 279: slot 5 requested main-loop key for round 10"),
    # The key store drives the S-box mux from the run's first cycle, and the
    # first block leaves the initial key-add two cycles in.
    "substitution_mux": (13, RUN_START_CYCLE, {"core": substitution_mux_second_source},
                         ProtocolError, "cycle 163: OR-mux driven by multiple nonzero sources"),
    "product_mux": (13, RUN_START_CYCLE, {"core": product_mux_second_source}, ProtocolError,
                    "cycle 162: OR-mux driven by multiple nonzero sources"),
    "collision": (36, 281, {"core": phantom_arrival}, CollisionError,
                  "cycle 282: stage S0 claimed by arriving Word(seq=0, mode=0, slot=3) and "
                  "recirculating"),
    "latency": (36, 281, {"core": divert_from_s2_takes_next_seq}, TimingFault,
                "cycle 283: block 8 completed after 114 cycles, expected 115"),
    "never_admitted": (36, 281, {"core": seq_never_admitted}, TimingFault,
                       "cycle 283: block 40 completed without an admission"),
    "admitted_later": (36, 281, {"core": seq_admitted_later}, TimingFault,
                       "cycle 283: block 15 completed without an admission"),
    # From the pass opening at the second batch on, an admission resets its
    # slot's round counter to the last main round: the window, which resets the slots it
    # admits to as the loop does, declines, and the first word admitted asks
    # for a tenth key on its first S7 visit, ten cycles after its admission.
    "counter_reset_in_window": (36, 281, {"core": counters_reset_to_last_round},
                                KeyStoreFault,
                                "cycle 291: slot 5 requested main-loop key for round 10"),
    # Between two passes of a saturated run a live slot's round counter is
    # raised, and the next pass's fused window must fall back so the key read
    # past round 9 names its own cycle. The pass opens mid-batch: on a batch's
    # first cycle, every slot live in a window is admitted, and its counter
    # reset, in the window's own pass.
    "key_read_in_window": (36, 221, {"core": round_counter_past_the_window},
                           KeyStoreFault, "cycle 235: slot 9 requested main-loop key for round 10"),
}


@pytest.mark.parametrize("name", sorted(PASS_FAULTS))
def test_fault_inside_a_pass_names_its_own_cycle(monkeypatch, name):
    n_jobs, cycle, upset, fault_type, prefix = PASS_FAULTS[name]
    jobs = mixed_jobs(n_jobs, seed=7)
    trace, stepped_trace = io.StringIO(), io.StringIO()
    passed, passes = run_with_pass_upset(monkeypatch, jobs, cycle, **upset)
    traced, traced_passes = run_with_pass_upset(monkeypatch, jobs, cycle, trace=trace, **upset)
    stepped, _ = run_with_pass_upset(
        monkeypatch, jobs, cycle, trace=stepped_trace, stepped=True, **upset
    )
    assert type(passed) is type(traced) is type(stepped) is fault_type
    assert str(passed) == str(traced) == str(stepped)
    assert str(passed).startswith(prefix)
    assert passed.cycle == traced.cycle == stepped.cycle
    # The planned runs planned the faulting cycle inside a pass of many,
    # and raised there: no pass opens on it.
    for runs in (passes, traced_passes):
        assert any(start < passed.cycle < start + length for start, length in runs)
        assert all(start != passed.cycle for start, _ in runs)
    # The traced run's trace is the stepped run's; both end on the cycle
    # before the fault.
    assert trace.getvalue() == stepped_trace.getvalue()
    last = trace.getvalue().splitlines()[-1]
    assert last.startswith(f"cycle={passed.cycle - 1} ")


def drop_the_final_word(ks, dp):
    # The final key-add input rank's word, block 6, loses its valid bit, so
    # its output is never written.
    dp.fa_in_tag &= ~TAG_VALID


def test_wedge_names_the_block_it_lost(monkeypatch):
    # A run that loses an admitted block waits for it up to its cycle
    # budget; the wedge names the first admitted block with no output.
    jobs = mixed_jobs(36, seed=7)
    passed, _ = run_with_pass_upset(monkeypatch, jobs, 281, core=drop_the_final_word)
    stepped, _ = run_with_pass_upset(monkeypatch, jobs, 281, stepped=True,
                                     core=drop_the_final_word)
    assert type(passed) is type(stepped) is TimingFault
    assert str(passed) == str(stepped) == (
        "cycle 636: simulation exceeded its cycle budget (636); pipeline wedged; "
        "block 6, admitted on cycle 167, never completed"
    )
    assert passed.cycle == stepped.cycle == 636


def stray_mode_bit(ks, dp):
    # The first empty stage from S3 on gets a tag field with its mode bit set
    # and its valid bit clear. The field still picks the row shift's mode in
    # S1 and the final key's mode there; no check reads it.
    stage = next(k for k, word in enumerate(dp.loop_tags) if k > 2 and word is None)
    dp.tags |= 1 << TAG_BITS * stage


def test_stray_mode_bit_falls_back_to_cycle_steps(monkeypatch):
    # The 13-job run's passes end at cycle 281, so that its last pass,
    # cycles 281-396, diverts five words and admits one, and a fused window
    # covers cycles 281-394. With a stray mode bit upset into the tag rank
    # at the pass's start, the window falls back to the cycles, and every
    # committed state equals a stepped run's under the same upset.
    jobs = mixed_jobs(13, seed=13)
    upset = (RUN_START_CYCLE + BATCH_PERIOD, stray_mode_bit)
    clean, clean_states, _ = committed_states(monkeypatch, FIPS_KEY, jobs, ends=[upset[0]])
    passed, states, _ = committed_states(monkeypatch, FIPS_KEY, jobs, upset=upset)
    stepped, reference, _ = committed_states(monkeypatch, FIPS_KEY, jobs, stepped=True, upset=upset)
    assert clean.fused_cycles - passed.fused_cycles == 114
    for cycle, state in states.items():
        assert state == reference[cycle], f"cycle {cycle}"
    assert passed.outputs == stepped.outputs == clean.outputs
    # The stray bit reached the committed state, not the outputs.
    assert states.keys() == clean_states.keys()
    assert any(states[cycle] != clean_states[cycle] for cycle in states)


def shared_slot(ks, dp):
    # The word in S5 takes the slot of the word in S6: both read and count
    # the one round counter.
    field = TAG_BITS * 5
    dp.tags = dp.tags & ~(_SLOT_FIELD << 1 << field) | dp.loop_tags[6].slot << 1 << field


def test_shared_slot_falls_back_as_a_traced_run_steps(monkeypatch):
    # Two live stages share a slot from a pass opening mid-batch and running
    # past the next batch: the fused window falls back, and the untraced
    # run's datapath raises the key read past round 9 on the cycle the
    # traced run's raises it. Each planned run then checks the controller against
    # the upset on the pass's first cycle, as a stepped run does before any
    # later cycle, and all three name that fault. The traced run's trace is
    # a traced stepped run's, ending on the cycle before.
    jobs = mixed_jobs(36, seed=7)
    upset = {"core": shared_slot}
    trace, stepped_trace = io.StringIO(), io.StringIO()
    passed, _ = run_with_pass_upset(monkeypatch, jobs, 221, **upset)
    traced, _ = run_with_pass_upset(monkeypatch, jobs, 221, trace=trace, **upset)
    stepped, _ = run_with_pass_upset(
        monkeypatch, jobs, 221, trace=stepped_trace, stepped=True, **upset
    )
    assert trace.getvalue() == stepped_trace.getvalue()
    assert trace.getvalue().splitlines()[-1].startswith("cycle=220 ")
    for fault in (passed, traced, stepped):
        assert type(fault) is ControlFault and fault.cycle == 221
        assert str(fault) == "cycle 221: stage 5 holds slot 8, phase math requires 9"
    planned = passed.__context__, traced.__context__
    assert type(planned[0]) is type(planned[1]) is KeyStoreFault
    assert str(planned[0]) == str(planned[1]) == "slot 8 requested main-loop key for round 11"
    assert planned[0].offset == planned[1].offset == 258 - 221
    assert stepped.__context__ is None


def divert_takes_the_next_slot(ks, dp):
    # The word at S2, which diverts on this cycle, takes slot 1 for slot 0.
    dp.tags ^= 1 << 2 * TAG_BITS + 1


def test_check_names_the_word_its_slot_held_when_the_pass_opened(monkeypatch):
    # The pass opening at cycle 281 readmits slot 1 on cycle 289. With the
    # tag of the word due to divert at 281 upset to slot 1, the controller's
    # check on the pass's first cycle names the word that slot held on that
    # cycle, as a stepped run names it, not the one the pass admits later:
    # the pass's sequence ids are latched with its ranks at commit.
    jobs = mixed_jobs(36, seed=7)
    upset = {"core": divert_takes_the_next_slot}
    passed, passes = run_with_pass_upset(monkeypatch, jobs, 281, **upset)
    traced, _ = run_with_pass_upset(monkeypatch, jobs, 281, trace=io.StringIO(), **upset)
    stepped, _ = run_with_pass_upset(monkeypatch, jobs, 281, stepped=True, **upset)
    (length,) = [length for start, length in passes if start == 281]
    assert length > 289 - 281
    for fault in (passed, traced, stepped):
        assert type(fault) is ControlFault and fault.cycle == 281
        assert str(fault) == (
            "cycle 281: track 0 expired without its block at the shift-rows register "
            "(found Word(seq=8, mode=0, slot=1))"
        )


def test_no_window_while_a_word_is_on_its_way_in():
    # A pass that opens with a word in an initial key-add rank, one admitted
    # on the cycle before the pass (in ia_in) or the one before that (in
    # ia_out), tries no window: it computes every cycle, as single-cycle
    # passes do, though its later cycles are quiet and longer than a loop
    # traversal.
    for split in (1, 2):
        states = []
        for planned in (True, False):
            dp, ctrl, ks = core_in_run(int.from_bytes(FIPS_KEY, "big"))
            word = Word(seq=0, mode=MODE_DECRYPT, slot=ctrl.cycle % NUM_LOOP_STAGES)
            block = int.from_bytes(bytes(range(16)), "big")
            admission = (block, ks.initial_keys[MODE_DECRYPT], word_tag(*word))
            cycles = make_plan(42, {0: admission})
            for plan in cut(cycles, split) if planned else single_cycles(cycles):
                dp.compute_cycle(plan=plan, store=ks)
                dp.commit_cycle()
                ks.commit()
            assert dp.fused_cycles == 0 and dp.loop_tags.count(word) == 1, split
            states.append(snapshot(dp, ctrl, ks))
        assert states[0] == states[1], split


def lose_the_arriving_block(dp):
    # The initial key-add input rank loses its block and key.
    dp.ia_in = 0


# Hand-made runs of admissions the controller does not plan: per shape,
# each admission's (offset, slot offset), the diverts, the cycles that
# split the planned passes, an upset ``(cycle, core(dp))`` made before the
# datapath computes that cycle, which opens a pass, and the cycles the
# windows fuse.
BY_HAND = {
    # The second word arrives at the first one's S11 visit, behind the S11
    # reset, while the first is still in the loop: they collide on cycle 38.
    "live": ([(0, 0), (36, 0)], (), (24,), None, 22),
    # The first word diverts on cycle 29, and the initial key-add input rank
    # loses the second one's block and key on its arrival cycle, so that
    # word arrives as zero, as with the initial key-add's reset held there.
    "held": ([(0, 0), (36, 0)], (29,), (24,), (37, lose_the_arriving_block), 22),
    # The second word takes the first one's slot at another loop position,
    # and both read and count the one round counter.
    "shared": ([(0, 0), (6, 0)], (), (), None, 0),
    # One pass of 140 cycles that does not divert its word: the word asks
    # for a tenth key on cycle 118.
    "unending": ([(0, 0)], (), (), None, 0),
}


def run_by_hand(shape, planned):
    """Compute the ``shape``'s cycles on a core in run, as planned passes or
    single-cycle passes. Returns the core's state, or the fault's type,
    message and cycle, and the cycles fused."""
    admissions, diverts, ends, upset, _ = BY_HAND[shape]
    dp, ctrl, ks = core_in_run(int.from_bytes(FIPS_KEY, "big"))
    words = {}
    for seq, (offset, slot) in enumerate(admissions):
        tag = word_tag(seq, MODE_DECRYPT, (ctrl.cycle + slot) % NUM_LOOP_STAGES)
        block = int.from_bytes(bytes(range(seq, seq + 16)), "big")
        words[offset] = (block, ks.initial_keys[MODE_DECRYPT], tag)
    cycles = make_plan(140 if shape == "unending" else 72, words, diverts)
    if upset is not None:
        ends = (*ends, upset[0])
    done = 0
    try:
        for plan in cut(cycles, *ends) if planned else single_cycles(cycles):
            if upset is not None and done == upset[0]:
                upset[1](dp)
            dp.compute_cycle(plan=plan, store=ks)
            dp.commit_cycle()
            ks.commit()
            done += plan.cycles
    except SimulationFault as fault:
        return (type(fault), str(fault), done + fault.offset), dp.fused_cycles
    return snapshot(dp, ctrl, ks), dp.fused_cycles


@pytest.mark.parametrize("shape", sorted(BY_HAND))
def test_admission_of_no_steady_shape_falls_back(shape):
    # A window declines each of these admissions: the planned passes raise
    # the fault with the message and on the cycle single-cycle passes raise
    # it, or leave their state. A pass before the one that declines fuses
    # its window, an admission of the steady shape included.
    (planned, fused), (stepped, _) = run_by_hand(shape, True), run_by_hand(shape, False)
    assert planned == stepped and fused == BY_HAND[shape][-1]
    if shape == "live":
        assert planned[0] is CollisionError and planned[2] == 38
        assert planned[1].startswith("stage S0 claimed by arriving Word(seq=1,")
    if shape == "unending":
        assert planned[0] is KeyStoreFault and planned[2] == 118
        assert planned[1].endswith("requested main-loop key for round 10")


def test_window_starts_on_a_quiet_first_cycle(monkeypatch):
    # A pass with no word on its way in starts its window on its first
    # cycle. Capped at 51 cycles, the second run pass of a one-batch run
    # holds no event: its window fuses 49 of its 51 QUIET cycles, from cycle
    # 0 to two before the pass's end. Every commit equals a stepped run's.
    jobs = mixed_jobs(12, seed=12)
    quiet_passes = []
    compute_cycle = RoundDatapath.compute_cycle

    def counted(self, **kwargs):
        before, plan = self.fused_cycles, kwargs["plan"]
        completions = compute_cycle(self, **kwargs)
        if all(entry == QUIET for entry in lines(plan)):
            quiet_passes.append((plan.cycles, self.fused_cycles - before))
        return completions

    monkeypatch.setattr(RoundDatapath, "compute_cycle", counted)
    passed, states, _ = committed_states(monkeypatch, FIPS_KEY, jobs, cap=51)
    stepped, reference, _ = committed_states(monkeypatch, FIPS_KEY, jobs, stepped=True)
    assert (51, 49) in quiet_passes
    for cycle, state in states.items():
        assert state == reference[cycle], f"cycle {cycle}"
    assert passed.outputs == stepped.outputs


def test_fused_windows_run_untraced_only():
    # A saturated untraced run computes its run phase, one pass, in fused
    # windows, all but the last two cycles, events included; a traced run
    # computes every cycle one by one, to record its taps.
    jobs = mixed_jobs(36, seed=9)
    sim = PipelineSimulator()
    untraced, traced = sim.run(FIPS_KEY, jobs), sim.run(FIPS_KEY, jobs, trace=io.StringIO())
    assert untraced.fused_cycles == untraced.summary.total_cycles - RUN_START_CYCLE - 2
    assert untraced.fused_cycles >= 3 * 118
    assert traced.fused_cycles == 0
    assert untraced.outputs == traced.outputs


def key_init_substitution_mux(ks, dp):
    # S11 holds a word on the cycle the program injects its first
    # substitution: two sources on the S-box mux.
    dp.s11 = 1


def test_fault_on_a_key_init_pass_names_its_own_cycle(monkeypatch):
    # A key-initialization pass can fault only on its first cycle: from the
    # second on, the shift-rows, main and initial resets hold S2, S11 and
    # the initial key-add output at zero, so neither OR mux sees a second
    # source; no word is in the loop to collide, divert or complete, and
    # the key store serves no read. An upset on the first cycle raises as a
    # stepped run raises it, and the trace ends where the stepped one ends.
    # Such a pass is not computed at once: the program resumes on the reset
    # cycle and on the cycle that faults.
    jobs = mixed_jobs(1, seed=7)
    trace, stepped_trace = io.StringIO(), io.StringIO()
    upset = {"core": key_init_substitution_mux}
    resumes = program_resumes(monkeypatch)
    passed, passes = run_with_pass_upset(monkeypatch, jobs, 1, trace=trace, **upset)
    assert len(resumes) == 2
    stepped, _ = run_with_pass_upset(
        monkeypatch, jobs, 1, trace=stepped_trace, stepped=True, **upset
    )
    assert type(passed) is type(stepped) is ProtocolError
    assert str(passed) == str(stepped)
    assert str(passed).startswith("cycle 1: OR-mux driven by multiple nonzero sources")
    assert passed.cycle == stepped.cycle == 1
    # The planned run planned key initialization as one pass from cycle 1.
    assert passes[1] == (1, KEY_INIT_CYCLES + 1)
    assert trace.getvalue() == stepped_trace.getvalue()
    assert trace.getvalue().splitlines()[-1].startswith("cycle=0 ")
