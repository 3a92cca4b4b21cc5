"""Windows: a run without a trace steps its event-free cycles together.

Stepping a window must leave the core exactly as stepping each of its
cycles would. The lockstep test snapshots every rank, tag rank, track
chain, key-store output and round counter after each commit of an
untraced run, window ends included, and compares each snapshot with a
traced run's at the same cycle; the traced run steps every cycle. The
property test compares whole runs, traced and untraced. Unit tests
check the controller's count of event-free cycles, and a test on a
hand-stepped core and a property check that one commit over such cycles
leaves the controller as committing them one by one does.
"""

import copy
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_protocol import new_core, step_cycle
from drablocus.controller import FLUSH, RUN, Controller
from drablocus.datapath import (
    NUM_LOOP_STAGES, TAG_BITS, TAG_VALID, TRACK_CYCLES, RoundDatapath,
)
from drablocus.keyschedule import READY, KeyScheduler
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


class Discard:
    """A trace sink that keeps nothing: attached, it makes every cycle step."""

    def write(self, text):
        pass


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
        ks.out_a, ks.out_b, ks.addr_a, ks.addr_b, tuple(ks.round_counters), tuple(ks.image),
    )


def committed_states(monkeypatch, key, jobs, trace):
    """The core's state after every commit of one run, by the cycle it
    leads into, and the cycles at which windows end."""
    core, states, window_ends = {}, {}, []
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

    def recorded_ctrl_commit(self, cycles=1):
        ctrl_commit(self, cycles)
        if cycles > 1 and self.fsm == RUN:
            window_ends.append(self.cycle)

    monkeypatch.setattr(KeyScheduler, "commit", recorded_commit)
    monkeypatch.setattr(Controller, "commit", recorded_ctrl_commit)
    result = PipelineSimulator().run(key, jobs, trace=trace)
    monkeypatch.undo()
    return result, states, window_ends


@pytest.mark.parametrize("n_jobs", [1, 13, 120, 500])
@pytest.mark.parametrize("fresh_key", [False, True], ids=["fips", "fresh"])
def test_window_ends_match_per_cycle_stepping(monkeypatch, n_jobs, fresh_key):
    key = random.Random(n_jobs).randbytes(16) if fresh_key else FIPS_KEY
    jobs = mixed_jobs(n_jobs, seed=n_jobs)
    windowed, states, window_ends = committed_states(monkeypatch, key, jobs, None)
    stepped, reference, no_windows = committed_states(monkeypatch, key, jobs, Discard())

    assert windowed.summary.window_cycles > 0 and len(window_ends) > 0
    assert no_windows == [] and stepped.summary.window_cycles == 0
    assert set(window_ends) <= set(states)
    for cycle, state in states.items():
        assert state == reference[cycle], f"cycle {cycle}"
    assert windowed.outputs == stepped.outputs


def test_event_free_cycles_end_before_the_next_divert_or_admission():
    ctrl = Controller()
    ctrl.fsm = RUN
    # Stages 9, 8 and 7 hold words: the rotation brings stage 6's empty
    # field to stage 9 three cycles on, where a waiting job is admitted.
    ctrl.tags = sum(TAG_VALID << TAG_BITS * stage for stage in (9, 8, 7))
    assert ctrl.event_free_cycles(pending=True, limit=1000) == 3
    assert ctrl.event_free_cycles(pending=False, limit=1000) == 1000
    # The highest track bit, bit 100 of slot 4's chain, reaches the final
    # bit 112 twelve cycles on, and its block diverts then.
    ctrl.track = 1 << TRACK_CYCLES * 4 + 100 | 1 << TRACK_CYCLES * 7 + 3
    assert ctrl.event_free_cycles(pending=False, limit=1000) == 12
    assert ctrl.event_free_cycles(pending=True, limit=1000) == 3
    assert ctrl.event_free_cycles(pending=False, limit=5) == 5
    # A word on its way through the initial key-add opens no window.
    ctrl._arriving1 = TAG_VALID
    assert ctrl.event_free_cycles(pending=False, limit=1000) == 0


def registers(ctrl):
    return (
        ctrl.track, ctrl.tags, ctrl._arriving0, ctrl._arriving1, ctrl._admitted_now, ctrl.cycle,
    )


def test_commit_over_a_span_matches_its_single_commits():
    # On every event-free run cycle and every flush cycle at the fixed point
    # of a hand-stepped core, one commit over the cycles the run would cover
    # from it leaves the controller's registers, and the next cycle's FSM
    # state and lines, as committing them one by one does.
    def lines(ctrl):
        return (
            ctrl.fsm, ctrl.initial_reset, ctrl.main_reset, ctrl.shift_rows_reset,
            ctrl.final_reset, ctrl.divert, ctrl.admit_ready,
        )

    dp, ctrl, ks = new_core(int.from_bytes(FIPS_KEY, "big"))
    jobs = deque((job.seq, job.mode, int.from_bytes(job.block, "big")) for job in mixed_jobs(13, 5))
    checked = {FLUSH: 0, RUN: 0}
    while ctrl.cycle < 400:
        probe = copy.copy(ctrl)
        probe.begin_cycle(ks.fsm == READY)
        if probe.fsm == FLUSH and probe.at_fixed_point():
            span = probe.flush_end - probe.cycle
        else:
            span = probe.event_free_cycles(bool(jobs), 1000)
        if span:
            spanned, stepped = copy.copy(probe), copy.copy(probe)
            spanned.commit(span)
            for step in range(span):
                if step:
                    stepped.begin_cycle(True)
                stepped.commit()
            assert registers(spanned) == registers(stepped), probe.cycle
            spanned.begin_cycle(True)
            stepped.begin_cycle(True)
            assert lines(spanned) == lines(stepped), probe.cycle
            checked[probe.fsm] += 1
        if step_cycle(dp, ctrl, ks, job=jobs[0] if jobs else None) is not None:
            jobs.popleft()
    assert not jobs and dp.fa_out_tag is None
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
    spanned.commit(cycles)
    for _ in range(cycles):
        ctrl.commit()
    assert registers(spanned) == registers(ctrl)


def summary_fields(summary):
    fields = vars(summary).copy()
    steps = fields.pop("stepped_cycles") + fields.pop("window_cycles")
    return fields, steps


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
    jobs = [Job(i, mode, block) for i, (mode, block) in enumerate(modes_and_blocks)]
    sim = PipelineSimulator()
    untraced = sim.run(key, jobs)
    traced = sim.run(key, jobs, trace=Discard())
    assert untraced.outputs == traced.outputs
    assert untraced.key_store == traced.key_store
    assert summary_fields(untraced.summary) == summary_fields(traced.summary)
    assert traced.summary.window_cycles == 0
    for summary in (untraced.summary, traced.summary):
        assert (
            summary.stepped_cycles + summary.window_cycles + summary.skipped_cycles
            == summary.total_cycles
        )

