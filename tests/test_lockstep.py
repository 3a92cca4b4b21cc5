"""Lockstep: the flat round datapath against the composition of the unit classes.

A seeded simulator run, stepping every cycle, records the arguments of
every ``compute_cycle`` call but the key store, through reset, key
initialization, flush and run; each call is one cycle, and the keys and
injects the store gave it, read off the store after the call, join its
arguments. The flush cycles the run skips from a fixed point repeat
the last stepped cycle's inputs, so the replay inserts them as repeats
of that call. The same arguments drive :class:`ComposedDatapath` (the unit
classes stepped through the fabric primitives) and a fresh
:class:`RoundDatapath`; every tap, its tag, and the substitution and
column-mix outputs must agree on every cycle.
"""

import io
import random

from composed_datapath import ComposedDatapath
from cycle_protocol import step_every_cycle
from drablocus.aesref import NUM_ROUNDS
from drablocus.datapath import MAIN_ROUNDS, RoundDatapath
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def recorded_run(monkeypatch, jobs):
    """The ``compute_cycle`` arguments of every cycle of one run, with the
    keys and injects the key store gave the cycle in place of the store,
    skipped cycles as repeats of the call before them, and each cycle's FSM
    state."""
    calls = []
    original = RoundDatapath.compute_cycle

    def recording(self, *, store, **kwargs):
        completions = original(self, store=store, **kwargs)
        kwargs.update(
            main_key=store.out_a, final_key=store.out_b,
            ks_sub_bytes=store.sub_bytes_inject, ks_mix_columns=store.mix_columns_inject,
        )
        calls.append(kwargs)
        return completions

    monkeypatch.setattr(RoundDatapath, "compute_cycle", recording)
    step_every_cycle(monkeypatch)
    trace = io.StringIO()
    summary = PipelineSimulator().run(FIPS_KEY, jobs, trace=trace).summary
    monkeypatch.undo()
    # Each call is one cycle; its tap records are the trace's.
    for kwargs in calls:
        assert kwargs.pop("plan") == ()
        kwargs.pop("taps")
    # The skipped span runs up to the transition into run.
    first = summary.run_start_cycle - summary.skipped_cycles
    assert summary.skipped_cycles > 0 and len(calls) > first
    calls[first:first] = [calls[first - 1]] * summary.skipped_cycles
    phases = [line.split()[1].removeprefix("fsm=")
              for line in trace.getvalue().splitlines() if " fsm=" in line]
    return calls, phases


def test_flat_step_matches_composed_units_every_cycle(monkeypatch):
    rng = random.Random(0xD12AB)
    jobs = [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)),
            bytes(rng.randrange(256) for _ in range(16)))
        for i in range(100)
    ]
    calls, phases = recorded_run(monkeypatch, jobs)
    assert len(calls) == len(phases)
    assert set(phases) == {"reset", "key_init", "flush", "run"}
    # The replay carries the store's keys and injects: one substitution per
    # expansion round and one inverse mix per inner key in key
    # initialization, and round keys in run.
    key_init = [kwargs for kwargs, phase in zip(calls, phases) if phase == "key_init"]
    assert sum(bool(kwargs["ks_sub_bytes"][0]) for kwargs in key_init) == NUM_ROUNDS
    assert sum(bool(kwargs["ks_mix_columns"][0]) for kwargs in key_init) == MAIN_ROUNDS
    run = [kwargs for kwargs, phase in zip(calls, phases) if phase == "run"]
    assert all(kwargs["final_key"] for kwargs in run) and any(kwargs["main_key"] for kwargs in run)

    composed, flat = ComposedDatapath(), RoundDatapath()
    for cycle, kwargs in enumerate(calls):
        composed.compute_cycle(**kwargs)
        flat.compute_cycle(**kwargs)
        assert flat.taps() == composed.taps(), f"cycle {cycle} ({phases[cycle]})"
        assert flat.s1 == composed.sub_bytes.out, f"cycle {cycle}"
        assert flat.s8 == composed.mix_columns.out, f"cycle {cycle}"
        assert flat.loop_tags == tuple(composed.loop_tags), f"cycle {cycle}"
        composed.commit_cycle()
        flat.commit_cycle()
    assert flat.taps() == composed.taps()
