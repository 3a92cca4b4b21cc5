"""Lockstep: the flat round datapath against the composition of the unit classes.

A seeded simulator run, stepping every cycle, records the arguments of
every ``compute_cycle`` call but the key store, through reset, key
initialization, flush and run; each call is one cycle, the record of a
pass of one cycle, whose lines the composition decodes from it, and the
keys and injects the store gave it, read off the store after the call,
make the cycle's line of a script. The same calls drive
:class:`ComposedDatapath` (the unit classes stepped through the fabric
primitives) and a fresh :class:`RoundDatapath`, each with a
:class:`ScriptedStore` of the script; every tap, its tag, and the
substitution and column-mix outputs must agree on every cycle.
"""

import io
import random

from composed_datapath import ComposedDatapath
from cycle_protocol import ScriptedStore, step_every_cycle
from drablocus import aesref
from drablocus.aesref import NUM_ROUNDS
from drablocus.datapath import MAIN_ROUNDS, RoundDatapath
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def recorded_run(monkeypatch, jobs):
    """The ``compute_cycle`` arguments of every cycle of one run but the key
    store, the keys and injects the store gave each cycle, and each cycle's
    FSM state."""
    calls, script = [], []
    original = RoundDatapath.compute_cycle

    def recording(self, *, store, **kwargs):
        completions = original(self, store=store, **kwargs)
        calls.append(kwargs)
        script.append((store.out_a, store.out_b, store.sub_bytes_inject, store.mix_columns_inject))
        return completions

    monkeypatch.setattr(RoundDatapath, "compute_cycle", recording)
    step_every_cycle(monkeypatch)
    trace = io.StringIO()
    summary = PipelineSimulator().run(FIPS_KEY, jobs, trace=trace).summary
    monkeypatch.undo()
    # Each call is one cycle; its tap records are the trace's.
    assert len(calls) == summary.total_cycles
    for kwargs in calls:
        assert kwargs["plan"].cycles == 1
        kwargs.pop("taps")
    phases = [line.split()[1].removeprefix("fsm=")
              for line in trace.getvalue().splitlines() if " fsm=" in line]
    return calls, script, phases


def test_flat_step_matches_composed_units_every_cycle(monkeypatch):
    rng = random.Random(0xD12AB)
    jobs = [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)),
            bytes(rng.randrange(256) for _ in range(16)))
        for i in range(100)
    ]
    calls, script, phases = recorded_run(monkeypatch, jobs)
    assert len(calls) == len(script) == len(phases)
    assert set(phases) == {"reset", "key_init", "flush", "run"}
    # The script carries the store's keys and injects: one substitution per
    # expansion round and one inverse mix per inner key in key
    # initialization, and round keys in run.
    key_init = [keys for keys, phase in zip(script, phases) if phase == "key_init"]
    assert sum(bool(sub_bytes[0]) for _, _, sub_bytes, _ in key_init) == NUM_ROUNDS
    assert sum(bool(mix_columns[0]) for _, _, _, mix_columns in key_init) == MAIN_ROUNDS
    run = [keys for keys, phase in zip(script, phases) if phase == "run"]
    assert all(final_key for _, final_key, _, _ in run) and any(main_key for main_key, *_ in run)

    composed, flat = ComposedDatapath(), RoundDatapath()
    composed_store, flat_store = ScriptedStore(script), ScriptedStore(script)
    completed = {}
    for cycle, kwargs in enumerate(calls):
        composed.compute_cycle(store=composed_store, **kwargs)
        flat.compute_cycle(store=flat_store, **kwargs)
        assert flat.taps() == composed.taps(), f"cycle {cycle} ({phases[cycle]})"
        assert flat.s1 == composed.sub_bytes.out, f"cycle {cycle}"
        assert flat.s8 == composed.mix_columns.out, f"cycle {cycle}"
        assert flat.loop_tags == tuple(composed.loop_tags), f"cycle {cycle}"
        value, tag = flat.taps()[5]
        if tag is not None:
            completed[tag.seq] = value.to_bytes(16, "big")
        composed.commit_cycle()
        flat.commit_cycle()
    assert flat.taps() == composed.taps()
    # The replay, under the script's keys, completes every job as the run did.
    assert completed == {
        job.seq: (aesref.decrypt_block if job.mode else aesref.encrypt_block)(FIPS_KEY, job.block)
        for job in jobs
    }
