"""Golden digests: cycle traces and outputs pinned byte for byte.

Any change to the per-cycle step must leave every trace line and every
output block unchanged. The digests below are SHA-256 over the text the
simulator writes: the ``--trace`` stream and the ``<seq> <hex>`` output
lines of :func:`write_outputs`.
"""

import hashlib
import io
import random

import pytest

from cycle_protocol import step_every_cycle
from drablocus.controller import RUN, Controller
from drablocus.datapath import NUM_LOOP_STAGES
from drablocus.simulator import Job, PipelineSimulator, write_outputs
from drablocus.tables import MODE_DECRYPT, MODE_ENCRYPT

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

# name: (seed, fresh key, jobs, trace SHA-256, outputs SHA-256). A fresh key
# is drawn from the seeded generator before the jobs; otherwise the run uses
# the FIPS-197 key, as the acceptance suite does.
GOLDEN = {
    "mixed_120": (
        0xD12AB, False, 120,
        "7bbdc4a82975a27bf20fc9dad967627b7805fe9f47656c857d26068e3d086040",
        "3c6daf8f5888ed41e4839f11e583533b0ba994b3514b466c531c71a4e6e3fcfc",
    ),
    "fresh_key_1": (
        0x6B01, True, 1,
        "5af75c857e9dcfaef7c5d4e0b4538f619b80d4633e3ac3ab67eee01be47b0371",
        "a9c3b6be9c4077aed6a2429efc86351c3506dd7c51d99f98d21de3c43098d2c9",
    ),
    "fresh_key_13": (
        0x6B0D, True, 13,
        "9a31091460910d8cc82b5158b675d2be095b96d18982c26f319314c4b3c3a81f",
        "c629bb13cac3b22b1d63dd31510321a7d09f624098fc8e010d6272b9c8177bda",
    ),
}


def mixed_jobs(rng: random.Random, n: int) -> list[Job]:
    """Independently random modes and blocks, drawn as the acceptance suite draws them."""
    return [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)),
            bytes(rng.randrange(256) for _ in range(16)))
        for i in range(n)
    ]


def digests(seed: int, fresh_key: bool, n: int) -> tuple[str, str]:
    rng = random.Random(seed)
    key = rng.randbytes(16) if fresh_key else FIPS_KEY
    jobs = mixed_jobs(rng, n)
    trace, outputs = io.StringIO(), io.StringIO()
    result = PipelineSimulator().run(key, jobs, trace=trace)
    write_outputs(jobs, result.outputs, outputs)
    return (
        hashlib.sha256(trace.getvalue().encode()).hexdigest(),
        hashlib.sha256(outputs.getvalue().encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_and_outputs_match_golden_digests(name):
    seed, fresh_key, n, trace_sha, out_sha = GOLDEN[name]
    assert digests(seed, fresh_key, n) == (trace_sha, out_sha)


# The trace writer's rendering before it was rewritten over precomputed
# text and tap records, kept as the reference it must match on every cycle.
REFERENCE_TAP_IDS = ("ia", "sb", "sr", "mc", "ark", "fin")


def reference_status_line(cycle, fsm, occupancy, stalled):
    return f"cycle={cycle} fsm={fsm} occ={occupancy:012b} stall={1 if stalled else 0}\n"


def reference_cycle_text(ctrl, dp, stalled):
    lines = [reference_status_line(ctrl.cycle, ctrl.fsm, ctrl.occupancy, stalled)]
    for stage_id, (value, tag) in zip(REFERENCE_TAP_IDS, dp.taps()):
        if tag is not None:
            lines.append(
                f"cycle={ctrl.cycle} stage={stage_id} slot={tag.slot} "
                f"mode={'d' if tag.mode else 'e'} data={value:032x}\n"
            )
    return "".join(lines)


@pytest.mark.parametrize("fresh_key", [False, True], ids=["fips_key", "fresh_key"])
@pytest.mark.parametrize("n", [1, 13, 120])
def test_trace_writer_matches_reference_rendering_every_cycle(monkeypatch, fresh_key, n):
    # The reference text of each cycle is rendered from a stepped run's
    # committed state, once the controller's check has passed on it; the
    # whole trace of a run of planned passes must be that text.
    rng = random.Random(0x7E + n)
    key = rng.randbytes(16) if fresh_key else FIPS_KEY
    jobs = mixed_jobs(rng, n)
    stepped, state = {}, {}
    step_every_cycle(monkeypatch)
    begin_cycle, check_against = Controller.begin_cycle, Controller.check_against

    def deciding(self, pending=0, limit=1):
        plan = begin_cycle(self, pending, limit)
        state["stalled"] = self.fsm == RUN and pending > 0 and not self.admissions
        return plan

    def rendering(self, datapath):
        check_against(self, datapath)
        stalled = state["stalled"]
        stepped[self.cycle] = (self.fsm, stalled, reference_cycle_text(self, datapath, stalled))

    monkeypatch.setattr(Controller, "begin_cycle", deciding)
    monkeypatch.setattr(Controller, "check_against", rendering)
    result = PipelineSimulator().run(key, jobs)
    monkeypatch.undo()
    trace = io.StringIO()
    planned = PipelineSimulator().run(key, jobs, trace=trace)

    total = result.summary.total_cycles
    assert planned.passes < result.passes == len(stepped) == total
    assert trace.getvalue() == "".join(stepped[cycle][2] for cycle in range(total))
    # Every FSM state, both stall values (once a block must wait) and every
    # tap were on the checked path.
    assert {fsm for fsm, _, _ in stepped.values()} == {"reset", "key_init", "flush", "run"}
    assert {stalled for _, stalled, _ in stepped.values()} == {False, n > NUM_LOOP_STAGES}
    stages = {line.split()[1] for line in trace.getvalue().splitlines() if " stage=" in line}
    assert stages == {f"stage={stage_id}" for stage_id in REFERENCE_TAP_IDS}
