"""Single-bit upsets on a pass's first cycle: planned runs against stepped ones.

Each upset flips one bit of the core before the datapath computes cycle
281, the first cycle of the second batch of a 36-job run under the FIPS
key, on which the planned run's passes are made to open
(:func:`cycle_protocol.end_passes_at`). The same upset is made on the same
cycle of a run that steps every cycle. A run's outcome is its outputs, or
the class, message and cycle of the fault it raises; the probe counts the
upsets whose two outcomes differ. The upsets are every bit of the
datapath's and the controller's tag ranks, four bits of each slot's round
counter, and bits drawn with a seeded generator from the track chains and
from the S2, S8, S9 and S11 data ranks. A second line counts, apart from
them, the upsets of the low ``TAG_BITS`` bits (valid, slot and mode) of
each of the datapath's four edge tag ranks, the initial and final key-add
instances' input and output tags. A third counts the upsets of the low
``TAG_BITS`` bits of each loop slot's entry in the datapath's sequence-id
table ``dp.seqs``. A fourth counts the upsets of 4 bits, drawn with a
seeded generator, of each data rank the first line does not sample: S0,
S1, S3 to S7, S10 and the initial and final key-add instances' input and
output ranks.

Run it with ``PYTHONPATH=src:tests python3 tests/upset_probe.py [seed]``.
"""

import random
import sys

import pytest

from cycle_protocol import before_each_pass, end_passes_at, step_every_cycle
from drablocus.datapath import NUM_LOOP_STAGES, TAG_BITS, TRACK_CYCLES
from drablocus.simulator import PipelineSimulator
from test_faults import FIPS_KEY, mixed_jobs

UPSET_CYCLE = 281
_RANK_BITS = TAG_BITS * NUM_LOOP_STAGES
_DATA_BITS = {"s2": 128, "s8": 128, "s9": 256, "s11": 128}
# The data ranks the first line does not sample, by width.
_UNSAMPLED_BITS = {"s0": 128, "s1": 128, "s3": 512, "s4": 512, "s5": 512, "s6": 384, "s7": 256,
                   "s10": 256, "ia_in": 256, "ia_out": 128, "fa_in": 256, "fa_out": 128}
_EDGE_TAGS = ("ia_in_tag", "ia_out_tag", "fa_in_tag", "fa_out_tag")


def flip(target, name, bit):
    setattr(target, name, getattr(target, name) ^ 1 << bit)


def dp_upset(name, bit):
    """The upset of bit ``bit`` of the datapath's rank ``name`` as ``(label, apply)``."""
    return f"dp.{name}[{bit}]", lambda c, d, k: flip(d, name, bit)


def upsets(seed=0x16, track_bits=150, data_bits=40):
    """Each upset as ``(label, apply(ctrl, dp, ks))``."""
    rng = random.Random(seed)
    chosen = [(f"dp.tags[{bit}]", lambda c, d, k, bit=bit: flip(d, "tags", bit))
              for bit in range(_RANK_BITS)]
    chosen += [(f"ctrl.tags[{bit}]", lambda c, d, k, bit=bit: flip(c, "tags", bit))
               for bit in range(_RANK_BITS)]
    chosen += [(f"ctrl.track[{bit}]", lambda c, d, k, bit=bit: flip(c, "track", bit))
               for bit in sorted(rng.sample(range(NUM_LOOP_STAGES * TRACK_CYCLES), track_bits))]
    for slot in range(NUM_LOOP_STAGES):
        for bit in range(4):
            def counter(c, d, k, slot=slot, bit=bit):
                k.round_counters[slot] ^= 1 << bit
            chosen.append((f"counter[{slot}][{bit}]", counter))
    ranks = [(name, bit) for name, width in _DATA_BITS.items() for bit in range(width)]
    chosen += [dp_upset(name, bit) for name, bit in sorted(rng.sample(ranks, data_bits))]
    return chosen


def edge_upsets():
    """Each upset of an edge tag rank's field bits as ``(label, apply(ctrl, dp, ks))``."""
    return [dp_upset(name, bit) for name in _EDGE_TAGS for bit in range(TAG_BITS)]


def seq_upsets():
    """Each upset of a low bit of a slot's sequence id as ``(label, apply(ctrl, dp, ks))``."""
    chosen = []
    for slot in range(NUM_LOOP_STAGES):
        for bit in range(TAG_BITS):
            def seq(c, d, k, slot=slot, bit=bit):
                d.seqs[slot] ^= 1 << bit
            chosen.append((f"dp.seqs[{slot}][{bit}]", seq))
    return chosen


def unsampled_upsets():
    """Each upset of 4 seeded bits of each data rank the first line does not
    sample as ``(label, apply(ctrl, dp, ks))``."""
    rng = random.Random(0x16)
    return [dp_upset(name, bit) for name, width in _UNSAMPLED_BITS.items()
            for bit in sorted(rng.sample(range(width), 4))]


def outcome(apply, stepped, jobs):
    """The run's outputs, or its fault's class, message and cycle."""
    def upset(ctrl, dp, ks):
        if ctrl.cycle == UPSET_CYCLE:
            apply(ctrl, dp, ks)

    with pytest.MonkeyPatch.context() as monkeypatch:
        if stepped:
            step_every_cycle(monkeypatch)
        else:
            end_passes_at(monkeypatch, [UPSET_CYCLE])
        before_each_pass(monkeypatch, upset)
        try:
            return sorted(PipelineSimulator().run(FIPS_KEY, jobs).outputs.items())
        except Exception as fault:  # an upset may end a run in any exception: that is its outcome
            return type(fault).__name__, str(fault), getattr(fault, "cycle", None)


def disagreements(chosen):
    """The labels of the ``chosen`` upsets whose planned and stepped
    outcomes differ, and the count of upsets."""
    jobs = mixed_jobs(36, seed=7)
    differ = [label for label, apply in chosen
              if outcome(apply, False, jobs) != outcome(apply, True, jobs)]
    return differ, len(chosen)


if __name__ == "__main__":
    for name, chosen in (("Upset probe", upsets(*map(int, sys.argv[1:]))),
                         ("Edge tag upsets", edge_upsets()),
                         ("Sequence-id upsets", seq_upsets()),
                         ("Unsampled data-rank upsets", unsampled_upsets())):
        differ, total = disagreements(chosen)
        kinds = {}
        for label in differ:
            kind = label.split("[")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        print(f"{name}: {len(differ)} of {total} single-bit upsets at cycle {UPSET_CYCLE} "
              f"end differently planned and stepped ({kinds})")
