"""Key schedule: stored contents, consumer service, and fault paths.

The service tests drive one cycle of the datapath with the key store, as
a run's pass loop serves it.
"""

import random

import pytest

from cycle_protocol import before_each_pass, core_in_run, make_plan, step_every_cycle
from drablocus import aesref
from drablocus.datapath import (
    MAIN_ROUNDS, TAG_BITS, TAG_FIELD, TAG_VALID, RoundDatapath, Word,
)
from drablocus.fabric import BramModel
from drablocus.faults import KeyStoreFault
from drablocus.keyschedule import KEY_INIT_CYCLES, READY, KeyScheduler
from drablocus.simulator import Job, PipelineSimulator
from drablocus.tables import (
    MODE_DECRYPT,
    MODE_ENCRYPT,
    build_empty_key_store,
    key_store_address,
)

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def initialize(key: bytes):
    return core_in_run(int.from_bytes(key, "big"))


def place_tag(dp, stage, tag):
    """Put ``tag`` in loop stage ``stage`` of the datapath's tag rank."""
    shift = TAG_BITS * stage
    dp.tags = dp.tags & ~(TAG_FIELD << shift) | (TAG_VALID | tag.slot << 1 | tag.mode & 1) << shift
    dp.seqs[tag.slot] = tag.seq


def stored(ks, mode, round_index):
    return ks.image[key_store_address(mode, round_index)]


def test_stored_encrypt_keys_match_expansion():
    _, _, ks = initialize(FIPS_KEY)
    oracle = aesref.key_expand(FIPS_KEY).keys
    for r in range(11):
        assert stored(ks, MODE_ENCRYPT, r) == int.from_bytes(oracle[r], "big")


def test_stored_decrypt_keys_are_equivalent_inverse_set():
    _, _, ks = initialize(FIPS_KEY)
    oracle = aesref.key_expand_equivalent_inverse(FIPS_KEY).keys
    for r in range(11):
        assert stored(ks, MODE_DECRYPT, r) == int.from_bytes(oracle[r], "big")


def test_decrypt_inner_keys_are_inverse_mixed_encrypt_keys():
    _, _, ks = initialize(FIPS_KEY)
    enc = aesref.key_expand(FIPS_KEY).keys
    for r in range(1, 10):
        expected = aesref.mix_columns(enc[10 - r], inverse=True)
        assert stored(ks, MODE_DECRYPT, r) == int.from_bytes(expected, "big")


def test_zero_key_round_1():
    _, _, ks = initialize(bytes(16))
    assert stored(ks, MODE_ENCRYPT, 1) == int("62636363" * 4, 16)


def test_initial_key_registers():
    _, _, ks = initialize(FIPS_KEY)
    oracle = aesref.key_expand(FIPS_KEY).keys
    assert ks.initial_keys[MODE_ENCRYPT] == int.from_bytes(oracle[0], "big")
    assert ks.initial_keys[MODE_DECRYPT] == int.from_bytes(oracle[10], "big")


def test_unused_store_entries_are_zero():
    _, _, ks = initialize(FIPS_KEY)
    used = {key_store_address(m, r) for m in (0, 1) for r in range(11)}
    for addr in range(32):
        if addr not in used:
            assert ks.image[addr] == 0


def test_three_consumers_served_same_cycle():
    dp, _, ks = initialize(FIPS_KEY)
    oracle = aesref.key_expand(FIPS_KEY).keys
    # Fake tags: an encrypt word in round 4 at stage 7, another at stage 1.
    place_tag(dp, 7, Word(seq=0, mode=MODE_ENCRYPT, slot=3))
    place_tag(dp, 1, Word(seq=1, mode=MODE_ENCRYPT, slot=5))
    ks.round_counters[3] = 3
    dp.compute_cycle(plan=make_plan(1), store=ks)
    ks.commit()
    assert ks.out_a == int.from_bytes(oracle[4], "big")
    assert ks.out_b == int.from_bytes(oracle[10], "big")
    assert ks.initial_keys[MODE_ENCRYPT] == int.from_bytes(oracle[0], "big")


def test_decrypt_arbitrary_round_is_transformed_key():
    dp, _, ks = initialize(FIPS_KEY)
    enc = aesref.key_expand(FIPS_KEY).keys
    place_tag(dp, 7, Word(seq=0, mode=MODE_DECRYPT, slot=2))
    ks.round_counters[2] = 3
    dp.compute_cycle(plan=make_plan(1), store=ks)
    ks.commit()
    expected = aesref.mix_columns(enc[6], inverse=True)
    assert ks.out_a == int.from_bytes(expected, "big")


def test_counter_past_final_main_round_faults():
    dp, _, ks = initialize(FIPS_KEY)
    place_tag(dp, 7, Word(seq=0, mode=MODE_ENCRYPT, slot=0))
    ks.round_counters[0] = 9
    with pytest.raises(KeyStoreFault, match="^slot 0 requested main-loop key for round 10$") as err:
        dp.compute_cycle(plan=make_plan(1), store=ks)
    assert err.value.cycle is None


@pytest.mark.parametrize("mode", [MODE_ENCRYPT, MODE_DECRYPT])
@pytest.mark.parametrize("round_index", range(1, MAIN_ROUNDS + 1))
def test_service_addresses_follow_the_store_layout(mode, round_index):
    # The datapath's pass loop addresses the store as the table layout
    # does: port a the word in S7's next round, port b round 10, each for
    # its word's mode.
    dp, _, ks = initialize(FIPS_KEY)
    place_tag(dp, 7, Word(seq=0, mode=mode, slot=4))
    place_tag(dp, 1, Word(seq=1, mode=mode, slot=10))
    ks.round_counters[4] = round_index - 1
    dp.compute_cycle(plan=make_plan(1), store=ks)
    assert ks.addr_a == key_store_address(mode, round_index)
    assert ks.addr_b == key_store_address(mode, 10)


def test_taps_quiet_once_ready():
    dp, ctrl, ks = initialize(FIPS_KEY)
    assert ks.fsm == READY and ks.resume is None
    for _ in range(50):
        dp.compute_cycle(plan=make_plan(1), store=ks)
        assert ks.sub_bytes_inject == (0, 0)
        assert ks.mix_columns_inject == (0, 0)
        dp.commit_cycle()
        ks.commit()


def test_initialization_cycle_count_reported():
    _, _, ks = initialize(FIPS_KEY)
    assert ks.init_cycles == KEY_INIT_CYCLES == 46


def test_flat_store_matches_bram_model(monkeypatch):
    # Specification of the store: a fabric BramModel fed the same addresses
    # and writes every cycle, through reset, key_init, flush and run.
    store = BramModel(build_empty_key_store(), name="key_store")
    phases = []
    compute_cycle, commit = RoundDatapath.compute_cycle, KeyScheduler.commit

    def mirrored_compute_cycle(self, **kwargs):
        completions = compute_cycle(self, **kwargs)
        ks = kwargs["store"]
        store.present(ks.addr_a, ks.addr_b)
        if ks.pending_write is not None:
            store.present_write(*ks.pending_write)
        store.compute()
        return completions

    def lockstep_commit(self):
        commit(self)
        store.commit()
        cycle = f"cycle {len(phases) - 1} ({phases[-1]})"
        assert (self.out_a, self.out_b) == (store.out_a, store.out_b), cycle
        assert self.image == store.image, cycle

    monkeypatch.setattr(RoundDatapath, "compute_cycle", mirrored_compute_cycle)
    monkeypatch.setattr(KeyScheduler, "commit", lockstep_commit)
    before_each_pass(monkeypatch, lambda ctrl, dp, ks: phases.append(ctrl.fsm))
    rng = random.Random(0x5E1)
    jobs = [
        Job(i, rng.choice((MODE_ENCRYPT, MODE_DECRYPT)),
            bytes(rng.randrange(256) for _ in range(16)))
        for i in range(100)
    ]
    # Every cycle is stepped, so the hooks see each one.
    step_every_cycle(monkeypatch)
    result = PipelineSimulator().run(FIPS_KEY, jobs)
    assert result.summary.blocks_completed == 100
    assert len(phases) == result.summary.total_cycles
    assert set(phases) == {"reset", "key_init", "flush", "run"}
    assert result.key_store == tuple(store.image)
