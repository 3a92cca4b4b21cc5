"""Datapath units: latencies, functional equivalence, packing, OR-mux."""

import random

import pytest

from cycle_protocol import NO_KEYS, ScriptedStore, word_tag
from drablocus import aesref
from drablocus.datapath import (
    BLOCK_LATENCY,
    NUM_LOOP_STAGES,
    PACK_MAP,
    TRACK_CYCLES,
    AddRoundKeyUnit,
    MixColumnsUnit,
    RoundDatapath,
    ShiftRowsUnit,
    SubBytesUnit,
    Word,
    built_in_tables,
    or_mux_tap,
)
from drablocus.faults import ProtocolError
from drablocus.gf256 import gf_mul
from drablocus.tables import MC_COLUMN, MODE_DECRYPT, MODE_ENCRYPT


def rand128(rng):
    return rng.getrandbits(128)


def as_block(value):
    return value.to_bytes(16, "big")


def test_stage_ledger():
    assert NUM_LOOP_STAGES == 2 + 1 + 6 + 3 == 12
    assert TRACK_CYCLES == 2 + 9 * 12 + 3 == 113
    assert BLOCK_LATENCY == 115


def test_fused_tables_of_the_built_in_images_are_the_reference_round_tables():
    # A fused round over the built-in images is the golden reference's round.
    assert built_in_tables().fused == (aesref._ENC_BYTES, aesref._DEC_BYTES)


class TestSubBytesUnit:
    def test_all_zero_block_encrypt(self):
        unit = SubBytesUnit()
        unit.present(0, MODE_ENCRYPT)
        for c in (unit,) * 2:
            c.compute()
            c.commit()
        assert as_block(unit.out) == bytes([0x63] * 16)

    def test_table_inverse_round_trip(self):
        rng = random.Random(31)
        unit = SubBytesUnit()
        for _ in range(20):
            x = rand128(rng)
            unit.present(x, MODE_ENCRYPT)
            unit.compute(); unit.commit()
            unit.compute(); unit.commit()
            forward = unit.out
            unit.present(forward, MODE_DECRYPT)
            unit.compute(); unit.commit()
            unit.compute(); unit.commit()
            assert unit.out == x

    def test_matches_reference_pipelined(self):
        rng = random.Random(32)
        unit = SubBytesUnit()
        samples = [(rand128(rng), rng.getrandbits(1)) for _ in range(300)]
        outs = []
        for i in range(len(samples) + 2):
            if i < len(samples):
                unit.present(*samples[i])
            unit.compute()
            unit.commit()
            outs.append(unit.out)
        for i, (x, mode) in enumerate(samples):
            expected = aesref.sub_bytes(as_block(x), inverse=bool(mode))
            assert as_block(outs[i + 1]) == expected

    def test_uses_eight_dual_port_rams(self):
        assert len(SubBytesUnit().brams) == 8


class TestShiftRowsUnit:
    def test_matches_reference(self):
        rng = random.Random(33)
        unit = ShiftRowsUnit()
        for _ in range(300):
            x, mode = rand128(rng), rng.getrandbits(1)
            unit.present(x, mode)
            unit.compute()
            unit.commit()
            assert as_block(unit.out) == aesref.shift_rows(as_block(x), inverse=bool(mode))

    def test_enc_then_dec_identity(self):
        rng = random.Random(34)
        unit = ShiftRowsUnit()
        x = rand128(rng)
        unit.present(x, MODE_ENCRYPT)
        unit.compute(); unit.commit()
        unit.present(unit.out, MODE_DECRYPT)
        unit.compute(); unit.commit()
        assert unit.out == x


class TestPackMap:
    def test_groups_cover_all_output_bytes_once(self):
        widths = [width for _, width in PACK_MAP]
        assert widths == [48, 48, 32]
        seen = []
        for lanes, width in PACK_MAP:
            for lane in lanes:
                assert len(lane) * 8 == width
        # Lane 0 positions enumerate the output bytes of the group.
        count = sum(len(lanes[0]) for lanes, _ in PACK_MAP)
        assert count == 16

    def test_packed_terms_match_matrix_multiplication(self):
        # For every output byte, the four lane terms must be exactly the
        # four addends of the standard row-times-column product.
        for g, (lanes, _) in enumerate(PACK_MAP):
            group_base = (0, 6, 12)[g]
            for p in range(len(lanes[0])):
                n = group_base + p
                i, j = n % 4, n // 4
                for mode in (MODE_ENCRYPT, MODE_DECRYPT):
                    coefficients = []
                    for k in range(4):
                        source_index, field_shift = lanes[k][p]
                        assert source_index == 4 * j + k
                        field = (24 - field_shift) // 8
                        coefficients.append(MC_COLUMN[mode][field])
                    # Row i of the circulant matrix, whose first column is
                    # MC_COLUMN: entry (i, k) = column[(i - k) mod 4].
                    expected = [MC_COLUMN[mode][(i - k) % 4] for k in range(4)]
                    assert coefficients == expected


class TestMixColumnsUnit:
    def test_all_zero_block(self):
        unit = MixColumnsUnit()
        unit.present(0, MODE_ENCRYPT)
        for _ in range(6):
            unit.compute()
            unit.commit()
        assert unit.out == 0

    def test_worked_column(self):
        unit = MixColumnsUnit()
        unit.present(int.from_bytes(bytes.fromhex("db135345") + bytes(12), "big"), MODE_ENCRYPT)
        for _ in range(6):
            unit.compute()
            unit.commit()
        assert as_block(unit.out)[:4] == bytes.fromhex("8e4da1bc")

    def test_matches_reference_pipelined_both_modes(self):
        rng = random.Random(35)
        unit = MixColumnsUnit()
        samples = [(rand128(rng), rng.getrandbits(1)) for _ in range(500)]
        outs = []
        for i in range(len(samples) + 6):
            if i < len(samples):
                unit.present(*samples[i])
            unit.compute()
            unit.commit()
            outs.append(unit.out)
        for i, (x, mode) in enumerate(samples):
            expected = aesref.mix_columns(as_block(x), inverse=bool(mode))
            assert as_block(outs[i + 5]) == expected

    def test_structure(self):
        unit = MixColumnsUnit()
        assert len(unit.brams) == 8
        assert len(unit.cascades) == 3
        assert sum(len(c) for c in unit.cascades) == 9
        assert unit.ff_rank.width == 128


class TestAddRoundKeyUnit:
    @pytest.mark.parametrize("regs,latency", [(2, 3), (1, 2)])
    def test_latency_and_function(self, regs, latency):
        rng = random.Random(36)
        unit = AddRoundKeyUnit(input_regs=regs, name="t")
        assert unit.latency == latency
        data, key = rand128(rng), rand128(rng)
        unit.present(data, key)
        for _ in range(latency):
            unit.compute()
            unit.commit()
        assert unit.out == data ^ key

    def test_zero_key_and_self_cancel(self):
        rng = random.Random(37)
        unit = AddRoundKeyUnit(input_regs=1, name="t")
        x = rand128(rng)
        unit.present(x, 0)
        unit.compute(); unit.commit()
        unit.compute(); unit.commit()
        assert unit.out == x
        unit.present(x, x)
        unit.compute(); unit.commit()
        unit.compute(); unit.commit()
        assert unit.out == 0

    def test_matches_reference(self):
        rng = random.Random(38)
        unit = AddRoundKeyUnit(input_regs=2, name="t")
        for _ in range(50):
            data, key = rand128(rng), rand128(rng)
            unit.present(data, key)
            for _ in range(3):
                unit.compute()
                unit.commit()
            assert as_block(unit.out) == aesref.add_round_key(as_block(data), as_block(key))


class TestOrMux:
    def test_single_driver_passes_through(self):
        assert or_mux_tap(0x1234, 0, 0) == 0x1234
        assert or_mux_tap(0, 0xABCD, 0) == 0xABCD
        assert or_mux_tap(0, 0, 0) == 0

    def test_two_drivers_fault(self):
        with pytest.raises(ProtocolError):
            or_mux_tap(1, 2, 0)


class TestSingleRoundTraversal:
    def test_loop_computes_one_full_round(self):
        # Admit x with a zero initial key, push the round key in when the
        # word presents to the main key-add, and compare stage S11 against
        # add_round_key(mix_columns(shift_rows(sub_bytes(x))), k).
        rng = random.Random(39)
        for mode in (MODE_ENCRYPT, MODE_DECRYPT):
            for _ in range(25):
                dp = RoundDatapath()
                x, key = rand128(rng), rand128(rng)
                tag = Word(seq=0, mode=mode, slot=0)
                store = ScriptedStore([NO_KEYS] * 11 + [(key, 0, (0, 0), (0, 0))])
                for cycle in range(15):
                    admit = (x, 0, word_tag(*tag)) if cycle == 0 else None
                    dp.compute_cycle(
                        plan=[(admit, False, cycle != 1, cycle == 1)], store=store
                    )
                    if cycle == 14:
                        value, out_tag = dp.s11, dp.loop_tags[11]
                        assert out_tag == tag
                        inverse = mode == MODE_DECRYPT
                        block = as_block(x)
                        expected = aesref.add_round_key(
                            aesref.mix_columns(
                                aesref.shift_rows(
                                    aesref.sub_bytes(block, inverse), inverse
                                ),
                                inverse,
                            ),
                            as_block(key),
                        )
                        assert as_block(value) == expected
                    dp.commit_cycle()

    def test_metadata_advances_in_lockstep(self):
        dp = RoundDatapath()
        tag = Word(seq=7, mode=MODE_ENCRYPT, slot=0)
        positions = {}
        store = ScriptedStore()
        for cycle in range(16):
            admit = (0x123, 0, word_tag(*tag)) if cycle == 0 else None
            dp.compute_cycle(plan=[(admit, False, cycle != 1, cycle == 1)], store=store)
            for k, t in enumerate(dp.loop_tags):
                if t == tag:
                    positions[cycle] = k
            dp.commit_cycle()
        # Occupies stage k during cycle 3 + k for one traversal.
        assert positions == {3 + k: k for k in range(12)} | {15: 0}
