"""Fabric primitive behavior: latencies, resets, ports, clock contract."""

import random

import pytest

from drablocus.fabric import BramModel, DspXorSlice, LutShiftRegister, Register
from drablocus.faults import SimulationFault


def step(*components):
    for c in components:
        c.compute()
    for c in components:
        c.commit()


class TestBram:
    def test_read_latency_one_cycle(self):
        bram = BramModel([0] * 16)
        bram.image[5] = 0xAB
        bram.present(addr_a=5)
        step(bram)
        assert bram.out_a == 0xAB

    def test_read_latency_two_cycles_with_output_register(self):
        bram = BramModel([0] * 16, output_register=True)
        bram.image[5] = 0xAB
        bram.present(addr_a=5)
        step(bram)
        assert bram.out_a == 0
        bram.present(addr_a=0)
        step(bram)
        assert bram.out_a == 0xAB

    def test_dual_ports_independent_streams(self):
        image = list(range(100, 132))
        bram = BramModel(image)
        rng = random.Random(1)
        addresses = [(rng.randrange(32), rng.randrange(32)) for _ in range(20)]
        outs = []
        for a, b in addresses:
            bram.present(addr_a=a, addr_b=b)
            step(bram)
            outs.append((bram.out_a, bram.out_b))
        for (a, b), (oa, ob) in zip(addresses, outs):
            assert oa == image[a] and ob == image[b]

    def test_out_of_range_address_faults(self):
        bram = BramModel([0] * 16)
        bram.present(addr_a=16)
        with pytest.raises(SimulationFault):
            bram.compute()

    @pytest.mark.parametrize("addr_b", [16, -1])
    def test_out_of_range_port_b_address_faults(self, addr_b):
        bram = BramModel([0] * 16, name="tbl")
        bram.present(addr_a=0, addr_b=addr_b)
        with pytest.raises(SimulationFault, match="tbl: port b address .* depth 16"):
            bram.compute()

    def test_synchronous_write_read_old_value(self):
        bram = BramModel([0] * 8)
        bram.present(addr_a=3)
        bram.present_write(3, 0x77)
        step(bram)
        # The write lands at the commit; the same-cycle read saw the old word.
        assert bram.out_a == 0
        bram.present(addr_a=3)
        step(bram)
        assert bram.out_a == 0x77

    def test_write_out_of_range_faults(self):
        bram = BramModel([0] * 8)
        with pytest.raises(SimulationFault):
            bram.present_write(8, 1)


class TestDspXor:
    def test_xor_of_equal_inputs_is_zero_after_two_cycles(self):
        dsp = DspXorSlice(48, a_regs=1, b_regs=1)
        assert dsp.latency == 2
        ones = (1 << 48) - 1
        dsp.present(a=ones, b=ones)
        step(dsp)
        step(dsp)
        assert dsp.out == 0

    @pytest.mark.parametrize(
        "a_regs,b_regs,out_reg,latency",
        [(0, 0, True, 1), (1, 1, True, 2), (2, 2, True, 3), (1, 1, False, 1), (0, 0, False, 0)],
    )
    def test_latency_follows_register_configuration(self, a_regs, b_regs, out_reg, latency):
        dsp = DspXorSlice(48, a_regs=a_regs, b_regs=b_regs, output_register=out_reg)
        assert dsp.latency == latency
        dsp.present(a=0x123456789AB, b=0x0F0F0F0F0F0)
        expected = 0x123456789AB ^ 0x0F0F0F0F0F0
        for _ in range(latency):
            assert dsp.out != expected or latency == 0
            step(dsp)
        assert dsp.out == expected

    def test_reset_holds_output_at_zero(self):
        dsp = DspXorSlice(48, a_regs=1, b_regs=1)
        dsp.present(a=5, b=9)
        step(dsp)
        dsp.reset_in = True
        step(dsp)
        assert dsp.out == 0
        dsp.reset_in = False
        dsp.present(a=5, b=9)
        step(dsp)
        step(dsp)
        assert dsp.out == 5 ^ 9

    def test_reset_holds_unregistered_output_at_zero(self):
        # Without an output register the XOR is combinational, and the
        # reset line gates it at once: no commit passes.
        dsp = DspXorSlice(48, a_regs=0, b_regs=0, output_register=False)
        dsp.present(a=5, b=9)
        assert dsp.out == 5 ^ 9
        dsp.reset_in = True
        assert dsp.out == 0
        dsp.reset_in = False
        assert dsp.out == 5 ^ 9

    def test_cascade_of_three_equals_flat_xor(self):
        rng = random.Random(2)
        first = DspXorSlice(48, a_regs=1, b_regs=1)
        second = DspXorSlice(48, a_regs=0, b_regs=2, cascade_from=first)
        third = DspXorSlice(48, a_regs=0, b_regs=2, cascade_from=second)
        ff = Register(48)
        vectors = [
            tuple(rng.getrandbits(48) for _ in range(4)) for _ in range(30)
        ]
        outs = []
        for v0, v1, v2, v3 in vectors:
            first.present(a=v0, b=v1)
            second.present(b=v2)
            ff.present(v3)
            third.present(b=ff.out)
            step(first, second, third, ff)
            outs.append(third.out)
        # Output appears 4 cycles after presentation.
        for i, (v0, v1, v2, v3) in enumerate(vectors[:-4]):
            assert outs[i + 3] == v0 ^ v1 ^ v2 ^ v3

    def test_cascade_rejects_first_operand(self):
        first = DspXorSlice(48)
        second = DspXorSlice(48, a_regs=0, cascade_from=first)
        with pytest.raises(ValueError):
            second.present(a=1)
        with pytest.raises(ValueError):
            DspXorSlice(48, a_regs=1, cascade_from=first)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            DspXorSlice(40)
        DspXorSlice(32)

    @pytest.mark.parametrize("a_regs, b_regs", [(3, 1), (1, 3), (-1, 1)])
    def test_input_register_count_validation(self, a_regs, b_regs):
        with pytest.raises(ValueError, match="input register stages must be 0, 1 or 2"):
            DspXorSlice(48, a_regs=a_regs, b_regs=b_regs)


class TestLutShiftRegister:
    def test_injected_bit_reaches_final_tap_after_length_commits(self):
        sr = LutShiftRegister(113)
        sr.present(1)
        step(sr)
        for n in range(112):
            assert sr.final == 0, n
            step(sr)
        assert sr.final == 1
        step(sr)
        assert sr.final == 0

    def test_flush_fills_with_zeros(self):
        sr = LutShiftRegister(113)
        rng = random.Random(3)
        for _ in range(60):
            sr.present(rng.getrandbits(1))
            step(sr)
        for _ in range(113):
            sr.present(0)
            step(sr)
        assert not sr.any_set

    def test_short_register_exposes_all_bits(self):
        sr = LutShiftRegister(12, expose_all=True)
        sr.present(1)
        step(sr)
        assert [sr.bit(i) for i in range(12)] == [1] + [0] * 11

    @pytest.mark.parametrize("length", [0, -3])
    def test_length_must_be_positive(self, length):
        with pytest.raises(ValueError, match="shift register length must be positive"):
            LutShiftRegister(length)

    def test_m_type_chain_exposes_only_final_bit(self):
        sr = LutShiftRegister(113)
        assert sr.bit(112) == 0
        with pytest.raises(SimulationFault):
            sr.bit(0)


class TestCircuit:
    """Primitives wired together and stepped by hand under one clock."""

    def test_series_latency_is_additive(self):
        # Three registered stages in series: total latency 3.
        regs = [Register(8) for _ in range(3)]

        def wire():
            regs[1].present(regs[0].out)
            regs[2].present(regs[1].out)

        regs[0].present(0x5A)
        wire()
        step(*regs)
        for _ in range(2):
            regs[0].present(0)
            wire()
            step(*regs)
        assert regs[2].out == 0x5A

    def test_mixed_chain_latency_is_additive(self):
        # 2-cycle RAM into a 2-cycle XOR slice: first response after 4 steps.
        bram = BramModel([0, 0xAA], output_register=True)
        dsp = DspXorSlice(32, a_regs=1, b_regs=1)
        bram.present(addr_a=1)
        seen = []
        for _ in range(5):
            dsp.present(a=bram.out_a, b=0)
            step(bram, dsp)
            seen.append(dsp.out)
        assert seen == [0, 0, 0, 0xAA, 0xAA]

    def test_deterministic_traces(self):
        def run():
            rng = random.Random(4)
            bram = BramModel(list(range(64)), output_register=True)
            dsp = DspXorSlice(32, a_regs=1, b_regs=1)
            trace = []
            for _ in range(200):
                bram.present(addr_a=rng.randrange(64), addr_b=rng.randrange(64))
                dsp.present(a=bram.out_a, b=bram.out_b)
                step(bram, dsp)
                trace.append((bram.out_a, bram.out_b, dsp.out))
            return trace

        assert run() == run()
