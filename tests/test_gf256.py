"""Field arithmetic: worked examples, axioms, and S-box structure."""

import random

import pytest

from drablocus.gf256 import (
    AES_POLY,
    INV_SBOX,
    SBOX,
    gf_add,
    gf_inv,
    gf_mul,
    gf_pow,
    sbox_forward,
    sbox_inverse,
)


def test_add_examples():
    assert gf_add(0x00, 0xAB) == 0xAB
    assert gf_add(0x57, 0x57) == 0x00
    assert gf_add(0x57, 0x83) == 0x57 ^ 0x83 == 0xD4


def test_mul_examples():
    assert gf_mul(0x01, 0xC3) == 0xC3
    # One shift overflows bit 8 and reduces by the field polynomial.
    assert gf_mul(0x02, 0x80) == (0x100 ^ AES_POLY) & 0xFF == 0x1B
    # The standard's worked multiplication example.
    assert gf_mul(0x57, 0x83) == 0xC1


def test_mul_commutes_with_known_table():
    # 0x53 * 0xCA = 1 is the classic inverse pair.
    assert gf_mul(0x53, 0xCA) == 1
    assert gf_inv(0x53) == 0xCA


def test_add_self_inverse_exhaustive():
    for a in range(256):
        assert gf_add(a, a) == 0


def test_field_axioms_sampled():
    rng = random.Random(0xAE5)
    for _ in range(10_000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))


def test_nonzero_elements_form_a_group():
    for a in range(1, 256):
        inverses = [x for x in range(1, 256) if gf_mul(a, x) == 1]
        assert len(inverses) == 1
        assert gf_inv(a) == inverses[0]


def test_inv_zero_convention():
    assert gf_inv(0) == 0


def test_inverse_table_matches_the_power_definition():
    # The table comes from one walk of the powers of 3; a^254 is the definition.
    for a in range(1, 256):
        assert gf_inv(a) == gf_pow(a, 254)


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    for _ in range(100):
        a, n = rng.randrange(256), rng.randrange(16)
        acc = 1
        for _ in range(n):
            acc = gf_mul(acc, a)
        assert gf_pow(a, n) == acc


def test_sbox_anchor_values():
    assert sbox_forward(0x00) == 0x63
    assert sbox_forward(0x53) == 0xED
    assert sbox_inverse(0x63) == 0x00


def test_sbox_bijection_exhaustive():
    assert sorted(SBOX) == list(range(256))
    for x in range(256):
        assert sbox_inverse(sbox_forward(x)) == x
        assert sbox_forward(sbox_inverse(x)) == x


def test_sbox_tables_match_functions():
    for x in range(256):
        assert SBOX[x] == sbox_forward(x)
        assert INV_SBOX[x] == sbox_inverse(x)


@pytest.mark.parametrize("a", [0, 1, 2, 0x80, 0xFF])
def test_mul_masks_inputs(a):
    assert gf_mul(a | 0x100, 3) == gf_mul(a, 3)
