"""Golden AES-128 against the published known-answer material."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drablocus import aesref
from drablocus.aesref import (
    DECRYPT,
    ENCRYPT,
    RoundKeySet,
    add_round_key,
    block_to_int,
    decrypt_block,
    decrypt_block_textbook,
    encrypt_block,
    int_to_block,
    key_expand,
    key_expand_equivalent_inverse,
    mix_columns,
    shift_rows,
    state_index,
    sub_bytes,
)

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def rand_block(rng):
    return bytes(rng.randrange(256) for _ in range(16))


def test_state_layout():
    # Column-major fill; byte 0 is s(0,0) and the most significant byte.
    assert state_index(0, 0) == 0
    assert state_index(1, 0) == 1
    assert state_index(0, 1) == 4
    block = bytes(range(16))
    assert block_to_int(block) >> 120 == block[state_index(0, 0)]
    assert int_to_block(block_to_int(block)) == block


def test_key_expand_first_word_of_round_1():
    ks = key_expand(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert ks.keys[1][:4] == bytes.fromhex("a0fafe17")


def test_key_expand_zero_key():
    ks = key_expand(bytes(16))
    assert ks.keys[0] == bytes(16)
    assert ks.keys[1] == bytes.fromhex("62636363" * 4)


def test_key_expand_round_10():
    ks = key_expand(FIPS_KEY)
    assert ks.keys[10] == bytes.fromhex("13111d7fe3944a17f307a78b4d2b30c5")


def test_equivalent_inverse_key_ordering():
    # The inner keys, from the key schedule's own lane tables, against the
    # textbook inverse mix_columns, on the FIPS-197 key and 200 drawn keys.
    rng = random.Random(13)
    for key in [FIPS_KEY] + [rand_block(rng) for _ in range(200)]:
        enc = key_expand(key)
        dec = key_expand_equivalent_inverse(key)
        assert dec.mode == DECRYPT
        assert dec.keys[0] == enc.keys[10]
        assert dec.keys[10] == enc.keys[0]
        for r in range(1, 10):
            assert dec.keys[r] == mix_columns(enc.keys[10 - r], inverse=True), (key.hex(), r)


def test_inverse_mix_columns_lanes_exhaustive():
    # Every byte value at every position, over a random rest of the state:
    # the lane tables hold the inverse column mix alone, no S-box.
    rng = random.Random(17)
    for position in range(16):
        base = bytearray(rand_block(rng))
        for value in range(256):
            base[position] = value
            x = bytes(base)
            got = aesref._inv_mix_columns(block_to_int(x))
            assert int_to_block(got) == mix_columns(x, inverse=True), (position, value)


def test_fips_c1_encrypt_decrypt():
    assert encrypt_block(FIPS_KEY, FIPS_PT) == FIPS_CT
    assert decrypt_block(FIPS_KEY, FIPS_CT) == FIPS_PT


def test_fips_appendix_b_example():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    assert encrypt_block(key, pt) == bytes.fromhex("3925841d02dc09fbdc118597196a0b32")


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        k, p = rand_block(rng), rand_block(rng)
        assert decrypt_block(k, encrypt_block(k, p)) == p


def test_equivalent_inverse_matches_textbook():
    rng = random.Random(12)
    for _ in range(500):
        k, c = rand_block(rng), rand_block(rng)
        assert decrypt_block(k, c) == decrypt_block_textbook(k, c)


def test_mix_columns_worked_column():
    state = bytes.fromhex("db135345") + bytes(12)
    out = mix_columns(state)
    assert out[:4] == bytes.fromhex("8e4da1bc")
    assert out[4:] == bytes(12)


def test_mix_columns_zero_and_inverse():
    assert mix_columns(bytes(16)) == bytes(16)
    rng = random.Random(13)
    for _ in range(500):
        b = rand_block(rng)
        assert mix_columns(mix_columns(b), inverse=True) == b
        assert sub_bytes(sub_bytes(b), inverse=True) == b
        assert shift_rows(shift_rows(b), inverse=True) == b


def test_shift_rows_row_constant_fixed_point():
    # Each row holds one repeated byte, so any rotation is the identity.
    block = bytes([0x10 * (i % 4) for i in range(16)])
    assert shift_rows(block) == block
    assert shift_rows(block, inverse=True) == block


def test_linear_transformations_commute_with_xor():
    rng = random.Random(14)
    for _ in range(200):
        a, b = rand_block(rng), rand_block(rng)
        x = bytes(p ^ q for p, q in zip(a, b))
        for op in (shift_rows, mix_columns):
            assert op(x) == bytes(p ^ q for p, q in zip(op(a), op(b)))
        k = rand_block(rng)
        assert add_round_key(x, k) == bytes(
            p ^ q for p, q in zip(add_round_key(a, k), b)
        )


def test_add_round_key_identity_and_cancel():
    rng = random.Random(15)
    b = rand_block(rng)
    assert add_round_key(b, bytes(16)) == b
    assert add_round_key(b, b) == bytes(16)


def test_round_key_set_validation():
    with pytest.raises(ValueError):
        RoundKeySet(keys=(bytes(16),) * 10, mode=ENCRYPT)
    with pytest.raises(ValueError):
        RoundKeySet(keys=(bytes(16),) * 11, mode="both")
    with pytest.raises(ValueError):
        encrypt_block(key_expand_equivalent_inverse(FIPS_KEY), FIPS_PT)
    # Every round key must be 16 bytes, not just the first or the last.
    for length in (0, 1, 15, 17, 32):
        with pytest.raises(ValueError, match="round key 0 must be 16 bytes"):
            RoundKeySet(keys=(b"x" * length,) * 11, mode=ENCRYPT)
    good = key_expand(FIPS_KEY).keys
    for r in range(11):
        keys = good[:r] + (good[r] + b"\0",) + good[r + 1 :]
        with pytest.raises(ValueError, match=f"round key {r} must be 16 bytes, got 17"):
            RoundKeySet(keys=keys, mode=DECRYPT)


def test_round_key_set_holds_keys_as_ints():
    ks = key_expand(FIPS_KEY)
    assert ks.ints == tuple(block_to_int(k) for k in ks.keys)
    assert RoundKeySet(keys=ks.keys, mode=ENCRYPT) == ks
    assert "ints" not in repr(ks)


def test_round_key_set_is_an_immutable_value():
    ks = key_expand(FIPS_KEY)
    for name in ("keys", "mode", "ints", "other"):
        with pytest.raises(AttributeError):
            setattr(ks, name, None)
    # Equal by keys and mode.
    same = RoundKeySet(keys=tuple(bytes(key) for key in ks.keys), mode=ENCRYPT)
    assert same == ks and hash(same) == hash(ks)
    assert RoundKeySet(keys=ks.keys, mode=DECRYPT) != ks
    assert RoundKeySet(keys=ks.keys[:10] + (bytes(16),), mode=ENCRYPT) != ks


def test_block_length_validation():
    with pytest.raises(ValueError):
        encrypt_block(FIPS_KEY, b"short")
    with pytest.raises(ValueError):
        key_expand(b"short")


@pytest.mark.parametrize("bad", [16, 0, True, "0123456789abcdef"], ids=repr)
def test_int_and_str_blocks_and_keys_rejected(bad):
    # bytes(16) is sixteen zero bytes, so an int must not reach bytes().
    with pytest.raises(TypeError, match="must be bytes-like"):
        encrypt_block(FIPS_KEY, bad)
    with pytest.raises(TypeError, match="must be bytes-like"):
        decrypt_block(FIPS_KEY, bad)
    with pytest.raises(TypeError, match="must be bytes-like"):
        encrypt_block(bad, FIPS_PT)
    with pytest.raises(TypeError, match="must be bytes-like"):
        key_expand(bad)
    with pytest.raises(TypeError, match="must be bytes-like"):
        key_expand_equivalent_inverse(bad)


def test_bytes_like_blocks_and_keys_accepted():
    for kind in (bytes, bytearray, memoryview):
        assert encrypt_block(kind(FIPS_KEY), kind(FIPS_PT)) == FIPS_CT
        assert decrypt_block(kind(FIPS_KEY), kind(FIPS_CT)) == FIPS_PT
        assert key_expand(kind(FIPS_KEY)) == key_expand(FIPS_KEY)


def textbook_cipher(keys, block, inverse):
    """Round composition of the step functions; with inverse, the equivalent inverse cipher."""
    state = add_round_key(block, keys[0])
    for r in range(1, 10):
        state = sub_bytes(state, inverse)
        state = add_round_key(mix_columns(shift_rows(state, inverse), inverse), keys[r])
    return add_round_key(shift_rows(sub_bytes(state, inverse), inverse), keys[10])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
def test_fused_rounds_match_step_composition(key, block):
    enc, dec = key_expand(key), key_expand_equivalent_inverse(key)
    ct = textbook_cipher(enc.keys, block, inverse=False)
    pt = textbook_cipher(dec.keys, block, inverse=True)
    assert encrypt_block(enc, block) == encrypt_block(key, block) == ct
    assert decrypt_block(dec, block) == decrypt_block(key, block) == pt


@pytest.mark.parametrize("inverse", [False, True], ids=["encrypt", "decrypt"])
def test_one_fused_round_exhaustive(inverse):
    # Every byte value at every position, over a random rest of the state.
    rounds = aesref._inv_cipher_rounds if inverse else aesref._cipher_rounds
    rng = random.Random(16)
    for position in range(16):
        base, key = bytearray(rand_block(rng)), rand_block(rng)
        for value in range(256):
            base[position] = value
            x = bytes(base)
            want = add_round_key(mix_columns(shift_rows(sub_bytes(x, inverse), inverse), inverse), key)
            got = rounds(block_to_int(x), (block_to_int(key),))
            assert int_to_block(got) == want, (position, value)


def test_oracle_shares_no_table_builder_with_the_model():
    # A bare package stub keeps drablocus/__init__ (which imports the model) out.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('drablocus')\n"
        "pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['drablocus'] = pkg\n"
        "import drablocus.aesref\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('drablocus.'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(aesref.__file__).parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # Only the field arithmetic: neither drablocus.tables nor drablocus.datapath.
    assert done.stdout.split() == ["drablocus.aesref", "drablocus.gf256"]
