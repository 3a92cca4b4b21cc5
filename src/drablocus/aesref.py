"""Golden functional AES-128: cipher, inverse cipher, equivalent inverse cipher.

Blocks are 16-byte values. Byte 0 of a block is cipher-state entry s(0,0)
and occupies the most significant position of the 128-bit word; the state
fills column-major, so byte n maps to row n % 4, column n // 4. A round key
serializes the same way.

Only the 128-bit key size (10 rounds) is implemented. Decryption uses the
equivalent inverse cipher: the same transformation order as encryption,
with the inner round keys passed through the inverse mix-columns map. The
textbook-order inverse cipher is kept alongside as an independent
cross-check.

:func:`encrypt_block` and :func:`decrypt_block` compute each inner round as
one fused step of lane lookups (the table-lookup round of Daemen and
Rijmen, *The Design of Rijndael*, section 4.2): lane table k maps a state
byte to its substituted value's column product, 4 bytes rotated right by k,
so the 16 entries of a state, read in row-shifted order and joined, hold the
round's four column-mix lanes as 128-bit fields, and their XOR with the
round key is the round's output. The lane tables are built at import from
this module's own :mod:`gf256` products, never from the model's RAM images.
The step functions (:func:`sub_bytes`, :func:`shift_rows`,
:func:`mix_columns`, :func:`add_round_key`) are the textbook definition the
fused rounds are tested against; the last round, which has no column mix,
is built from them. The equivalent inverse cipher's inner keys take the
inverse column mix from lane tables of their own, which hold no S-box.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .gf256 import INV_SBOX, SBOX, gf_mul, gf_pow

BLOCK_BYTES = 16
NUM_ROUNDS = 10

ENCRYPT = "encrypt"
DECRYPT = "decrypt"

# Round constants: powers of x in the field.
RCON = tuple(gf_pow(2, i - 1) if i else 0 for i in range(11))

_SBOX_BYTES = bytes(SBOX)
_INV_SBOX_BYTES = bytes(INV_SBOX)

# Output byte at 4c+r comes from 4((c+r) mod 4)+r for encryption (row r
# rotates left by r); the inverse rotates right.
_ENC_SHIFT = tuple(4 * ((n // 4 + n % 4) % 4) + n % 4 for n in range(16))
_DEC_SHIFT = tuple(4 * ((n // 4 - n % 4) % 4) + n % 4 for n in range(16))
_ENC_ROWS = itemgetter(*_ENC_SHIFT)
_DEC_ROWS = itemgetter(*_DEC_SHIFT)

# Products by the column-mix coefficients. The coefficient goes second:
# gf_mul loops over its second operand's bits, at most 4 of a coefficient's.
_M2 = tuple(gf_mul(b, 2) for b in range(256))
_M3 = tuple(gf_mul(b, 3) for b in range(256))
_M9 = tuple(gf_mul(b, 9) for b in range(256))
_MB = tuple(gf_mul(b, 0x0B) for b in range(256))
_MD = tuple(gf_mul(b, 0x0D) for b in range(256))
_ME = tuple(gf_mul(b, 0x0E) for b in range(256))

_MASK128 = (1 << 128) - 1


def _lane_tables(entries: list[bytes]) -> tuple[tuple[bytes, ...], ...]:
    """Lane k maps a byte to its entry rotated right by k bytes.

    Entry field m is the matrix coefficient c[-m mod 4] times the byte, c
    being the first row of the (circulant) column-mix matrix. Rotated right
    by k, field i is c[(k - i) mod 4] times the byte: the term that row k
    of a column adds to output row i.
    """
    return tuple(tuple(e[4 - k :] + e[: 4 - k] for e in entries) for k in range(4))


# Column products of each substituted byte: c = (2, 3, 1, 1) for the cipher,
# (0e, 0b, 0d, 09) for the inverse cipher.
_ENC_LANES = _lane_tables([bytes((_M2[s], s, s, _M3[s])) for s in SBOX])
_DEC_LANES = _lane_tables([bytes((_ME[s], _M9[s], _MD[s], _MB[s])) for s in INV_SBOX])
# The inverse column mix alone, for the decryption key schedule: the same
# products of each byte itself, so that path shares no table with the rounds.
_INV_MIX_LANES = _lane_tables([bytes((_ME[b], _M9[b], _MD[b], _MB[b])) for b in range(256)])


def state_index(row: int, col: int) -> int:
    """Serialized byte position of state entry s(row, col)."""
    return 4 * col + row


def block_to_int(block: bytes) -> int:
    return int.from_bytes(block, "big")


def int_to_block(value: int) -> bytes:
    return value.to_bytes(BLOCK_BYTES, "big")


class _RoundKeyFields(NamedTuple):
    keys: tuple[bytes, ...]
    mode: str
    ints: tuple[int, ...]


class RoundKeySet(_RoundKeyFields):
    """Ordered round keys, ready for consumption in forward round order.

    ``ints`` holds the same keys as 128-bit ints, converted once here. It
    follows from ``keys``, so two sets are equal when their keys and modes
    are, and the repr leaves it out.
    """

    __slots__ = ()

    def __new__(cls, keys: tuple[bytes, ...], mode: str) -> RoundKeySet:
        if len(keys) != NUM_ROUNDS + 1:
            raise ValueError(f"expected {NUM_ROUNDS + 1} round keys, got {len(keys)}")
        if mode not in (ENCRYPT, DECRYPT):
            raise ValueError(f"unknown mode {mode!r}")
        for r, key in enumerate(keys):
            if len(key) != BLOCK_BYTES:
                raise ValueError(f"round key {r} must be {BLOCK_BYTES} bytes, got {len(key)}")
        return super().__new__(cls, keys, mode, tuple(block_to_int(key) for key in keys))

    def __repr__(self) -> str:
        return f"RoundKeySet(keys={self.keys!r}, mode={self.mode!r})"


def _check_block(block: bytes, what: str = "block") -> bytes:
    # bytes() would take an int as a length and a str needs an encoding.
    if isinstance(block, (int, str)):
        raise TypeError(f"{what} must be bytes-like, got {type(block).__name__}")
    block = bytes(block)
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"{what} must be {BLOCK_BYTES} bytes, got {len(block)}")
    return block


def sub_bytes(block: bytes, inverse: bool = False) -> bytes:
    return block.translate(_INV_SBOX_BYTES if inverse else _SBOX_BYTES)


def shift_rows(block: bytes, inverse: bool = False) -> bytes:
    return bytes((_DEC_ROWS if inverse else _ENC_ROWS)(block))


def mix_columns(block: bytes, inverse: bool = False) -> bytes:
    out = bytearray(BLOCK_BYTES)
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = block[c], block[c + 1], block[c + 2], block[c + 3]
        if inverse:
            out[c] = _ME[a0] ^ _MB[a1] ^ _MD[a2] ^ _M9[a3]
            out[c + 1] = _M9[a0] ^ _ME[a1] ^ _MB[a2] ^ _MD[a3]
            out[c + 2] = _MD[a0] ^ _M9[a1] ^ _ME[a2] ^ _MB[a3]
            out[c + 3] = _MB[a0] ^ _MD[a1] ^ _M9[a2] ^ _ME[a3]
        else:
            out[c] = _M2[a0] ^ _M3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _M2[a1] ^ _M3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ _M2[a2] ^ _M3[a3]
            out[c + 3] = _M3[a0] ^ a1 ^ a2 ^ _M2[a3]
    return bytes(out)


def add_round_key(block: bytes, key: bytes) -> bytes:
    return int_to_block(block_to_int(block) ^ block_to_int(key))


def key_expand(key: bytes) -> RoundKeySet:
    """FIPS-197 AES-128 key expansion; keys[0] is the cipher key itself."""
    key = _check_block(key, "key")
    w0, w1, w2, w3 = (int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4))
    keys = [key]
    for r in range(1, NUM_ROUNDS + 1):
        # RotWord, SubWord, then the round constant on the first byte.
        rotated = ((w3 << 8) | (w3 >> 24)) & 0xFFFFFFFF
        w0 ^= int.from_bytes(rotated.to_bytes(4, "big").translate(_SBOX_BYTES), "big")
        w0 ^= RCON[r] << 24
        w1 ^= w0
        w2 ^= w1
        w3 ^= w2
        keys.append(int_to_block(w0 << 96 | w1 << 64 | w2 << 32 | w3))
    return RoundKeySet(keys=tuple(keys), mode=ENCRYPT)


def key_expand_equivalent_inverse(key: bytes) -> RoundKeySet:
    """Round keys for the equivalent inverse cipher, in consumption order.

    Entry 0 is the last encryption round key, entry 10 the cipher key, and
    entries 1..9 are the inverse mix-columns transform of encryption keys
    9..1.
    """
    enc = key_expand(key)
    keys = (
        (enc.keys[NUM_ROUNDS],)
        + tuple(
            int_to_block(_inv_mix_columns(enc.ints[NUM_ROUNDS - r])) for r in range(1, NUM_ROUNDS)
        )
        + (enc.keys[0],)
    )
    return RoundKeySet(keys=keys, mode=DECRYPT)


def _inv_mix_columns(state: int) -> int:
    """:func:`mix_columns` inverted, on a 128-bit int, as lane lookups: lane
    k reads row k of each column, and the four lanes' XOR is the result."""
    l0, l1, l2, l3 = _INV_MIX_LANES
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state.to_bytes(16, "big")
    lanes = int.from_bytes(b"".join((
        l0[b0], l0[b4], l0[b8], l0[b12], l1[b1], l1[b5], l1[b9], l1[b13],
        l2[b2], l2[b6], l2[b10], l2[b14], l3[b3], l3[b7], l3[b11], l3[b15],
    )), "big")
    lanes ^= lanes >> 256
    return (lanes ^ lanes >> 128) & _MASK128


def _round_keys(key: bytes | RoundKeySet, mode: str) -> tuple[int, ...]:
    if isinstance(key, RoundKeySet):
        if key.mode != mode:
            raise ValueError(f"round key set has mode {key.mode!r}, need {mode!r}")
        return key.ints
    if mode == ENCRYPT:
        return key_expand(key).ints
    return key_expand_equivalent_inverse(key).ints


def _cipher_rounds(state: int, round_keys: tuple[int, ...]) -> int:
    """One fused cipher round per key: sub_bytes, shift_rows, mix_columns, add_round_key."""
    l0, l1, l2, l3 = _ENC_LANES
    for round_key in round_keys:
        # Lane k reads row k, whose column j the row shift takes from column j + k.
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state.to_bytes(16, "big")
        lanes = int.from_bytes(b"".join((
            l0[b0], l0[b4], l0[b8], l0[b12], l1[b5], l1[b9], l1[b13], l1[b1],
            l2[b10], l2[b14], l2[b2], l2[b6], l3[b15], l3[b3], l3[b7], l3[b11],
        )), "big")
        lanes ^= lanes >> 256
        state = (lanes ^ lanes >> 128) & _MASK128 ^ round_key
    return state


def _inv_cipher_rounds(state: int, round_keys: tuple[int, ...]) -> int:
    """One fused equivalent-inverse round per key: each step of :func:`_cipher_rounds` inverted."""
    l0, l1, l2, l3 = _DEC_LANES
    for round_key in round_keys:
        # Lane k reads row k, whose column j the inverse row shift takes from column j - k.
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state.to_bytes(16, "big")
        lanes = int.from_bytes(b"".join((
            l0[b0], l0[b4], l0[b8], l0[b12], l1[b13], l1[b1], l1[b5], l1[b9],
            l2[b10], l2[b14], l2[b2], l2[b6], l3[b7], l3[b11], l3[b15], l3[b3],
        )), "big")
        lanes ^= lanes >> 256
        state = (lanes ^ lanes >> 128) & _MASK128 ^ round_key
    return state


def encrypt_block(key: bytes | RoundKeySet, plaintext: bytes) -> bytes:
    keys = _round_keys(key, ENCRYPT)
    state = _cipher_rounds(block_to_int(_check_block(plaintext)) ^ keys[0], keys[1:NUM_ROUNDS])
    last = shift_rows(sub_bytes(int_to_block(state)))
    return int_to_block(block_to_int(last) ^ keys[NUM_ROUNDS])


def decrypt_block(key: bytes | RoundKeySet, ciphertext: bytes) -> bytes:
    """Decrypt via the equivalent inverse cipher (encryption's round shape)."""
    keys = _round_keys(key, DECRYPT)
    state = _inv_cipher_rounds(block_to_int(_check_block(ciphertext)) ^ keys[0], keys[1:NUM_ROUNDS])
    last = shift_rows(sub_bytes(int_to_block(state), inverse=True), inverse=True)
    return int_to_block(block_to_int(last) ^ keys[NUM_ROUNDS])


def decrypt_block_textbook(key: bytes, ciphertext: bytes) -> bytes:
    """Textbook-order inverse cipher; independent cross-check for decrypt_block."""
    keys = key_expand(key).keys
    state = add_round_key(_check_block(ciphertext), keys[NUM_ROUNDS])
    for r in range(NUM_ROUNDS - 1, 0, -1):
        state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
        state = mix_columns(add_round_key(state, keys[r]), inverse=True)
    state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
    return add_round_key(state, keys[0])
