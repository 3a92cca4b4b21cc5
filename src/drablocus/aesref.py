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
the table-lookup round of Daemen and Rijmen (*The Design of Rijndael*,
section 4.2), in the form the model's fused windows use: table n maps a
state byte to lane n % 4 of its substituted value's column products, as a
128-bit int placed in the output column the (inverse) row shift moves byte
n to, so a round is the XOR of the 16 bytes' entries and the round key. The
last round is one S-box translate, one row-shift gather and the key XOR.
The equivalent inverse cipher's inner keys take the inverse column mix
from a third set of tables, with no S-box and no row shift. All of them
are built at import from this module's own :mod:`gf256` products, never
from the model's RAM images. The step functions (:func:`sub_bytes`,
:func:`shift_rows`, :func:`mix_columns`, :func:`add_round_key`) are the
textbook definition the table rounds are tested against.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter, lshift, xor
from struct import unpack
from typing import NamedTuple, Sequence

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

# Products by the column-mix coefficients: by 2 from gf_mul, by 4 and 8 as
# repeated doubling (FIPS-197 section 4.2.1), and the rest as sums of those
# and the byte itself, since the product distributes over XOR.
_M2 = tuple(gf_mul(b, 2) for b in range(256))
_M4 = itemgetter(*_M2)(_M2)
_M8 = itemgetter(*_M4)(_M2)
_M3 = tuple(map(xor, _M2, range(256)))
_M9 = tuple(map(xor, _M8, range(256)))
_MB = tuple(map(xor, _M9, _M2))
_MD = tuple(map(xor, _M9, _M4))
_ME = tuple(map(xor, _M8, map(xor, _M4, _M2)))


def _mix_tables(*products: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Table n maps a byte in row n % 4 of column n // 4 to its column-mix
    terms, as a 128-bit int with the column's other fields zero.

    ``products[j]`` holds the products by coefficient c[j] of the first row
    of the (circulant) column-mix matrix. Lane k holds 32-bit ints whose
    field i (from the top) is c[(k - i) mod 4] times the byte, the term that
    row k of a column adds to output row i.
    """
    lanes = []
    for k in range(4):
        fields = bytearray(1024)
        for i in range(4):
            fields[i::4] = bytes(products[(k - i) % 4])
        lanes.append(unpack(">256I", fields))
    return tuple(
        tuple(map(lshift, lanes[n % 4], repeat(96 - 32 * (n // 4), 256))) for n in range(16)
    )


# The decryption key schedule's inverse column mix, c = (0e, 0b, 0d, 09),
# with no S-box or row shift. A round's table n is the S-box read into the
# mix table of the position its row shift moves byte n to, which the other
# direction's row gather selects; the inverse cipher's share the inverse
# column mix's ints, and the cipher's have c = (2, 3, 1, 1).
_INV_MIX_BYTES = _mix_tables(_ME, _MB, _MD, _M9)
_DEC_BYTES = tuple(map(itemgetter(*INV_SBOX), _ENC_ROWS(_INV_MIX_BYTES)))
_ENC_BYTES = tuple(
    map(itemgetter(*SBOX), _DEC_ROWS(_mix_tables(_M2, _M3, range(256), range(256))))
)

# The key expansion's SubWord(RotWord(w3)) and round constant, each in all
# four words of a round key: one table per byte of w3, byte 12 lowest.
_WORDS = 1 | 1 << 32 | 1 << 64 | 1 << 96
_SUB12 = tuple(s * _WORDS for s in SBOX)
_SUB13, _SUB14, _SUB15 = (tuple(map(lshift, _SUB12, repeat(q, 256))) for q in (24, 16, 8))
_RCON_WORDS = tuple((rc << 24) * _WORDS for rc in RCON)


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

    ``keys`` is a tuple of ``bytes`` whatever sequence of bytes-like keys
    it is built from. ``ints`` holds the same keys as 128-bit ints. It
    follows from ``keys``, so two sets are equal when their keys and modes
    are, and the repr leaves it out.
    """

    __slots__ = ()

    def __new__(cls, keys: Sequence[bytes], mode: str) -> RoundKeySet:
        if len(keys) != NUM_ROUNDS + 1:
            raise ValueError(f"expected {NUM_ROUNDS + 1} round keys, got {len(keys)}")
        if mode not in (ENCRYPT, DECRYPT):
            raise ValueError(f"unknown mode {mode!r}")
        for r, key in enumerate(keys):
            if len(key) != BLOCK_BYTES:
                raise ValueError(f"round key {r} must be {BLOCK_BYTES} bytes, got {len(key)}")
        # Copied, so that no later change to the caller's sequence or
        # buffers reaches keys or leaves ints out of step.
        keys = tuple(map(bytes, keys))
        return super().__new__(cls, keys, mode, tuple(map(block_to_int, keys)))

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
    round_key = _check_block(key, "key")
    state = int.from_bytes(round_key, "big")
    keys, ints = [round_key], [state]
    for rcon in _RCON_WORDS[1:]:
        # Word i is the XOR of the last round key's words 0..i, SubWord of
        # RotWord of its word 3, and the round constant on the first byte.
        state ^= state >> 32
        state ^= (state >> 64 ^ _SUB13[round_key[13]] ^ _SUB14[round_key[14]]
                  ^ _SUB15[round_key[15]] ^ _SUB12[round_key[12]] ^ rcon)
        round_key = state.to_bytes(16, "big")
        keys.append(round_key)
        ints.append(state)
    # Built as datapath builds a Word: the checks of __new__ hold by construction.
    return tuple.__new__(RoundKeySet, (tuple(keys), ENCRYPT, tuple(ints)))


def key_expand_equivalent_inverse(key: bytes) -> RoundKeySet:
    """Round keys for the equivalent inverse cipher, in consumption order.

    Entry 0 is the last encryption round key, entry 10 the cipher key, and
    entries 1..9 are the inverse mix-columns transform of encryption keys
    9..1.
    """
    enc_keys, _, enc_ints = key_expand(key)
    # One inverse-mix round per inner key, with no round key added.
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _INV_MIX_BYTES
    inner = [t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7] ^ t8[b8] ^ t9[b9]
             ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
             for b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15
             in enc_keys[NUM_ROUNDS - 1 : 0 : -1]]
    keys = (enc_keys[NUM_ROUNDS], *map(int.to_bytes, inner, repeat(16), repeat("big")), enc_keys[0])
    ints = (enc_ints[NUM_ROUNDS], *inner, enc_ints[0])
    return tuple.__new__(RoundKeySet, (keys, DECRYPT, ints))


def _round_keys(key: bytes | RoundKeySet, mode: str) -> tuple[int, ...]:
    if isinstance(key, RoundKeySet):
        if key.mode != mode:
            raise ValueError(f"round key set has mode {key.mode!r}, need {mode!r}")
        return key.ints
    if mode == ENCRYPT:
        return key_expand(key).ints
    return key_expand_equivalent_inverse(key).ints


def _rounds(state: int, round_keys: Sequence[int], tables: tuple[tuple[int, ...], ...]) -> int:
    """One table-lookup round per key: the XOR of each byte's entry and the key.

    With :data:`_ENC_BYTES` a round is sub_bytes, shift_rows, mix_columns
    and add_round_key; with :data:`_DEC_BYTES` each of those inverted; with
    :data:`_INV_MIX_BYTES` the inverse mix_columns and add_round_key alone.
    """
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = tables
    for round_key in round_keys:
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state.to_bytes(16, "big")
        state = (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7] ^ t8[b8]
                 ^ t9[b9] ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
                 ^ round_key)
    return state


def encrypt_block(key: bytes | RoundKeySet, plaintext: bytes) -> bytes:
    keys = _round_keys(key, ENCRYPT)
    state = block_to_int(_check_block(plaintext)) ^ keys[0]
    state = _rounds(state, keys[1:NUM_ROUNDS], _ENC_BYTES)
    last = _ENC_ROWS(state.to_bytes(16, "big").translate(_SBOX_BYTES))
    return (int.from_bytes(last, "big") ^ keys[NUM_ROUNDS]).to_bytes(16, "big")


def decrypt_block(key: bytes | RoundKeySet, ciphertext: bytes) -> bytes:
    """Decrypt via the equivalent inverse cipher (encryption's round shape)."""
    keys = _round_keys(key, DECRYPT)
    state = block_to_int(_check_block(ciphertext)) ^ keys[0]
    state = _rounds(state, keys[1:NUM_ROUNDS], _DEC_BYTES)
    last = _DEC_ROWS(state.to_bytes(16, "big").translate(_INV_SBOX_BYTES))
    return (int.from_bytes(last, "big") ^ keys[NUM_ROUNDS]).to_bytes(16, "big")


def decrypt_block_textbook(key: bytes, ciphertext: bytes) -> bytes:
    """Textbook-order inverse cipher; independent cross-check for decrypt_block."""
    keys = key_expand(key).keys
    state = add_round_key(_check_block(ciphertext), keys[NUM_ROUNDS])
    for r in range(NUM_ROUNDS - 1, 0, -1):
        state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
        state = mix_columns(add_round_key(state, keys[r]), inverse=True)
    state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
    return add_round_key(state, keys[0])
