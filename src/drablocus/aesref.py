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
"""

from __future__ import annotations

from dataclasses import dataclass

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

_M2 = tuple(gf_mul(2, b) for b in range(256))
_M3 = tuple(gf_mul(3, b) for b in range(256))
_M9 = tuple(gf_mul(9, b) for b in range(256))
_MB = tuple(gf_mul(0x0B, b) for b in range(256))
_MD = tuple(gf_mul(0x0D, b) for b in range(256))
_ME = tuple(gf_mul(0x0E, b) for b in range(256))


def state_index(row: int, col: int) -> int:
    """Serialized byte position of state entry s(row, col)."""
    return 4 * col + row


def block_to_int(block: bytes) -> int:
    return int.from_bytes(block, "big")


def int_to_block(value: int) -> bytes:
    return value.to_bytes(BLOCK_BYTES, "big")


@dataclass(frozen=True)
class RoundKeySet:
    """Ordered round keys, ready for consumption in forward round order."""

    keys: tuple[bytes, ...]
    mode: str

    def __post_init__(self) -> None:
        if len(self.keys) != NUM_ROUNDS + 1:
            raise ValueError(f"expected {NUM_ROUNDS + 1} round keys, got {len(self.keys)}")
        if self.mode not in (ENCRYPT, DECRYPT):
            raise ValueError(f"unknown mode {self.mode!r}")


def _check_block(block: bytes, what: str = "block") -> bytes:
    block = bytes(block)
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"{what} must be {BLOCK_BYTES} bytes, got {len(block)}")
    return block


def sub_bytes(block: bytes, inverse: bool = False) -> bytes:
    return block.translate(_INV_SBOX_BYTES if inverse else _SBOX_BYTES)


def shift_rows(block: bytes, inverse: bool = False) -> bytes:
    perm = _DEC_SHIFT if inverse else _ENC_SHIFT
    return bytes(map(block.__getitem__, perm))


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
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = words[i - 1]
        if i % 4 == 0:
            rotated = t[1:] + t[:1]
            t = [SBOX[b] for b in rotated]
            t[0] ^= RCON[i // 4]
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    keys = tuple(
        bytes(words[4 * r] + words[4 * r + 1] + words[4 * r + 2] + words[4 * r + 3])
        for r in range(NUM_ROUNDS + 1)
    )
    return RoundKeySet(keys=keys, mode=ENCRYPT)


def key_expand_equivalent_inverse(key: bytes) -> RoundKeySet:
    """Round keys for the equivalent inverse cipher, in consumption order.

    Entry 0 is the last encryption round key, entry 10 the cipher key, and
    entries 1..9 are the inverse mix-columns transform of encryption keys
    9..1.
    """
    enc = key_expand(key).keys
    keys = (
        (enc[NUM_ROUNDS],)
        + tuple(mix_columns(enc[NUM_ROUNDS - r], inverse=True) for r in range(1, NUM_ROUNDS))
        + (enc[0],)
    )
    return RoundKeySet(keys=keys, mode=DECRYPT)


def _round_keys(key: bytes | RoundKeySet, mode: str) -> tuple[bytes, ...]:
    if isinstance(key, RoundKeySet):
        if key.mode != mode:
            raise ValueError(f"round key set has mode {key.mode!r}, need {mode!r}")
        return key.keys
    if mode == ENCRYPT:
        return key_expand(key).keys
    return key_expand_equivalent_inverse(key).keys


def encrypt_block(key: bytes | RoundKeySet, plaintext: bytes) -> bytes:
    keys = _round_keys(key, ENCRYPT)
    state = add_round_key(_check_block(plaintext), keys[0])
    for r in range(1, NUM_ROUNDS):
        state = add_round_key(mix_columns(shift_rows(sub_bytes(state))), keys[r])
    return add_round_key(shift_rows(sub_bytes(state)), keys[NUM_ROUNDS])


def decrypt_block(key: bytes | RoundKeySet, ciphertext: bytes) -> bytes:
    """Decrypt via the equivalent inverse cipher (encryption's round shape)."""
    keys = _round_keys(key, DECRYPT)
    state = add_round_key(_check_block(ciphertext), keys[0])
    for r in range(1, NUM_ROUNDS):
        state = add_round_key(
            mix_columns(shift_rows(sub_bytes(state, inverse=True), inverse=True), inverse=True),
            keys[r],
        )
    return add_round_key(
        shift_rows(sub_bytes(state, inverse=True), inverse=True), keys[NUM_ROUNDS]
    )


def decrypt_block_textbook(key: bytes, ciphertext: bytes) -> bytes:
    """Textbook-order inverse cipher; independent cross-check for decrypt_block."""
    keys = key_expand(key).keys
    state = add_round_key(_check_block(ciphertext), keys[NUM_ROUNDS])
    for r in range(NUM_ROUNDS - 1, 0, -1):
        state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
        state = mix_columns(add_round_key(state, keys[r]), inverse=True)
    state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
    return add_round_key(state, keys[0])
