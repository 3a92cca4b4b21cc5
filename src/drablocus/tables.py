"""Bit-exact ROM/RAM images loaded into the datapath block RAMs.

All images are addressed by {mode bit, input byte}: a 9-bit address whose
top bit selects encryption (0) or decryption (1). Generated from the field
primitives, never transcribed.
"""

from __future__ import annotations

from typing import IO, Iterable

from .gf256 import INV_SBOX, SBOX, gf_mul

MODE_ENCRYPT = 0
MODE_DECRYPT = 1

# First column of the fixed mix-columns matrix, top to bottom. The i-th
# 8-bit field of a product entry (counting from the most significant) holds
# the input byte times the i-th coefficient here.
MC_COLUMN = {MODE_ENCRYPT: (0x02, 0x01, 0x01, 0x03), MODE_DECRYPT: (0x0E, 0x09, 0x0D, 0x0B)}

SBOX_IMAGE_BITS = 512 * 8
MC_IMAGE_BITS = 512 * 32

# Round-key store: {mode bit, round index} in a 32 x 128-bit RAM image,
# 11 entries used per mode.
KEY_STORE_DEPTH = 32


def build_sbox_image() -> list[int]:
    """Forward S-box in entries 0..255, inverse S-box in entries 256..511.

    The halves are :mod:`gf256`'s tables, which it computes once from the
    field primitives at import.
    """
    return list(SBOX) + list(INV_SBOX)


# The product image, computed once at import as gf256 computes the S-box.
# The coefficient goes second: gf_mul loops over its second operand's bits,
# at most 4 of a coefficient's, where a variable byte has 8.
_MC_IMAGE = tuple(
    (gf_mul(b, m0) << 24) | (gf_mul(b, m1) << 16) | (gf_mul(b, m2) << 8) | gf_mul(b, m3)
    for m0, m1, m2, m3 in (MC_COLUMN[MODE_ENCRYPT], MC_COLUMN[MODE_DECRYPT])
    for b in range(256)
)


def build_mixcolumns_image() -> list[int]:
    """32-bit byte-product entries for both fixed matrices, as a new list.

    Entry {mode, b} concatenates, most significant field first, the products
    of b with the four MC_COLUMN coefficients for that mode.
    """
    return list(_MC_IMAGE)


def build_empty_key_store() -> list[int]:
    return [0] * KEY_STORE_DEPTH


def key_store_address(mode: int, round_index: int) -> int:
    if round_index < 0 or round_index > 10:
        raise ValueError(f"round index {round_index} outside 0..10")
    return ((mode & 1) << 4) | round_index


def datapath_bram_utilization() -> float:
    """Fraction of the datapath block RAM holding distinct table content.

    Four tiles carry the 4,096-bit substitution image and eight carry the
    16,384-bit product image, out of twelve 36,864-bit tiles; mirrored
    copies within a tile (for extra ports) count once.
    """
    used = 4 * SBOX_IMAGE_BITS + 8 * MC_IMAGE_BITS
    return used / (12 * 36864)


def dump_image_hex(image: Iterable[int], width_bits: int, stream: IO[str]) -> None:
    """One word per line, address ascending, zero-padded hex."""
    digits = (width_bits + 3) // 4
    for word in image:
        stream.write(f"{word:0{digits}x}\n")
