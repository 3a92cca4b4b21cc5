"""Arithmetic in GF(2^8) with the AES reduction polynomial.

Every lookup table in the package (S-box image, byte-product image) is
generated from these primitives, so they are deliberately written in the
most transparent form: multiplication is iterated shift-and-reduce, and the
S-box is computed as multiplicative inverse followed by the affine map
rather than transcribed from a table.

Every process that imports the package builds the tables, so inverses
come from one table that a single walk of the powers of 3 fills (254
products), not from a^254 by :func:`gf_pow` for each S-box entry (7,650).
:func:`gf_pow` stays the definition the table is tested against, and
:func:`sbox_forward` and :func:`sbox_inverse` stay the S-box definitions
:data:`SBOX` and :data:`INV_SBOX` are built from.
"""

from __future__ import annotations

# x^8 + x^4 + x^3 + x + 1
AES_POLY = 0x11B

_BYTE = 0xFF


def gf_add(a: int, b: int) -> int:
    """Field addition: bitwise XOR. Each element is its own inverse."""
    return (a ^ b) & _BYTE


def gf_mul(a: int, b: int) -> int:
    """Field multiplication modulo AES_POLY, by shift-and-conditionally-reduce."""
    a &= _BYTE
    b &= _BYTE
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= AES_POLY
        b >>= 1
    return product


def gf_pow(a: int, n: int) -> int:
    """a raised to a non-negative power, by square-and-multiply."""
    result = 1
    base = a & _BYTE
    while n:
        if n & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        n >>= 1
    return result


def _inverse_table() -> tuple[int, ...]:
    """Entry a is a's inverse, from one walk of the powers of 3.

    3 generates the group of order 255 the nonzero elements form, so every
    nonzero a is 3^i for one i < 255, and 3^i * 3^(255 - i) = 3^255 = 1.
    """
    powers = [1]
    for _ in range(254):
        powers.append(gf_mul(powers[-1], 3))
    inverses = [0] * 256
    for i, power in enumerate(powers):
        inverses[power] = powers[-i]
    return tuple(inverses)


_INVERSES = _inverse_table()


def gf_inv(a: int) -> int:
    """Multiplicative inverse; by convention gf_inv(0) == 0.

    A lookup in the table one walk of the powers of 3 builds at import; the
    definition is a^254, since the nonzero elements form a group of order
    255 (``gf_pow(a, 254)`` gives the same value).
    """
    return _INVERSES[a & _BYTE]


def _rotl8(x: int, n: int) -> int:
    n &= 7
    return ((x << n) | (x >> (8 - n))) & _BYTE


def sbox_forward(b: int) -> int:
    """AES S-box: multiplicative inverse, then the standard affine map."""
    x = gf_inv(b)
    return x ^ _rotl8(x, 1) ^ _rotl8(x, 2) ^ _rotl8(x, 3) ^ _rotl8(x, 4) ^ 0x63


def sbox_inverse(b: int) -> int:
    """Inverse S-box: inverse affine map, then multiplicative inverse."""
    x = _rotl8(b, 1) ^ _rotl8(b, 3) ^ _rotl8(b, 6) ^ 0x05
    return gf_inv(x)


# Precomputed 256-entry views, for callers that do bulk substitution.
SBOX = tuple(sbox_forward(b) for b in range(256))
INV_SBOX = tuple(sbox_inverse(b) for b in range(256))
