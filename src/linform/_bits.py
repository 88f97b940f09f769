"""Bitmask helpers shared by the image kernels.

A set of integers in a known window is stored as one big Python int with
bit i set when (base + i) is present, and a set of classes mod m as an
m-bit int with bit c set when c is present.  Shift-and-or on these masks
is the fast path for sumsets; CPython does the word-level work in C.
"""

from __future__ import annotations

from typing import Iterable

_BYTE_BITS = tuple(tuple(b for b in range(8) if i >> b & 1) for i in range(256))


def mask_of(values: Iterable[int], base: int) -> int:
    """Pack values (each >= base) into a bitmask relative to base."""
    m = 0
    for v in values:
        m |= 1 << (v - base)
    return m


def decode(mask: int, base: int) -> list[int]:
    """Unpack a bitmask into the sorted list of integers it represents."""
    out: list[int] = []
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for i, byte in enumerate(raw):
        if byte:
            offset = base + 8 * i
            for b in _BYTE_BITS[byte]:
                out.append(offset + b)
    return out


def cyclic_fold(terms: Iterable[Iterable[int]], m: int) -> int:
    """The sums of one class in [0, m) from each term, mod m, as an m-bit mask.

    Each later term shifts the accumulated mask by its classes and folds
    the bits at m and above back onto [0, m).
    """
    terms = iter(terms)
    acc = mask_of(next(terms), 0)
    for term in terms:
        acc = cyclic_shift(acc, term, m)
    return acc


def cyclic_shift(mask: int, shifts: Iterable[int], m: int) -> int:
    """The union of the m-bit mask rotated by each shift in [0, m): {c + t mod m : c in mask, t in shifts}."""
    shifted = 0
    for t in shifts:
        shifted |= mask << t
    return (shifted & ((1 << m) - 1)) | (shifted >> m)
