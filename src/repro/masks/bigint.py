"""Big-int slot-mask helpers.

Slot decoding through a per-byte table and byte views for O(1)
membership tests — the primitives the
:class:`~repro.xpath.bitset.BitsetEvaluator` hot paths and the baseline
masks of :mod:`repro.masks.baseline` decode answers with (re-exported
from :mod:`repro.xpath.bitset` for compatibility).
"""

from __future__ import annotations

from collections.abc import Iterator

_BIT = tuple(1 << b for b in range(8))


# Per-byte decode table: byte value -> bit positions set in it.  One
# ``int.to_bytes`` conversion turns slot extraction into a C-level byte
# scan with table lookups — O(words + answers) instead of the bit-kernel
# loop's O(answers * words) repeated big-int ``mask & -mask`` arithmetic.
_BYTE_SLOTS: tuple[tuple[int, ...], ...] = tuple(
    tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def iter_slots(mask: int) -> Iterator[int]:
    """Slots (bit positions) of a mask, ascending — document order.

    Batch-decoded through :data:`_BYTE_SLOTS`; on >10k-node documents this
    is what keeps whole-mask extraction off the profile (see the
    ``decoder`` row of ``benchmarks/bench_stream.py``).
    """
    offset = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for b in _BYTE_SLOTS[byte]:
                yield offset + b
        offset += 8


def slots_of(mask: int) -> list[int]:
    """All slots of a mask as a list (the loop-free twin of
    :func:`iter_slots` for callers that consume the whole answer)."""
    out: list[int] = []
    offset = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            out += [offset + b for b in _BYTE_SLOTS[byte]]
        offset += 8
    return out


def byte_view(mask: int) -> bytes:
    """The mask as bytes: O(1) per-slot membership tests against big masks
    (``view[s >> 3] & _BIT[s & 7]``) instead of an O(words) shift each."""
    return mask.to_bytes((mask.bit_length() + 7) >> 3, "little")


__all__ = ["iter_slots", "slots_of", "byte_view"]
