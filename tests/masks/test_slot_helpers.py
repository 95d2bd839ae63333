"""The big-int slot helpers of :mod:`repro.masks.bigint`.

Slot decoding and byte views must agree with plain bit arithmetic, and
:mod:`repro.xpath.bitset` must re-export the very same objects.
"""

from __future__ import annotations

import random

from repro.masks.bigint import byte_view, iter_slots, slots_of


def test_slot_helpers_agree():
    rng = random.Random(8191)
    for _ in range(50):
        mask = rng.getrandbits(rng.randint(0, 200))
        reference = [b for b in range(mask.bit_length()) if mask >> b & 1]
        assert slots_of(mask) == reference
        assert list(iter_slots(mask)) == reference
        view = byte_view(mask)
        for slot in reference:
            assert view[slot >> 3] & (1 << (slot & 7))


def test_bitset_reexports_are_the_same_objects():
    """The relocation kept ``repro.xpath.bitset``'s public surface."""
    from repro.masks import bigint
    from repro.xpath import bitset

    assert bitset.iter_slots is bigint.iter_slots
    assert bitset.slots_of is bigint.slots_of
    assert bitset.byte_view is bigint.byte_view
