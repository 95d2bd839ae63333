"""The delta-patch and slot-fold kernels against per-bit references.

:meth:`EditDelta.patch_mask` compiles a mask-independent plan once per
delta and patches through span-wide byte buffers; :meth:`TreeIndex.
pack_slots` folds slots over their span only.  The straightforward
per-bit versions — one big-int shift, set or clear per slot — live here
and nowhere else, as the references the fast kernels must equal bit for
bit, on synthetic deltas (arbitrary relocations, slot reuse, bits far
above the edit) and on the deltas real index edits log.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.trees import TreeIndex
from repro.trees.index import EditDelta
from repro.workloads import random_tree

RELAXED = settings(max_examples=150, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def reference_patch(delta: EditDelta, mask: int) -> int:
    """The per-bit patch: moved bits read from the pre-clear mask."""
    sets = 0
    clear = 0
    for _, old, new in delta.relocated:
        if (mask >> old) & 1:
            sets |= 1 << new
        clear |= 1 << old
    for _, old in delta.vanished:
        clear |= 1 << old
    return (mask & ~clear) | sets


def reference_pack(slots) -> int:
    mask = 0
    for s in slots:
        mask |= 1 << s
    return mask


@st.composite
def deltas(draw, top: int = 600) -> EditDelta:
    """An arbitrary delta: distinct old slots split between relocations
    and deletions; new slots distinct, and free to reuse freed slots."""
    olds = draw(st.lists(st.integers(0, top), unique=True, max_size=40))
    cut = draw(st.integers(0, len(olds)))
    moved, gone = olds[:cut], olds[cut:]
    news = draw(st.lists(st.integers(0, top), unique=True,
                         min_size=len(moved), max_size=len(moved)))
    relocated = tuple((1000 + i, old, new)
                      for i, (old, new) in enumerate(zip(moved, news)))
    vanished = tuple((2000 + i, old) for i, old in enumerate(gone))
    return EditDelta(1, relocated, vanished, (), ())


masks = st.integers(min_value=0, max_value=(1 << 700) - 1)


@given(delta=deltas(), mask=masks)
@RELAXED
def test_patch_equals_the_per_bit_reference(delta, mask):
    assert delta.patch_mask(mask) == reference_patch(delta, mask)
    # The compiled plan is reused: a second mask through the same delta.
    other = mask ^ ((1 << 650) - 1)
    assert delta.patch_mask(other) == reference_patch(delta, other)


@given(delta=deltas(top=200), mask=masks, high=st.integers(201, 5000))
@RELAXED
def test_bits_above_the_edit_are_untouched(delta, mask, high):
    mask |= 1 << high
    patched = delta.patch_mask(mask)
    assert patched == reference_patch(delta, mask)
    assert (patched >> 201) == (mask >> 201)


@given(delta=deltas(), mask=masks)
@RELAXED
def test_mask_disjoint_from_the_freed_slots_is_returned_as_is(delta, mask):
    freed = reference_pack([old for _, old, _ in delta.relocated]
                           + [old for _, old in delta.vanished])
    mask &= ~freed
    assert delta.patch_mask(mask) == mask == reference_patch(delta, mask)


@given(chain=st.lists(deltas(top=120), min_size=2, max_size=6), mask=masks)
@RELAXED
def test_chained_deltas_reusing_freed_slots(chain, mask):
    """Deltas replayed oldest-first; a later delta may occupy a slot an
    earlier one freed (the small ``top`` makes reuse the common case)."""
    fast, slow = mask, mask
    for delta in chain:
        fast = delta.patch_mask(fast)
        slow = reference_patch(delta, slow)
        assert fast == slow


def test_swap_within_one_delta():
    """Two nodes trade slots: each new slot is the other's freed slot."""
    delta = EditDelta(1, ((1, 8, 16), (2, 16, 8)), (), (), ())
    for mask in (0, 1 << 8, 1 << 16, (1 << 8) | (1 << 16), 0b1011 << 6):
        assert delta.patch_mask(mask) == reference_patch(delta, mask)


@given(slots=st.lists(st.integers(0, 3000), max_size=60))
@RELAXED
def test_pack_slots_equals_per_bit_folds(slots):
    expected = reference_pack(slots)
    assert TreeIndex.pack_slots(slots) == expected
    assert TreeIndex.pack_slots(set(slots)) == expected
    assert TreeIndex.pack_slots(iter(slots)) == expected


def _random_edit(rng: random.Random, index: TreeIndex) -> None:
    tree = index.tree
    nodes = list(tree.node_ids())
    nonroot = [n for n in nodes if n != tree.root]
    try:
        roll = rng.random()
        if roll < 0.45 and nonroot:
            index.apply_move(rng.choice(nonroot), rng.choice(nodes))
        elif roll < 0.8:
            index.apply_add_leaf(rng.choice(nodes), rng.choice("abc"))
        elif nonroot:
            index.apply_remove_subtree(rng.choice(nonroot))
    except TreeError:
        pass


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_logged_deltas_patch_like_the_reference(seed):
    """The deltas real edits log (renumbered hosts, compacting attaches,
    removals) patch random masks exactly like the reference."""
    rng = random.Random(seed)
    index = TreeIndex(random_tree(rng, list("abc"), size=rng.randint(2, 40)))
    fast = [rng.getrandbits(rng.choice((8, 64, 400))) for _ in range(4)]
    slow = list(fast)
    for _ in range(12):
        rev = index.revision
        _random_edit(rng, index)
        for delta in index.deltas_since(rev) or ():
            fast = [delta.patch_mask(m) for m in fast]
            slow = [reference_patch(delta, m) for m in slow]
        assert fast == slow
