"""Nodes of unordered XML data trees.

Following Definition 2.1 of the paper, a node is a pair drawn from
``N x L``: a node *identifier* (we use non-negative integers) together with a
*label*.  Query answers are sets of such pairs, and validity of an update
``(I, J)`` compares answer sets across the two instances by these pairs.
Consequently a node that keeps its identifier but changes label is a
*different* node — exactly the behaviour mandated by the paper's model.

Fresh identifiers are handed out by a process-wide :class:`IdAllocator` so
that independently built trees never reuse an identifier by accident; the
constructions in Sections 4 and 5 (counterexample trees built out of several
instances) rely on this guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Node:
    """A node: an ``(id, label)`` pair, hashable and immutable."""

    nid: int
    label: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.label}#{self.nid}"


class IdAllocator:
    """Monotone counter producing process-unique node identifiers."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def fresh(self) -> int:
        """Return the next unused identifier."""
        return next(self._counter)

    def reserve_above(self, nid: int) -> None:
        """Ensure future identifiers are strictly greater than ``nid``.

        Called when trees are built with explicit identifiers so that the
        allocator never collides with them.
        """
        current = next(self._counter)
        if current <= nid:
            self._counter = itertools.count(nid + 1)
        else:
            self._counter = itertools.count(current)


#: Process-wide allocator used whenever an id is not supplied explicitly.
GLOBAL_IDS = IdAllocator()


def fresh_id() -> int:
    """Return a fresh node identifier from the global allocator."""
    return GLOBAL_IDS.fresh()


def reset_ids(start: int = 1) -> None:
    """Reset the global allocator (test isolation only)."""
    global GLOBAL_IDS
    GLOBAL_IDS = IdAllocator(start)
