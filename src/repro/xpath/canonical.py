"""Canonical models of tree patterns (Miklau-Suciu machinery).

A *canonical model* of a pattern ``p`` is a ground data tree obtained by

* instantiating every wildcard with the fresh label ``z`` (or, where an
  engine requires it, with labels drawn from a supplied alphabet), and
* expanding every descendant edge into a child edge preceded by a chain of
  ``j`` fresh ``z``-labelled nodes, for ``j`` ranging over ``0..cap``.

The completeness theorem of [Miklau-Suciu] (used throughout Sections 4-5 of
the paper) states that for containment ``p ⊆ q`` it suffices to check the
canonical models of ``p`` with ``cap = star_length(q) + 1``.  The same
pruning argument powers the paper's small-model properties (Theorems 4.7 and
5.1), so this module is shared by the containment tester, the canonical
implication engine and the instance-based engines.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import product

from repro.trees.ops import FRESH_LABEL
from repro.trees.tree import DataTree
from repro.xpath.ast import Axis, Pattern, Pred, normalize


@lru_cache(maxsize=65536)
def canonical_pattern(pattern: Pattern) -> Pattern:
    """The memoised canonical (normal) form of a pattern.

    Canonical forms make structural equality coincide with syntactic
    equality of the normal form (sibling predicates sorted and
    deduplicated), which is what the session-API caches key on: two
    patterns denote the same query whenever their canonical forms are
    equal.  The parser already emits normal forms, so for parsed patterns
    the result is structurally equal to the input; programmatically
    assembled patterns pay one normalisation, amortised by the cache.
    """
    return normalize(pattern)


@lru_cache(maxsize=65536)
def spine_anchor(pattern: Pattern) -> tuple[Axis, str | None]:
    """``(axis, label)`` of the canonical pattern's first spine step.

    Every match of a pattern is contained in the subtree of the node its
    first step maps to — a child (``/``) or descendant (``//``) of the
    root passing the step's label test.  The nodes passing that test are
    therefore the *anchors* of the pattern: the subtrees below them are
    the only tree regions where the pattern's answer can change
    (:mod:`repro.analysis` tests an edit point's ancestor chain for one).
    """
    first = canonical_pattern(pattern).steps[0]
    return (first.axis, first.label)


class CanonicalModel:
    """A ground instantiation of a pattern.

    Attributes:
        tree: the data tree.
        output: identifier of the node the pattern's output maps to.
        spine: identifiers of the nodes the spine steps map to (in order).
    """

    __slots__ = ("tree", "output", "spine")

    def __init__(self, tree: DataTree, output: int, spine: tuple[int, ...]):
        self.tree = tree
        self.output = output
        self.spine = spine

    def shape_key(self) -> tuple:
        """Isomorphism key distinguishing the output node (deduplication)."""

        def shape(nid: int) -> tuple:
            tag = (self.tree.label(nid), nid == self.output)
            kids = sorted(shape(c) for c in self.tree.children(nid))
            return (tag, tuple(kids))

        return shape(self.tree.root)


def _expansions(count: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All gap-length vectors for ``count`` descendant edges."""
    yield from product(range(cap + 1), repeat=count)


def _desc_edges_pred(pred: Pred) -> int:
    own = 1 if pred.axis is Axis.DESC else 0
    return own + sum(_desc_edges_pred(c) for c in pred.children)


def _wildcards_pred(pred: Pred) -> int:
    own = 1 if pred.label is None else 0
    return own + sum(_wildcards_pred(c) for c in pred.children)


def count_desc_edges(pattern: Pattern) -> int:
    """Number of descendant edges (spine and predicates)."""
    total = 0
    for step in pattern.steps:
        if step.axis is Axis.DESC:
            total += 1
        total += sum(_desc_edges_pred(p) for p in step.preds)
    return total


def count_wildcards(pattern: Pattern) -> int:
    """Number of wildcard-labelled nodes (spine and predicates)."""
    total = 0
    for step in pattern.steps:
        if step.label is None:
            total += 1
        total += sum(_wildcards_pred(p) for p in step.preds)
    return total


class _Instantiator:
    """Builds one ground tree for a fixed choice of gaps and wildcard labels.

    Choices are consumed in a deterministic left-to-right traversal order so
    that the enumeration in :func:`canonical_models` covers the full product
    space exactly once.
    """

    def __init__(self, gaps: Sequence[int], wilds: Sequence[str], fresh: str = FRESH_LABEL):
        self._gaps = list(gaps)
        self._wilds = list(wilds)
        self._fresh = fresh
        self._gap_idx = 0
        self._wild_idx = 0

    def _next_gap(self) -> int:
        gap = self._gaps[self._gap_idx]
        self._gap_idx += 1
        return gap

    def _next_wild(self) -> str:
        label = self._wilds[self._wild_idx]
        self._wild_idx += 1
        return label

    def attach(self, tree: DataTree, parent: int, axis: Axis, label: str | None) -> int:
        anchor = parent
        if axis is Axis.DESC:
            for _ in range(self._next_gap()):
                anchor = tree.add_child(anchor, self._fresh)
        concrete = self._next_wild() if label is None else label
        return tree.add_child(anchor, concrete)

    def attach_pred(self, tree: DataTree, parent: int, pred: Pred) -> None:
        nid = self.attach(tree, parent, pred.axis, pred.label)
        for child in pred.children:
            self.attach_pred(tree, nid, child)

    def build(self, pattern: Pattern) -> CanonicalModel:
        tree = DataTree()
        spine: list[int] = []
        anchor = tree.root
        for step in pattern.steps:
            anchor = self.attach(tree, anchor, step.axis, step.label)
            spine.append(anchor)
            for pred in step.preds:
                self.attach_pred(tree, anchor, pred)
        return CanonicalModel(tree, spine[-1], tuple(spine))


def canonical_models(
    pattern: Pattern,
    cap: int,
    wildcard_labels: Iterable[str] | None = None,
    deduplicate: bool = True,
    fresh: str = FRESH_LABEL,
) -> Iterator[CanonicalModel]:
    """Enumerate the canonical models of ``pattern``.

    ``cap`` bounds the length of the fresh chains replacing descendant
    edges; ``wildcard_labels`` is the set of labels substituted for each
    wildcard (default: just the fresh label).  The number of models is
    ``(cap+1)^#desc * |wildcard_labels|^#wild`` — callers control blow-up via
    their fragment-specific caps.  ``fresh`` must not occur in any pattern
    or tree of the surrounding problem (see ``fresh_label_for``).
    """
    wild_options = [fresh] if wildcard_labels is None else list(wildcard_labels)
    n_desc = count_desc_edges(pattern)
    n_wild = count_wildcards(pattern)
    seen: set[tuple] = set()
    for gaps in _expansions(n_desc, cap):
        for wilds in product(wild_options, repeat=n_wild):
            model = _Instantiator(gaps, wilds, fresh).build(pattern)
            if deduplicate:
                key = model.shape_key()
                if key in seen:
                    continue
                seen.add(key)
            yield model


def smallest_model(pattern: Pattern, fresh: str = FRESH_LABEL) -> CanonicalModel:
    """The minimal canonical model (all gaps 0, wildcards fresh)."""
    n_desc = count_desc_edges(pattern)
    n_wild = count_wildcards(pattern)
    return _Instantiator([0] * n_desc, [fresh] * n_wild, fresh).build(pattern)


def model_count(pattern: Pattern, cap: int, wildcard_options: int = 1) -> int:
    """Size of the canonical-model space (before deduplication)."""
    return (cap + 1) ** count_desc_edges(pattern) * wildcard_options ** count_wildcards(pattern)
