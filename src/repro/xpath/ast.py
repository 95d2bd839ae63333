"""Abstract syntax for the XPath fragment ``XP{/,[],//,*}``.

The paper's grammar (Section 2) is::

    path  ::=  /step | //step | path path
    step  ::=  label pred
    pred  ::=  eps | [path] | pred pred
    label ::=  L | *

We mirror it directly:

* a :class:`Pattern` is a non-empty sequence of :class:`Step` objects — the
  *spine* from the document root to the distinguished output node (the last
  step);
* each step carries the axis of the edge *into* it (``/`` child or ``//``
  descendant), a label (``None`` encodes the wildcard ``*``) and a tuple of
  predicate trees;
* a predicate is a tree of :class:`Pred` nodes, each again carrying an axis,
  a label and child predicates.  The grammar's ``[path]`` becomes a chain of
  ``Pred`` nodes, and multiple predicates on one step become siblings.

All nodes are immutable and hashable; predicates are kept in a canonical
sorted order so that structural equality coincides with syntactic equality
of the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from collections.abc import Iterable, Iterator


class Axis(Enum):
    """Navigation axis of the edge entering a pattern node."""

    CHILD = "/"
    DESC = "//"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


WILDCARD: None = None  # readable alias for the wildcard label

# Recursive structural key of a predicate tree (see Pred.sort_key).
SortKey = tuple[str, str, tuple["SortKey", ...]]


@dataclass(frozen=True)
class Pred:
    """One node of a predicate tree.

    ``label is None`` encodes the wildcard.  ``children`` holds both the
    continuation of the predicate's path and any nested predicates — after
    parsing the two are indistinguishable, which is semantically accurate:
    a predicate is simply a boolean tree pattern anchored at its step.
    """

    axis: Axis
    label: str | None
    children: tuple["Pred", ...] = field(default=())

    def __hash__(self) -> int:
        # Structural hashing is O(subtree) — memo tables key on predicate
        # nodes constantly, so compute it once per object.
        h: int | None = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.axis, self.label, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> "SortKey":
        """Deterministic structural key used to canonicalise sibling order."""
        return (
            self.axis.value,
            self.label if self.label is not None else "￿*",
            tuple(c.sort_key() for c in self.children),
        )

    @cached_property
    def size(self) -> int:
        """Number of nodes in this predicate tree."""
        return 1 + sum(c.size for c in self.children)

    def __str__(self) -> str:
        label = "*" if self.label is None else self.label
        preds = "".join(f"[{c}]" for c in self.children)
        return f"{self.axis.value}{label}{preds}"


@dataclass(frozen=True)
class Step:
    """One spine node: axis, label (``None`` = wildcard) and predicates."""

    axis: Axis
    label: str | None
    preds: tuple[Pred, ...] = field(default=())

    def __hash__(self) -> int:
        h: int | None = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.axis, self.label, self.preds))
            object.__setattr__(self, "_hash", h)
        return h

    @cached_property
    def size(self) -> int:
        return 1 + sum(p.size for p in self.preds)

    def __str__(self) -> str:
        label = "*" if self.label is None else self.label
        preds = "".join(f"[{p}]" for p in self.preds)
        return f"{self.axis.value}{label}{preds}"


@dataclass(frozen=True)
class Pattern:
    """A unary tree-pattern query: spine of steps, output = last step."""

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a pattern needs at least one step")

    def __hash__(self) -> int:
        h: int | None = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.steps)
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def output(self) -> Step:
        """The distinguished output step."""
        return self.steps[-1]

    @property
    def output_label(self) -> str | None:
        """Label of the output node (``None`` for wildcard)."""
        return self.steps[-1].label

    @property
    def is_concrete(self) -> bool:
        """True when the output node carries a concrete label.

        The paper presents its results for concrete paths; engines that rely
        on this assumption check it through this property.
        """
        return self.steps[-1].label is not None

    @cached_property
    def size(self) -> int:
        """Total number of pattern nodes (spine + predicates)."""
        return sum(s.size for s in self.steps)

    @property
    def spine_length(self) -> int:
        return len(self.steps)

    def as_boolean(self) -> Pred:
        """View this pattern as a boolean predicate tree (output ignored).

        Used when patterns occur inside annotations (Section 4.2) where only
        satisfaction at a node matters.
        """
        current: tuple[Pred, ...] = ()
        for step in reversed(self.steps):
            current = (Pred(step.axis, step.label, step.preds + current),)
        return current[0]

    def __str__(self) -> str:
        return "".join(str(s) for s in self.steps)


def normalize_preds(preds: tuple[Pred, ...]) -> tuple[Pred, ...]:
    """Sort and deduplicate sibling predicates (conjunction is a set)."""
    normalized = tuple(
        Pred(p.axis, p.label, normalize_preds(p.children)) for p in preds
    )
    unique = sorted(set(normalized), key=lambda p: p.sort_key())
    return tuple(unique)


def normalize(pattern: Pattern) -> Pattern:
    """Return the pattern with all predicate lists canonically ordered."""
    steps = tuple(
        Step(s.axis, s.label, normalize_preds(s.preds)) for s in pattern.steps
    )
    return Pattern(steps)


def make_path(*specs: tuple[Axis, str | None] | tuple[Axis, str | None, Iterable[Pred]]
              ) -> Pattern:
    """Programmatic construction helper.

    >>> p = make_path((Axis.CHILD, "a"), (Axis.DESC, "b"))
    >>> str(p)
    '/a//b'
    """
    steps: list[Step] = []
    for spec in specs:
        if len(spec) == 2:
            axis, label = spec
            preds: Iterable[Pred] = ()
        else:
            axis, label, preds = spec
        steps.append(Step(axis, label, normalize_preds(tuple(preds))))
    return Pattern(tuple(steps))


def iter_labels(pattern: Pattern) -> Iterator[str | None]:
    """Label of every pattern node — spine and predicate trees alike."""
    stack: list[Pred] = []
    for step in pattern.steps:
        yield step.label
        stack.extend(step.preds)
    while stack:
        pred = stack.pop()
        yield pred.label
        stack.extend(pred.children)


def label_alphabet(pattern: Pattern) -> frozenset[str] | None:
    """The pattern's label alphabet, or ``None`` for ⊤ (wildcard present).

    Every node of a match embeds some pattern node, so it must carry a
    label from this alphabet — unless the pattern contains a wildcard,
    which matches any label and widens the alphabet to ⊤.  This is the
    label dimension of the impact signatures in :mod:`repro.analysis`: an
    edit that introduces, relocates or deletes only nodes labelled outside
    the alphabet can neither create nor destroy matches.
    """
    labels: set[str] = set()
    for label in iter_labels(pattern):
        if label is None:
            return None
        labels.add(label)
    return frozenset(labels)
