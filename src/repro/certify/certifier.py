"""The certifier: decide once whether a template can ever violate.

``certify(template, constraints)`` quantifies over **every** document and
every guard-passing binding: a ``CERTIFIED`` verdict promises that the
bracketed instantiation ``Begin; ops; Commit`` commits cleanly on any
:class:`~repro.stream.engine.StreamEnforcer` holding ``constraints`` —
which is what licenses the zero-per-op-checking hot path
(:meth:`~repro.stream.engine.StreamEnforcer.apply_certified`).

The decision is a conjunction over ``(template op, constraint)`` pairs,
each discharged by one of two static arguments reusing the PR 6 impact
signatures (:func:`repro.analysis.independence.impact_signature`):

**Kind monotonicity.**  Tree patterns are monotone, so each constraint
type is sensitive to exactly two op kinds (``NO_REMOVE`` to move/remove,
``NO_INSERT`` to add/move).  An op of an insensitive kind can never flip
that constraint's verdict, on any document.

**Label disjointness.**  When the op's *touched-label bound* is known
statically — a concrete label or a :class:`~repro.certify.templates.
LabelHole` domain for adds, a :class:`~repro.certify.templates.
SubtreeHole` label bound for moves/removes — and the constraint's label
alphabet is not ⊤, disjoint sets mean the edit can neither create nor
destroy a match: every node of a match carries an alphabet label, and
the edit only touches labels outside it.  The hole bounds are enforced
by the template guard at apply time, so the static argument transfers to
every instantiation the hot path will ever accept.

Both arguments hold at *every* intermediate state, so each prefix of a
certified instantiation leaves all answer sets exactly unchanged — the
uncertified oracle's per-op decisions are all accepting and its commit
check is vacuous, which is how the Hypothesis suite can pin certified
decisions bit-identical to uncertified replay.

When some pair resists both arguments the template is *not* proven safe,
and the certifier switches roles: a bounded **counterexample engine**
(the refutation-search shape of :mod:`repro.service`) enumerates witness
documents — canonical models of each constraint's range, near-miss
variants, seeded random trees — and guard-passing bindings, replaying
each instantiation through a real uncertified enforcer.  A rejected
commit yields a ``REJECTED`` verdict with a concrete
:class:`TemplateCounterexample` (witness document + bindings +
violations) that *replays*: the search never lies, so a template that
survives the budget without a witness is ``UNKNOWN`` — unsafe to run
certified, but not provably broken.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, product
from time import perf_counter
from typing import Any
from collections.abc import Iterator

from repro.analysis.independence import (
    KIND_ADD,
    KIND_MOVE,
    KIND_REMOVE,
    impact_signature,
)
from repro.certify.templates import (
    Binding,
    LabelHole,
    SubtreeHole,
    TemplateAdd,
    TemplateMove,
    TemplateOp,
    UpdateTemplate,
    _hole_candidates,
)
from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.constraints.validity import Violation
from repro.obs import MetricsRegistry
from repro.obs import registry as _obs_registry
from repro.stream.engine import StreamEnforcer
from repro.stream.ops import Begin, Commit
from repro.trees.tree import DataTree
from repro.xpath.canonical import canonical_models

#: Seed of the counterexample search (the paper's PODS date).  Fixed,
#: like :data:`MODEL_CAP`, so a re-certification during journal recovery
#: searches exactly what the registration searched.
DEFAULT_SEED = 20070611

#: Star-length cap of the canonical models the search draws witnesses from.
MODEL_CAP = 2

#: A label no constraint alphabet contains (models use it for padding).
_OFFSIDE_LABEL = "zz_offside"


class CertifyVerdict(Enum):
    """The three possible outcomes of :func:`certify`."""

    CERTIFIED = "certified"
    REJECTED = "rejected"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OpDischarge:
    """Why one ``(op, constraint)`` pair can never violate.

    ``reason`` is ``"kind"`` (the constraint type is insensitive to the
    op kind) or ``"labels"`` (the op's static label bound misses the
    constraint's alphabet).
    """

    op_index: int
    constraint: UpdateConstraint
    reason: str

    def __str__(self) -> str:
        return f"op {self.op_index} vs {self.constraint}: {self.reason}"


@dataclass(frozen=True)
class TemplateCertificate:
    """A positive certificate: every pair discharged, with reasons."""

    template_key: tuple[Any, ...]
    discharges: tuple[OpDischarge, ...]

    def reasons(self) -> dict[str, int]:
        """How many pairs each static argument discharged."""
        out: dict[str, int] = {}
        for d in self.discharges:
            out[d.reason] = out.get(d.reason, 0) + 1
        return out


@dataclass(frozen=True)
class TemplateCounterexample:
    """A concrete violating instantiation that replays.

    ``document`` is the witness the template was instantiated on (the
    *pre*-template state); replaying ``Begin; template.instantiate(
    bindings); Commit`` through an uncertified enforcer on a copy of it
    rejects the commit with ``violations``.
    """

    document: DataTree
    bindings: dict[str, Binding]
    violations: tuple[Violation, ...]

    def __str__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in
                          sorted(self.bindings.items()))
        return (f"counterexample on {self.document.size}-node witness "
                f"with [{shown}]: {len(self.violations)} violation(s)")


@dataclass(frozen=True)
class CertifyOutcome:
    """The full result of one :func:`certify` call.

    Exactly one of ``certificate`` / ``counterexample`` is set for
    CERTIFIED / REJECTED; UNKNOWN carries neither.  ``pairs`` counts the
    ``(op, constraint)`` obligations, ``discharged`` how many the static
    arguments closed, ``attempts`` how many concrete instantiations the
    counterexample search replayed.
    """

    verdict: CertifyVerdict
    certificate: TemplateCertificate | None = None
    counterexample: TemplateCounterexample | None = None
    pairs: int = 0
    discharged: int = 0
    attempts: int = 0
    undischarged: tuple[tuple[int, UpdateConstraint], ...] = field(
        default=(), repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict is CertifyVerdict.CERTIFIED

    def wire_stats(self) -> tuple[tuple[str, int], ...]:
        """Int-only ``(name, value)`` pairs for ``Ack.stats``.

        Counterexample *objects* stay server-side (their witness trees
        allocate fresh node ids per call — the :class:`~repro.service.
        protocol.Verdict` precedent); the wire carries the verdict and
        the search/discharge accounting.
        """
        stats = {
            "certify.certified": int(self.certified),
            "certify.rejected": int(
                self.verdict is CertifyVerdict.REJECTED),
            "certify.pairs": self.pairs,
            "certify.discharged": self.discharged,
            "certify.attempts": self.attempts,
        }
        if self.counterexample is not None:
            stats["certify.witness_nodes"] = \
                self.counterexample.document.size
            stats["certify.witness_violations"] = \
                len(self.counterexample.violations)
        return tuple(sorted(stats.items()))


# ----------------------------------------------------------------------
# Static discharge
# ----------------------------------------------------------------------
def _op_kind(op: TemplateOp) -> str:
    if isinstance(op, TemplateAdd):
        return KIND_ADD
    if isinstance(op, TemplateMove):
        return KIND_MOVE
    return KIND_REMOVE


def _op_labels(op: TemplateOp) -> frozenset[str] | None:
    """The op's static touched-label bound (``None`` = unbounded).

    For an add the touched label is the new leaf's: a concrete label or
    the hole's domain.  For a move/remove it is the labels of the moved/
    removed subtree: bounded only when the position is a
    :class:`SubtreeHole` (the guard then *enforces* the bound at apply
    time); a concrete node id or plain :class:`NodeHole` says nothing
    about subtree content on an unknown document, so the bound is ⊤.
    """
    if isinstance(op, TemplateAdd):
        if isinstance(op.label, LabelHole):
            return op.label.domain
        return frozenset((op.label,))
    node = op.node
    if isinstance(node, SubtreeHole):
        return node.labels
    return None


def discharge_pairs(template: UpdateTemplate, constraints: ConstraintSet
                    ) -> tuple[tuple[OpDischarge, ...],
                               tuple[tuple[int, UpdateConstraint], ...]]:
    """Split the obligation pairs into (discharged, undischarged)."""
    signatures = [impact_signature(c) for c in constraints.constraints]
    discharged: list[OpDischarge] = []
    open_pairs: list[tuple[int, UpdateConstraint]] = []
    for at, op in enumerate(template.ops):
        kind = _op_kind(op)
        touched = _op_labels(op)
        for sig in signatures:
            if kind not in sig.kinds:
                discharged.append(OpDischarge(at, sig.constraint, "kind"))
            elif (touched is not None and sig.labels is not None
                  and not (touched & sig.labels)):
                discharged.append(OpDischarge(at, sig.constraint,
                                              "labels"))
            else:
                open_pairs.append((at, sig.constraint))
    return tuple(discharged), tuple(open_pairs)


# ----------------------------------------------------------------------
# Counterexample search
# ----------------------------------------------------------------------
def _search_alphabet(template: UpdateTemplate,
                     constraints: ConstraintSet) -> list[str]:
    """Labels worth putting in witness documents, sorted."""
    labels: set[str] = set(constraints.labels())
    for op in template.ops:
        touched = _op_labels(op)
        if touched is not None:
            labels.update(touched)
    labels.add(_OFFSIDE_LABEL)
    return sorted(labels)


def _witness_documents(template: UpdateTemplate,
                       constraints: ConstraintSet,
                       rng: random.Random, *,
                       random_documents: int) -> Iterator[DataTree]:
    """Candidate witness documents, most promising first.

    Canonical models of each constraint's range put a live match on the
    table (moves/removes can destroy it → ``NO_REMOVE`` witnesses); the
    output-leaf-pruned variants leave a *near*-match one insertion away
    (→ ``NO_INSERT`` witnesses); an offside root child gives holes a
    place to land that is not part of any match; seeded random trees
    over the combined alphabet cover interactions the shaped candidates
    miss.  Deterministic for a given ``rng`` state.
    """
    alphabet = _search_alphabet(template, constraints)
    wildcards = [lbl for lbl in alphabet if lbl != _OFFSIDE_LABEL][:2] \
        or [_OFFSIDE_LABEL]
    for constraint in constraints.constraints:
        for model in islice(canonical_models(
                constraint.range, MODEL_CAP,
                wildcard_labels=wildcards), 4):
            base = model.tree
            yield base.copy()
            offside = base.copy()
            offside.add_child(offside.root, _OFFSIDE_LABEL)
            yield offside
            if (model.output != base.root
                    and not base.children(model.output)):
                pruned = offside.copy()
                pruned.remove_subtree(model.output)
                yield pruned
    for _ in range(random_documents):
        tree = DataTree()
        nodes = [tree.root]
        for _ in range(rng.randrange(3, 9)):
            parent = nodes[rng.randrange(len(nodes))]
            nodes.append(tree.add_child(
                parent, alphabet[rng.randrange(len(alphabet))]))
        yield tree


def _violating_commit(template: UpdateTemplate,
                      bindings: dict[str, Binding],
                      document: DataTree,
                      constraints: ConstraintSet
                      ) -> tuple[Violation, ...] | None:
    """Replay one instantiation uncertified; the violations if rejected."""
    enforcer = StreamEnforcer(constraints, document.copy(),
                              analysis=False)
    enforcer.apply(Begin(template.name))
    for op in template.instantiate(bindings):
        enforcer.apply(op)
    decision = enforcer.apply(Commit())
    if decision.accepted:
        return None
    return decision.violations


def _search_counterexample(template: UpdateTemplate,
                           constraints: ConstraintSet, *,
                           random_documents: int,
                           max_bindings: int,
                           ) -> tuple[TemplateCounterexample | None, int]:
    """Bounded refutation: (witness or None, instantiations replayed)."""
    rng = random.Random(DEFAULT_SEED)
    attempts = 0
    for document in _witness_documents(template, constraints, rng,
                                       random_documents=random_documents):
        candidates = _hole_candidates(template, document)
        if candidates is None:
            continue
        names = sorted(candidates)
        pools = [candidates[name] for name in names]
        for combo in islice(product(*pools), max_bindings):
            bindings = dict(zip(names, combo))
            if template.guard_errors(bindings, document) is not None:
                continue
            attempts += 1
            violations = _violating_commit(template, bindings, document,
                                           constraints)
            if violations is not None:
                return TemplateCounterexample(document, bindings,
                                              violations), attempts
    return None, attempts


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
def certify(template: UpdateTemplate, constraints: ConstraintSet, *,
            random_documents: int = 4,
            max_bindings: int = 256,
            metrics: MetricsRegistry | None = None) -> CertifyOutcome:
    """Decide whether every instantiation of ``template`` preserves
    ``constraints``; on failure, hunt for a replaying counterexample.

    The static phase is sound and complete-in-its-arguments: all pairs
    discharged ⇒ CERTIFIED (no search runs, ``attempts`` is 0).  The
    search phase is sound but bounded: a witness ⇒ REJECTED with a
    :class:`TemplateCounterexample` that replays to a real rejection;
    budget exhausted ⇒ UNKNOWN (treat as not-certifiable — the hot path
    refuses UNKNOWN templates, it never guesses).

    The search is seeded with :data:`DEFAULT_SEED` and draws models up to
    :data:`MODEL_CAP`; ``random_documents``/``max_bindings`` bound it, so
    re-certification during journal recovery reproduces the stored
    verdict bit-for-bit.
    """
    constraints.require_concrete()
    m = metrics if metrics is not None else _obs_registry()
    started = perf_counter()
    discharged, open_pairs = discharge_pairs(template, constraints)
    pairs = len(discharged) + len(open_pairs)
    if not open_pairs:
        outcome = CertifyOutcome(
            CertifyVerdict.CERTIFIED,
            certificate=TemplateCertificate(template.canonical_key(),
                                            discharged),
            pairs=pairs, discharged=len(discharged))
        m.counter("certify.certified_total").inc()
    else:
        witness, attempts = _search_counterexample(
            template, constraints, random_documents=random_documents,
            max_bindings=max_bindings)
        if witness is not None:
            outcome = CertifyOutcome(
                CertifyVerdict.REJECTED, counterexample=witness,
                pairs=pairs, discharged=len(discharged),
                attempts=attempts, undischarged=open_pairs)
            m.counter("certify.rejected_total").inc()
        else:
            outcome = CertifyOutcome(
                CertifyVerdict.UNKNOWN, pairs=pairs,
                discharged=len(discharged), attempts=attempts,
                undischarged=open_pairs)
            m.counter("certify.unknown_total").inc()
    m.histogram("certify.certify_seconds").observe(
        perf_counter() - started)
    return outcome


__all__ = [
    "DEFAULT_SEED", "CertifyVerdict", "OpDischarge",
    "TemplateCertificate", "TemplateCounterexample", "CertifyOutcome",
    "discharge_pairs", "certify",
]
