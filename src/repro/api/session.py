"""The compiled reasoning session: :class:`Reasoner` and :class:`BoundReasoner`.

The paper's decision procedures (Tables 1 and 2) are parameterised by a
*fixed* constraint set ``C``; production traffic asks many conclusions
against one ``C``.  A :class:`Reasoner` compiles ``C`` exactly once —

* canonical constraint forms and the per-type views ``C_↑`` / ``C_↓``,
* the fragment classification, label alphabet and star length that drive
  engine dispatch,
* DFAs for every predicate-free range over the compiled alphabet (shared
  with the linear record engine through the global automata cache),

— and then serves queries through a memoising dispatch layer:

* :meth:`Reasoner.implies` — one conclusion (Table 1);
* :meth:`Reasoner.implies_all` — a batch, with shared work and optional
  early exit;
* :meth:`Reasoner.bind` — fix a current instance ``J`` and get a
  :class:`BoundReasoner` whose :meth:`~BoundReasoner.implies_on` caches the
  per-tree answer sets of every premise range across conclusions (Table 2).

Results are bit-identical to the legacy free functions
:func:`repro.implication.general.implies` and
:func:`repro.instance.general.implies_on` — which are now thin wrappers
over a transient, cache-free ``Reasoner``, so there is exactly one
dispatch code path in the system.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace
from functools import partial

from repro.automata.compile import engine_alphabet, linear_to_dfa
from repro.constraints.model import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
    constraint_set,
)
from repro.errors import UnsupportedProblemError
from repro.api.batch import BatchReport, run_batch
from repro.caching import DEFAULT_MEMO_SIZE, CacheStats, LRUMemo
from repro.implication.cross_type import cross_type_counterexample
from repro.implication.general import HYBRID_ENGINE as GENERAL_HYBRID_ENGINE
from repro.implication.linear_engine import implies_linear
from repro.implication.one_type import implies_one_type
from repro.implication.profile_search import profile_swap_refutation
from repro.implication.result import (
    ImplicationResult,
    implied,
    not_implied,
    unknown,
)
from repro.implication.same_type import implies_child_only
from repro.instance.cross_type import implies_cross_type
from repro.instance.general import HYBRID_ENGINE as INSTANCE_HYBRID_ENGINE
from repro.instance.search import (
    cascade_refutation,
    relocation_refutation,
    same_type_implication,
)
from repro.stream.engine import StreamEnforcer
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator
from repro.xpath.evaluator import evaluate_ids
from repro.xpath.properties import Fragment, is_linear


# The require_decision=True failure texts.
GENERAL_UNDECIDED = (
    "mixed types with predicates and descendant axis (the paper's "
    "NEXPTIME cell): sound tests were inconclusive"
)
INSTANCE_UNDECIDED = (
    "mixed-type instance-based implication (coNP-complete, "
    "Theorems 5.1/5.2): sound tests were inconclusive"
)


def _for_conclusion(result: ImplicationResult,
                    conclusion: UpdateConstraint) -> ImplicationResult:
    """Re-anchor a memoised result on the conclusion the caller passed.

    The memo keys on canonical forms, so a hit may carry a canonically
    equal but syntactically different conclusion from an earlier query;
    callers that echo ``result.conclusion`` should see their own object,
    exactly as the legacy free functions guaranteed.
    """
    if result.conclusion is conclusion:
        return result
    return replace(result, conclusion=conclusion)


class Reasoner:
    """A constraint set compiled once, serving implication queries.

    Parameters:
        constraints: the premise set ``C`` (a :class:`ConstraintSet`, any
            iterable of constraints, or specs accepted by
            :func:`repro.constraints.model.constraint_set`).
        memo_size: capacity of the per-session result cache (``0``
            disables memoisation, ``None`` means unbounded).
        precompile: build the cheap compilation artifacts (fragment
            classification, label alphabet, star length, linear DFAs)
            eagerly.  The legacy wrappers pass ``False`` so a transient
            single-query session costs exactly what the old free
            functions did.
    """

    def __init__(self,
                 constraints: ConstraintSet | Iterable[UpdateConstraint],
                 *,
                 memo_size: int | None = DEFAULT_MEMO_SIZE,
                 precompile: bool = True):
        if not isinstance(constraints, ConstraintSet):
            constraints = constraint_set(*constraints)
        constraints.require_concrete()
        self._premises = constraints
        self._memo_size = memo_size
        # Per-type views, labels and star length are built lazily so that a
        # transient, cache-free session (the legacy wrappers) only computes
        # what its single query's dispatch actually consults.
        self._by_type: dict[ConstraintType, ConstraintSet] = {}
        self._labels: set[str] | None = None
        self._memo = LRUMemo(memo_size)
        if precompile:
            _ = (self.fragment, self.labels, self.star_length)
            self._compile_linear_dfas()

    # ------------------------------------------------------------------
    # Compiled views
    # ------------------------------------------------------------------
    @property
    def premises(self) -> ConstraintSet:
        return self._premises

    @property
    def memo_size(self) -> int | None:
        """The configured result-cache capacity (inherited by bindings)."""
        return self._memo_size

    @property
    def fragment(self) -> Fragment:
        """Joint fragment of the premise ranges (conclusion excluded)."""
        return self._premises.fragment()

    @property
    def labels(self) -> set[str]:
        if self._labels is None:
            self._labels = self._premises.labels()
        return set(self._labels)

    @property
    def star_length(self) -> int:
        return self._premises.star_length()

    def of_type(self, ctype: ConstraintType) -> ConstraintSet:
        view = self._by_type.get(ctype)
        if view is None:
            view = self._by_type[ctype] = self._premises.of_type(ctype)
        return view

    def _compile_linear_dfas(self) -> None:
        """Warm the automata cache for every predicate-free range.

        The linear record engine compiles each range over the problem
        alphabet; conclusions whose labels stay inside the compiled
        alphabet then reuse these DFAs across every query of the session
        (a conclusion introducing a new label changes the alphabet and
        recompiles — the warm-up is best-effort for the common case).
        """
        alphabet = engine_alphabet(self._premises.ranges)
        for pattern in self._premises.ranges:
            if is_linear(pattern):
                linear_to_dfa(pattern, alphabet)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def implies(self, conclusion: UpdateConstraint,
                require_decision: bool = False) -> ImplicationResult:
        """Decide ``C ⊨ c`` (Definition 2.4) with session-level memoisation.

        Canonically-equal queries share one cached result (including its
        certificate and ``details``); treat results as immutable.
        """
        conclusion.require_concrete()
        result = self._memo.get_or_compute(
            ("general", conclusion.canonical_key),
            lambda: self._decide_general(conclusion),
        )
        if result.is_unknown and require_decision:
            raise UnsupportedProblemError(GENERAL_UNDECIDED)
        return _for_conclusion(result, conclusion)

    def implies_all(self, conclusions: Sequence[UpdateConstraint],
                    fail_fast: bool = False,
                    require_decision: bool = False) -> BatchReport:
        """Answer a batch of conclusions against the compiled premises.

        With ``fail_fast=True`` the batch stops at the first conclusion
        that is not IMPLIED; skipped entries are ``None`` in the report.
        ``require_decision`` is forwarded to every per-conclusion query,
        so a batch answers exactly like the equivalent loop of
        :meth:`implies` calls.
        """
        decide = partial(self.implies, require_decision=require_decision)
        return run_batch(decide, conclusions, fail_fast=fail_fast)

    def bind(self, current: DataTree,
             engine: str = "bitset") -> "BoundReasoner":
        """Fix the current instance ``J`` for instance-based queries.

        ``engine`` selects the evaluation substrate for every range
        evaluation on the binding — verdicts are bit-identical across
        both (enforced by the Hypothesis equivalence suite):

        * ``"bitset"`` (default) — set-at-a-time evaluation over a
          :class:`repro.trees.index.TreeIndex` snapshot
          (:class:`repro.xpath.bitset.BitsetEvaluator`): whole frontiers
          as masks, one cached bitset per canonical predicate;
        * ``"naive"`` — no snapshot at all (the legacy wrapper and the
          benchmarks' baseline).
        """
        return BoundReasoner(self, current, engine=engine)

    def implies_on(self, current: DataTree, conclusion: UpdateConstraint,
                   require_decision: bool = False,
                   max_moves: int = 2,
                   search_budget: int = 5000) -> ImplicationResult:
        """One-shot instance-based query (binds ``current`` transiently)."""
        return self.bind(current).implies_on(
            conclusion, require_decision=require_decision,
            max_moves=max_moves, search_budget=search_budget)

    def open_stream(self, tree: DataTree) -> StreamEnforcer:
        """Enforce the compiled constraint set online over ``tree``.

        Returns a :class:`repro.stream.engine.StreamEnforcer` that
        **adopts** ``tree``: submitted operations mutate it in place (one
        live incremental snapshot, delta-maintained predicate masks) and
        violating operations — or transactions whose commit finds the
        cumulative edit invalid — are rolled back automatically.
        """
        return StreamEnforcer(self._premises, tree)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the session's result memo."""
        return self._memo.stats

    def __repr__(self) -> str:
        return (f"Reasoner({len(self._premises)} constraints, "
                f"{self.fragment.name}, {self.stats})")

    # ------------------------------------------------------------------
    # The Table 1 dispatch (moved verbatim from implication.general)
    # ------------------------------------------------------------------
    def _decide_general(self, conclusion: UpdateConstraint) -> ImplicationResult:
        premises = self._premises
        same = self.of_type(conclusion.type)
        if len(same) == 0:
            certificate = cross_type_counterexample(premises, conclusion)
            return not_implied("cross-type", premises, conclusion, certificate,
                               reason="no premise shares the conclusion's type")

        if premises.is_single_type:
            return implies_one_type(premises, conclusion)

        fragment = premises.fragment(conclusion.range)
        if not fragment.descendant:
            return implies_child_only(premises, conclusion)
        if not fragment.predicates:
            return implies_linear(premises, conclusion)

        # --- the NEXPTIME cell: hybrid, sound-only ---------------------
        one_type = implies_one_type(same, conclusion)
        if one_type.is_implied:
            return implied(GENERAL_HYBRID_ENGINE, premises, conclusion,
                           reason="already implied by the same-type premises alone")
        certificate = profile_swap_refutation(premises, conclusion, subset_limit=2)
        if certificate is not None:
            return not_implied(GENERAL_HYBRID_ENGINE, premises, conclusion,
                               certificate,
                               reason="profile-preserving swap counterexample found")
        return unknown(GENERAL_HYBRID_ENGINE, premises, conclusion,
                       reason="sound implication test failed and no swap "
                              "counterexample exists; the NEXPTIME cell needs the "
                              "full DTD+regular-keys consistency reduction "
                              "(see repro.keys.encoding)")


class BoundReasoner:
    """A :class:`Reasoner` bound to one current instance ``J``.

    Caches everything that depends on ``J`` but not on the conclusion —
    the :class:`~repro.trees.index.TreeIndex` snapshot powering bitset
    evaluation (see :meth:`Reasoner.bind` for the engine choices), the
    answer set of every premise range on ``J`` (which the
    per-witness no-insert engine consumes for each conclusion), and a
    result memo keyed on canonical conclusions.

    The bound tree must not be mutated while the binding is in use;
    mutate-and-requery through a fresh :meth:`Reasoner.bind`.  On either
    engine the binding records the tree's mutation
    :attr:`~repro.trees.tree.DataTree.version` at bind time, so every
    structural change — moves and relabels that keep the size included —
    makes further queries raise :class:`ValueError`.

    ``context`` optionally hands in an evaluator over a fresh index of
    ``current`` to bind through instead of building one — the service
    passes its live enforcement stream's evaluator, so one mask memo
    serves the document.  The stream's edits go through that index and
    move the tree's version, so the binding goes stale with the first one.
    """

    ENGINES = ("bitset", "naive")

    def __init__(self, reasoner: Reasoner, current: DataTree,
                 engine: str = "bitset", *,
                 context: BitsetEvaluator | None = None):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown evaluation engine {engine!r}; "
                             f"expected one of {self.ENGINES}")
        self._reasoner = reasoner
        self._current = current
        self._version_at_bind = current.version
        self._engine = engine
        self._context: BitsetEvaluator | None = None
        if engine == "bitset":
            if context is None:
                context = BitsetEvaluator.for_tree(current)
            elif not context.covers(current):
                raise ValueError("context is not an evaluator over a fresh "
                                 "index of the bound tree")
            self._context = context
        self._range_hits: dict[UpdateConstraint, set[int]] = {}
        self._memo = LRUMemo(reasoner.memo_size)

    @property
    def reasoner(self) -> Reasoner:
        return self._reasoner

    @property
    def current(self) -> DataTree:
        return self._current

    @property
    def engine(self) -> str:
        """The binding's evaluation substrate (``bitset`` or ``naive``)."""
        return self._engine

    @property
    def context(self) -> BitsetEvaluator | None:
        """The binding's snapshot evaluator (``None`` on the naive engine)."""
        return self._context

    def premise_answers(self) -> dict[UpdateConstraint, set[int]]:
        """``{c: c.range(J)}`` for every premise, evaluated once per binding.

        Returns a defensive copy — the live cache backs every subsequent
        query on this binding and must stay caller-proof.
        """
        self._check_fresh()
        hits = self._hits_for(self._reasoner.premises)
        return {c: set(ids) for c, ids in hits.items()}

    def _hits_for(self, constraints: Iterable[UpdateConstraint]
                  ) -> dict[UpdateConstraint, set[int]]:
        """The shared per-binding answer-set cache, filled on demand.

        Only the requested constraints are evaluated — the dispatch asks
        for exactly the subset its engine consumes, so a mixed-type query
        never pays for the opposite type's ranges.
        """
        for constraint in constraints:
            if constraint not in self._range_hits:
                self._range_hits[constraint] = evaluate_ids(
                    constraint.range, self._current, context=self._context)
        return self._range_hits

    def _check_fresh(self) -> None:
        if self._current.version != self._version_at_bind:
            raise ValueError(
                "the bound tree mutated since bind(); a BoundReasoner "
                "caches per-tree answer sets — rebind after mutating J"
            )

    def implies_on(self, conclusion: UpdateConstraint,
                   require_decision: bool = False,
                   max_moves: int = 2,
                   search_budget: int = 5000) -> ImplicationResult:
        """Decide ``C ⊨_J c`` (Definition 2.5) with per-tree caching."""
        conclusion.require_concrete()
        self._check_fresh()
        result = self._memo.get_or_compute(
            ("instance", conclusion.canonical_key, max_moves, search_budget),
            lambda: self._decide_instance(conclusion, max_moves, search_budget),
        )
        if result.is_unknown and require_decision:
            raise UnsupportedProblemError(INSTANCE_UNDECIDED)
        return _for_conclusion(result, conclusion)

    def implies_all(self, conclusions: Sequence[UpdateConstraint],
                    fail_fast: bool = False,
                    require_decision: bool = False,
                    max_moves: int = 2,
                    search_budget: int = 5000) -> BatchReport:
        """Batch instance-based queries against the bound tree.

        The search knobs are forwarded to every per-conclusion query, so
        a batch answers exactly like the equivalent loop of
        :meth:`implies_on` calls with the same arguments.
        """
        decide = partial(self.implies_on, require_decision=require_decision,
                         max_moves=max_moves, search_budget=search_budget)
        return run_batch(decide, conclusions, fail_fast=fail_fast)

    def open_stream(self, copy: bool = True) -> StreamEnforcer:
        """Open an enforcement stream on the bound instance.

        With ``copy=True`` (default) the stream adopts a private
        id-preserving copy of ``J``, so this binding stays fresh and
        queryable while the stream evolves its own document.  With
        ``copy=False`` the stream adopts the bound tree itself — the
        binding is effectively consumed: its snapshot goes stale on the
        first applied operation and further :meth:`implies_on` calls
        raise.
        """
        tree = self._current.copy() if copy else self._current
        return self._reasoner.open_stream(tree)

    @property
    def stats(self) -> CacheStats:
        return self._memo.stats

    def __repr__(self) -> str:
        return (f"BoundReasoner({len(self._reasoner.premises)} constraints, "
                f"|J|={self._current.size}, {self._engine}, {self.stats})")

    # ------------------------------------------------------------------
    # The Table 2 dispatch (moved verbatim from instance.general)
    # ------------------------------------------------------------------
    def _decide_instance(self, conclusion: UpdateConstraint,
                         max_moves: int, search_budget: int) -> ImplicationResult:
        premises = self._reasoner.premises
        current = self._current
        same = self._reasoner.of_type(conclusion.type)
        other = self._reasoner.of_type(conclusion.type.opposite)

        if len(same) == 0:
            # Covers the empty premise set too: same closed forms.
            return implies_cross_type(premises, current, conclusion,
                                      context=self._context)

        if len(other) == 0:
            return same_type_implication(premises, current, conclusion,
                                         range_hits=self._hits_for(premises),
                                         context=self._context)

        # --------------------------------------------------------------
        # Mixed types: sound subset test, then validated refutation search
        # — the subset test's own certificate is the single-relocation
        # candidate, so only the cascade family still needs a search.
        # --------------------------------------------------------------
        subset_result = same_type_implication(same, current, conclusion,
                                              range_hits=self._hits_for(same),
                                              context=self._context)
        if subset_result.is_implied:
            return implied(INSTANCE_HYBRID_ENGINE, premises, conclusion,
                           reason=f"already implied by the {len(same)} same-type "
                                  f"premise(s): {subset_result.reason}")
        certificate = relocation_refutation(premises, current, conclusion,
                                            subset_result, context=self._context)
        if certificate is None:
            certificate = cascade_refutation(premises, current, conclusion,
                                             max_moves=max_moves,
                                             budget=search_budget,
                                             context=self._context)
        if certificate is not None:
            return not_implied(INSTANCE_HYBRID_ENGINE, premises, conclusion,
                               certificate,
                               reason="validated counterexample past found by search")
        return unknown(INSTANCE_HYBRID_ENGINE, premises, conclusion,
                       reason="same-type subset does not imply c and the bounded "
                              "search found no valid past; exhaustive search over "
                              "the Theorem 5.1 small-model space is required for "
                              "a definite answer")
