"""repro — a full reproduction of "Reasoning about XML update constraints"
(Cautis, Abiteboul, Milo; PODS 2007 / JCSS 75(2009) 336-358).

Public API quick tour
---------------------
The session API compiles a constraint set once and serves any number of
queries against it — the intended entry point for repeated traffic:

>>> from repro import Reasoner, constraint_set, no_insert
>>> C = constraint_set(("/patient[/visit]", "down"),
...                    ("/patient[/clinicalTrial]", "up"),
...                    ("/patient[/clinicalTrial]", "down"))
>>> r = Reasoner(C)
>>> r.implies(no_insert("/patient[/visit][/clinicalTrial]")).is_implied
True

``r.implies_all([...])`` answers batches, and ``r.bind(J)`` fixes a
current instance for Table 2 queries with per-tree caching.  The legacy
free functions remain as one-shot conveniences over the same dispatch:

>>> from repro import implies
>>> implies(C, no_insert("/patient[/visit][/clinicalTrial]")).is_implied
True

Long-lived documents under write traffic go through the online
enforcement engine: ``r.open_stream(doc)`` (or ``StreamEnforcer(C, doc)``
directly) ingests a log of ``add_leaf``/``move``/``remove_subtree``
operations with transaction brackets, rejects — and rolls back — any edit
that breaks the policy, and keeps an audit trail of witnesses.

Fleets of documents live behind the multi-document service:
``ConstraintService`` registers named documents and named compiled
constraint sets once and answers a JSON-serialisable request protocol
(implication, instance queries, enforcement), synchronously or through
the ``AsyncService`` asyncio front end with per-document ordering.

Thousands of *small* documents under one shared policy check fastest as
one batch: ``FleetEvaluator`` (:mod:`repro.masks`) evaluates every
constraint range for the whole fleet per write *epoch* through a
pluggable mask backend — exact big-int semantics always, vectorized
numpy rows when numpy is installed (``REPRO_MASK_BACKEND`` selects;
decisions are checksum-identical across backends).

Sub-packages: ``service`` (the multi-document front door), ``api``
(compiled reasoning sessions), ``trees`` (data model), ``xpath`` (the
fragment, containment, intersections), ``automata`` (linear-path
machinery), ``constraints`` (update constraints + validity),
``implication`` (Table 1 engines), ``instance`` (Table 2 engines),
``stream`` (online update-log enforcement), ``masks``
(pluggable mask backends + the fleet evaluator), ``reductions``
(hardness constructions), ``keys`` / ``xic`` (the related formalisms of
Section 3), ``bruteforce`` (ground-truth oracles) and ``workloads``
(benchmark generators).
"""

from repro.api import BatchReport, BoundReasoner, CacheStats, Reasoner
from repro.constraints import (
    BaselineValidity,
    ConstraintSet,
    ConstraintType,
    RelativeConstraint,
    UpdateConstraint,
    Violation,
    check_sequence,
    constraint_set,
    explain_violations,
    immutable,
    is_valid,
    no_insert,
    no_remove,
    relative,
    satisfies_relative,
)
from repro.implication import (
    Answer,
    Counterexample,
    ImplicationResult,
    implies,
    implies_single,
)
from repro.instance import implies_on
from repro.masks import (
    FleetEvaluator,
    available_backends,
    get_backend,
    numpy_available,
)
from repro.obs import (
    MetricsRegistry,
    new_trace_id,
    registry,
    set_registry,
    span,
    trace_id,
    tracing,
)
from repro.service import (
    AsyncService,
    ConstraintService,
    DocumentStore,
    InlineExecutor,
)
from repro.stream import (
    AddLeaf,
    AuditTrail,
    Begin,
    Commit,
    Decision,
    Move,
    RemoveSubtree,
    Rollback,
    StreamEnforcer,
)
from repro.trees import DataTree, Node, TreeIndex, branch, build, leaf, parse_tree
from repro.xpath import (
    BitsetEvaluator,
    Pattern,
    contained,
    equivalent,
    evaluate,
    parse,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # session API
    "Reasoner", "BoundReasoner", "BatchReport", "CacheStats",
    # trees
    "DataTree", "TreeIndex", "Node", "branch", "build", "leaf", "parse_tree",
    # xpath
    "Pattern", "parse", "evaluate", "contained", "equivalent",
    "BitsetEvaluator",
    # constraints
    "ConstraintType", "UpdateConstraint", "ConstraintSet", "constraint_set",
    "no_remove", "no_insert", "immutable", "relative", "RelativeConstraint",
    "is_valid", "explain_violations", "check_sequence", "Violation",
    "satisfies_relative", "BaselineValidity",
    # service
    "ConstraintService", "DocumentStore", "AsyncService",
    "InlineExecutor",
    # stream
    "StreamEnforcer", "AuditTrail", "Decision",
    "AddLeaf", "Move", "RemoveSubtree", "Begin", "Commit", "Rollback",
    # fleet / mask backends
    "FleetEvaluator",
    "get_backend", "available_backends", "numpy_available",
    # implication
    "implies", "implies_single", "implies_on",
    "Answer", "ImplicationResult", "Counterexample",
    # observability
    "MetricsRegistry", "registry", "set_registry", "span",
    "trace_id", "new_trace_id", "tracing",
]
