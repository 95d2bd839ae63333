"""The instance-based implication dispatcher (all of Table 2).

``implies_on(C, J, c)`` decides Definition 2.5 — for every past ``I`` with
``(I, J) ⊨ C``, does ``(I, J) ⊨ c``? — routing to:

====================================  =======================================
problem shape                          engine (exactness)
====================================  =======================================
no premise of the conclusion's type    closed-form cross-type answer (exact)
all ``↓``, conclusion ``↓``            per-witness escape engine (exact; with
                                       the ``F_J`` and automata engines as
                                       cross-checks on their fragments)
all ``↑``, conclusion ``↑``            possible-embedding engine (exact on
                                       linear / child-only conclusions; see
                                       its scope note)
mixed types                            hybrid: sound subset implication +
                                       validated bounded refutation search;
                                       may return UNKNOWN (the coNP-complete
                                       cells of Theorems 5.1/5.2)
====================================  =======================================
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.implication.result import ImplicationResult
from repro.trees.tree import DataTree

HYBRID_ENGINE = "instance-hybrid"


def implies_on(premises: ConstraintSet | Iterable[UpdateConstraint],
               current: DataTree,
               conclusion: UpdateConstraint,
               require_decision: bool = False,
               max_moves: int = 2,
               search_budget: int = 5000,
               engine: str = "naive") -> ImplicationResult:
    """Decide ``C ⊨_J c`` (Definition 2.5).

    The dispatch lives in :class:`repro.api.session.BoundReasoner`; this
    free function is a thin route through :mod:`repro.service.dispatch`
    (a transient, cache-free session).  Callers asking many conclusions
    against one ``(C, J)`` should hold ``Reasoner(C).bind(J)`` instead
    and reuse its snapshot and per-tree answer sets.  ``engine="bitset"``
    builds the snapshot even for this one-shot call (worth it on large
    ``J``); the default ``"naive"`` keeps the naive path, which the
    benchmarks use as their baseline.
    """
    from repro.service.dispatch import one_shot_implies_on

    return one_shot_implies_on(premises, current, conclusion,
                               require_decision=require_decision,
                               max_moves=max_moves,
                               search_budget=search_budget,
                               engine=engine)
