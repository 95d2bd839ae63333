"""The general-implication dispatcher (all of Table 1).

``implies(C, c)`` routes a problem to the strongest engine whose
completeness conditions its fragment satisfies:

====================================  =======================================
problem shape                          engine (exactness)
====================================  =======================================
no premise of the conclusion's type    cross-type construction (exact)
single-type premises                   canonical one-type engine (exact,
                                       Theorem 4.7 cell; coNP)
mixed types, no ``//``                 same-type reduction (exact,
                                       Theorems 4.1 + 4.4/4.5; PTIME)
mixed types, no predicates             linear record fixpoint (exact,
                                       Theorem 4.3 cell)
mixed types, ``//`` and ``[]``         hybrid: sound one-type implication
                                       test + sound profile-swap refutation;
                                       may return UNKNOWN (NEXPTIME cell)
====================================  =======================================

With ``require_decision=True`` an UNKNOWN outcome raises
:class:`UnsupportedProblemError` instead — callers who must have an answer
fail loudly rather than silently trusting a heuristic.

The dispatch itself lives in :class:`repro.api.session.Reasoner`; this
free function asks one query of a transient, cache-free session so that
the system has exactly one dispatch code path.  Callers with a stable
``C`` and many conclusions should hold a :class:`~repro.api.Reasoner`
instead and amortise the per-``C`` analysis.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.implication.result import ImplicationResult

HYBRID_ENGINE = "hybrid-nexptime-cell"


def implies(premises: ConstraintSet | Iterable[UpdateConstraint],
            conclusion: UpdateConstraint,
            require_decision: bool = False) -> ImplicationResult:
    """Decide ``C ⊨ c`` (Definition 2.4), dispatching by fragment and types."""
    from repro.api.session import Reasoner  # the session imports this module

    session = Reasoner(premises, memo_size=0, precompile=False)
    return session.implies(conclusion, require_decision=require_decision)
