"""Online enforcement of update constraints over a log of operations.

>>> from repro import DataTree, StreamEnforcer
>>> from repro.stream import AddLeaf, RemoveSubtree
>>> doc = DataTree()
>>> patient = doc.add_child(doc.root, "patient")
>>> trial = doc.add_child(patient, "clinicalTrial")
>>> s = StreamEnforcer([("/patient[/clinicalTrial]", "up")], doc)
>>> s.apply(AddLeaf(patient, "visit")).accepted
True
>>> s.apply(RemoveSubtree(trial)).accepted    # breaks the no-remove range
False
>>> doc.size                                  # the edit was rolled back
4

See :mod:`repro.stream.engine` for the enforcement model (one live
incremental snapshot, delta-maintained predicate masks, transaction
brackets with undo journals), :mod:`repro.stream.ops` for the operation
language and its shared edit journal, and :mod:`repro.stream.log` for
the audit trail and the :func:`decision_checksum` fold.
"""

from repro.stream.engine import StreamEnforcer, StreamStats
from repro.stream.log import AuditTrail, Decision, decision_checksum
from repro.stream.ops import (
    AddLeaf,
    Begin,
    Commit,
    Move,
    RemoveSubtree,
    Rollback,
)

__all__ = [
    "StreamEnforcer", "StreamStats",
    "AuditTrail", "Decision", "decision_checksum",
    "AddLeaf", "Move", "RemoveSubtree", "Begin", "Commit", "Rollback",
]
