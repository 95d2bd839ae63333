"""Update constraints, validity, and the relative extension (Sections 2, 6)."""

from repro.constraints.model import (
    NO_INSERT,
    NO_REMOVE,
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
    constraint_set,
    immutable,
    no_insert,
    no_remove,
)
from repro.constraints.relative import (
    RelativeConstraint,
    example_61,
    example_62,
    relative,
    relative_violations,
    satisfies_relative,
)
from repro.constraints.validity import (
    Violation,
    check_sequence,
    explain_violations,
    is_valid,
    range_violation,
    satisfies,
    violation_of,
)

__all__ = [
    "ConstraintType",
    "UpdateConstraint",
    "ConstraintSet",
    "constraint_set",
    "no_remove",
    "no_insert",
    "immutable",
    "NO_REMOVE",
    "NO_INSERT",
    "Violation",
    "violation_of",
    "range_violation",
    "satisfies",
    "is_valid",
    "explain_violations",
    "check_sequence",
    "RelativeConstraint",
    "relative",
    "satisfies_relative",
    "relative_violations",
    "example_61",
    "example_62",
]
