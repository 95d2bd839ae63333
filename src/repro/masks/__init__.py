"""Big-int slot masks: the helpers and the delta-maintained baselines.

* :mod:`repro.masks.bigint` — slot decoding and byte views over Python
  big-int masks, the primitives of the
  :class:`~repro.xpath.bitset.BitsetEvaluator` hot paths;
* :mod:`repro.masks.baseline` — :class:`MaskedBaseline`, each
  constraint's frozen baseline answer set mirrored as a slot mask over
  the live snapshot, and :func:`diff_violation`, the witness kernel the
  enforcement stream's per-op and commit checks share.

The baseline names load lazily: :mod:`repro.xpath.bitset` imports the
big-int helpers from here at interpreter startup, and the baseline
module's constraint imports would cycle back into the half-initialised
evaluator.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.masks.bigint import byte_view, iter_slots, slots_of

if TYPE_CHECKING:
    from repro.masks.baseline import MaskedBaseline, diff_violation

_LAZY = {
    "MaskedBaseline": ("repro.masks.baseline", "MaskedBaseline"),
    "diff_violation": ("repro.masks.baseline", "diff_violation"),
}


def __getattr__(name: str) -> Any:
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), attr)


__all__ = [
    "MaskedBaseline",
    "byte_view",
    "diff_violation",
    "iter_slots",
    "slots_of",
]
