"""Every server test counts into its own metrics registry.

Instruments are resolved when servers and streams are built, so a fresh
process-global :class:`~repro.obs.MetricsRegistry` per test keeps counter
assertions exact: without it, a test reading ``server.requests_total``
sees every request an earlier test file served in the same process.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)
