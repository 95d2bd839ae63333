"""Every ``__all__`` entry of every ``repro`` module resolves.

``import repro`` only catches a missing import; a name left in an export
list after its definition was deleted imports cleanly and fails only when
someone star-imports or looks it up.  This walks the whole package.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

#: Modules that run on import (the server's command-line entry point).
SKIP = {"repro.server.__main__"}
#: Modules that need an optional dependency.
OPTIONAL = {"repro.masks.np_backend": "numpy"}

MODULES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name not in SKIP
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    if name in OPTIONAL:
        pytest.importorskip(OPTIONAL[name])
    module = importlib.import_module(name)
    stale = [entry for entry in getattr(module, "__all__", ())
             if not hasattr(module, entry)]
    assert stale == [], f"{name}.__all__ names undefined {stale}"
