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

MODULES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name not in SKIP
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [entry for entry in getattr(module, "__all__", ())
             if not hasattr(module, entry)]
    assert stale == [], f"{name}.__all__ names undefined {stale}"


def test_the_codec_sits_below_the_layers_that_use_it():
    """``repro.stream.ops`` imports the codec, so the codec may import
    nothing from the stream, certify, service or server layers."""
    import ast
    import repro.codec as codec

    tree = ast.parse(open(codec.__file__, encoding="utf-8").read())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    above = ("repro.stream", "repro.certify", "repro.service", "repro.server")
    assert not [m for m in imported if m.startswith(above)], imported
    assert set(codec.__all__) == {"Wire", "Count", "OMIT_DEFAULT",
                                  "AS_OBJECT", "Codec", "derive"}
