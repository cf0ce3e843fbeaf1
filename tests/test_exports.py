"""The public surface: every name a module exports exists."""

from __future__ import annotations

import importlib
import pkgutil

import gbmrisk


def test_every_exported_name_imports():
    # a deletion that leaves its name in an __all__ fails here, not in the
    # first caller's `from gbmrisk import *`
    modules = [gbmrisk] + [
        importlib.import_module(f"gbmrisk.{info.name}")
        for info in pkgutil.iter_modules(gbmrisk.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 5 and not stale, stale
