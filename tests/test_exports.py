"""The public surface: every name a module exports exists, and every
exception the package defines survives pickle."""

from __future__ import annotations

import importlib
import pickle
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


# arguments for each exception class the package defines
EXCEPTION_ARGS = {
    "cli.PipelineError": ("load", "boom"),
    "estimation.EstimationError": ("too few rows",),
    "market_data.PriceDataError": ("empty file",),
    "optimizer.OptimizerError": ("singular",),
    "risk.RiskError": ("bad alpha",),
    "simulation.CholeskyError": ("not positive definite", 3),
    "simulation.SimulationError": ("bad shape",),
}


def test_every_exception_survives_pickle():
    # a formatting process re-raises its exception through pickle, as
    # multiprocessing does: each class must come back with the same
    # message and attributes
    classes = {
        f"{module.__name__.removeprefix('gbmrisk.')}.{name}": cls
        for info in pkgutil.iter_modules(gbmrisk.__path__)
        for module in [importlib.import_module(f"gbmrisk.{info.name}")]
        for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, BaseException)
        and cls.__module__ == module.__name__
    }
    assert set(classes) == set(EXCEPTION_ARGS)
    for key, cls in classes.items():
        exc = cls(*EXCEPTION_ARGS[key])
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert (str(copy), copy.args, vars(copy)) == (
            str(exc), exc.args, vars(exc)), key
