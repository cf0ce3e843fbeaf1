"""The one rule of each named scalar the library accepts, as ``RULES[name]
= (type, range test, range in words)``; a type alone allows any value of it.
``check`` applies a rule and raises the caller's own error class, so every
entry point that takes the name accepts and rejects the same values.
``CONTAINERS[name] = (container types, item type, in words)`` is the rule
of a named list or map, which ``check_items`` applies with RULES[name] to
each of a map's values."""

from __future__ import annotations

import sys

__all__ = ["CONTAINERS", "RULES", "check", "check_items", "shown", "step_count"]

# The largest count numpy can give one float64 each within sys.maxsize bytes.
_MAX_COUNT = sys.maxsize // 8

_COUNT = (int, lambda n: 1 <= n <= _MAX_COUNT, f"in [1, {_MAX_COUNT}]")

RULES = {
    "price_csv": (str, bool, "non-empty"),
    "n_paths": _COUNT,
    "steps_per_year": _COUNT,  # trading_days is the same count
    "trading_days": _COUNT,
    "n_steps": _COUNT,  # of a run: see step_count
    "horizon_years": (float, lambda t: t > 0, "> 0"),
    # seeds key a uint64 stream: out-of-range values must not alias
    "seed": (int, lambda s: 0 <= s < 2**64, "in [0, 2**64)"),
    "initial_value": (float, lambda v: v > 0, "> 0"),
    "alpha": (float, lambda a: 0 < a < 1, "in (0, 1)"),
    "risk_free": (float,),
    "record_paths": (bool,),
    "window": (int, lambda w: w >= 2, ">= 2"),
    "workers": _COUNT,
    "explicit_weights": (float,),  # the rule of each weight in the map
}

CONTAINERS = {
    "tickers": ((list, tuple), str, "a list of strings"),
    "explicit_weights": (dict, str, "an object of numbers"),  # str keys
}


def shown(value: object) -> str:
    """``repr(value)``, or the size of an int too long for ``repr``."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def check(name: str, value: object, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` keeps ``RULES[name]``.
    A bool passes only as a bool. A float rule takes an int too; either must
    be finite, that is within the float range."""
    kind, *in_range = RULES[name]
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise error(f"{name} must be {kind.__name__}, got {shown(value)}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be finite, got {shown(value)}")
    if in_range and not in_range[0](value):
        raise error(f"{name} must be {in_range[1]}, got {shown(value)}")


def check_items(name: str, value: object, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` keeps
    ``CONTAINERS[name]``, every item (a map's every key) of its item type,
    and every value of a map keeps ``RULES[name]``."""
    kinds, item, words = CONTAINERS[name]
    if not isinstance(value, kinds) or not all(
        isinstance(i, item) for i in value
    ):
        raise error(f"{name} must be {words}, got {shown(value)}")
    if isinstance(value, dict):
        for v in value.values():
            check(name, v, error)


def step_count(years: float, per_year: int, error: type[Exception]) -> int:
    """A run's ``max(1, round(years * per_year))`` steps, which must keep the
    n_steps rule; a product past the float range breaks it too."""
    steps = years * per_year
    steps = max(1, round(steps)) if steps <= sys.float_info.max else steps
    if not RULES["n_steps"][1](steps):
        raise error(f"horizon_years must be shorter: n_steps must be "
                    f"{RULES['n_steps'][2]}, got {shown(steps)}")
    return steps
