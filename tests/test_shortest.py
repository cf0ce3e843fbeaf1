"""The vectorized repr of gbmrisk._shortest against Python's own, byte for
byte, on random doubles and on the sets where shortest digits go wrong:
neighbours of short decimals and of powers, the format switches and
halfway cases. Each dense set must reach both the vector pass and the
``repr`` fallback."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmrisk import _shortest, market_data, paths_csv
from gbmrisk.cli import RunConfig, run_pipeline
from gbmrisk.simulation import _path_kernel

from conftest import DATA_DIR


def formatted(x: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """Each x's bytes from the vector formatter, laid into rows with a
    byte on each side that it must leave alone, and which were fast."""
    reprs = _shortest.Reprs(np.ascontiguousarray(x, np.float64))
    assert reprs.width <= _shortest.WIDTH
    rows = np.full((len(x), reprs.width + 2), ord("|"), np.uint8)
    reprs.lay(rows[:, 1:-1])
    assert (rows[:, [0, -1]] == ord("|")).all()
    fast = np.ones(len(x), bool)
    fast[reprs.slow] = False
    return [row[1:-1].tobytes().replace(_shortest.PAD, b"")
            for row in rows], fast


def assert_reprs(x, *, both_paths: bool = True) -> None:
    """The formatter prints every x as repr does; a dense set also runs
    both the vector pass and the fallback."""
    x = np.asarray(x, np.float64)
    got, fast = formatted(x)
    wrong = [(v, g) for v, g in zip(x.tolist(), got) if g != repr(v).encode()]
    assert wrong[:5] == [], f"{len(wrong)} of {len(x)} differ"
    if both_paths:
        assert fast.any() and not fast.all()


def neighbours(x: np.ndarray, ulps: int) -> np.ndarray:
    """x and its ``ulps`` nearest doubles on each side."""
    out, up, down = [x], x, x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


finite = st.floats(min_value=0.0, allow_infinity=False, allow_nan=False,
                   allow_subnormal=True)
prices = st.floats(min_value=1e-4, max_value=1e14)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(finite, prices), min_size=1, max_size=64))
def test_matches_repr_on_any_double(values):
    assert_reprs(values + [0.0, 5e-324, np.inf], both_paths=False)


def test_neighbours_of_short_decimals():
    rng = np.random.default_rng(5)
    digits = rng.integers(1, 17, 20_000)
    mantissas = rng.integers(1, 10**digits, dtype=np.int64)
    places = rng.integers(0, 21, 20_000)
    short = np.array([float(f"{m}e-{p}") for m, p in
                      zip(mantissas.tolist(), places.tolist())])
    assert_reprs(neighbours(short, 2))


def test_powers_and_their_neighbours():
    powers = np.array([float(f"1e{n}") for n in range(-6, 19)]
                      + [2.0**n for n in range(-20, 60)])
    assert_reprs(neighbours(powers, 64))


def test_format_switches():
    # repr turns to exponent form below 1e-4 and from 1e16; the vector
    # pass stops at 1e14
    assert_reprs(neighbours(np.array([1e-4, 1e13, 1e14, 1e16]), 2_000))


def test_halfway_cases():
    # decimals of 15-17 digits that end in 5, halfway between two shorter
    # ones, and their neighbours
    rng = np.random.default_rng(7)
    halfway = []
    for n in (15, 16, 17):
        ends_in_5 = 10 * rng.integers(10**(n - 2), 10**(n - 1), 5_000) + 5
        places = rng.integers(n - 4, n + 4, 5_000)
        halfway += [float(f"{m}e-{p}") for m, p in
                    zip(ends_in_5.tolist(), places.tolist())]
    assert_reprs(neighbours(np.array(halfway), 1))


def test_exact_ties_round_to_even():
    # just above 2**46 a double like 70368744177664.375 is a 17-digit
    # decimal ending in 5; both 16-digit neighbours read back as it, and
    # repr takes the even one. The doubles above every power of two hold
    # such ties where their ulp is coarse enough.
    powers = 2.0 ** np.arange(-13, 47)
    steps = np.arange(4_096)
    x = (powers[:, None] + steps * np.spacing(powers)[:, None]).ravel()
    assert repr(70368744177664.375) == "70368744177664.38"
    assert_reprs(np.concatenate([x, [70368744177664.375]]))


def test_fast_path_takes_most_prices():
    # the 1,000-path crypto_like write formats all but ~0.65% of its
    # prices in the vector pass; a guard that fired too often would
    # silently hand them to repr
    result = run_pipeline(RunConfig(
        price_csv=str(DATA_DIR / "crypto_like.csv"), n_paths=1_000,
        record_paths=True))
    config = result.simulation.config_echo
    kernel = _path_kernel(result.params, config)
    z_t = kernel.normals(0, config.n_paths)
    block = paths_csv._block_paths(config, result.params.n_assets,
                                   paths_csv._FORKED_CELLS)
    fast = total = 0
    for start in range(0, config.n_paths, block):
        stop = min(start + block, config.n_paths)
        x = paths_csv._prices(kernel, z_t, config, start, stop)
        fast += len(x) - len(_shortest.Reprs(x).slow)
        total += len(x)
    assert total == 1_000 * 253 * 3
    assert fast / total >= 0.98


@pytest.mark.parametrize("x", [-1.5, -0.0, np.nan, -np.inf, 1e300, 1e-300])
def test_other_doubles_fall_back(x):
    got, fast = formatted(np.array([x, 2.5]))
    assert got == [repr(x).encode(), b"2.5"]
    assert not fast[0]


@pytest.mark.parametrize("x, slow, width", [
    # 17 digit columns and the point after digit 0
    ([1.0000000000000002, 9.999999999999998], 0, 18),
    # and "0.0" before the digits of 0.01 <= x < 0.1
    ([1.0000000000000002, 0.012345678901234568], 0, 21),
    # and the points after digits 1 and 3
    ([1.0000000000000002, 12.345678901234567, 1234.5678901234567], 0, 20),
    # a fallback repr wider than the columns
    ([1.0000000000000002, -1.2345678901234567], 1, 19),
    # a fallback repr adds no column of its own
    ([123.45678901234568, 1e300], 1, 18),
])
def test_rows_keep_only_the_columns_used(x, slow, width):
    reprs = _shortest.Reprs(np.array(x))
    assert (len(reprs.slow), reprs.width) == (slow, width)
    assert formatted(np.array(x))[0] == [repr(v).encode() for v in x]


def test_lays_into_the_fields_of_wider_rows():
    # as save_prices lays them: a (rows, assets, width) view of rows of
    # text, each field after a byte that lay leaves alone, the fallback
    # reprs among them
    rng = np.random.default_rng(3)
    x = np.concatenate([np.exp(rng.normal(0.0, 10.0, 58)), [1e300, 0.5]])
    reprs = _shortest.Reprs(x)
    assert len(reprs.slow) >= 2
    text = np.full((12, 2 + 5 * (reprs.width + 1)), ord("|"), np.uint8)
    fields = text[:, 1:-1].reshape(12, 5, reprs.width + 1)
    reprs.lay(fields[..., 1:])
    assert (text[:, [0, -1]] == ord("|")).all()
    assert (fields[..., 0] == ord("|")).all()
    got = [field.tobytes().replace(_shortest.PAD, b"")
           for field in fields[..., 1:].reshape(-1, reprs.width)]
    assert got == [repr(v).encode() for v in x.tolist()]


@pytest.mark.parametrize("powers, highs, lows", [
    (_shortest._SCALE, _shortest._SCALE_HI, _shortest._SCALE_LO),
    (market_data._POW10, market_data._POW10_HI, market_data._POW10_LO),
], ids=["writer", "reader"])
def test_product_error_is_exact(powers, highs, lows):
    # the one TwoProduct the writer's and the reader's tables share: for
    # every power of ten c of either, c = c_hi + c_lo, and
    # _product_error(a, p, c_hi, c_lo) is a c - p exactly, p being the
    # rounded product, in rational arithmetic; a random, and next to
    # powers of ten and to 2**53
    rng = np.random.default_rng(13)
    a = np.concatenate([np.exp(rng.uniform(-12.0, 40.0, 100)),
                        neighbours(10.0 ** np.arange(-4, 20), 2),
                        neighbours(np.array([2.0**53]), 3)])
    for c, c_hi, c_lo in zip(powers.tolist(), highs.tolist(), lows.tolist()):
        assert Fraction(c_hi) + Fraction(c_lo) == Fraction(c)
        p = a * c
        e = _shortest._product_error(a, p, c_hi, c_lo)
        for v, rounded, err in zip(a.tolist(), p.tolist(), e.tolist()):
            exact = Fraction(v) * Fraction(c) - Fraction(rounded)
            assert exact == Fraction(err)


def test_scaled_terms_are_exact():
    # y c = big + e exactly, and h is exactly half of y's ulp times c, in
    # rational arithmetic; where k is certified, c is 10**(16 - k)
    rng = np.random.default_rng(11)
    y = np.concatenate([np.exp(rng.uniform(-9.0, 32.0, 2_000)),
                        neighbours(np.array([1e-4, 1.0, 1e13]), 4)])
    row, big, e, h, certain = _shortest._scaled(y)
    assert certain.mean() > 0.9
    for v, k, b, err, half in zip(y.tolist(), row.tolist(), big.tolist(),
                                  e.tolist(), h.tolist()):
        c = Fraction(10) ** (16 - k - _shortest._K_MIN)
        assert Fraction(v) * c == b + Fraction(err)
        assert abs(err) <= 0.5
        assert Fraction(half) == Fraction(math.ulp(v)) / 2 * c
