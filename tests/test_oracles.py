"""The seed-rate helper and the series generator that across-seed tests
share (``oracles.seed_rate``, ``oracles.generated_log_returns``)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from oracles import (GARCH_T3, clopper_pearson, generated_log_returns,
                     seed_rate)


@pytest.mark.parametrize("n", [1, 2, 5, 40, 200])
def test_interval_matches_scipys_exact_interval(n):
    # scipy finds its ends by root-finding, so they agree to ~5e-13
    for k in range(n + 1):
        low, high = clopper_pearson(k, n)
        expected = stats.binomtest(k, n).proportion_ci(method="exact")
        assert low == pytest.approx(expected.low, rel=1e-9, abs=1e-12)
        assert high == pytest.approx(expected.high, rel=1e-9, abs=1e-12)
    assert clopper_pearson(0, n)[0] == 0.0
    assert clopper_pearson(n, n)[1] == 1.0


def bernoulli_rejector(p: float):
    """A test that rejects on a seed with probability ``p``."""
    return lambda seed: np.random.default_rng(seed).random() < p


def test_seed_rate_covers_a_known_rate():
    # a Bernoulli(0.05) rejector over 200 seeds: the exact interval covers
    # 0.05 with probability 0.967 (at least 0.95, as Clopper-Pearson
    # guarantees), and so in at least 90 of 100 disjoint seed sets,
    # which fails with probability ~5e-4 (95 of 100 cover here)
    rate = seed_rate(bernoulli_rejector(0.05), range(200))
    assert rate.n_seeds == 200
    assert (rate.low, rate.high) == clopper_pearson(rate.rejections, 200)
    assert rate.low <= 0.05 <= rate.high
    coverage = sum(
        stats.binom.pmf(k, 200, 0.05) for k in range(201)
        if clopper_pearson(k, 200)[0] <= 0.05 <= clopper_pearson(k, 200)[1])
    assert coverage >= 0.95
    covered = 0
    for r in range(100):
        rate = seed_rate(bernoulli_rejector(0.05),
                         range(200 * r, 200 * (r + 1)))
        covered += rate.low <= 0.05 <= rate.high
    assert covered >= 90


def test_seed_rate_counts_rejections():
    rate = seed_rate(lambda seed: seed % 4 == 0, range(40))
    assert (rate.rejections, rate.n_seeds) == (10, 40)


@pytest.mark.parametrize("kw", [
    {"omega": 0.02**2}, {"omega": 0.02**2, "nu": 5.0}, GARCH_T3],
    ids=["normal", "t5", "garch-t3"])
def test_one_seed_gives_one_series(kw):
    first = generated_log_returns(7, 1_500, **kw)
    assert first.shape == (1_500,)
    assert np.array_equal(first, generated_log_returns(7, 1_500, **kw))
    assert not np.array_equal(first, generated_log_returns(8, 1_500, **kw))


@pytest.mark.parametrize("kw, tolerance", [
    ({"omega": 0.02**2}, 0.03),
    ({"omega": 0.02**2, "nu": 5.0}, 0.05),
    ({**GARCH_T3, "nu": None}, 0.05),
    (GARCH_T3, 0.25),
], ids=["normal", "t5", "garch-normal", "garch-t3"])
def test_long_run_variance(kw, tolerance):
    # the mean square over seeds 0-39 of 1,500 days each, against
    # omega / (1 - a - b). Over 25 disjoint sets of 40 seeds it read
    # 0.990-1.006 of it for iid normal, 0.979-1.019 for unit-variance
    # t(5) and 0.967-1.022 for GARCH-normal. A t(3) GARCH return has no
    # fourth moment, so its mean square converges slowly: 0.75-1.37
    # there (0.91 on these seeds), and its tolerance is the widest
    target = kw["omega"] / (1 - kw.get("a", 0.0) - kw.get("b", 0.0))
    square = np.mean([generated_log_returns(seed, 1_500, **kw) ** 2
                      for seed in range(40)])
    assert square / target == pytest.approx(1.0, abs=tolerance)


def test_rejects_a_process_without_its_moments():
    with pytest.raises(ValueError):
        generated_log_returns(0, 10, omega=1e-4, a=0.5, b=0.5)
    with pytest.raises(ValueError):
        generated_log_returns(0, 10, omega=1e-4, nu=2.0)
