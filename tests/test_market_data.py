"""Price ingestion, validation, ticker selection, and log-return tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmrisk.market_data import (
    PriceDataError,
    PriceSeries,
    ReturnMatrix,
    load_prices,
    log_returns,
    save_prices,
)

LN_1_1 = 0.09531017980432486  # ln(1.1)
LN_0_9 = -0.10536051565782628  # ln(0.9)


def series(tickers, dates, prices) -> PriceSeries:
    return PriceSeries(tickers=tuple(tickers), dates=tuple(dates),
                       prices=np.asarray(prices, dtype=np.float64))


class TestPriceSeries:
    def test_valid_roundtrip_fields(self):
        s = series(["A", "B"], ["2024-01-02", "2024-01-03"],
                   [[1.0, 2.0], [1.1, 2.2]])
        assert s.n_assets == 2
        assert s.n_dates == 2
        assert s.prices.dtype == np.float64

    def test_rejects_nonpositive_price(self):
        with pytest.raises(PriceDataError):
            series(["A"], ["2024-01-02", "2024-01-03"], [[1.0], [0.0]])
        with pytest.raises(PriceDataError):
            series(["A"], ["2024-01-02", "2024-01-03"], [[1.0], [-3.0]])

    def test_rejects_nonfinite_price(self):
        with pytest.raises(PriceDataError):
            series(["A"], ["2024-01-02", "2024-01-03"], [[1.0], [math.inf]])
        with pytest.raises(PriceDataError):
            series(["A"], ["2024-01-02", "2024-01-03"], [[1.0], [math.nan]])

    def test_rejects_unsorted_or_duplicate_dates(self):
        with pytest.raises(PriceDataError):
            series(["A"], ["2024-01-03", "2024-01-02"], [[1.0], [2.0]])
        with pytest.raises(PriceDataError):
            series(["A"], ["2024-01-02", "2024-01-02"], [[1.0], [2.0]])

    def test_rejects_duplicate_tickers(self):
        with pytest.raises(PriceDataError):
            series(["A", "A"], ["2024-01-02"], [[1.0, 2.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PriceDataError):
            series(["A", "B"], ["2024-01-02"], [[1.0]])

    def test_select_preserves_requested_order(self):
        s = series(["A", "B", "C"], ["2024-01-02"], [[1.0, 2.0, 3.0]])
        sub = s.select(["C", "A"])
        assert sub.tickers == ("C", "A")
        assert sub.prices.tolist() == [[3.0, 1.0]]

    def test_select_unknown_ticker(self):
        s = series(["A"], ["2024-01-02"], [[1.0]])
        with pytest.raises(PriceDataError):
            s.select(["Z"])


class TestCsvIO:
    def test_save_load_roundtrip_exact(self, tmp_path):
        prices = np.array([[1.0, 2.0], [1.1, 2.2], [1.21, 2.42]])
        s = series(["A", "B"], ["2024-01-02", "2024-01-03", "2024-01-04"], prices)
        path = tmp_path / "p.csv"
        save_prices(s, path)
        loaded = load_prices(path)
        assert loaded.tickers == s.tickers
        assert loaded.dates == s.dates
        assert np.array_equal(loaded.prices, s.prices)

    def test_loader_sorts_rows_by_date(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,A\n2024-01-03,2.0\n2024-01-02,1.0\n")
        loaded = load_prices(path)
        assert loaded.dates == ("2024-01-02", "2024-01-03")
        assert loaded.prices[:, 0].tolist() == [1.0, 2.0]

    def test_loader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("day,A\n2024-01-02,1.0\n")
        with pytest.raises(PriceDataError, match="date"):
            load_prices(path)

    def test_loader_rejects_duplicate_date(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,A\n2024-01-02,1.0\n2024-01-02,2.0\n")
        with pytest.raises(PriceDataError):
            load_prices(path)

    def test_loader_reports_line_of_bad_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,A\n2024-01-02,1.0\n2024-01-03,oops\n")
        with pytest.raises(PriceDataError, match=r":3: non-numeric"):
            load_prices(path)

    def test_loader_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,A,B\n2024-01-02,1.0,2.0\n2024-01-03,1.5\n")
        with pytest.raises(PriceDataError, match=r":3: ragged"):
            load_prices(path)

    def test_loader_rejects_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(PriceDataError):
            load_prices(path)

    @settings(max_examples=25, deadline=None)
    @given(
        n_dates=st.integers(min_value=1, max_value=8),
        n_assets=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_random_tables(self, tmp_path_factory, n_dates, n_assets,
                                     seed):
        rng = np.random.default_rng(seed)
        prices = np.exp(rng.normal(0.0, 2.0, size=(n_dates, n_assets)))
        tickers = tuple(f"T{i}" for i in range(n_assets))
        dates = tuple(f"2024-01-{d + 1:02d}" for d in range(n_dates))
        s = series(tickers, dates, prices)
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        save_prices(s, path)
        loaded = load_prices(path)
        assert np.array_equal(loaded.prices, s.prices)


class TestLogReturns:
    def test_hand_values(self):
        s = series(["A"], ["2024-01-02", "2024-01-03", "2024-01-04"],
                   [[1.0], [1.1], [0.99]])
        r = log_returns(s)
        assert r.tickers == ("A",)
        assert r.returns.shape == (2, 1)
        assert r.returns[0, 0] == pytest.approx(LN_1_1, abs=1e-15)
        assert r.returns[1, 0] == pytest.approx(LN_0_9, abs=1e-15)

    def test_requires_two_rows(self):
        s = series(["A"], ["2024-01-02"], [[1.0]])
        with pytest.raises(PriceDataError):
            log_returns(s)

    def test_returns_additive_across_days(self):
        # sum of daily log-returns telescopes to ln(last/first)
        s = series(["A"], [f"2024-01-{d:02d}" for d in range(2, 12)],
                   np.exp(np.linspace(0.0, 0.9, 10)).reshape(-1, 1))
        r = log_returns(s)
        total = float(r.returns.sum())
        assert total == pytest.approx(
            math.log(s.prices[-1, 0] / s.prices[0, 0]), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=40))
    def test_returns_finite_for_positive_prices(self, seed, n):
        rng = np.random.default_rng(seed)
        prices = np.exp(rng.normal(0.0, 1.0, size=(n, 2)))
        s = series(["A", "B"], [f"d{idx:04d}" for idx in range(n)], prices)
        r = log_returns(s)
        assert r.returns.shape == (n - 1, 2)
        assert np.all(np.isfinite(r.returns))


class TestReturnMatrix:
    def test_shape_validation(self):
        with pytest.raises(PriceDataError):
            ReturnMatrix(tickers=("A", "B"), returns=np.zeros((3, 1)))
