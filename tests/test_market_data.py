"""Price ingestion, validation, ticker selection, and log-return tests."""

from __future__ import annotations

import csv
import importlib
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmrisk import market_data
from gbmrisk.market_data import (
    PriceDataError,
    PriceSeries,
    ReturnMatrix,
    load_prices,
    log_returns,
    save_prices,
)

from conftest import DATA_DIR
from oracles import reference_load_prices, reference_save_prices

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


def outcome(read, path):
    """What ``read(path)`` gives: tickers, dates and price bits, or the
    type and message of what it raises."""
    try:
        s = read(path)
    except Exception as exc:  # compared, type and message, not handled
        return type(exc), str(exc)
    return s.tickers, s.dates, s.prices.tobytes()


def perturb(text: bytes, kinds, rng: np.random.Generator) -> bytes:
    """save_prices output with a change of each of the given kinds."""
    header, *rows = text.split(b"\r\n")[:-1]
    rows = [row.split(b",") for row in rows]
    end = b"\n" if "lf" in kinds else b"\r\n"
    for kind in kinds:
        r = int(rng.integers(len(rows)))
        c = int(rng.integers(1, len(rows[r]))) if len(rows[r]) > 1 else 0
        cell = rows[r][c]
        if kind == "unsorted":
            rows = [rows[i] for i in rng.permutation(len(rows))]
        elif kind == "blank":
            rows.insert(int(rng.integers(len(rows) + 1)), [b""])
        elif kind == "ragged":
            rows[r] = rows[r][:-1] if len(rows[r]) > 2 else rows[r] + [b"1.0"]
        elif kind == "duplicate":
            rows.append(list(rows[r]))
        elif kind == "date_utf8":
            rows[r][0] = "\u00e9t\u00e9-".encode() + rows[r][0]
        elif kind == "quoted_date":
            rows[r][0] = b'"' + rows[r][0] + b'"'
        elif kind == "moved_cell" and len(rows) > 1 and len(rows[r]) > 2:
            rows[(r + 1) % len(rows)].append(rows[r].pop())
        elif kind == "header_cr":
            header += b"\rB"
        elif kind in ("long", "exponent") and c:
            x = float(np.exp(rng.normal(0.0, 2.0)))
            # 18 to 25 digits
            digits = int(rng.integers(18, 26)) - len(str(int(x)))
            rows[r][c] = (f"{x:.{max(1, digits)}f}" if kind == "long"
                          else f"{x:.6e}").encode()
        elif kind in CELL_CHANGES and c:
            rows[r][c] = CELL_CHANGES[kind](cell)
    body = end.join(b",".join(row) for row in [[header], *rows])
    if "bom" in kinds:
        body = b"\xef\xbb\xbf" + body
    return body if "no_final_newline" in kinds else body + end


CELL_CHANGES = {
    "trailing_zero": lambda cell: cell + b"0",
    "leading_zeros": lambda cell: b"00" + cell,
    "tiny": lambda cell: b"1e-05",
    "space": lambda cell: b" " + cell,
    "underscore": lambda cell: b"1_0.5",
    "plus": lambda cell: b"+" + cell,
    "quoted": lambda cell: b'"' + cell + b'"',
    "text": lambda cell: b"oops",
    "empty": lambda cell: b"",
    "zero": lambda cell: b"0.0",
    "invalid_utf8": lambda cell: cell + b"\xff",
    "nonascii_digit": lambda cell: "\uff11.5".encode(),
    "lone_cr": lambda cell: cell + b"\r",
    "two_points": lambda cell: cell + b".5",
    "bare_point": lambda cell: b".",
    "no_whole": lambda cell: b".5",
    "no_fraction": lambda cell: b"5.",
    "integer": lambda cell: cell.split(b".")[0],
}
PERTURBATIONS = (
    "lf", "no_final_newline", "unsorted", "trailing_zero", "leading_zeros",
    "exponent", "tiny", "space", "underscore", "plus", "long", "quoted",
    "blank", "bom", "invalid_utf8", "date_utf8", "nonascii_digit", "ragged",
    "duplicate", "text", "empty", "zero", "two_points", "bare_point",
    "no_whole", "no_fraction", "integer", "lone_cr", "quoted_date",
    "moved_cell", "header_cr")


def table(rng: np.random.Generator, n_dates: int, n_assets: int,
          scale: float = 2.0) -> PriceSeries:
    """Random lognormal prices, log-scale ``scale``, on dates in order."""
    prices = np.exp(rng.normal(0.0, scale, size=(n_dates, n_assets)))
    return series([f"T{i}" for i in range(n_assets)],
                  [f"2024-{1 + d // 28:02d}-{1 + d % 28:02d}"
                   for d in range(n_dates)], prices)


def decimal_file(path, cells) -> None:
    """A canonical file whose rows each hold a date, one of ``cells`` and
    three prices of the pass's form."""
    rows = ["date,A,B,C,D"]
    for i, cell in enumerate(cells):
        rows.append(f"d{i:06d},{cell},1.{i + 1},2{i}.25,0.{i + 7}")
    path.write_bytes(("\r\n".join(rows) + "\r\n").encode())


@pytest.fixture
def float_calls(monkeypatch):
    """The count of ``float`` calls in market_data while a test loads: the
    cells read by ``csv.reader`` rather than the vector pass."""
    calls = [0]

    def spy_float(text):
        calls[0] += 1
        return float(text)

    monkeypatch.setattr(market_data, "float", spy_float, raising=False)
    return calls


class TestCanonicalReader:
    """load_prices' vectorized pass against the plain reader: the same
    tickers, dates and price bits, or the same error."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_dates=st.integers(min_value=1, max_value=6),
        n_assets=st.integers(min_value=1, max_value=4),
        kinds=st.lists(st.sampled_from(PERTURBATIONS), max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_perturbed_files_read_as_the_reference(
            self, tmp_path_factory, n_dates, n_assets, kinds, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        save_prices(table(rng, n_dates, n_assets), path)
        path.write_bytes(perturb(path.read_bytes(), kinds, rng))
        assert (outcome(load_prices, path)
                == outcome(reference_load_prices, path))

    @staticmethod
    def check_set(path, cells) -> None:
        # the set holds cells the pass cannot read, so its file goes to
        # csv.reader whole; each cell the pass certifies reads as float
        decimal_file(path, cells)
        assert (outcome(load_prices, path)
                == outcome(reference_load_prices, path))
        assert market_data._read_canonical(path) is None
        in_form = [c for c in cells
                   if re.fullmatch(r"[0-9]+\.[0-9]+", c) and len(c) <= 20]
        m = np.array([int(c.replace(".", "")) for c in in_form], np.uint64)
        k = np.array([len(c.split(".")[1]) for c in in_form], np.uint8)
        x, certain = market_data._certified(m, k)
        assert certain.any()
        expected = np.array([float(c) for c in in_form])
        assert x[certain].tobytes() == expected[certain].tobytes()
        # a file of the cells of the pass's form alone is refused iff one
        # of them is not certified
        path.write_text("date,A\n" + "".join(
            f"d{i:06d},{c}\n" for i, c in enumerate(in_form)))
        assert (market_data._read_canonical(path) is None) != certain.all()
        assert (outcome(load_prices, path)
                == outcome(reference_load_prices, path))

    def test_midpoints_and_their_neighbours(self, tmp_path):
        # x + ulp/2 written out in full, a tie, and a unit of its last
        # digit either side, in binades where that is 19 digits or fewer
        rng = np.random.default_rng(7)
        cells = []
        for e in range(44, 60):
            for x in (2.0**e * (1 + rng.random(8))).tolist():
                mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
                text = f"{mid:f}" if "." in f"{mid:f}" else f"{mid:f}.0"
                last = Decimal(1).scaleb(-len(text.split(".")[1]))
                cells += [text, f"{mid - last:f}", f"{mid + last:f}"]
        self.check_set(tmp_path / "p.csv", cells)

    def test_mantissas_around_two_to_the_53(self, tmp_path):
        cells = []
        for m in range(2**53 - 2, 2**53 + 3):
            digits = str(m)
            for point in range(1, len(digits)):
                cells.append(f"{digits[:point]}.{digits[point:]}")
            cells.append(f"{digits}.0")
        self.check_set(tmp_path / "p.csv", cells)

    def test_22_and_23_decimals(self, tmp_path):
        rng = np.random.default_rng(22)
        cells = []
        for k in (22, 23):
            for digits in rng.integers(1, 10**6, 20):
                d = str(digits)
                cells += ["0." + d.rjust(k, "0"),
                          d[0] + "." + d[1:].ljust(k, "0")]
        cells += [repr(x) for x in (rng.random(20) + 1.0).tolist()]
        self.check_set(tmp_path / "p.csv", cells)

    def test_powers_of_two(self, tmp_path):
        # each power x and its neighbours, and the ties between x and each
        # neighbour with a unit of their last digit either side: x rounds
        # from twice as far above it as below
        cells = []
        for e in range(-20, 64):
            x = 2.0**e
            for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
                cells += [repr(y), f"{y:.17f}", f"{Decimal(y):f}"]
                mid = (Decimal(x) + Decimal(y)) / 2
                last = Decimal(1).scaleb(mid.as_tuple().exponent)
                cells += [f"{mid - last:f}", f"{mid + last:f}"]
        cells = [c if "." in c else c + ".0" for c in cells]
        self.check_set(tmp_path / "p.csv", cells)

    @pytest.mark.parametrize("text", [
        "date,A\nd1,1.5\nd2,1.2345678\n",
        "date,A\nd1,1.5\nd2,1.23456789\n",
        "date,A\nd1,1.5\nd234567890,1.5\n",
        "date,ABCDEFGHIJ\nd1,1.5\n"])
    def test_csv_field_size_limit_holds(self, tmp_path, text):
        # a field longer than csv's limit, 9 here, is csv's error
        path = tmp_path / "p.csv"
        path.write_text(text)
        limit = csv.field_size_limit(9)
        try:
            assert (outcome(load_prices, path)
                    == outcome(reference_load_prices, path))
        finally:
            csv.field_size_limit(limit)

    def test_cells_mostly_of_other_forms_go_to_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        s = table(np.random.default_rng(3), 40, 3)
        path.write_text("date,T0,T1,T2\n" + "".join(
            f"{d}," + ",".join(f"{x:.6e}" for x in row) + "\n"
            for d, row in zip(s.dates, s.prices.tolist())))
        assert market_data._read_canonical(path) is None
        assert (outcome(load_prices, path)
                == outcome(reference_load_prices, path))

    def test_wide_table_takes_the_vector_pass_in_bounded_memory(
            self, tmp_path, float_calls):
        # 200 assets x 253 dates, the benchmark's wide universe
        path = tmp_path / "wide.csv"
        s = table(np.random.default_rng(200), 253, 200, scale=1.0)
        save_prices(s, path)
        float_calls[0] = 0
        loaded = market_data._read_canonical(path)
        assert loaded.prices.tobytes() == s.prices.tobytes()
        assert float_calls[0] == 0
        tracemalloc.start()
        try:
            load_prices(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, peak

    def test_round_prices_take_the_vector_pass(self, tmp_path, float_calls):
        # 1.0, 2.0, 0.5 and 128.0 are powers of two, which the pass
        # certifies like any other price: their file is not left to
        # csv.reader whole
        path = tmp_path / "wide.csv"
        s = table(np.random.default_rng(200), 253, 200, scale=1.0)
        prices = s.prices.copy()
        prices[[0, 5, 100, 252], [0, 17, 199, 60]] = (1.0, 2.0, 0.5, 128.0)
        save_prices(series(s.tickers, s.dates, prices), path)
        assert all(cell in path.read_bytes()
                   for cell in (b",1.0,", b",2.0,", b",0.5\r", b",128.0,"))
        float_calls[0] = 0
        loaded = market_data._read_canonical(path)
        assert loaded is not None and float_calls[0] == 0
        expected = reference_load_prices(path)
        assert (loaded.tickers, loaded.dates) == (expected.tickers,
                                                 expected.dates)
        assert loaded.prices.tobytes() == expected.prices.tobytes()
        assert load_prices(path).prices.tobytes() == prices.tobytes()

    def test_benchmark_inputs_take_the_vector_pass(
            self, tmp_path, monkeypatch, float_calls):
        # every file the benchmark reads, the bundled fixtures and its 200-
        # and 10-asset save_prices tables, is read whole by the pass: a file
        # with one cell the pass refuses pays a whole csv.reader read
        monkeypatch.syspath_prepend(str(DATA_DIR.parent / "perfbench"))
        run = importlib.import_module("run")
        paths = {run.ROOT / config.price_csv
                 for workload in run.WORKLOADS
                 for _, config in run.build_schedule(workload, 42, tmp_path)}
        assert {path.name for path in paths} == {
            "crypto_like.csv", "equity_like.csv", "wide.csv",
            *(f"u{k}.csv" for k in run.SHARPE_INDICES)}
        for path in paths:
            float_calls[0] = 0
            loaded = market_data._read_canonical(path)
            assert loaded is not None and float_calls[0] == 0, path
            expected = reference_load_prices(path)
            assert (loaded.tickers, loaded.dates) == (expected.tickers,
                                                     expected.dates)
            assert loaded.prices.tobytes() == expected.prices.tobytes()


def written(write, s: PriceSeries, path):
    """What ``write(s, path)`` gives: the file's bytes, or the type and
    message of what it raises."""
    try:
        write(s, path)
    except Exception as exc:  # compared, type and message, not handled
        return type(exc), str(exc)
    return path.read_bytes()


# text csv.writer quotes or that is not ASCII, among plain characters
cell_text = st.text(st.one_of(
    st.sampled_from(',"\r\n Ωé€𝄞'),
    st.characters(blacklist_categories=("Cs",))), max_size=6)
# prices outside the vector pass's certified range, powers of two, and
# decimals of 14 digits or fewer, which repr prints shorter than 15
prices = st.one_of(
    st.floats(min_value=1e-300, max_value=1e-4, exclude_max=True),
    st.floats(min_value=1e14, max_value=1e300),
    st.integers(-1022, 1023).map(lambda n: 2.0**n),
    st.builds(lambda m, e: float(f"{m}e{e}"),
              st.integers(1, 10**14 - 1), st.integers(-18, 4)),
    st.floats(min_value=1e-4, max_value=1e14),
)


class TestPriceWriter:
    """save_prices against the cell-by-cell csv.writer loop, byte for
    byte."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_dates=st.integers(1, 6),
           n_assets=st.integers(1, 4), empty_first=st.booleans())
    def test_bytes_match_the_reference(self, tmp_path_factory, data,
                                       n_dates, n_assets, empty_first):
        # an empty date sorts first, and alone on a row csv writes '""'
        dates = sorted(data.draw(st.lists(cell_text, min_size=n_dates,
                                          max_size=n_dates, unique=True)))
        if empty_first and "" not in dates:
            dates[0] = ""
            dates.sort()
        tickers = data.draw(st.lists(cell_text, min_size=n_assets,
                                     max_size=n_assets, unique=True))
        values = data.draw(st.lists(prices, min_size=n_dates * n_assets,
                                    max_size=n_dates * n_assets))
        s = series(tickers, dates,
                   np.reshape(values, (n_dates, n_assets)))
        out = tmp_path_factory.mktemp("csv")
        expected = written(reference_save_prices, s, out / "reference.csv")
        assert written(save_prices, s, out / "p.csv") == expected

    def test_blocks_of_rows_give_the_same_bytes(self, tmp_path):
        # 1,300 rows of 7 prices: blocks of 4,096 // 7 = 585 rows, the
        # last one short
        s = table(np.random.default_rng(11), 1300, 7, scale=6.0)
        assert (written(save_prices, s, tmp_path / "p.csv")
                == written(reference_save_prices, s, tmp_path / "r.csv"))

    @pytest.mark.parametrize("tickers, dates", [
        (["A", "B\ud800"], ["2024-01-02", "2024-01-03"]),
        (["A", "B"], ["2024-01-02", "2024-01-03\udcff"]),
    ], ids=["ticker", "date"])
    def test_unencodable_text_raises_as_the_reference(self, tmp_path,
                                                      tickers, dates):
        # the same error, having written no more than the reference did
        s = series(tickers, dates, [[1.0, 2.0], [3.0, 4.0]])
        got = written(save_prices, s, tmp_path / "p.csv")
        assert got[0] is UnicodeEncodeError
        assert got == written(reference_save_prices, s, tmp_path / "r.csv")
        reference = (tmp_path / "r.csv").read_bytes()
        assert reference.startswith((tmp_path / "p.csv").read_bytes())

    def test_memory_is_flat_in_rows(self, tmp_path):
        # rows go out a block at a time: holding every row of 4,096 x 50
        # prices would add some 3 MB
        def peak(n_dates: int) -> int:
            prices = np.random.default_rng(n_dates).lognormal(
                3.0, 1.0, (n_dates, 50))
            s = series([f"T{i}" for i in range(50)],
                       [f"{d:06d}" for d in range(n_dates)], prices)
            tracemalloc.start()
            try:
                save_prices(s, tmp_path / "p.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4096) - peak(1024) < 1_000_000


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
