"""Historical price ingestion: wide-CSV loading and log-returns.

The canonical input format is a wide CSV: UTF-8, comma-separated, first
header cell ``date``, remaining header cells are tickers, each data row an
ISO-8601 date followed by decimal prices. Dates are treated as opaque
sortable strings; no calendar arithmetic happens anywhere in the package.

``load_prices`` reads a file whole by one of two readers, which give the
same tickers, dates and price bits. A file in the form ``save_prices``
writes, every price of which the pass below certifies, is read in one
vectorized pass over its bytes: no ``"``, every ``\\r`` followed by
``\\n``, no blank line, a date and one field per ticker in every row, and
every price ``[0-9]+.[0-9]+``. Any other file, and any file the pass finds
fault with (a decode error, a bad header, a ragged row, a duplicate date, a
price of another form or one left uncertified), is read by ``csv.reader``
and ``float`` a cell, which alone word every PriceDataError.

The pass reads a cell ``[0-9]+.[0-9]+`` of at most 19 digits as the
decimal m / 10**k, m < 10**19 its digits, k those after the point, whose
nearest double (ties to even) is what ``float`` returns (Clinger, "How to
read floating point numbers accurately", PLDI 1990; Lemire, "Number
parsing at a gigabyte per second", SPE 2021):

- m = m_hi + m_lo, with m_hi = float(m) and m_lo the exact int64
  difference, 0 for m <= 2**53 and below 2**11 above, and the candidate
  is x = m_hi / T, T = 10**k exact. Dekker's TwoProduct, the one
  ``gbmrisk._shortest`` writes with, gives x T = P + E exactly. m_hi - P
  is exact by Sterbenz's lemma, and so is b = (m_hi - P) + m_lo: m_lo is
  0, or m_hi - P is an integer below 2**13 like m_lo. So s = b - E is the
  residual m - x T rounded once.
  h = ulp(x) T / 2, a power of two times T, is exact, and so is 3h, as
  3 * 5**k < 2**53. If |s| < h then |m - x T| < h, as rounding is
  monotone and h is a double: x lies strictly within half an ulp of
  m / T, so it is the nearest double and no tie. If instead
  h < |s| < 3h, the same holds for x's neighbour toward m / T, x + ulp(x)
  or x - ulp(x), whose residual is s - 2h or s + 2h.
- A power of two x has an ulp below it half as wide as the one above, so
  it is the nearest double iff -h/2 < m - x T < h; h/2 is exact, so
  -h/2 < s < h certifies it as above. Its neighbours are not certified,
  nor is a neighbour that is a power of two, whose ulp below is half as
  wide, nor an |s| that lands on h or 3h, and neither is a cell of any
  other form (exponent, sign, space, underscore, non-ASCII digit, more
  than 19 digits): its file goes to ``csv.reader``.

The digits are gathered from each cell's window of bytes, and their
float32 products and sums are integers below 2**24, exact in any order;
the rest is IEEE +, -, * and /, each its own numpy call, and integer
arithmetic. So the bits depend on no CPU feature.

``save_prices`` writes the bytes ``csv.writer`` writes with each price as
``repr``, a block of rows at a time: ``csv.writer`` quotes the header and
the dates, and ``gbmrisk._shortest`` formats the prices of a block at
once, laid straight into its rows. A 200-asset, 253-date file takes ~9 ms
to write against ~50 ms for ``csv.writer`` and ``repr`` a cell.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _shortest
from ._shortest import _EXPONENT, _MANTISSA, _product_error, _split

__all__ = [
    "PriceDataError",
    "PriceSeries",
    "ReturnMatrix",
    "load_prices",
    "save_prices",
    "log_returns",
]


class PriceDataError(ValueError):
    """Raised when price data violates the input contract."""


@dataclass(frozen=True)
class PriceSeries:
    """Aligned per-asset daily close prices indexed by date.

    ``prices`` has shape (n_dates, n_assets); the last row holds the most
    recent prices (the simulation's starting point). All prices must be
    strictly positive and dates strictly increasing.
    """

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 2:
            raise PriceDataError("prices must be a 2-D matrix")
        object.__setattr__(self, "prices", prices)
        if len(self.dates) == 0 or len(self.tickers) == 0:
            raise PriceDataError("empty price series")
        if prices.shape != (len(self.dates), len(self.tickers)):
            raise PriceDataError(
                f"prices shape {prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if len(set(self.tickers)) != len(self.tickers):
            raise PriceDataError("duplicate ticker")
        if not np.all(np.isfinite(prices)):
            raise PriceDataError("non-finite price")
        if np.any(prices <= 0.0):
            raise PriceDataError("non-positive price")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise PriceDataError(f"dates not strictly increasing at {b!r}")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def select(self, tickers: Sequence[str]) -> "PriceSeries":
        """Return the sub-series holding ``tickers`` in the given order."""
        idx = []
        for t in tickers:
            if t not in self.tickers:
                raise PriceDataError(f"unknown ticker {t!r}")
            idx.append(self.tickers.index(t))
        return PriceSeries(tuple(tickers), self.dates, self.prices[:, idx])


@dataclass(frozen=True)
class ReturnMatrix:
    """Daily log-returns; row t is ln(prices[t+1] / prices[t])."""

    tickers: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        returns = np.asarray(self.returns, dtype=np.float64)
        if returns.ndim != 2 or returns.shape[1] != len(self.tickers):
            raise PriceDataError("returns must be (n_rows, n_assets)")
        if not np.all(np.isfinite(returns)):
            raise PriceDataError("non-finite return")
        object.__setattr__(self, "returns", returns)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


def load_prices(path: str | Path) -> PriceSeries:
    """Parse a wide CSV into a validated PriceSeries, rows sorted by date."""
    path = Path(path)
    series = _read_canonical(path)
    return _read_csv(path) if series is None else series


def _read_csv(path: Path) -> PriceSeries:
    """``load_prices`` by ``csv.reader`` and ``float`` a cell: the reader
    of every file the vector pass does not read whole, and of every fault."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PriceDataError(f"{path}: empty file") from None
        if not header or header[0] != "date":
            raise PriceDataError(f"{path}: first header cell must be 'date'")
        tickers = tuple(header[1:])
        if not tickers:
            raise PriceDataError(f"{path}: no ticker columns")
        rows: dict[str, list[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(tickers) + 1:
                raise PriceDataError(f"{path}:{lineno}: ragged row")
            date = row[0]
            if date in rows:
                raise PriceDataError(f"{path}:{lineno}: duplicate date {date!r}")
            try:
                values = [float(cell) for cell in row[1:]]
            except ValueError:
                raise PriceDataError(
                    f"{path}:{lineno}: non-numeric price"
                ) from None
            rows[date] = values
    if not rows:
        raise PriceDataError(f"{path}: no data rows")
    dates = tuple(sorted(rows))
    prices = np.array([rows[d] for d in dates], dtype=np.float64)
    return PriceSeries(tickers, dates, prices)


# A fast cell's window: the bytes ending at the cell's end, enough for 19
# digits and the point. _FRONT zero bytes before the text keep every
# window inside the buffer.
_WINDOW = 20
_FRONT = _WINDOW
# Cells per pass, read or written: a pass holds some twenty arrays of this
# many cells, or of _WINDOW times as many bytes, so this bounds its memory;
# the bits and bytes do not depend on it.
_BLOCK_CELLS = 4096

_COMMA, _POINT, _CR, _LF, _ZERO = b",.\r\n0"
_ROWS = np.arange(_WINDOW, dtype=np.uint8)[:, None]
# A window's point's place k from the end, if it has one point
_POINT_PLACES = np.arange(_WINDOW - 1, -1, -1, dtype=np.float32)
# The 19 digits as three groups of at most 7, and the groups' scales
_GROUP_WEIGHTS = np.zeros((3, _WINDOW - 1), np.float32)
for _g, (_lo, _hi) in enumerate(((0, 5), (5, 12), (12, 19))):
    _GROUP_WEIGHTS[_g, _lo:_hi] = 10.0 ** np.arange(_hi - _lo - 1, -1, -1)
_GROUP_SCALES = (np.uint64(10**14), np.uint64(10**7))

_POW10 = np.array([10.0**k for k in range(_WINDOW)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _read_canonical(path: Path) -> PriceSeries | None:
    """The file's PriceSeries if it has the canonical form and the
    vectorized pass of the module docstring certifies every price; None for
    any other file, left to ``_read_csv``."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        # the text after _FRONT zero bytes, and room for a final newline, in
        # one buffer: read_bytes and a copy would hold the text twice
        buf = bytearray(_FRONT + size + 1)
        view = memoryview(buf)
        end = _FRONT
        while end < len(buf):
            got = fh.readinto(view[end:])
            if not got:
                break
            end += got
        else:
            return None  # the file grew
    if end == _FRONT or b'"' in buf:
        return None
    if buf[end - 1] != _LF:
        buf[end] = _LF
        end += 1
    head = buf.index(b"\n", _FRONT)
    header_cr = buf[head - 1] == _CR
    if buf.count(b"\r", _FRONT, head) != header_cr:
        return None
    try:
        header = bytes(view[_FRONT:head - header_cr]).decode().split(",")
    except UnicodeDecodeError:
        return None
    limit = csv.field_size_limit()
    if header[0] != "date" or len(header) < 2 or max(map(len, header)) > limit:
        return None
    tickers = tuple(header[1:])
    newlines = []
    line = head + 1
    while line < end:
        line = buf.index(b"\n", line) + 1
        newlines.append(line - 1)
    if not newlines:
        return None
    text = np.frombuffer(buf, np.uint8)
    windows = sliding_window_view(text, _WINDOW)
    newlines = np.array(newlines)
    line_starts = np.concatenate([[head + 1], newlines[:-1] + 1])
    prices = np.empty((len(newlines), len(tickers)))
    dates = []
    rows = max(1, _BLOCK_CELLS // len(tickers))
    for r0 in range(0, len(newlines), rows):
        block = slice(r0, r0 + rows)
        cells = _cells(text, line_starts[block], newlines[block], len(tickers))
        if cells is None:
            return None
        firsts, starts, ends = cells
        for a, b in zip(line_starts[block].tolist(), firsts.tolist()):
            try:
                dates.append(bytes(view[a:b]).decode())
            except UnicodeDecodeError:
                return None
            if b - a > limit:
                return None
        if not _read_cells(windows, starts, ends, limit,
                           prices[block].reshape(-1)):
            return None
    if len(set(dates)) != len(dates):
        return None
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return PriceSeries(tickers, tuple(dates[i] for i in order), prices[order])


def _cells(text: np.ndarray, line_starts: np.ndarray, newlines: np.ndarray,
           n_prices: int):
    """``(firsts, starts, ends)`` of the lines that start at line_starts
    and end at newlines: where each line's date ends, and where each price
    cell starts and ends, row-major; None unless every line holds
    n_prices commas and a CR only before its newline."""
    block = text[line_starts[0]:newlines[-1]]
    commas = np.flatnonzero(block == _COMMA)
    if len(commas) != len(newlines) * n_prices:
        return None
    commas += line_starts[0]
    commas = commas.reshape(len(newlines), n_prices)
    # sorted and counted, so then each line holds n_prices commas
    if np.any(commas[:, 0] < line_starts) or np.any(commas[:, -1] > newlines):
        return None
    crs = text[newlines - 1] == _CR
    if np.count_nonzero(block == _CR) != np.count_nonzero(crs):
        return None
    ends = np.empty_like(commas)
    ends[:, :-1] = commas[:, 1:]
    ends[:, -1] = newlines - crs
    return commas[:, 0], (commas + 1).reshape(-1), ends.reshape(-1)


def _read_cells(windows: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                limit: int, out: np.ndarray) -> bool:
    """out[i] = float(text[starts[i]:ends[i]]), by the pass alone; False if
    a cell passes csv's field size limit, has another form or is not
    certified. windows[j] is the text's _WINDOW bytes from j."""
    length = ends - starts
    if length.max() > min(limit, _WINDOW):
        return False
    # digits[:, i]: the _WINDOW bytes up to cell i's end less "0", those
    # before the cell zeroed; a point reads 254. uint8 arithmetic, which
    # wraps, selects without branches.
    digits = np.ascontiguousarray(windows[ends - _WINDOW].T)
    digits -= _ZERO
    digits *= _ROWS >= _WINDOW - length.astype(np.uint8)
    k = (_POINT_PLACES @ (digits == _POINT - _ZERO + 256).view(np.uint8)
         ).astype(np.uint8)
    # no point gives k = 0, and a second point stays among the digits
    if np.any((k < 1) | (k > length - 2)):
        return False
    # the digits without the point, right-aligned in _WINDOW - 1 rows
    shifted = digits[:-1] - digits[1:]
    shifted *= _ROWS[:-1] < _WINDOW - 1 - k
    shifted += digits[1:]
    if shifted.max() > 9:
        return False
    groups = (_GROUP_WEIGHTS @ shifted).astype(np.uint64)
    m = groups[0] * _GROUP_SCALES[0]
    m += groups[1] * _GROUP_SCALES[1]
    m += groups[2]
    x, certain = _certified(m, k)
    out[:] = x
    return bool(certain.all())


def _certified(m: np.ndarray, k: np.ndarray):
    """``(x, certain)``: x[i] is the double nearest m[i] / 10**k[i] where
    certain[i], by the argument of the module docstring: the candidate
    m_hi / 10**k or its neighbour toward m / 10**k."""
    t = _POW10[k]
    m_hi = m.astype(np.float64)
    m_lo = (m - m_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    x = m_hi / t
    p = x * t
    e = _product_error(x, p, _POW10_HI[k], _POW10_LO[k])  # x t - p
    s = m_hi - p
    s += m_lo
    s -= e  # m - x t, rounded once
    bits = x.view(np.uint64)
    h = (bits & _EXPONENT).view(np.float64) * 2.0**-53
    h *= t
    r = np.abs(s)
    here = r < h
    # the neighbour x +- ulp(x) has residual s -+ 2h: inside h iff
    # h < |s| < 3h, and 3h is exact, 3 * 5**k being below 2**53
    near = h < r
    near &= r < 3.0 * h
    y = np.where(near, np.where(s > 0, bits + 1, bits - 1), bits)
    # a power of two x is nearest for m / T in (x - h/2T, x + h/T)
    power = bits & _MANTISSA == 0
    certain = np.where(power, (-0.5 * h < s) & (s < h),
                       (here | near) & (y & _MANTISSA != 0))
    return y.view(np.float64), certain


class _Lines(list):
    """A file for ``csv.writer`` that keeps each line it is given."""

    write = list.append


def save_prices(series: PriceSeries, path: str | Path) -> None:
    """Write the canonical wide CSV, UTF-8: floats as ``repr``, which
    round-trips exactly, and every cell as ``csv.writer`` writes it.

    ``csv.writer`` writes the header and each date, a date quoted as in
    a row ``[date, ""]`` (as it is when prices follow it). The prices come
    from ``gbmrisk._shortest.Reprs`` a block of rows at a time: each row is
    laid out as PAD-filled fields ``date,p1,...,pA\\r\\n`` in one buffer,
    and deleting PAD leaves the block's rows.
    """
    lines = _Lines()
    writer = csv.writer(lines)
    writer.writerow(["date", *series.tickers])
    n_assets = series.n_assets
    rows = max(1, _BLOCK_CELLS // n_assets)
    with open(path, "wb") as fh:
        fh.write(lines.pop().encode("utf-8"))
        for r0 in range(0, series.n_dates, rows):
            # each line is the date, ",", and csv's "\r\n"
            writer.writerows([date, ""] for date in series.dates[r0:r0 + rows])
            dates = _shortest.padded(line[:-3] for line in lines)
            lines.clear()
            reprs = _shortest.Reprs(series.prices[r0:r0 + rows].reshape(-1))
            lead, field = dates.shape[1], 1 + reprs.width
            data = bytearray(len(dates) * (lead + n_assets * field + 2))
            text = np.frombuffer(data, np.uint8).reshape(len(dates), -1)
            text[:, :lead] = dates
            fields = text[:, lead:-2].reshape(len(dates), n_assets, field)
            fields[..., 0] = _COMMA
            reprs.lay(fields[..., 1:])
            text[:, -2:] = (_CR, _LF)
            del reprs  # before the rows are compacted
            fh.write(data.translate(None, _shortest.PAD))


def log_returns(series: PriceSeries) -> ReturnMatrix:
    """Daily log-returns: entry [t][i] = ln(prices[t+1][i] / prices[t][i])."""
    if series.n_dates < 2:
        raise PriceDataError("need at least 2 price rows for returns")
    rets = np.log(series.prices[1:] / series.prices[:-1])
    return ReturnMatrix(series.tickers, rets)
