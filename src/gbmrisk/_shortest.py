"""Python's ``repr`` of many floats at once, laid into rows of bytes.

``Reprs(x)`` finds the ``repr`` of each float of x, and ``lay(out)``
writes each into its row of a caller's byte buffer: the ASCII of the
repr with PAD bytes among it, so that deleting every PAD byte leaves the
repr. PAD, 0xFF, never occurs in UTF-8, so a caller may lay UTF-8 text
beside the rows, such as the cells ``padded`` makes, and delete PAD from
the whole buffer at once; ``paths.csv`` and ``save_prices`` write their
rows so. The rows may be any (..., width) view, such as the price fields
of rows of text. They are only as wide as x needs: of the "0.000" prefix
and the point columns, they keep those some certified repr of x fills,
so prices of a few magnitudes take ~20 bytes a row rather than WIDTH.

``repr`` prints the shortest digits that read back as x, and of those
the nearest to x (Gay's dtoa, mode 0), positionally for 1e-4 <= x < 1e16.
Most x get those digits here from fixed-width arithmetic over the whole
array, as in Ryu (Adams, PLDI 2018):

- Guess k = floor(log10 x) and take c = 10**(16 - k), an exact double.
  Dekker's TwoProduct (Numer. Math. 1971) gives x c = P + e exactly, P
  an int64 in (1e16, 1e17) and |e| <= 1/2, and P's range certifies k.
- h = c 2**(E - 53), half an ulp of x in [2**E, 2**(E + 1)) scaled by c,
  is exact. The nearest (17 - j)-digit candidate D 10**j comes from
  divmod(P, 10**j) and e, and reads back as x iff |D 10**j - P - e| < h.
  If it does for some length, it does for every longer one, so the
  least length that passes, with its nearest candidate, is repr's.
- Each comparison is strict, on one rounded sum, against a threshold
  that is a double, so the rounding, being monotone, cannot flip it.
  Where it lands on the threshold, a tie, the price goes to ``repr``, as
  do powers of two, whose interval below is half as wide, x where 14
  digits read back, as a shorter string may exist, and x outside
  [1e-4, 1e14), k outside [-4, 13], zero, negatives, subnormals, inf and
  nan among them: ~0.7% of simulated prices.

The digits come from IEEE +, - and *, each its own numpy call and so
never fused, and integer operations; log10 only guesses k, which P's
range confirms. So the bytes depend on no CPU feature.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PAD", "WIDTH", "Reprs", "padded"]

PAD = b"\xff"
# the widest certified repr, "0.000" and 17 digits, interleaved with the
# 14 places a point may follow a digit: "0.000" d0 . d1 . ... d13 . d14 d15 d16
WIDTH = 36
_DIGIT_COLUMNS = [*range(5, 32, 2), 33, 34, 35]

_K_MIN, _K_MAX = -4, 13
_SCALE = np.array([float(10**(16 - k)) for k in range(_K_MIN, _K_MAX + 1)])
_EXPONENT = np.uint64(0x7FF << 52)
_MANTISSA = np.uint64((1 << 52) - 1)


def _split(a):
    """Veltkamp's split of a into two 26-bit halves, a = hi + lo."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_SCALE_HI, _SCALE_LO = _split(_SCALE)


def _product_error(a, p, c_hi, c_lo):
    """a c - p exactly, for p the rounded product a c and c = c_hi + c_lo
    split by ``_split``: Dekker's TwoProduct, ((a_hi c_hi - p) + a_hi c_lo
    + a_lo c_hi) + a_lo c_lo, each product in place."""
    a_hi, a_lo = _split(a)
    e = a_hi * c_hi
    e -= p
    e += np.multiply(a_hi, c_lo, out=a_hi)
    e += np.multiply(a_lo, c_hi, out=a_hi)
    e += np.multiply(a_lo, c_lo, out=a_lo)
    return e


def _layouts() -> np.ndarray:
    """Row k - _K_MIN: the bytes of a certified repr of exponent k but its
    digits: "0." and -k - 1 zeros below 1, a point after digit k above."""
    rows = np.full((_K_MAX - _K_MIN + 1, WIDTH), ord(PAD), np.uint8)
    for row, k in zip(rows, range(_K_MIN, _K_MAX + 1)):
        if k < 0:
            lead = b"0." + b"0" * (-k - 1)
            row[:len(lead)] = np.frombuffer(lead, np.uint8)
        else:
            row[_DIGIT_COLUMNS[k] + 1] = ord(".")
    return rows


_LAYOUTS = _layouts()
_DIGIT = np.array([column in _DIGIT_COLUMNS for column in range(WIDTH)])
# "0000" to "9999", each as the four ASCII bytes of a little-endian uint32
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_QUADS = (_ASCII[:, None, None, None] | _ASCII[:, None, None] << 8
          | _ASCII[:, None] << 16 | _ASCII << 24).astype("<u4").ravel()


class Reprs:
    """The reprs of the float64 vector x, found at once and laid out by
    ``lay``: ``width`` is the bytes a row needs, ``slow`` the indices of
    the x formatted by ``repr`` rather than certified here."""

    def __init__(self, x: np.ndarray):
        fast = (x >= 1e-4) & (x < 1e14) & (x.view(np.uint64) & _MANTISSA != 0)
        # 1.5 stands in for the rest: then every x c lies in [1e15, 1e18),
        # and no int cast wraps
        row, big, e, h, certain = _scaled(np.where(fast, x, 1.5))
        fast &= certain
        digits, self.drops, certain = _shortest(big, e, h)
        del big, e, h
        fast &= certain
        # digits 0-8 and 9-16
        self.high = (digits // 10**8).astype(np.uint32)
        self.low = (digits - self.high.astype(np.int64) * 10**8).astype(
            np.uint32)
        del digits  # a block's peak memory is reached in the caller
        self.row = row
        self.slow = np.flatnonzero(~fast)
        self.slow_reprs = [repr(v).encode() for v in x[self.slow].tolist()]
        # the columns of the layouts x uses, and every digit column
        present = np.bincount(row[fast], minlength=len(_LAYOUTS)) > 0
        used = _DIGIT | (_LAYOUTS[present] != ord(PAD)).any(axis=0)
        self.columns = np.flatnonzero(used)
        self.width = max([len(self.columns), *map(len, self.slow_reprs)])

    def lay(self, out: np.ndarray) -> None:
        """Write each repr into its row of ``out``, a (..., width) uint8
        array of len(x) rows in C order, ASCII with PAD bytes among it;
        every byte of ``out`` is written, and it may be a view of a wider
        buffer, such as the price fields of rows of text."""
        shape = out.shape[:-1]
        digit = _DIGIT[self.columns]
        # the prefix and point columns, each a byte of the price's layout
        row = self.row.reshape(shape)
        for j, column in zip(np.flatnonzero(~digit),
                             _LAYOUTS.T[self.columns[~digit]]):
            out[..., j] = np.take(column, row, mode="clip")
        out[..., len(self.columns):] = ord(PAD)
        places = np.flatnonzero(digit)
        # digit 0, then digits 1-16 as four groups of four, each written at
        # once where its places are adjacent, a byte at a time elsewhere
        high, low = self.high.reshape(shape), self.low.reshape(shape)
        top = high // 10**8
        out[..., places[0]] = top + ord("0")
        for group, q in enumerate((high - top * 10**8, low)):
            above = q // 10**4
            for part, quad in enumerate((above, q - above * 10**4)):
                at = places[1 + 8 * group + 4 * part:][:4]
                chars = np.take(_QUADS, quad, mode="clip")
                if at[3] - at[0] == 3:
                    out[..., at[0]:at[0] + 4].view("<u4")[..., 0] = chars
                else:
                    for place, char in zip(at, np.moveaxis(
                            chars[..., None].view(np.uint8), -1, 0)):
                        out[..., place] = char
        for column, dropped in zip(places[:-3:-1], self.drops):
            np.copyto(out[..., column], ord(PAD), where=dropped.reshape(shape))
        if self.slow.size:
            out[np.unravel_index(self.slow, shape)] = np.frombuffer(b"".join(
                r.ljust(self.width, PAD) for r in self.slow_reprs
            ), np.uint8).reshape(self.slow.size, self.width)


def padded(cells) -> np.ndarray:
    """The UTF-8 of each str of ``cells``, PAD to the widest, one a row."""
    cells = [cell.encode("utf-8") for cell in cells]
    width = max(map(len, cells))
    return np.frombuffer(b"".join(cell.ljust(width, PAD) for cell in cells),
                         np.uint8).reshape(len(cells), width)


def _scaled(y: np.ndarray):
    """``(row, big, e, h, certain)``: k - _K_MIN, y's row of the tables;
    y c = big + e exactly with |e| <= 1/2; h, half an ulp of y scaled by
    c; and where k and big are certified and e is no tie."""
    # next to a power of ten log10 may put k one off: then P leaves its
    # range below, or, at either end of the table, the clip puts k right
    row = np.floor(np.log10(y)).astype(np.int64) - _K_MIN
    np.clip(row, 0, _K_MAX - _K_MIN, out=row)
    c_hi, c_lo = (np.take(table, row, mode="clip")
                  for table in (_SCALE_HI, _SCALE_LO))
    p = y * np.take(_SCALE, row, mode="clip")
    e = _product_error(y, p, c_hi, c_lo)
    certain = (p > 1e16) & (p < 1e17)
    whole = np.rint(e)
    e -= whole  # exact
    certain &= np.abs(e) != 0.5
    big = p.astype(np.int64)
    big += whole.astype(np.int64)
    h = np.add(c_hi, c_lo, out=c_hi)  # c itself: the split is exact
    h *= (y.view(np.uint64) & _EXPONENT).view(np.float64) * 2.0**-53
    return row, big, e, h, certain


def _shortest(big: np.ndarray, e: np.ndarray, h: np.ndarray):
    """``(digits, drops, certain)``: the shortest candidate that reads
    back, as 17 digits whose dropped ones are zeros; whether digit 17 and
    digit 16 are dropped; and where no comparison tied and 14 digits fail.

    17 digits always read back, as |e| <= 1/2 < h: y c > 1e16 gives
    h > 0.55.
    """
    digits, drops, certain = big, [], np.ones(len(big), bool)
    for j in (1, 2, 3):
        step = 10**j
        down = big // step * step
        r = (big - down).astype(np.float64)
        s = r + e
        up = s > step / 2
        certain &= s != step / 2
        # |y c - (down + up step)|, rounded once
        dist = r
        dist -= up * step
        dist += e
        np.abs(dist, out=dist)
        certain &= dist != h
        passes = dist < h
        if j < 3:
            down += up * step
            digits = np.where(passes, down, digits)
            drops.append(passes)
    certain &= ~passes  # 14 digits read back: a shorter string may exist
    return digits, drops, certain
