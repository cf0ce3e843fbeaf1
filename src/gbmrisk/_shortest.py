"""Python's ``repr`` of many floats at once, as fixed-width byte rows.

``reprs(x)`` gives each float of x a row of WIDTH bytes: the ASCII of its
``repr`` with PAD bytes among it, so that deleting every PAD byte leaves
the repr. PAD, 0xFF, never occurs in UTF-8, so a caller may lay UTF-8
text beside the rows and delete PAD from the whole buffer at once.

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

__all__ = ["PAD", "WIDTH", "reprs"]

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


def reprs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(chars, fast)`` for the float64 vector x: chars[i] is repr(x[i])
    in ASCII with PAD bytes among it, shape (len(x), WIDTH), and fast[i]
    whether x[i] was certified here rather than formatted by ``repr``."""
    fast = (x >= 1e-4) & (x < 1e14) & (x.view(np.uint64) & _MANTISSA != 0)
    # 1.5 stands in for the rest: then every x c lies in [1e15, 1e18), and
    # no int cast wraps
    row, big, e, h, certain = _scaled(np.where(fast, x, 1.5))
    fast &= certain
    digits, drops, certain = _shortest(big, e, h)
    del big, e, h  # a block's peak memory is reached below
    fast &= certain
    chars = _layout(row, digits, drops)
    slow = np.flatnonzero(~fast)
    if slow.size:
        chars[slow] = np.frombuffer(b"".join(
            repr(v).encode().ljust(WIDTH, PAD) for v in x[slow].tolist()
        ), np.uint8).reshape(slow.size, WIDTH)
    return chars, fast


def _scaled(y: np.ndarray):
    """``(row, big, e, h, certain)``: k - _K_MIN, y's row of the tables;
    y c = big + e exactly with |e| <= 1/2; h, half an ulp of y scaled by
    c; and where k and big are certified and e is no tie."""
    # next to a power of ten log10 may put k one off: then P leaves its
    # range below, or, at either end of the table, the clip puts k right
    row = np.floor(np.log10(y)).astype(np.int64) - _K_MIN
    p = y * np.take(_SCALE, row, mode="clip")
    # Dekker's TwoProduct: e = ((y_hi c_hi - p) + y_hi c_lo + y_lo c_hi)
    # + y_lo c_lo, in place
    y_hi, y_lo = _split(y)
    e = y_hi * np.take(_SCALE_HI, row, mode="clip")
    e -= p
    term = np.empty_like(e)
    for a, b in ((y_hi, _SCALE_LO), (y_lo, _SCALE_HI), (y_lo, _SCALE_LO)):
        e += np.multiply(a, np.take(b, row, mode="clip"), out=term)
    del y_hi, y_lo, term
    certain = (p > 1e16) & (p < 1e17)
    whole = np.rint(e)
    e -= whole  # exact
    certain &= np.abs(e) != 0.5
    big = p.astype(np.int64)
    big += whole.astype(np.int64)
    h = np.take(_SCALE, row, mode="clip")
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


def _layout(row: np.ndarray, digits: np.ndarray, drops) -> np.ndarray:
    """The certified reprs: each row's layout, its digits in their columns
    and PAD for the dropped ones."""
    chars = np.take(_LAYOUTS, row, axis=0, mode="clip")
    high = (digits // 10**8).astype(np.uint32)  # digits 0-8
    low = (digits - high.astype(np.int64) * 10**8).astype(np.uint32)
    for columns, q in ((_DIGIT_COLUMNS[8::-1], high),
                       (_DIGIT_COLUMNS[:8:-1], low)):
        for column in columns:
            next_q = q // 10
            chars[:, column] = q - next_q * 10 + ord("0")
            q = next_q
    for column, dropped in zip((35, 34), drops):
        np.copyto(chars[:, column], ord(PAD), where=dropped)
    return chars
