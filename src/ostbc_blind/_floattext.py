"""Shortest round-trip text of float64 arrays, a whole array at a time.

:func:`float_text` gives the text that ``repr`` gives each number, which
is also the text of ``json.dumps``, without one Python call per number.
For 1e-4 <= |x| < 1e15 whose mantissa is not a power of two, ``repr`` is
positional and the rounding interval of x is symmetric: a decimal reads
back as x when it lies less than half an ulp from x (or exactly half an
ulp, with an even mantissa), and ``repr`` prints the nearest of the
decimals with the fewest digits that read back. These are found by
exact integer arithmetic:

- X = |x| * 10^k, k = 16 - e10, e10 = floor(log10 |x|), lies in
  [1e16, 1e17) and is formed exactly as h + l by Dekker's product,
  because 10^k is an exact double for k <= 22 (Dekker, Numer. Math. 18,
  1971). Half an ulp of x in the same scale, H = 2^(e2 - 53) * 10^k for
  2^e2 <= |x| < 2^(e2 + 1), is an exact double in (X * 2^-54, X * 2^-53],
  so 0.55 < H < 11.2.
- 17 digits, the integer nearest X, always read back, since H > 1/2.
- 16 digits read back if the nearest multiple of 10 lies within H.
- Fewer digits read back if the nearest multiple of 100 lies within H:
  as H < 50, no other multiple of 100 can, so that one is the shortest
  candidate, and its digit count follows from its trailing zeros.

Ties between two nearest candidates and candidates exactly H away leave
the choice to ``repr``, as do all numbers outside that range except
zeros, which are laid out as ``0.0``.

Each number's text is then laid out in a record of three 64-bit words,
also by whole-array operations: the digits come from a table of 4-digit
groups, and masks clear the unused digits and move the integer digits
to make room for the point. The records and the separators form one
byte grid, whose NUL bytes one ``bytes.translate`` drops.
"""

import functools
from types import SimpleNamespace

import numpy as np

#: Numbers per formatted chunk of an array: the JSON and CSV writers hold
#: the text and the work arrays of one chunk at a time, whatever the length.
CHUNK_NUMBERS = 8192

_SPLIT = 134217729.0                        # 2^27 + 1, Veltkamp's constant
_LOG10_2 = 0.30102999566398120
_MANTISSA = np.uint64((1 << 52) - 1)


@functools.cache
def _tables():
    """The lookup tables, built with numpy on first use, not at import."""
    def masks(keep):
        """(3, n) uint64 masks of the bytes an (n, 24) table keeps, by word."""
        return (keep.astype(np.uint8) * 0xFF).view("<u8").T.copy()

    pow10 = 10.0 ** np.arange(23)             # exact doubles
    hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    # A number's text is a 24-byte record, three little-endian uint64 words:
    # its first digit is byte 7, digits 2..17 bytes 8..23, and the sign and
    # "0." or the point go in before them; NUL bytes are dropped at the end.
    byte = np.arange(24)
    q = np.arange(17)[:, None]          # q = e10 + 1 integer digits, 0 if none
    return SimpleNamespace(
        pow10=pow10, pow10_hi=hi, pow10_lo=pow10 - hi,    # Dekker halves
        # fl(10^j) for j = -4..16: above 10^j for j < 0, so a double
        # x >= fl(10^j) exactly when x >= 10^j
        decades=10.0 ** np.arange(-4, 17),
        # the four ASCII digits of 0..9999 in the low bytes of a word
        quads=np.ascontiguousarray(
            np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
        ).view("<u4").ravel().astype("<u8"),
        # keep digits 1..L: keep[w, L] (the first digit is always kept)
        keep=masks(byte < 7 + np.arange(18)[:, None]),
        # the point after digit q >= 1: digits 1..q move one byte down,
        # from the record shifted by a byte, and the point takes byte 6 + q
        down=masks((byte < 6 + q) & (q > 0)),
        stay=masks((byte > 6 + q) | (q == 0)),
        point=(masks((byte == 6 + q) & (q > 0))
               & np.uint64(int.from_bytes(b"." * 8, "little"))),
        # the sign, and "0." and zeros for e10 < 0, in bytes 0..6:
        # leads[5 * negative + 4 + min(e10, 0)]
        leads=np.frombuffer(b"".join(
            (sign + b"0." + b"0" * (-e - 1)).rjust(8, b"\0")[1:] + b"\0"
            if e < 0 else sign.ljust(8, b"\0") for sign in (b"\0", b"-")
            for e in range(-4, 1)), dtype="<u8"))


def _scaled(x, tab):
    """X = x * 10^(16 - e10) of positive x in [1e-4, 1e15), exactly.

    Returns ``(whole, frac, half, e10)``: X = whole + frac with frac in
    [0, 1), half an ulp of x in the same scale, and e10 = floor(log10 x).
    """
    binexp = (x.view(np.uint64) >> np.uint64(52)).astype(np.int64) - 1023
    e10 = np.floor(binexp * _LOG10_2).astype(np.int64)
    e10 += x >= np.take(tab.decades, e10 + 5)
    k = 16 - e10
    p = np.take(tab.pow10, k)
    h = x * p                                  # Dekker: h + l == x * 10^k
    t = x * _SPLIT
    x_hi = t - (t - x)
    x_lo = x - x_hi
    p_hi, p_lo = np.take(tab.pow10_hi, k), np.take(tab.pow10_lo, k)
    l = ((x_hi * p_hi - h) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    floor = np.floor(l)
    whole = h.astype(np.int64) + floor.astype(np.int64)
    # half an ulp of x in this scale, 2^(binexp - 53) * 10^k: exact
    half = ((binexp + (1023 - 53)) << 52).view(np.float64) * p
    return whole, l - floor, half, e10         # l - floor: exact


def _shortest(x, tab):
    """Shortest round-trip decimals of positive x in [1e-4, 1e15).

    Returns ``(digits, e10, count, inexact)``: each decimal as an integer
    of 17 digits scaled to [1e16, 1e17) (zeros after its last digit), the
    exponent of its first digit, its digit count, and a mask of the
    numbers whose decimal is a tie or on the rounding boundary, left to
    ``repr``.
    """
    whole, frac, half, e10 = _scaled(x, tab)

    # the nearest multiples of 100 and of 10, and their distances to X
    hund = whole // 100
    rest = (whole - 100 * hund) + frac         # exact, in [0, 100)
    up100 = rest > 50
    near100 = 50 - np.abs(rest - 50)
    tens = whole // 10
    rest = (whole - 10 * tens) + frac          # exact, in [0, 10)
    up10 = rest > 5
    near10 = 5 - np.abs(rest - 5)
    short, fits = near100 < half, near10 < half
    digits = np.where(short, 100 * (hund + up100),
                      np.where(fits, 10 * (tens + up10), whole + (frac > 0.5)))
    # ties and candidates exactly half an ulp away; this also takes the
    # rare 16- or 17-digit tie that a length of the other kind makes moot
    inexact = ((near100 == half) | (near10 == half) | (rest == 5)
               | (frac == 0.5))
    count = 17 - fits
    # fewer than 16 digits: those of hund + up100 (15 digits, or 1e15)
    # less their trailing zeros
    pick = np.flatnonzero(short)
    rest = (hund + up100)[pick]
    zeros = np.zeros(len(pick), dtype=np.int64)
    for step in (8, 4, 2, 1):
        unit = 10 ** step
        head = rest // unit
        cut = rest == head * unit
        rest = np.where(cut, head, rest)
        zeros += step * cut
    count[pick] = np.maximum(15 - zeros, 1)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e10 += carry
    return digits, e10, count, inexact


def _digit_words(digits, keep, tab):
    """The text record words of integers of [0, 1e17) as 17 ASCII digits,
    the digits after the first ``keep`` ones cleared: three uint64 arrays."""
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    top = high // 10 ** 8
    mid = high - top * 10 ** 8
    words = [(top + ord("0")).astype("<u8") << np.uint64(56)]
    for group in (mid, low):
        head = group // 10000
        words.append(np.take(tab.quads, head)
                     | np.take(tab.quads, group - head * 10000) << np.uint64(32))
    words[1] &= np.take(tab.keep[1], keep)
    words[2] &= np.take(tab.keep[2], keep)
    return words


def float_text(values, seps):
    """``repr`` of each number of ``values``, each followed by a separator.

    ``values`` is a 1-d float64 array whose length is a multiple of
    ``len(seps)``; number i is followed by ``seps[i % len(seps)]``, the
    last number by nothing. For one separator this is
    ``seps[0].join(map(repr, values))``.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    count, period = len(x), len(seps)
    if not count:
        return ""
    tab = _tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15) & (a.view(np.uint64) & _MANTISSA != 0)
    digits, e10, n, inexact = _shortest(np.where(fast, a, 1.0), tab)
    zero = a == 0
    digits[zero] = 0              # the 1.0 put in its place reads "1.0"
    fallback = np.flatnonzero(~zero & (~fast | inexact))
    # the digits up to the last significant one, and up to the one after
    # the point (e10 + 2 <= 1 <= n when e10 < 0)
    words = _digit_words(digits, np.maximum(n, e10 + 2), tab)
    q = np.maximum(e10 + 1, 0)
    top = int(q.max())
    for w in range((6 + top) // 8 + 1 if top else 0):   # words up to a point
        down = words[w] >> np.uint64(8)
        if w < 2:
            down |= words[w + 1] << np.uint64(56)
        words[w] = ((down & np.take(tab.down[w], q))
                    | (words[w] & np.take(tab.stay[w], q))
                    | np.take(tab.point[w], q))
    words[0] |= np.take(tab.leads, 5 * np.signbit(x) + 4 + np.minimum(e10, 0))

    # one row per number: its record, then its separator; a number left to
    # repr holds "%r" instead, filled in by one % at the end
    if fallback.size:
        seps = [s.replace("%", "%%") for s in seps]
    seps = [s.encode("ascii") for s in seps]
    stride = -(-(24 + max(map(len, seps))) // 8) * 8     # whole words
    template = np.zeros((period, stride), dtype=np.uint8)
    for row, sep in zip(template, seps):
        row[24:24 + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    grid = np.empty((count, stride), dtype=np.uint8)
    grid.reshape(-1, period, stride)[:] = template
    grid[-1, 24:] = 0
    cells = grid.view("<u8")
    for w, word in enumerate(words):
        cells[:, w] = word
    if fallback.size:
        grid[fallback, :24] = 0
        grid[fallback, :2] = np.frombuffer(b"%r", dtype=np.uint8)
    text = grid.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(x[fallback].tolist()) if fallback.size else text
