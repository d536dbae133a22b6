"""CSV cell text rendered in numpy: exactly '%.17g' % v for each float64
cell, block by block, without a Python call per cell. Integer values below
2**53 come out as plain integers ('%.17g' % 5.0 is '5').

Digits come from integer-exact arithmetic on float64: k = floor(log10|x|),
corrected from the integer result, and y = |x| * 10**(16 - k) as a Dekker
two-product against a double-double table of powers of ten, rounded half-even
to a 17-digit integer. y's computed error is below 1e-14, so only cells within
1e-9 of a rounding tie, and cells with |x| outside [1e-280, 1e280], take
Python's own '%.16e' digits.
"""

import functools
import types

import numpy as np

# Each cell gets one _CELL-byte slot of this layout:
#   0 sign | 1-5 "0.000" | 6-39 digit i at 6 + 2i, then a point slot |
#   40 'e' | 41 exponent sign | 42-44 exponent digits | 45 separator.
# The row of _tables().template for the cell's class keeps a byte (0xFF),
# sets it to a constant, or drops it (NUL). Each block's NULs are then deleted
# by one bytes.translate call. The classes, for k the decimal exponent and sd
# the significant digits:
_FIXED = 0  # + (k + 4) * 17 + sd - 1: %g's fixed notation, -4 <= k <= 16
_EXPONENTIAL = _FIXED + 21 * 17  # + (2 * (k < 0) + (|k| >= 100)) * 17 + sd - 1
_ZERO, _NAN, _INF = range(_EXPONENTIAL + 4 * 17, _EXPONENTIAL + 4 * 17 + 3)
_CELL, _DIGITS, _EXP, _SEP = 46, 6, 40, 45
_FAST = 280  # cells with 1e-280 <= |x| <= 1e280 get their digits in numpy
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _split(a):
    """Dekker split: hi + lo == a, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The renderer's read-only lookup tables, built on first use."""
    template = np.zeros((_INF + 1, _CELL), np.uint8)
    template[:, [0, _SEP]] = 0xFF
    digit = [_DIGITS + 2 * i for i in range(17)]
    for sd in range(1, 18):
        for k in range(-4, 17):
            row = template[_FIXED + (k + 4) * 17 + sd - 1]
            if k < 0:
                row[1:2 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
            row[digit[:max(k + 1, sd)]] = 0xFF
            if sd > k + 1 >= 1:
                row[digit[k] + 1] = ord(".")
        for form in range(4):  # exponent below zero, exponent of three digits
            row = template[_EXPONENTIAL + form * 17 + sd - 1]
            row[digit[:sd]] = 0xFF
            if sd > 1:
                row[digit[0] + 1] = ord(".")
            row[_EXP:_EXP + 2] = ord("e"), ord("-" if form >= 2 else "+")
            row[_EXP + 2 + (form % 2 == 0):_SEP] = 0xFF
    template[_ZERO, 1] = ord("0")
    template[[_NAN, _INF], 1:4] = np.frombuffer(b"naninf", np.uint8).reshape(2, 3)
    template[_NAN, 0] = 0

    n = np.arange(10000)
    quads = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], 1)
    trailing_zeros = np.argmax(quads[:, ::-1] != 0, axis=1)
    trailing_zeros[0] = 4
    # 10**(16 - k) as a double-double hi + lo, from exact integers
    hi, lo = [], []
    for j in range(16 + _FAST + 2, 16 - _FAST - 3, -1):
        num, den = 10 ** max(j, 0), 10 ** -min(j, 0)
        hi.append(num / den)  # int / int is correctly rounded
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (h_den * den))
    hi = np.array(hi)
    return types.SimpleNamespace(
        template=template, trailing_zeros=trailing_zeros,
        quads=(quads + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        hi=hi, hi_parts=_split(hi), lo=np.array(lo))


def _decimal17(n, quads):
    """Five 4-digit groups of non-negative int64 values below 10**17, the
    first of one digit, and their 17 ASCII digits."""
    groups = np.empty((len(n), 5), np.intp)
    groups[:, 0] = n // 10**16
    rem = n - groups[:, 0] * 10**16
    high = rem // 10**8
    low = rem - high * 10**8
    groups[:, 1] = high // 10**4
    groups[:, 2] = high - groups[:, 1] * 10**4
    groups[:, 3] = low // 10**4
    groups[:, 4] = low - groups[:, 3] * 10**4
    return groups, quads[groups].view(np.uint8)[:, 3:]


def _round17(a, k, tables):
    """floor and half-even round of y = a * 10**(16 - k), and whether y is
    within 1e-9 of a tie; y's computed error is below 1e-14."""
    i = k + (_FAST + 2)
    a_hi, a_lo = _split(a)
    t_hi, t_lo = tables.hi_parts
    p = a * tables.hi[i]  # Dekker two-product: p + e == a * hi exactly
    e = ((a_hi * t_hi[i] - p) + a_hi * t_lo[i] + a_lo * t_hi[i]) + a_lo * t_lo[i]
    whole = np.floor(p)
    f = (p - whole) + (e + a * tables.lo[i])
    f_whole = np.floor(f)
    frac = f - f_whole
    whole = whole.astype(np.int64) + f_whole.astype(np.int64)
    return whole, whole + (frac > 0.5), np.abs(frac - 0.5) < 1e-9


def _float_cells(x, tables):
    """Template class and digit bytes of each float64 cell, as '%.17g'."""
    a = np.abs(x)
    fast = (a >= 10.0**-_FAST) & (a <= 10.0**_FAST)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, n, slow = _round17(a, k, tables)
    # log10 may be one off next to a power of ten: the integer part says so
    step = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        whole[redo], n[redo], slow[redo] = _round17(a[redo], k[redo], tables)
        slow[redo] |= (whole[redo] < 10**16) | (whole[redo] >= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    k[carry] += 1
    special = ~np.isfinite(x) | (x == 0)
    # ties and |x| outside the fast range take Python's own digits
    for j in np.flatnonzero(slow | ~(fast | special)):
        text = "%.16e" % abs(float(x[j]))
        n[j], k[j] = int(text[0] + text[2:18]), int(text[19:])
    groups, digits = _decimal17(n, tables.quads)
    # significant digits: 17 less the trailing zeros, group by group
    trailing = tables.trailing_zeros[groups[:, 4]]
    at = np.flatnonzero(groups[:, 4] == 0)
    for g in (3, 2, 1):
        trailing[at] += tables.trailing_zeros[groups[at, g]]
        at = at[groups[at, g] == 0]
    sd = 17 - trailing
    fixed = (k >= -4) & (k <= 16)
    cls = np.where(fixed, _FIXED + (k + 4) * 17,
                   _EXPONENTIAL + 17 * (2 * (k < 0) + (np.abs(k) >= 100))) + sd - 1
    if special.any():
        cls[x == 0] = _ZERO
        cls[np.isnan(x)] = _NAN
        cls[np.isinf(x)] = _INF
    exp = tables.quads[np.abs(k)].view(np.uint8).reshape(-1, 4)[:, 1:]
    return cls, digits, exp


def render(block):
    """CSV bytes of a 2-D block of rows: '%.17g' % float(v) for each cell,
    ',' between cells and a newline after each row."""
    tables = _tables()
    x = np.asarray(block, np.float64)
    rows, cols = x.shape
    cls, digits, exp = _float_cells(x.ravel(), tables)
    cell = np.full((rows, cols, _CELL), 0xFF, np.uint8)
    cell[:, :, _SEP] = ord(",")
    cell[:, -1, _SEP] = ord("\n")
    cell[:, :, 0] = np.where(np.signbit(x), ord("-"), 0)
    cell[:, :, _DIGITS:_EXP:2] = digits.reshape(rows, cols, 17)
    cell[:, :, _EXP + 2:_SEP] = exp.reshape(rows, cols, 3)
    np.bitwise_and(tables.template[cls.reshape(rows, cols)], cell, out=cell)
    return cell.tobytes().translate(None, b"\0")
