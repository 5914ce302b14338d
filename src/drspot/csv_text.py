"""CSV text of numpy columns, written as bytes.

The write-side twin of :mod:`drspot.plain_blocks`. A column is rendered as
a ``(places, n)`` uint8 grid: grid column i holds cell i, one row per
place (for a float: the sign, the integer digits, the point and the
fraction digits), and NUL where the cell has no character. A file's lines
are its grids side by side between ``,`` and ``\\n``, NULs dropped, a
block of rows at a time. No Python string is made per cell. Stamps are
numpy's ISO 8601 cast of ``datetime64`` minutes to bytes.

Floats are written as ``repr`` writes them: the shortest decimal that reads
back as the same double, and the nearest to it among those (Steele and
White, PLDI 1990; Adams, PLDI 2018). For ±0.0 and finite 1e-4 <= |x| <
1e15, where ``repr`` uses fixed notation, that decimal is found with exact
arithmetic in numpy (see :func:`_shortest`); ``repr`` writes every other
cell, and the few that the arithmetic leaves undecided.
"""

from __future__ import annotations

from contextlib import ExitStack
from itertools import accumulate
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

# numpy 1.23 turns uint64 mixed with int64 into float64, so every integer
# that meets a uint64 array is a uint64 here.
_U = np.uint64
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)  # 10**0 .. 10**19
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)  # 5**0 .. 5**20, below 2**47
# Exact doubles 10**0 .. 10**18, and the doubles nearest 10**-5 .. 10**16.
_SCALES = np.array([float(10**k) for k in range(19)])
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 17)])
# The doubles written from integers.
_LOW, _HIGH = 1e-4, 1e15
_FRACTION_DIGITS = 19  # so that a fraction is an integer below 10**19 < 2**64
_HIDDEN_BIT = _U(1 << 52)
_LOW32 = _U(0xFFFFFFFF)
_TEN = _U(10)
# Rows rendered at a time, and lines assembled and written at a time:
# numpy's temporaries stay small enough for the allocator to reuse, since
# fresh pages for large ones cost more than the arithmetic.
_BLOCK_VALUES = 4096
_BLOCK_ROWS = 512


def _product(m: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m * f`` for ``m`` below 2**53 and ``f`` below 2**48, exactly, as a
    high and a low uint64 limb, from the products of 32-bit halves."""
    m1, m0 = m >> _U(32), m & _LOW32
    f1, f0 = f >> _U(32), f & _LOW32
    low = m0 * f0
    mid = m0 * f1 + m1 * f0  # below 2**54
    lo = low + (mid << _U(32))
    return m1 * f1 + (mid >> _U(32)) + (lo < low), lo


def _rounded(rest: np.ndarray, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For numbers ``k * unit + rest`` (0 <= rest < unit): whether the
    multiple of ``unit`` nearest each is the one above, whether that is a
    tie, and twice the distance to it."""
    twice = rest << _U(1)
    return twice > unit, twice == unit, np.minimum(twice, (unit << _U(1)) - twice)


def _decimals(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest decimals of 16 or 17 digits of doubles ``a`` of decade
    ``e`` (1e-4 <= a < 1e15), as digits ``c`` and a count ``q`` of fraction
    digits, and a mask of the cells decided.

    With ``a = m * 2**-k`` (``m`` below 2**53) and ``s = 16 - e`` fraction
    digits (2 to 20), ``N = m * 5**s`` is exact in two limbs, and ``a *
    10**s = N / 2**(k - s)`` (a shift of 1 to 46). Its integer part ``d``
    and the rest give the decimals of 17 and of 16 digits nearest ``a``. Such
    a decimal ``D * 10**-s`` lies strictly inside ``a``'s rounding interval,
    half a unit in the last place either side, when ``2 * |D * 2**(k - s) -
    N| < 5**s``; ``5**s`` is odd, so it never lies on the edge. The decimal
    of 16 digits is taken when it lies inside, that of 17 digits otherwise.
    Undecided: ties, powers of two (whose interval is narrower below) and
    more than ``_FRACTION_DIGITS`` fraction digits."""
    fraction, exponent = np.frexp(a)
    m = np.ldexp(fraction, 53).astype(np.uint64)
    s = 16 - e
    shift = (53 - s - exponent).astype(np.uint64)
    five = _POW5[s]
    hi, lo = _product(m, five)
    # N >> shift: the high limb moves up by 64 - shift, in two steps so that
    # no shift reaches 64.
    d = ((hi << _U(1)) << (_U(63) - shift)) | (lo >> shift)
    unit = _U(1) << shift
    rest = lo & (unit - _U(1))
    up17, tie17, error17 = _rounded(rest, unit)
    k = d // _TEN  # d = 10 * k + t: the 16-digit decimals are k and k + 1
    up16, tie16, error16 = _rounded((d - k * _TEN) * unit + rest, unit * _TEN)
    ok16 = ~tie16 & (error16 < five)
    ok17 = ~(ok16 | tie16 | tie17) & (error17 < five) & (s <= _FRACTION_DIGITS)
    return np.where(ok16, k + up16, d + up17), s - ok16, (ok16 | ok17) & (m != _HIDDEN_BIT)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest decimals of the magnitudes of doubles ``x``, as digits
    ``c`` (uint64) and a count ``q`` of fraction digits, so that the decimal
    is ``c * 10**-q``, and a mask of the cells decided: 0 and finite 1e-4 <=
    |x| < 1e15, but for the few that :func:`_decimals` leaves undecided.
    ``c`` and ``q`` are 0 where undecided.

    With ``e`` the decade of ``|x|``, ``c = rint(|x| * 10**(14 - e))`` is the
    only candidate with 15 digits or fewer (DBL_DIG): it is one when ``c /
    10**(14 - e)``, one correctly rounded division of exact doubles, reads
    back as ``|x|``. Any other cell needs 16 or 17 digits."""
    a = np.abs(x)
    done = np.isfinite(a)
    a[~done] = 1.0  # no comparison meets a NaN
    zero = a == 0
    done &= (a < _HIGH) & ((a >= _LOW) | zero)
    a[~done | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    e -= a < _DECADES[e + 5]
    e += a >= _DECADES[e + 6]
    q = 14 - e
    scale = _SCALES[q]
    c = np.rint(a * scale)
    rest = np.flatnonzero(done & ~zero & ((c >= 1e15) | (c / scale != a)))
    done &= ~zero
    c = c.astype(np.uint64)
    if len(rest):
        c[rest], q[rest], done[rest] = _decimals(a[rest], e[rest])
    c *= done
    q *= done
    return c, q, done | zero


def _digits(rows: np.ndarray, value: np.ndarray) -> None:
    """Write the decimal digits of ``value`` into ``rows`` as numbers 0 to
    9, the last digit in the last row, in place on two buffers."""
    value, above, tens = value.copy(), np.empty_like(value), np.empty_like(value)
    for row in rows[::-1]:
        np.floor_divide(value, _TEN, out=above)
        np.multiply(above, _TEN, out=tens)
        np.subtract(value, tens, out=row, casting="unsafe")
        value, above = above, value


def _integer_digits(rows: np.ndarray, value: np.ndarray) -> None:
    """The digits of ``value`` as characters in ``rows``, the units in the
    last row, and NUL for leading zeros."""
    _digits(rows, value)
    shown = value >= _POW10[len(rows) - 1 :: -1, None]
    shown[-1] = True
    rows += np.uint8(ord("0"))
    rows *= shown


def _fraction_digits(rows: np.ndarray, value: np.ndarray) -> None:
    """The digits of ``value`` as characters in ``rows``, the last in the
    last row, and NUL for trailing zeros but in the first row."""
    _digits(rows, value)
    shown = rows != 0
    for i in range(len(rows) - 2, 0, -1):
        shown[i] |= shown[i + 1]
    shown[0] = True
    rows += np.uint8(ord("0"))
    rows *= shown


def float_grid(values) -> np.ndarray:
    """The ``(places, n)`` grid of ``repr`` of each double of ``values``."""
    x = np.asarray(values, dtype=float).reshape(-1)
    c, q, done = _shortest(x)
    top = float(np.max(np.abs(x), where=done, initial=0.0))
    width = len(str(int(top)))
    places = max(int(q.max(initial=0)), 1)
    others = np.flatnonzero(~done)
    texts = [repr(v).encode() for v in x[others].tolist()]

    grid = np.zeros((max(2 + width + places, max(map(len, texts), default=0)), len(x)), dtype=np.uint8)
    grid[0] = np.signbit(x)
    grid[0] *= np.uint8(ord("-"))
    grid[1 + width] = ord(".")
    # The integer part is x's: no double's shortest decimal crosses an integer.
    whole = np.floor(np.abs(x), where=done, out=np.zeros(len(x))).astype(np.uint64)
    _integer_digits(grid[1 : 1 + width], whole)
    fraction = (c - whole * _POW10[q]) * _POW10[places - q]  # places digits each
    _fraction_digits(grid[2 + width : 2 + width + places], fraction)
    if len(others):
        cells = np.array(texts, dtype=f"S{len(grid)}").view(np.uint8).reshape(len(texts), len(grid))
        grid[:, others] = cells.T
    return grid


# The minutes since 1970-01-01 of 0001-01-01 and of 10000-01-01.
_FIRST, _PAST = np.array(["0001-01-01", "10000-01-01"], dtype="datetime64[m]").view(np.int64)


def stamp_grid(times: np.ndarray) -> np.ndarray:
    """The ``(16, n)`` grid of ``YYYY-MM-DDTHH:MM`` stamps of a datetime64
    column, as ``datetime.isoformat(timespec="minutes")`` writes them:
    seconds are cut off. Raises ValueError for a year outside 1 to 9999 or
    NaT. The text is numpy's ISO 8601 cast of the minutes to bytes."""
    minutes = np.asarray(times, dtype="datetime64[m]")
    values = minutes.view(np.int64)
    if len(values) and (values.min() < _FIRST or values.max() >= _PAST):
        raise ValueError("stamps are written for the years 1 to 9999 only")
    return minutes.astype("S16").view(np.uint8).reshape(-1, 16).T


def cell_strings(grid: np.ndarray) -> list[str]:
    """The text of each cell of a grid."""
    return b"".join(map(bytes, _lines([grid]))).decode("ascii").split("\n")[:-1]


def _grids(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The grids of equal-length ``columns`` by dtype (stamps, 0/1 flags,
    floats), floats rendered ``_BLOCK_VALUES`` values a call, each cut to
    the places its cells use."""
    n, zero = len(columns[0]), np.uint8(ord("0"))
    grids = [stamp_grid(c) if c.dtype.kind == "M" else (c + zero)[None] if c.dtype == bool else None for c in columns]
    floats = [i for i, grid in enumerate(grids) if grid is None]
    step = max(_BLOCK_VALUES // max(n, 1), 1)
    for start in range(0, len(floats), step):
        group = floats[start : start + step]
        grid = float_grid(np.concatenate([columns[i] for i in group]))
        for j, i in enumerate(group):
            part = grid[:, j * n : (j + 1) * n]
            used = np.flatnonzero(part.any(axis=1))
            grids[i] = part[used[0] : used[-1] + 1] if len(used) else part[:1]
    return grids


def _lines(grids: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The lines of the cells of ``grids`` joined by ``,``: uint8 arrays of
    ``_BLOCK_ROWS`` lines, NULs dropped."""
    n = grids[0].shape[1]
    ends = list(accumulate(len(grid) + 1 for grid in grids))
    lines = np.empty((min(n, _BLOCK_ROWS), ends[-1]), dtype=np.uint8)
    lines[:, [end - 1 for end in ends]] = ord(",")
    lines[:, -1] = ord("\n")
    for first in range(0, n, _BLOCK_ROWS):
        block = lines[: min(n - first, _BLOCK_ROWS)]
        for grid, end in zip(grids, ends):
            block[:, end - 1 - len(grid) : end - 1] = grid[:, first : first + len(block)].T
        yield block[block != 0]


def row_blocks(n: int) -> list[slice]:
    """``n`` rows in the nearest whole number (at least one) of equal
    blocks of ``_BLOCK_VALUES`` rows: no short last block of fixed costs."""
    size = max(-(-n // max(round(n / _BLOCK_VALUES), 1)), 1)
    return [slice(first, first + size) for first in range(0, max(n, 1), size)]


def write_csvs(files: Sequence[tuple]) -> None:
    """:func:`write_csv` of each ``(dest, header, columns)`` in ``files``,
    in one pass over :func:`row_blocks` of the columns, each distinct
    column rendered once."""
    columns = list({id(column): column for *_, file_columns in files for column in file_columns}.values())
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns differ in length")
    with ExitStack() as stack:
        writes = []
        for dest, header, _ in files:
            if isinstance(dest, (str, Path)):
                write = stack.enter_context(open(dest, "wb")).write
            else:
                write = lambda data, dest=dest: dest.write(bytes(data).decode("ascii"))  # noqa: E731
            write((",".join(header) + "\n").encode("ascii"))
            writes.append(write)
        for rows in row_blocks(n):
            grids = dict(zip(map(id, columns), _grids([column[rows] for column in columns])))
            for write, (*_, file_columns) in zip(writes, files):
                for lines in _lines([grids[id(column)] for column in file_columns]):
                    write(lines)
            del grids  # freed before the next block is rendered


def write_csv(dest: str | Path | IO[str], header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write the numpy ``columns`` under ``header`` as ``csv.writer`` with
    ``lineterminator="\\n"`` writes their cells: ``datetime64`` as stamps,
    ``bool`` as 1 and 0, others as floats. A path gets bytes; a text
    stream the ASCII text."""
    write_csvs([(dest, header, columns)])
