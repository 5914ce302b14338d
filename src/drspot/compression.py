"""Rows with the Gram matrix of a tall ``[X y]``: a least-squares fit on any
subset of its columns is the same fit on the same columns of such rows
(Miller, Subset Selection in Regression, 2002, ch. 2), so that no fit reads
the tall rows again. The calendar rows of a training ``[X y]`` are built
from its series, one hour per calendar group and the few columns that vary
within a group, and the copies among X's columns are found per group too.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .series import RecordSeries

# Rows per block of r_factor. The only input taller than one block is
# calendar_rows' n x 5 deviation buffer, and for it the blocks bound the
# memory of np.linalg.qr's copies. Against one QR of the whole F-order buffer
# (one OpenBLAS thread, 2-vCPU x86): a traced peak of 45 against 252 KiB and
# 0.151 against 0.074 ms at 6,384 rows; 48 against 652 KiB and 0.351 against
# 0.588 ms at 16,632 rows.
QR_BLOCK_ROWS = 1024


def r_factor(a: np.ndarray) -> np.ndarray:
    """The Householder R factor of ``a``, ``min(len(a), a.shape[1])`` rows:
    that of the stacked R factors of blocks of ``QR_BLOCK_ROWS`` rows (TSQR;
    Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34, 2012).
    Householder QR is columnwise backward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Thm 19.4), so each column of R
    keeps its own column's norm."""
    starts = range(0, max(len(a), 1), QR_BLOCK_ROWS)  # one empty block when a has no rows
    blocks = [np.linalg.qr(a[i : i + QR_BLOCK_ROWS], mode="r") for i in starts]
    # Householder QR returns an upper triangular matrix as it is (each
    # reflector is the identity), so one block is its own R.
    return blocks[0] if len(blocks) == 1 else np.linalg.qr(np.vstack(blocks), mode="r")


def calendar_rows(
    series: RecordSeries, design: Callable, spec: Sequence[str], varying: list[int], holdout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows with the Gram matrix of the training ``[X y]`` of ``series``, X
    being ``design(series, spec)`` and y the spot price, whose columns other
    than ``varying`` are constant within each calendar group (hour of day;
    Saturday, Sunday or other day; holiday or not); and, for each column of
    X, the index of the earliest column with the same bytes in X and in
    ``holdout``, its holdout rows.

    ``[X y].T @ [X y]`` is then the sum over groups of the group's size times
    the outer product of its mean row, plus the Gram matrix of the
    ``varying`` columns' and y's deviations from their group means (Lovell,
    JASA 58, 1963). The rows are one per group, its mean row times the root
    of its size; then the R factor of the deviations, taken in a second pass
    over the rows (Chan, Golub and LeVeque, Am. Stat. 37, 1983), in the
    ``varying`` columns and y's; then zero rows up to the ``min(n, m + 1)``
    rows of ``[X y]``'s own R factor, so that no fit runs short of rows where
    one on ``[X y]`` would not. At most 144 + ``len(varying) + 1`` rows in
    all. ``design`` (:func:`drspot.regression.design_matrix`) builds X on
    one hour of each group, and on the n hours only the ``varying`` columns,
    so the n x m X is never made.
    """
    n, width = len(series), len(spec) + 1
    key = series.hour_of_day + 24 * (np.maximum(series.weekday - 4, 0) + 3 * series.is_holiday)
    # Groups by bincount, not by np.unique, whose sort would page in about
    # 128 KiB more of numpy's code for a run that sorts nothing else.
    counts = np.bincount(key)
    groups = counts.nonzero()[0]
    g = len(groups)
    index = np.empty(len(counts), np.intp)
    index[groups] = np.arange(g)
    inverse, counts = index.take(key), counts[groups]
    roots = np.sqrt(counts)
    # Some hour of each group, whichever a repeated index keeps: the columns
    # outside varying are the same in every hour of a group.
    some = np.empty(g, np.intp)
    some[inverse] = np.arange(n)
    top = design(series._view(some), spec)
    # The varying columns and y on the n hours, in one Fortran buffer. A spec
    # starts with the intercept: written from the last column back, the
    # intercept lands in y's column, which y then takes.
    columns = [*varying, width - 1]
    vary = np.empty((n, len(columns)), order="F")
    design(series, ("intercept", *(spec[j] for j in reversed(varying))), out=vary[:, ::-1])
    vary[:, -1] = series.spot_price
    earliest = _earliest_equal(top, dict(zip(varying, vary.T.view(np.int64))), inverse, holdout)
    rows = np.zeros((max(g + min(n, len(columns)), min(n, width)), width))
    np.multiply(top, roots[:, None], out=rows[:g, : width - 1])
    for d, j in enumerate(columns):
        means = np.bincount(inverse, weights=vary[:, d]) / counts
        rows[:g, j] = means * roots
        np.subtract(vary[:, d], means.take(inverse), out=vary[:, d])
    rows[g : g + len(columns), columns] = r_factor(vary)
    return rows, earliest


def _earliest_equal(top: np.ndarray, hours: dict, inverse: np.ndarray, holdout: np.ndarray) -> np.ndarray:
    """For each column of X, the index of the earliest column with the same
    bytes in X and in ``holdout``, from ``top``, X on one hour of each
    group, and ``hours``, which maps each column that may vary within a
    group to its n hours as int64, whose comparison is one of bytes (0.0 is
    not -0.0, a NaN is itself). Every group has an hour, so two columns
    whose bytes are the same in every hour of each group are equal exactly
    when their rows of ``top`` are, and equal to no column whose bytes vary
    within a group; columns of that kind are compared on their n hours."""
    earliest, seen = np.arange(top.shape[1]), {}
    for j in range(len(earliest)):
        group = top[:, j].view(np.int64)
        varies = j in hours and not np.array_equal(hours[j], group.take(inverse))
        key = holdout[:, j].tobytes(), None if varies else group.tobytes()
        same = seen.setdefault(key, [])
        earliest[j] = next((i for i in same if not varies or np.array_equal(hours[i], hours[j])), j)
        if earliest[j] == j:
            same.append(j)
    return earliest
