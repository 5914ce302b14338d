"""Rows with the Gram matrix of a tall ``[X y]``: a least-squares fit on any
subset of its columns is the same fit on the same columns of such rows
(Miller, Subset Selection in Regression, 2002, ch. 2), so that no fit reads
the tall rows again.
"""

from __future__ import annotations

import numpy as np

from .series import RecordSeries

# Rows per block of r_factor: blocks that stay in cache halve the time of one
# pass (2.6 against 5.0 ms for 6,384 x 32, one OpenBLAS thread of a 2-vCPU
# x86 machine) and keep np.linalg.qr's copies small.
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


def calendar_rows(series: RecordSeries, xy: np.ndarray, varying: list[int]) -> np.ndarray:
    """Rows with the Gram matrix of ``xy``, one row per hour of ``series``,
    whose columns other than ``varying`` are constant within each calendar
    group (hour of day; Saturday, Sunday or other day; holiday or not).

    ``xy.T @ xy`` is then the sum over groups of the group's size times the
    outer product of its mean row, plus the Gram matrix of the ``varying``
    columns' deviations from their group means (Lovell, JASA 58, 1963). The
    rows are one per group, its mean row times the root of its size; then
    the R factor of the deviations, taken in a second pass over the rows
    (Chan, Golub and LeVeque, Am. Stat. 37, 1983), in the ``varying``
    columns; then zero rows up to the ``min(n, m + 1)`` rows of ``xy``'s own
    R factor, so that no fit runs short of rows where one on ``xy`` would
    not. At most 144 + ``len(varying)`` rows in all.
    """
    n, width = xy.shape
    key = series.hour_of_day + 24 * (np.maximum(series.weekday - 4, 0) + 3 * series.is_holiday)
    # Groups by bincount, not by np.unique, whose sort would page in about
    # 128 KiB more of numpy's code for a run that sorts nothing else.
    counts = np.bincount(key)
    groups = counts.nonzero()[0]
    g, c = len(groups), min(n, len(varying))
    index = np.empty(len(counts), np.intp)
    index[groups] = np.arange(g)
    inverse, counts = index.take(key), counts[groups]
    roots = np.sqrt(counts)
    # Some row of each group, whichever a repeated index keeps: the columns
    # outside varying are the same in every row of a group.
    some = np.empty(g, np.intp)
    some[inverse] = np.arange(n)
    rows = np.zeros((max(g + c, min(n, width)), width))
    np.multiply(xy[some], roots[:, None], out=rows[:g])
    deviations = np.empty((n, len(varying)), order="F")
    for d, j in enumerate(varying):
        means = np.bincount(inverse, weights=xy[:, j]) / counts
        rows[:g, j] = means * roots
        np.subtract(xy[:, j], means.take(inverse), out=deviations[:, d])
    rows[g : g + c, varying] = r_factor(deviations)
    return rows
