"""Squared-error loss oracles over masked observations.

A loss oracle exposes value(A) and gradient(A) for the solver; both must be
pure functions of A. The same oracle form covers the single-task objective,
the pooled multi-task objective (every task's samples) and the debiasing
objective (observations re-centered by a fixed base matrix).

Over samples drawn with replacement the loss depends on the data only through
per-cell statistics, built once with np.bincount (task by task for a pooled
loss, so the observations are never concatenated): the sample count W, the cell
mean Ybar (0 where W = 0) and the within-cell residual sum of squares rss0.
Then, exactly,

    sum_i (y_i - A[r_i, c_i])^2 = sum W * (A - Ybar)^2 + rss0,

so value and gradient are dense array arithmetic on m1 x m2 arrays. The
(A - Ybar) form keeps the loss accurate when entries are large next to the
noise, where expanding the square would cancel terms of size sum y^2.
"""

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible


class MaskedSquaredLoss:
    """L(A) = (1/n) sum_i (y_i - A[r_i, c_i])^2 over fixed observations."""

    def __init__(self, m1: int, m2: int, rows, cols, values):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise ValueError("rows, cols and values must be 1-d arrays of equal length")
        if rows.size == 0:
            raise ValueError("loss needs at least one observation")
        if rows.min() < 0 or rows.max() >= m1:
            raise ValueError("row index out of bounds")
        if cols.min() < 0 or cols.max() >= m2:
            raise ValueError("column index out of bounds")
        self._build(m1, m2, [(rows, cols, values)])

    def _build(self, m1, m2, parts):
        """Cell statistics of the observations in parts, a sequence of
        (rows, cols, values) triplets, reduced one triplet at a time so the
        triplets are never concatenated."""
        size = m1 * m2

        # Per-observation temporaries are updated in place: a pooled loss
        # can hold 1e5+ observations.
        def cells():
            for rows, cols, values in parts:
                cell = rows * m2
                cell += cols
                yield cell, values

        def residuals(cell, values):
            resid = means[cell]
            np.subtract(values, resid, out=resid)
            return resid

        counts = np.zeros(size)
        means = np.zeros(size)
        for cell, values in cells():
            counts += np.bincount(cell, minlength=size)
            means += np.bincount(cell, weights=values, minlength=size)
        observed = counts > 0
        np.divide(means, counts, out=means, where=observed)
        # One correction pass makes each mean exact for repeated equal values
        # and accurate to about one rounding otherwise.
        correction = np.zeros(size)
        for cell, values in cells():
            correction += np.bincount(cell, weights=residuals(cell, values), minlength=size)
        means += np.divide(correction, counts, out=correction, where=observed)
        rss0 = 0.0
        for cell, values in cells():
            resid = residuals(cell, values)
            rss0 += float(resid @ resid)
        n = sum(values.size for _, _, values in parts)
        self._set(counts.reshape(m1, m2), means.reshape(m1, m2), rss0, n)

    def _set(self, counts, means, rss0, n):
        self.counts = counts
        self.means = means
        self.rss0 = rss0
        self._n = n
        self._weights = (2.0 / n) * counts

    @classmethod
    def from_dataset(cls, ds: MaskedDataset) -> "MaskedSquaredLoss":
        return cls(ds.m1, ds.m2, ds.rows, ds.cols, ds.values)

    @classmethod
    def from_datasets(cls, datasets) -> "MaskedSquaredLoss":
        """Loss over the pooled observations of every dataset, in the given order."""
        m1, m2 = check_compatible(datasets)
        out = object.__new__(cls)
        out._build(m1, m2, [(ds.rows, ds.cols, ds.values) for ds in datasets])
        return out

    @property
    def n(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def value(self, A) -> float:
        d = A - self.means
        return (float(np.vdot(self.counts * d, d)) + self.rss0) / self._n

    def gradient(self, A, out=None) -> np.ndarray:
        """(2/n) W * (A - Ybar), written into out when given."""
        out = np.subtract(A, self.means, out=out)
        out *= self._weights
        return out

    def shifted(self, base) -> "MaskedSquaredLoss":
        """Loss in D for observations of base + D: values re-centered by base."""
        base = np.asarray(base, dtype=np.float64)
        if base.shape != self.shape:
            raise ValueError("base matrix shape mismatch")
        out = object.__new__(MaskedSquaredLoss)
        means = np.where(self.counts > 0, self.means - base, 0.0)
        out._set(self.counts, means, self.rss0, self._n)
        return out

    def curvature_bound(self) -> float:
        """Lipschitz constant of the gradient: (2/n) * max coordinate multiplicity."""
        return 2.0 * float(self.counts.max()) / self._n
