"""Squared-error loss oracles over masked observations.

A loss oracle exposes value(A) and gradient(A) for the solver; both must be
pure functions of A. The same oracle form covers the single-task objective,
the pooled multi-task objective (concatenated samples) and the debiasing
objective (observations re-centered by a fixed base matrix).

Over samples drawn with replacement the loss depends on the data only through
per-cell statistics, built once with np.bincount: the sample count W, the cell
mean Ybar (0 where W = 0) and the within-cell residual sum of squares rss0.
Then, exactly,

    sum_i (y_i - A[r_i, c_i])^2 = sum W * (A - Ybar)^2 + rss0,

so value and gradient are dense array arithmetic on m1 x m2 arrays. The
(A - Ybar) form keeps the loss accurate when entries are large next to the
noise, where expanding the square would cancel terms of size sum y^2.
"""

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible, concat_observations


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
        # Per-observation temporaries are updated in place: a pooled loss
        # can hold 1e5+ observations.
        cell = rows * m2
        cell += cols
        size = m1 * m2
        counts = np.bincount(cell, minlength=size).astype(np.float64)
        observed = counts > 0
        means = np.bincount(cell, weights=values, minlength=size)
        np.divide(means, counts, out=means, where=observed)
        resid = means[cell]
        np.subtract(values, resid, out=resid)
        # One correction pass makes each mean exact for repeated equal values
        # and accurate to about one rounding otherwise.
        means += np.divide(np.bincount(cell, weights=resid, minlength=size),
                           counts, out=np.zeros(size), where=observed)
        del resid
        resid = means[cell]
        np.subtract(values, resid, out=resid)
        self._set(counts.reshape(m1, m2), means.reshape(m1, m2),
                  float(resid @ resid), rows.size)

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
        m1, m2 = check_compatible(datasets)
        rows, cols, values = concat_observations(datasets)
        return cls(m1, m2, rows, cols, values)

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
