"""Squared-error loss oracles over masked observations.

A loss oracle exposes value(A), gradient(A) and excess(D) for the solver; each
must be a pure function of its argument. excess(D) is the loss's quadratic
form, L(A + D) - L(A) - <grad L(A), D>, the same for every A. The same oracle
form covers the single-task objective, the pooled multi-task objective (every
task's samples), a cross-validation fold complement (the other folds' samples)
and the debiasing objective (observations re-centered by a fixed base matrix).

Over samples drawn with replacement the loss depends on the data only through
per-cell statistics, built once with np.bincount (dataset by dataset for a
loss over several, so the observations are never concatenated): the sample
count W, the cell mean Ybar (0 where W = 0) and the within-cell residual sum
of squares rss0.
Then, exactly,

    sum_i (y_i - A[r_i, c_i])^2 = sum W * (A - Ybar)^2 + rss0,

so value and gradient are dense array arithmetic on m1 x m2 arrays. The
(A - Ybar) form keeps the loss accurate when entries are large next to the
noise, where expanding the square would cancel terms of size sum y^2.
"""

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible


class MaskedSquaredLoss:
    """L(A) = (1/n) sum_i (y_i - A[r_i, c_i])^2 over fixed observations.

    Built from datasets by from_dataset / from_datasets; the constructor takes
    the cell statistics themselves: counts W, means Ybar, rss0 and n.
    """

    def __init__(self, counts, means, rss0: float, n: int):
        self.counts = counts
        self.means = means
        self.rss0 = rss0
        self.n = n
        self._weights = (2.0 / n) * counts

    @classmethod
    def from_dataset(cls, ds: MaskedDataset) -> "MaskedSquaredLoss":
        return cls.from_datasets([ds])

    @classmethod
    def from_datasets(cls, datasets) -> "MaskedSquaredLoss":
        """Loss over the pooled observations of every dataset, in the given
        order, reduced one dataset at a time so the observations are never
        concatenated."""
        m1, m2 = check_compatible(datasets)
        size = m1 * m2

        # Per-observation temporaries are updated in place: a pooled loss
        # can hold 1e5+ observations.
        def cells():
            for ds in datasets:
                cell = ds.rows * m2
                cell += ds.cols
                yield cell, ds.values

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
        n = sum(ds.n for ds in datasets)
        return cls(counts.reshape(m1, m2), means.reshape(m1, m2), rss0, n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def value(self, A) -> float:
        d = A - self.means
        return (float(np.vdot(self.counts * d, d)) + self.rss0) / self.n

    def gradient(self, A, out=None) -> np.ndarray:
        """(2/n) W * (A - Ybar), written into out when given."""
        out = np.subtract(A, self.means, out=out)
        out *= self._weights
        return out

    def excess(self, D) -> float:
        """L(A + D) - L(A) - <grad L(A), D> for every A: (1/n) sum W * D^2."""
        return float(np.vdot(self.counts * D, D)) / self.n

    def shifted(self, base) -> "MaskedSquaredLoss":
        """Loss in D for observations of base + D: values re-centered by base."""
        base = np.asarray(base, dtype=np.float64)
        if base.shape != self.shape:
            raise ValueError("base matrix shape mismatch")
        means = np.where(self.counts > 0, self.means - base, 0.0)
        return MaskedSquaredLoss(self.counts, means, self.rss0, self.n)

    def curvature_bound(self) -> float:
        """Lipschitz constant of the gradient: (2/n) * max coordinate multiplicity."""
        return 2.0 * float(self.counts.max()) / self.n
