"""Observation containers for masked-matrix regression tasks, and the one
check of (row, col, value) observations that every container runs."""

from dataclasses import dataclass

import numpy as np


def checked_triplets(m1: int, m2: int, rows, cols, values):
    """rows, cols and values as contiguous int64, int64 and float64 1-d arrays
    of one length, after checking that m1, m2 >= 1, that every (row, col)
    lies inside m1 x m2 and that every value is finite; ValueError otherwise."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if m1 < 1 or m2 < 1:
        raise ValueError(f"matrix dims must be positive, got {m1} x {m2}")
    if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
        raise ValueError("rows, cols and values must be 1-d arrays of equal length")
    if rows.size and (rows.min() < 0 or rows.max() >= m1 or cols.min() < 0 or cols.max() >= m2):
        raise ValueError("observation coordinates out of matrix bounds")
    if not np.all(np.isfinite(values)):
        raise ValueError("observed values contain non-finite entries")
    return rows, cols, values


@dataclass(frozen=True)
class MaskedDataset:
    """One task's observations of an m1 x m2 matrix.

    rows/cols are the sampled coordinates (0-based) and values the noisy
    entries observed there. Repeated coordinates are legitimate distinct
    samples (sampling is with replacement). task_id 0 marks the target,
    1..K the sources; it is never negative.
    """

    m1: int
    m2: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    task_id: int = 0

    def __post_init__(self):
        rows, cols, values = checked_triplets(self.m1, self.m2, self.rows, self.cols,
                                              self.values)
        if rows.size < 1:
            raise ValueError("dataset must contain at least one observation")
        if self.task_id < 0:
            raise ValueError(f"task_id must be nonnegative, got {self.task_id}")
        for arr in (rows, cols, values):
            arr.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.rows.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m1, self.m2)

    def subset(self, idx) -> "MaskedDataset":
        idx = np.asarray(idx)
        return MaskedDataset(
            self.m1, self.m2, self.rows[idx], self.cols[idx], self.values[idx], self.task_id
        )


def check_compatible(datasets) -> tuple[int, int]:
    """All datasets must describe matrices of one shape; returns that shape."""
    if not datasets:
        raise ValueError("need at least one dataset")
    m1, m2 = datasets[0].m1, datasets[0].m2
    for ds in datasets[1:]:
        if (ds.m1, ds.m2) != (m1, m2):
            raise ValueError(
                f"task {ds.task_id} has shape {ds.m1}x{ds.m2}, expected {m1}x{m2}"
            )
    return m1, m2

