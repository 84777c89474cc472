"""Observation containers for masked-matrix regression tasks."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaskedDataset:
    """One task's observations of an m1 x m2 matrix.

    rows/cols are the sampled coordinates (0-based) and values the noisy
    entries observed there. Repeated coordinates are legitimate distinct
    samples (sampling is with replacement). task_id 0 marks the target,
    1..K the sources.
    """

    m1: int
    m2: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    task_id: int = 0

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError(f"matrix dims must be positive, got {self.m1} x {self.m2}")
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be 1-d arrays of equal length")
        if rows.size < 1:
            raise ValueError("dataset must contain at least one observation")
        if rows.min() < 0 or rows.max() >= self.m1 or cols.min() < 0 or cols.max() >= self.m2:
            raise ValueError("observation coordinates out of matrix bounds")
        if not np.all(np.isfinite(values)):
            raise ValueError("observed values contain non-finite entries")
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


def concat_observations(datasets):
    """Concatenate observation triplets across tasks in the given order."""
    check_compatible(datasets)
    rows = np.concatenate([ds.rows for ds in datasets])
    cols = np.concatenate([ds.cols for ds in datasets])
    values = np.concatenate([ds.values for ds in datasets])
    return rows, cols, values
