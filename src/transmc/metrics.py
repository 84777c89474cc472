"""Error metrics and Monte-Carlo summaries."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from transmc.datasets import MaskedDataset


@dataclass(frozen=True)
class RepSummary:
    mean: float
    median: float
    min: float
    max: float
    sd: float


def rel_frob_error(est, truth) -> float:
    """||est - truth||_F / ||truth||_F."""
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ValueError("truth matrix is zero; relative error undefined")
    return float(np.linalg.norm(est - truth)) / denom


def holdout_errors(est, test: MaskedDataset) -> tuple[float, float]:
    """(E, RE) over the held-out entries.

    E = sqrt(sum (est[i,j] - y)^2); RE = E / sqrt(sum y^2).
    """
    est = np.asarray(est, dtype=np.float64)
    if est.shape != test.shape:
        raise ValueError("estimate shape does not match the test set")
    diff = est[test.rows, test.cols] - test.values
    e = math.sqrt(float(diff @ diff))
    denom_sq = float(test.values @ test.values)
    if denom_sq == 0.0:
        raise ValueError("all test values are zero; relative error undefined")
    return e, e / math.sqrt(denom_sq)


def summarize(errors) -> RepSummary:
    """Mean, median, min, max and sample standard deviation of replicate errors,
    skipping each None (a failed fit); nan for every statistic when no error
    is left.

    Reductions run over the sorted sequence, so the summary is exactly
    invariant to the order the errors arrive in.
    """
    arr = np.sort(np.asarray([e for e in errors if e is not None], dtype=np.float64))
    if arr.size == 0:
        return RepSummary(*[math.nan] * 5)
    sd = 0.0 if arr.size == 1 else float(np.std(arr, ddof=1))
    return RepSummary(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        min=float(arr.min()),
        max=float(arr.max()),
        sd=sd,
    )


def write_csv(path, header, rows):
    """The one CSV dialect of every table transmc writes: UTF-8, comma
    separated, LF line ends, the header row first, and every float cell
    printed to 12 significant digits (format ".12g")."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{x:.12g}" if isinstance(x, float) else x for x in row]
                         for row in rows)

