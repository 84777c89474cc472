"""Nuclear-norm penalized estimators: single-task completion and the
two-step pooled/debiased transfer estimator.

The transfer estimator first fits one penalized regression on the pooled
samples of every task (estimating the sample-size weighted average of the
task matrices), then fits a target-only correction under a shifted box
constraint, and returns the sum of the two stages.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible
from transmc.losses import MaskedSquaredLoss
from transmc.solver import SolveTrace, SolverConfig, lamm_solve

log = logging.getLogger("transmc")

BOX_FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class Estimate:
    """A recovered matrix plus fit diagnostics."""

    matrix: np.ndarray
    penalty_used: float
    trace: SolveTrace
    stage: str  # single | pooled | debiased | combined


@dataclass(frozen=True)
class PenaltyPolicy:
    """How the two transfer penalties are chosen.

    theorem_formula mode sets lam1 = c1 * sqrt(max(a^2, v^2) / (N m)) over the
    pooled sample count N and lam2 = c2 * sqrt(max(a^2, v^2) / (n0 m)) over the
    target sample count, with m = min(m1, m2). v left None is estimated from
    pilot-fit residuals on the target. explicit mode uses lam1/lam2 verbatim.
    """

    a: float
    mode: str = "theorem_formula"
    c1: float = 2.0
    c2: float = 2.0
    v: float | None = None
    lam1: float | None = None
    lam2: float | None = None

    def __post_init__(self):
        if self.mode not in ("theorem_formula", "explicit"):
            raise ValueError(f"unknown penalty mode {self.mode!r}")
        if self.a <= 0.0:
            raise ValueError("entry bound a must be positive")
        if self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValueError("penalty multipliers must be positive")
        if self.mode == "explicit" and (self.lam1 is None or self.lam2 is None):
            raise ValueError("explicit mode requires lam1 and lam2")


def theorem_penalty(c: float, a: float, v: float, n: int, m: int) -> float:
    """c * sqrt(max(a^2, v^2) / (n m))."""
    return c * math.sqrt(max(a * a, v * v) / (n * m))


def estimate_noise_scale(data: MaskedDataset, a: float, cfg: SolverConfig) -> float:
    """Residual standard deviation of a cheap pilot fit.

    The pilot penalty is one tenth of the full-shrinkage threshold
    ||(2/n) sum Y_i X_i||_2, the spectral norm of the naive moment fill-in
    under the mean-squared-loss convention.
    """
    loss = MaskedSquaredLoss.from_dataset(data)
    fill = (2.0 / loss.n) * loss.counts * loss.means
    lam_pilot = float(np.linalg.svd(fill, compute_uv=False)[0]) / 10.0
    pilot_cfg = replace(cfg, max_iters=min(cfg.max_iters, 150))
    est = fit_single(data, lam_pilot, a, pilot_cfg, label="pilot")
    residuals = data.values - est.matrix[data.rows, data.cols]
    if residuals.size < 2:
        return float(np.abs(residuals[0]))
    return float(np.std(residuals, ddof=1))


def _solve(loss, lam, a, cfg, shift=None, stage="single", label=None):
    lam = float(lam)
    matrix, trace = lamm_solve(loss, np.zeros(loss.shape), lam, a, cfg, shift)
    if not trace.converged:
        log.warning("%s fit did not converge in %d iterations (lam = %.4g)",
                    label or stage, trace.iterations, lam)
    if trace.box_active:
        log.warning("%s fit is not certified: the box clipped its last step "
                    "(a = %.4g, lam = %.4g)", label or stage, a, lam)
    return Estimate(matrix=matrix, penalty_used=lam, trace=trace, stage=stage)


def fit_single(data: MaskedDataset, lam: float, a: float, cfg: SolverConfig,
               label: str = "single") -> Estimate:
    """Nuclear-norm penalized regression on one dataset over the box |A|_inf <= a.

    label names the fit in the solver warnings only (e.g. "fold 2",
    "source 7", "pilot"); the returned stage is always "single".
    """
    loss = MaskedSquaredLoss.from_dataset(data)
    return _solve(loss, lam, a, cfg, label=label)


def pooled_fit(datasets, lam1: float, a: float, cfg: SolverConfig) -> Estimate:
    """Penalized fit on all tasks' samples pooled together.

    Tasks are accumulated in ascending task_id order so the result does not
    depend on how the caller ordered the sequence.
    """
    datasets = sorted(datasets, key=lambda ds: ds.task_id)
    check_compatible(datasets)
    loss = MaskedSquaredLoss.from_datasets(datasets)
    return _solve(loss, lam1, a, cfg, stage="pooled")


def debias_fit(target: MaskedDataset, a_tilde, lam2: float, a: float,
               cfg: SolverConfig) -> Estimate:
    """Target-only correction: minimize the loss of D + a_tilde over
    |D + a_tilde|_inf <= a with penalty lam2 * ||D||_*."""
    if target.task_id != 0:
        raise ValueError(f"debiasing expects the target task (id 0), got {target.task_id}")
    a_tilde = np.asarray(a_tilde, dtype=np.float64)
    if a_tilde.shape != target.shape:
        raise ValueError("pooled estimate shape does not match the target")
    if np.max(np.abs(a_tilde)) > a + BOX_FEASIBILITY_TOL:
        raise ValueError("pooled estimate lies outside the box; cannot debias")
    loss = MaskedSquaredLoss.from_dataset(target).shifted(a_tilde)
    return _solve(loss, lam2, a, cfg, shift=a_tilde, stage="debiased")


def _check_sample_balance(n0: int, n_total: int, a: float, v: float, rank_hint: int,
                          m1: int, m2: int):
    # Condition on n0/N from the transfer theory; diagnostic only, never enforced.
    d = m1 + m2
    big = max(m1, m2)
    r = max(1, rank_hint)
    bound = a * a * math.log(d) / (max(a * a, v * v) * r * big)
    if n0 / n_total < bound:
        log.warning(
            "target share n0/N = %.3g below the theory's technical bound %.3g; "
            "debiasing may be under-powered", n0 / n_total, bound,
        )


def trans_mc(target: MaskedDataset, sources, policy: PenaltyPolicy,
             cfg: SolverConfig) -> Estimate:
    """Two-step transfer estimate: pooled fit plus target-only correction.

    An empty source sequence degenerates to pooling over the target alone
    followed by debiasing against the same data.
    """
    sources = list(sources)
    check_compatible([target, *sources])
    a = policy.a
    n0 = target.n
    n_total = n0 + sum(ds.n for ds in sources)
    m = min(target.m1, target.m2)

    if policy.mode == "explicit":
        lam1, lam2 = policy.lam1, policy.lam2
        v = policy.v if policy.v is not None else 0.0
    else:
        v = policy.v
        if v is None:
            v = estimate_noise_scale(target, a, cfg)
        lam1 = theorem_penalty(policy.c1, a, v, n_total, m)
        lam2 = theorem_penalty(policy.c2, a, v, n0, m)

    pooled = pooled_fit([target, *sources], lam1, a, cfg)

    sigma = np.linalg.svd(pooled.matrix, compute_uv=False)
    rank_hint = int(np.sum(sigma > 1e-8 * max(1e-300, float(sigma[0]))))
    _check_sample_balance(n0, n_total, a, v, rank_hint, target.m1, target.m2)

    correction = debias_fit(target, pooled.matrix, lam2, a, cfg)
    combined = pooled.matrix + correction.matrix
    return Estimate(matrix=combined, penalty_used=lam2, trace=correction.trace,
                    stage="combined")
