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


@dataclass(frozen=True)
class Estimate:
    """A recovered matrix plus fit diagnostics."""

    matrix: np.ndarray
    penalty_used: float
    trace: SolveTrace
    stage: str  # single | pooled | debiased | combined


@dataclass(frozen=True)
class PenaltyPolicy:
    """The paper's penalty rule, lam = c * sqrt(max(a^2, v^2) / (n m)) with
    m = min(m1, m2), for every fit of one target dataset.

    trans_mc takes lam1 with c1 over the pooled sample count N and lam2 with
    c2 over the target sample count n0; the single-task fit takes c2 over n0.
    Source screening takes its own multipliers c0 and ck (SelectionConfig).
    v left None is estimated from a pilot fit on the target by resolve().
    """

    a: float
    c1: float = 2.0
    c2: float = 2.0
    v: float | None = None

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"entry bound a must be positive and finite, got {self.a}")
        for name in ("c1", "c2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"penalty multiplier {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if self.v is not None and not 0.0 <= self.v < math.inf:
            raise ValueError(f"noise scale v must be finite and at least 0, got {self.v}")

    def resolve(self, target: MaskedDataset, cfg: SolverConfig) -> "PenaltyPolicy":
        """This policy with v filled in: unchanged when v is given, else v is
        the residual scale of a pilot fit on target (estimate_noise_scale).

        Every estimator resolves its policy on the target; pass the resolved
        policy on so that the pilot runs once per target dataset.
        """
        if self.v is not None:
            return self
        return replace(self, v=estimate_noise_scale(target, self.a, cfg))

    def penalty(self, c: float, n: float, m: int) -> float:
        """theorem_penalty(c, a, v, n, m) of a resolved policy."""
        return theorem_penalty(c, self.a, self.v, n, m)


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
    est = fit_loss(loss, lam_pilot, a, pilot_cfg, label="pilot")
    residuals = data.values - est.matrix[data.rows, data.cols]
    if residuals.size < 2:
        return float(np.abs(residuals[0]))
    return float(np.std(residuals, ddof=1))


def fit_loss(loss: MaskedSquaredLoss, lam: float, a: float, cfg: SolverConfig,
             shift=None, stage: str = "single", label: str | None = None) -> Estimate:
    """Nuclear-norm penalized fit of loss, started from zero, over the box
    |A + shift|_inf <= a (|A|_inf <= a when shift is None).

    stage is the returned Estimate's stage; label (default: stage) names the
    fit in the solver warnings only, e.g. "fold 2", "source 7" or "pilot".
    """
    lam = float(lam)
    matrix, trace = lamm_solve(loss, lam, a, cfg, shift)
    if not trace.converged:
        log.warning("%s fit did not converge in %d iterations (lam = %.4g)",
                    label or stage, trace.iterations, lam)
    if trace.box_active:
        log.warning("%s fit is not certified: the box clipped its last step "
                    "(a = %.4g, lam = %.4g)", label or stage, a, lam)
    return Estimate(matrix=matrix, penalty_used=lam, trace=trace, stage=stage)


def fit_single(data: MaskedDataset, lam: float, a: float, cfg: SolverConfig,
               label: str = "single") -> Estimate:
    """Nuclear-norm penalized regression on one dataset over the box |A|_inf <= a;
    label names the fit in the solver warnings (see fit_loss)."""
    return fit_loss(MaskedSquaredLoss.from_dataset(data), lam, a, cfg, label=label)


def pooled_fit(datasets, lam1: float, a: float, cfg: SolverConfig) -> Estimate:
    """Penalized fit on all tasks' samples pooled together.

    Tasks are accumulated in ascending task_id order so the result does not
    depend on how the caller ordered the sequence.
    """
    datasets = sorted(datasets, key=lambda ds: ds.task_id)
    return fit_loss(MaskedSquaredLoss.from_datasets(datasets), lam1, a, cfg, stage="pooled")


def debias_fit(target: MaskedDataset, a_tilde, lam2: float, a: float,
               cfg: SolverConfig) -> Estimate:
    """Target-only correction: minimize the loss of D + a_tilde over
    |D + a_tilde|_inf <= a with penalty lam2 * ||D||_*."""
    if target.task_id != 0:
        raise ValueError(f"debiasing expects the target task (id 0), got {target.task_id}")
    a_tilde = np.asarray(a_tilde, dtype=np.float64)
    loss = MaskedSquaredLoss.from_dataset(target).shifted(a_tilde)
    return fit_loss(loss, lam2, a, cfg, shift=a_tilde, stage="debiased")


def _check_sample_balance(n0: int, n_total: int, a: float, v: float, pooled: np.ndarray):
    # Condition on n0/N from the transfer theory; diagnostic only, never enforced.
    # Its bound falls as the rank r of the pooled fit grows, so r, which takes
    # an SVD, is needed only when n0/N lies below the bound at r = 1.
    m1, m2 = pooled.shape

    def bound(r):
        return a * a * math.log(m1 + m2) / (max(a * a, v * v) * r * max(m1, m2))

    share = n0 / n_total
    if share >= bound(1):
        return
    sigma = np.linalg.svd(pooled, compute_uv=False)
    r = max(1, int(np.sum(sigma > 1e-8 * max(1e-300, float(sigma[0])))))
    if share < bound(r):
        log.warning(
            "target share n0/N = %.3g below the theory's technical bound %.3g; "
            "debiasing may be under-powered", share, bound(r),
        )


def trans_mc(target: MaskedDataset, sources, policy: PenaltyPolicy,
             cfg: SolverConfig) -> Estimate:
    """Two-step transfer estimate: pooled fit plus target-only correction.

    An empty source sequence degenerates to pooling over the target alone
    followed by debiasing against the same data.
    """
    sources = list(sources)
    check_compatible([target, *sources])
    policy = policy.resolve(target, cfg)
    a = policy.a
    n0 = target.n
    n_total = n0 + sum(ds.n for ds in sources)
    m = min(target.m1, target.m2)

    pooled = pooled_fit([target, *sources], policy.penalty(policy.c1, n_total, m), a, cfg)

    _check_sample_balance(n0, n_total, a, policy.v, pooled.matrix)

    lam2 = policy.penalty(policy.c2, n0, m)
    correction = debias_fit(target, pooled.matrix, lam2, a, cfg)
    combined = pooled.matrix + correction.matrix
    return Estimate(matrix=combined, penalty_used=lam2, trace=correction.trace,
                    stage="combined")
