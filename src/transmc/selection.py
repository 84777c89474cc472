"""Cross-validated detection of informative sources.

The benchmark loss is a J-fold cross-validation error of the single-task
estimator on the target data. Each source gets a transfer loss: fit on the
source alone, score on the target. Sources whose loss exceeds the benchmark
by more than c_tilde * max(sigma_hat, epsilon0) are dropped, and the transfer
estimator runs on the survivors.
"""

from dataclasses import dataclass, replace

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible, concat_observations
from transmc.estimators import (
    Estimate,
    PenaltyPolicy,
    estimate_noise_scale,
    fit_single,
    theorem_penalty,
    trans_mc,
)
from transmc.losses import MaskedSquaredLoss
from transmc.solver import SolverConfig


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for the source-selection procedure.

    Penalties default to the selection-theory formulas
    lam_k = ck * sqrt(max(a^2, v^2) / (n_k m)) and
    lam_0 = c0 * sqrt(max(a^2, v^2) / (((J-1)/J) n0 m)); pass lam0/source_lams
    to override. epsilon0 left None becomes 0.05 * v_hat^2.
    """

    J: int = 4
    epsilon0: float | None = None
    c_tilde: float = 2.0
    c0: float = 2.0
    ck: float = 2.0
    lam0: float | None = None
    source_lams: tuple[float, ...] | None = None
    seed: int | tuple = 0

    def __post_init__(self):
        if self.J < 2:
            raise ValueError(f"fold count J must be >= 2, got {self.J}")
        if self.epsilon0 is not None and self.epsilon0 <= 0.0:
            raise ValueError("epsilon0 must be positive")
        if self.c_tilde <= 0.0:
            raise ValueError("threshold multiplier c_tilde must be positive")


@dataclass(frozen=True)
class SelectionReport:
    fold_losses: tuple[float, ...]
    benchmark: float                 # mean of fold_losses
    source_losses: tuple[float, ...]
    sigma_hat: float
    epsilon0: float
    threshold: float                 # c_tilde * max(sigma_hat, epsilon0)
    selected: tuple[int, ...]        # 1-based source indices, ascending
    # Fits that stopped at max_iters, e.g. ("fold 2", "source 7"); folds are
    # numbered as in fold_losses (from 0), sources as in selected (from 1).
    unconverged: tuple[str, ...] = ()


def split_folds(target: MaskedDataset, J: int, seed) -> list[MaskedDataset]:
    """Uniformly random partition into J folds with sizes differing by at most one."""
    if J < 2:
        raise ValueError(f"fold count J must be >= 2, got {J}")
    n = target.n
    if n < J:
        raise ValueError(f"cannot split {n} observations into {J} folds")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    # First n % J folds get the extra observation.
    base, extra = divmod(n, J)
    folds = []
    start = 0
    for j in range(J):
        size = base + (1 if j < extra else 0)
        folds.append(target.subset(np.sort(perm[start:start + size])))
        start += size
    return folds


def fold_loss(fold: MaskedDataset, A) -> float:
    """Mean squared prediction error of A on the fold's observations."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != fold.shape:
        raise ValueError("matrix shape does not match the fold")
    return MaskedSquaredLoss.from_dataset(fold).value(A)


def _complement(folds, j) -> MaskedDataset:
    rows, cols, values = concat_observations([f for i, f in enumerate(folds) if i != j])
    first = folds[0]
    return MaskedDataset(first.m1, first.m2, rows, cols, values, first.task_id)


def benchmark_loss(target: MaskedDataset, folds, lam0: float, a: float,
                   cfg: SolverConfig):
    """Cross-validated target loss: fit on each fold complement, score on the fold.

    Returns (fold_losses, benchmark mean, sigma_hat, fitted fold estimates);
    sigma_hat is the sample standard deviation (denominator J - 1).
    """
    losses = []
    fits = []
    for j in range(len(folds)):
        est = fit_single(_complement(folds, j), lam0, a, cfg, label=f"fold {j}")
        fits.append(est)
        losses.append(fold_loss(folds[j], est.matrix))
    losses = np.asarray(losses)
    mean = float(losses.mean())
    sigma = float(np.sqrt(np.sum((losses - mean) ** 2) / (losses.size - 1)))
    return tuple(float(x) for x in losses), mean, sigma, fits


def source_losses(target: MaskedDataset, source_fits) -> tuple[float, ...]:
    """Target-data test error of each source-only estimate, averaged over
    every target observation."""
    return tuple(fold_loss(target, est.matrix if isinstance(est, Estimate) else est)
                 for est in source_fits)


def select_sources(fold_losses, source_loss_values, c_tilde: float,
                   epsilon0: float, sigma_hat: float) -> SelectionReport:
    """Apply the threshold rule L_k - L_0 <= c_tilde * max(sigma_hat, epsilon0)."""
    fold_losses = tuple(float(x) for x in fold_losses)
    source_loss_values = tuple(float(x) for x in source_loss_values)
    benchmark = float(np.mean(fold_losses))
    threshold = c_tilde * max(sigma_hat, epsilon0)
    selected = tuple(
        k + 1 for k, lk in enumerate(source_loss_values) if lk - benchmark <= threshold
    )
    return SelectionReport(
        fold_losses=fold_losses,
        benchmark=benchmark,
        source_losses=source_loss_values,
        sigma_hat=float(sigma_hat),
        epsilon0=float(epsilon0),
        threshold=float(threshold),
        selected=selected,
    )


def s_trans_mc(target: MaskedDataset, sources, cfg: SelectionConfig,
               policy: PenaltyPolicy, solver: SolverConfig):
    """Full selection pipeline; returns (SelectionReport, transfer Estimate).

    Sources keep their position in the input sequence: index k in the report
    refers to sources[k - 1].
    """
    sources = list(sources)
    check_compatible([target, *sources])
    a = policy.a
    m = min(target.m1, target.m2)
    J = cfg.J

    v = policy.v
    if v is None:
        v = estimate_noise_scale(target, a, solver)
    epsilon0 = cfg.epsilon0 if cfg.epsilon0 is not None else 0.05 * v * v

    lam0 = cfg.lam0
    if lam0 is None:
        n_train = (J - 1) / J * target.n
        lam0 = theorem_penalty(cfg.c0, a, v, n_train, m)
    if cfg.source_lams is not None:
        if len(cfg.source_lams) != len(sources):
            raise ValueError("source_lams length must match the source count")
        lams = list(cfg.source_lams)
    else:
        lams = [theorem_penalty(cfg.ck, a, v, ds.n, m) for ds in sources]

    folds = split_folds(target, J, cfg.seed)
    fold_vals, _, sigma_hat, fold_fits = benchmark_loss(target, folds, lam0, a, solver)
    source_fits = [fit_single(ds, lam, a, solver, label=f"source {k}")
                   for k, (ds, lam) in enumerate(zip(sources, lams), start=1)]
    source_vals = source_losses(target, source_fits)

    report = select_sources(fold_vals, source_vals, cfg.c_tilde, epsilon0, sigma_hat)
    unconverged = [f"fold {j}" for j, est in enumerate(fold_fits) if not est.trace.converged]
    unconverged += [f"source {k}" for k, est in enumerate(source_fits, start=1)
                    if not est.trace.converged]
    report = replace(report, unconverged=tuple(unconverged))
    chosen = [sources[k - 1] for k in report.selected]
    estimate = trans_mc(target, chosen, policy, solver)
    return report, estimate
