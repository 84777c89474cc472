"""Cross-validated detection of informative sources.

The benchmark loss is a J-fold cross-validation error of the single-task
estimator on the target data. Each source gets a transfer loss: fit on the
source alone, score on the target. Sources whose loss exceeds the benchmark
by more than c_tilde * max(sigma_hat, epsilon0) are dropped, and the transfer
estimator runs on the survivors. The J fold fits and K source-only fits depend
only on the target and on their own data, so screen_sources hands all of them
to map_in_workers at once.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible
# fit_single is not called here: it stays bound for perfbench's tracer.
from transmc.estimators import PenaltyPolicy, fit_loss, fit_single, trans_mc
from transmc.fanout import map_in_workers
from transmc.losses import MaskedSquaredLoss
from transmc.solver import SolveTrace, SolverConfig


@dataclass(frozen=True, kw_only=True)
class SelectionConfig:
    """Knobs for the source-selection procedure.

    The penalties follow PenaltyPolicy's rule with the selection-theory
    multipliers: lam_k = ck * sqrt(max(a^2, v^2) / (n_k m)) for source k and
    lam_0 = c0 * sqrt(max(a^2, v^2) / (((J-1)/J) n0 m)) for the fold fits.
    epsilon0 left None becomes 0.05 * v^2.
    """

    J: int = 4
    epsilon0: float | None = None
    c_tilde: float = 2.0
    c0: float
    ck: float
    seed: int | tuple = 0

    def __post_init__(self):
        if not isinstance(self.J, Integral):
            raise ValueError(f"fold count J must be an integer, got {self.J!r}")
        if self.J < 2:
            raise ValueError(f"fold count J must be >= 2, got {self.J}")
        if self.epsilon0 is not None and not 0.0 < self.epsilon0 < math.inf:
            raise ValueError(f"epsilon0 must be positive and finite, got {self.epsilon0}")
        for name in ("c_tilde", "c0", "ck"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"multiplier {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class SelectionReport:
    fold_losses: tuple[float, ...]
    benchmark: float                 # mean of fold_losses
    source_losses: tuple[float, ...]
    sigma_hat: float
    epsilon0: float
    threshold: float                 # c_tilde * max(sigma_hat, epsilon0)
    selected: tuple[int, ...]        # 1-based source indices, ascending
    fold_traces: tuple[SolveTrace, ...] = ()    # as fold_losses
    source_traces: tuple[SolveTrace, ...] = ()  # as source_losses

    def fit_traces(self) -> list[tuple[str, SolveTrace]]:
        """(name, trace) of every fold and source-only fit, e.g. ("fold 2", ...)
        or ("source 7", ...): folds are numbered as in fold_losses (from 0),
        sources as in selected (from 1)."""
        return ([(f"fold {j}", t) for j, t in enumerate(self.fold_traces)]
                + [(f"source {k}", t) for k, t in enumerate(self.source_traces, start=1)])

    @property
    def unconverged(self) -> tuple[str, ...]:
        """Names of the fits that stopped at max_iters (see fit_traces)."""
        return tuple(name for name, t in self.fit_traces() if not t.converged)


def split_folds(target: MaskedDataset, J: int, seed) -> list[MaskedDataset]:
    """Uniformly random partition into J folds with sizes differing by at most one."""
    if J < 2:
        raise ValueError(f"fold count J must be >= 2, got {J}")
    n = target.n
    if n < J:
        raise ValueError(f"cannot split {n} observations into {J} folds")
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    # array_split gives the first n % J folds the extra observation.
    return [target.subset(np.sort(part)) for part in np.array_split(perm, J)]


def fold_loss(fold: MaskedDataset, A) -> float:
    """Mean squared prediction error of A on the fold's observations."""
    return _score(MaskedSquaredLoss.from_dataset(fold), A)


def _score(loss: MaskedSquaredLoss, A) -> float:
    A = np.asarray(A, dtype=np.float64)
    if A.shape != loss.shape:
        raise ValueError("matrix shape does not match the observed matrix")
    return loss.value(A)


def benchmark_loss(target: MaskedDataset, folds, lam0: float, a: float,
                   cfg: SolverConfig):
    """Cross-validated target loss: fit on each fold complement, score on the fold.

    Returns (fold_losses, benchmark mean, sigma_hat, fitted fold estimates);
    sigma_hat is the sample standard deviation (denominator J - 1).
    """
    fits = map_in_workers(lambda fit: fit(), _fold_fits(folds, lam0, a, cfg))
    return (*_cv_scores(folds, fits), fits)


def _fold_fits(folds, lam0: float, a: float, cfg: SolverConfig) -> list[partial]:
    """Fold j's fit, not yet run: fit_loss of the pooled loss of every other fold."""
    return [partial(fit_loss, MaskedSquaredLoss.from_datasets(folds[:j] + folds[j + 1:]),
                    lam0, a, cfg, label=f"fold {j}")
            for j in range(len(folds))]


def _cv_scores(folds, fits):
    """(fold_losses, their mean, sample standard deviation) of the fold fits."""
    losses = np.asarray([fold_loss(fold, est.matrix) for fold, est in zip(folds, fits)])
    mean = float(losses.mean())
    sigma = float(np.sqrt(np.sum((losses - mean) ** 2) / (losses.size - 1)))
    return tuple(float(x) for x in losses), mean, sigma


def source_losses(target: MaskedDataset, source_fits) -> tuple[float, ...]:
    """Target-data test error of each source-only estimate matrix, averaged
    over every target observation; the target's loss is built once."""
    loss = MaskedSquaredLoss.from_dataset(target)
    return tuple(_score(loss, A) for A in source_fits)


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


def screen_sources(target: MaskedDataset, sources, cfg: SelectionConfig,
                   policy: PenaltyPolicy, solver: SolverConfig) -> SelectionReport:
    """Cross-validated screening: the SelectionReport naming the informative
    sources, without the transfer fit on them.

    Sources keep their position in the input sequence: index k in the report
    refers to sources[k - 1].
    """
    sources = list(sources)
    check_compatible([target, *sources])
    a = policy.a
    m = min(target.m1, target.m2)
    J = cfg.J
    lam0 = policy.penalty(cfg.c0, (J - 1) / J * target.n, m)
    epsilon0 = cfg.epsilon0 if cfg.epsilon0 is not None else 0.05 * policy.v * policy.v

    folds = split_folds(target, J, cfg.seed)
    fits = map_in_workers(lambda fit: fit(), _fold_fits(folds, lam0, a, solver) + [
        partial(fit_loss, MaskedSquaredLoss.from_dataset(ds), policy.penalty(cfg.ck, ds.n, m),
                a, solver, label=f"source {k}")
        for k, ds in enumerate(sources, start=1)])
    fold_fits, source_fits = fits[:J], fits[J:]
    fold_vals, _, sigma_hat = _cv_scores(folds, fold_fits)
    source_vals = source_losses(target, [est.matrix for est in source_fits])

    report = select_sources(fold_vals, source_vals, cfg.c_tilde, epsilon0, sigma_hat)
    return replace(report, fold_traces=tuple(est.trace for est in fold_fits),
                   source_traces=tuple(est.trace for est in source_fits))


def s_trans_mc(target: MaskedDataset, sources, cfg: SelectionConfig,
               policy: PenaltyPolicy, solver: SolverConfig):
    """Full selection pipeline: screen_sources, then trans_mc on the selected
    sources; returns (SelectionReport, transfer Estimate). Both stages read
    the policy's noise scale v, which must be given (see PenaltyPolicy)."""
    sources = list(sources)
    report = screen_sources(target, sources, cfg, policy, solver)
    chosen = [sources[k - 1] for k in report.selected]
    return report, trans_mc(target, chosen, policy, solver)
