import logging

import numpy as np
import pytest

from transmc import selection
from transmc.datasets import MaskedDataset
from transmc.cli import DEFAULT_MULTIPLIER
from transmc.estimators import (PenaltyPolicy, estimate_noise_scale, fit_loss, fit_single,
                                theorem_penalty)
from transmc.losses import MaskedSquaredLoss
from transmc.selection import (
    SelectionConfig,
    benchmark_loss,
    fold_loss,
    s_trans_mc,
    screen_sources,
    select_sources,
    source_losses,
    split_folds,
)
from transmc.simulation import PRESETS, generate_scenario, sample_observations
from transmc.solver import SolverConfig, SolverDivergedError
from _oracles import loss_double_loop, penalty_multiplier

RNG = np.random.default_rng(777)
CFG = SolverConfig(max_iters=1000)


def uniform_task(T, n, seed, task_id=0, noise=0.3):
    return sample_observations(T, None, n, noise, seed, task_id=task_id)


# ---------------------------------------------------------------------------
# split_folds
# ---------------------------------------------------------------------------

def test_split_folds_divisible():
    ds = uniform_task(np.ones((4, 4)), 8, 1)
    folds = split_folds(ds, 4, seed=0)
    assert [f.n for f in folds] == [2, 2, 2, 2]


def test_split_folds_remainder_rule():
    ds = uniform_task(np.ones((4, 4)), 9, 1)
    folds = split_folds(ds, 4, seed=0)
    assert sorted(f.n for f in folds) == [2, 2, 2, 3]


def test_split_folds_partition_and_determinism():
    ds = uniform_task(np.ones((6, 5)), 23, 2)
    folds1 = split_folds(ds, 4, seed=99)
    folds2 = split_folds(ds, 4, seed=99)
    for f1, f2 in zip(folds1, folds2):
        assert np.array_equal(f1.rows, f2.rows)
        assert np.array_equal(f1.values, f2.values)
    # union of folds = original multiset of observations
    tagged = sorted(
        (r, c, v) for f in folds1 for r, c, v in zip(f.rows, f.cols, f.values)
    )
    original = sorted(zip(ds.rows, ds.cols, ds.values))
    assert tagged == original


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 360, 361])
@pytest.mark.parametrize("J", [2, 3, 4, 5])
def test_split_folds_cuts_the_permutation_in_order(n, J):
    # Fold j is the j-th run of the seeded permutation, sorted, and the
    # first n % J folds hold the one extra observation.
    ds = uniform_task(np.ones((20, 20)), n, 3)
    perm = np.random.default_rng(np.random.SeedSequence(17)).permutation(n)
    base, extra = divmod(n, J)
    start = 0
    for j, fold in enumerate(split_folds(ds, J, seed=17)):
        size = base + (j < extra)
        expected = ds.subset(np.sort(perm[start:start + size]))
        start += size
        for name in ("rows", "cols", "values"):
            assert np.array_equal(getattr(fold, name), getattr(expected, name))
    assert start == n


def test_split_folds_rejects_tiny_dataset():
    ds = uniform_task(np.ones((3, 3)), 3, 1)
    with pytest.raises(ValueError):
        split_folds(ds, 4, seed=0)


# ---------------------------------------------------------------------------
# fold_loss
# ---------------------------------------------------------------------------

def test_fold_loss_zero_on_interpolant():
    T = RNG.standard_normal((4, 4))
    ds = uniform_task(T, 10, 3, noise=0.0)
    assert fold_loss(ds, T) == 0.0


def test_fold_loss_single_observation():
    ds = MaskedDataset(2, 2, [1], [1], [2.5])
    assert fold_loss(ds, np.zeros((2, 2))) == pytest.approx(6.25)


def test_fold_loss_matches_double_loop():
    T = RNG.standard_normal((5, 6))
    ds = uniform_task(T, 17, 4, noise=0.5)
    A = RNG.standard_normal((5, 6))
    assert fold_loss(ds, A) == pytest.approx(
        loss_double_loop(A, ds.rows, ds.cols, ds.values), abs=1e-12
    )


# ---------------------------------------------------------------------------
# benchmark_loss
# ---------------------------------------------------------------------------

def test_benchmark_loss_near_zero_in_easy_regime():
    T = np.outer([1.0, 2.0, -1.0, 0.5], [1.0, -0.5, 2.0])
    ds = uniform_task(T, 400, 5, noise=0.0)
    folds = split_folds(ds, 4, seed=1)
    losses, mean, sigma, fits = benchmark_loss(ds, folds, 1e-6, 10.0, CFG)
    assert mean <= 1e-4
    assert sigma <= 1e-4
    assert len(fits) == 4


def test_benchmark_loss_fits_each_fold_complement(monkeypatch, set_workers):
    # The loss fitted for fold j holds every target observation outside fold
    # j: the statistics of the concatenated complement, reduced fold by fold.
    # Entries near 1e3 with repeated cells make the two summation orders round
    # differently.
    T = 1e3 + RNG.standard_normal((6, 5))
    target = uniform_task(T, 200, 8)
    folds = split_folds(target, 4, seed=3)
    fitted = []

    def recording(loss, lam, a, cfg, label):
        fitted.append((label, loss))
        return fit_loss(loss, lam, a, cfg, label=label)

    monkeypatch.setattr(selection, "fit_loss", recording)
    set_workers(1)  # the fits run in this process, where the recorder sees them
    benchmark_loss(target, folds, 0.05, 2e3, SolverConfig(max_iters=5))
    assert [label for label, _ in fitted] == [f"fold {j}" for j in range(4)]
    for j, (_, loss) in enumerate(fitted):
        rest = [f for i, f in enumerate(folds) if i != j]
        whole = MaskedSquaredLoss.from_dataset(MaskedDataset(
            6, 5, *(np.concatenate([getattr(f, name) for f in rest])
                    for name in ("rows", "cols", "values"))))
        assert loss.n == target.n - folds[j].n == whole.n
        assert np.array_equal(loss.counts, whole.counts)
        assert np.allclose(loss.means, whole.means, rtol=1e-12, atol=0.0)
        assert loss.rss0 == pytest.approx(whole.rss0, rel=1e-12)


def test_benchmark_sigma_closed_forms():
    # constant fold losses -> sigma 0; {1, 3} -> mean 2, sigma sqrt(2)
    losses = np.array([1.0, 3.0])
    mean = losses.mean()
    sigma_sample = np.sqrt(np.sum((losses - mean) ** 2) / (len(losses) - 1))
    assert mean == pytest.approx(2.0)
    assert sigma_sample == pytest.approx(np.sqrt(2.0))
    report = select_sources((1.0, 3.0), (), 1.0, 0.01, sigma_sample)
    assert report.benchmark == pytest.approx(2.0)
    assert report.sigma_hat == pytest.approx(np.sqrt(2.0))
    same = select_sources((5.0, 5.0, 5.0), (), 1.0, 0.01, 0.0)
    assert same.benchmark == pytest.approx(5.0)
    assert same.sigma_hat == 0.0


# ---------------------------------------------------------------------------
# source_losses
# ---------------------------------------------------------------------------

def test_source_loss_near_zero_for_identical_dense_source():
    T = np.outer([1.0, -2.0, 0.5, 1.5], [2.0, 1.0, -1.0])
    target = uniform_task(T, 200, 30, 0, noise=0.0)
    source = uniform_task(T, 200, 31, 1, noise=0.0)
    est = fit_single(source, 1e-6, 10.0, CFG)
    (lk,) = source_losses(target, [est.matrix])
    assert lk <= 1e-4


def test_source_loss_zero_matrix_is_mean_square():
    T = RNG.standard_normal((4, 4))
    ds = uniform_task(T, 15, 7, noise=0.1)
    (lk,) = source_losses(ds, [np.zeros((4, 4))])
    assert lk == pytest.approx(float(np.mean(ds.values**2)))
    with pytest.raises(ValueError):  # would broadcast against the 4 x 4 statistics
        source_losses(ds, [np.zeros((4, 4)), np.zeros((1, 4))])


def test_source_loss_orders_by_contrast():
    rng = np.random.default_rng(11)
    T = np.outer(rng.standard_normal(8), rng.standard_normal(6)) * 3
    close = T + 0.1 * rng.standard_normal(T.shape)
    far = T + 3.0 * rng.standard_normal(T.shape)
    wins = 0
    for rep in range(20):
        target = uniform_task(T, 150, (11, rep), 0, noise=0.3)
        fit_close = fit_single(uniform_task(close, 150, (12, rep), 1, noise=0.3),
                               0.02, 12.0, CFG)
        fit_far = fit_single(uniform_task(far, 150, (13, rep), 2, noise=0.3),
                             0.02, 12.0, CFG)
        la, lb = source_losses(target, [fit_close.matrix, fit_far.matrix])
        wins += la < lb
    assert wins >= 15


# ---------------------------------------------------------------------------
# select_sources
# ---------------------------------------------------------------------------

def test_select_all_when_losses_equal_benchmark():
    report = select_sources((2.0, 2.0, 2.0, 2.0), (2.0, 2.0), 1.0, 0.01, 0.0)
    assert report.selected == (1, 2)
    assert report.threshold == pytest.approx(0.01)


def test_select_threshold_arithmetic():
    # sigma 0, eps0 0.01, c_tilde 1, excess 0.02 -> excluded
    report = select_sources((1.0, 1.0), (1.02,), 1.0, 0.01, 0.0)
    assert report.selected == ()
    report = select_sources((1.0, 1.0), (1.005,), 1.0, 0.01, 0.0)
    assert report.selected == (1,)


def test_selection_rule_monotonicity():
    fold_losses = (1.0, 1.2, 0.8, 1.0)
    base = select_sources(fold_losses, (1.4, 1.9), 2.0, 0.05, 0.1)
    lower = select_sources(fold_losses, (1.2, 1.9), 2.0, 0.05, 0.1)
    assert set(base.selected) <= set(lower.selected)
    wider = select_sources(fold_losses, (1.4, 1.9), 3.0, 0.05, 0.1)
    assert set(base.selected) <= set(wider.selected)
    wider_eps = select_sources(fold_losses, (1.4, 1.9), 2.0, 0.5, 0.1)
    assert set(base.selected) <= set(wider_eps.selected)


def test_selection_relabel_invariance():
    fold_losses = (1.0, 1.1, 0.9, 1.0)
    lks = (1.05, 3.0, 1.1)
    report = select_sources(fold_losses, lks, 2.0, 0.05, 0.1)
    perm = (2, 0, 1)  # relabeled source order
    permuted = select_sources(fold_losses, tuple(lks[i] for i in perm), 2.0, 0.05, 0.1)
    relabeled = tuple(sorted(perm.index(k - 1) + 1 for k in report.selected))
    assert permuted.selected == relabeled


def test_selection_report_invariants():
    report = select_sources((1.0, 2.0, 3.0), (2.5, 1.0), 1.5, 0.2, 0.7)
    assert report.benchmark == pytest.approx(np.mean(report.fold_losses), abs=1e-12)
    assert report.threshold == pytest.approx(1.5 * max(0.7, 0.2))
    expected = tuple(
        k + 1 for k, lk in enumerate(report.source_losses)
        if lk - report.benchmark <= report.threshold
    )
    assert report.selected == expected


# ---------------------------------------------------------------------------
# s_trans_mc
# ---------------------------------------------------------------------------

def test_s_trans_mc_no_sources_degenerates():
    T = np.outer([1.0, -1.0, 2.0], [0.5, 1.0, -0.5, 2.0])
    target = uniform_task(T, 120, 8, noise=0.1)
    c = penalty_multiplier(0.02, 5.0, 0.1, 120, 3)
    policy = PenaltyPolicy(a=5.0, c1=c, c2=c, v=0.1)
    cfg = SelectionConfig(J=4, seed=3)
    report, est = s_trans_mc(target, [], cfg, policy, CFG)
    assert report.selected == ()
    assert est.stage == "combined"
    assert est.penalty_used == pytest.approx(0.02)


def test_s_trans_mc_determinism():
    rng = np.random.default_rng(14)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5)) * 2
    target = uniform_task(T, 90, (14, 0), 0)
    sources = [uniform_task(T, 60, (14, k), k) for k in (1, 2)]
    policy = PenaltyPolicy(a=8.0, c1=penalty_multiplier(0.02, 8.0, 0.3, 210, 5),
                           c2=penalty_multiplier(0.03, 8.0, 0.3, 90, 5), v=0.3)
    cfg = SelectionConfig(J=3, seed=5, epsilon0=0.5)
    r1, e1 = s_trans_mc(target, sources, cfg, policy, CFG)
    r2, e2 = s_trans_mc(target, sources, cfg, policy, CFG)
    assert e1.penalty_used == pytest.approx(0.03)
    assert r1 == r2
    assert np.array_equal(e1.matrix, e2.matrix)


def test_s_trans_mc_all_pass_matches_trans_mc():
    from transmc.estimators import trans_mc

    rng = np.random.default_rng(15)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5)) * 2
    target = uniform_task(T, 100, (15, 0), 0)
    sources = [uniform_task(T, 70, (15, k), k) for k in (1, 2, 3)]
    policy = PenaltyPolicy(a=8.0, c1=penalty_multiplier(0.02, 8.0, 0.3, 310, 5),
                           c2=penalty_multiplier(0.03, 8.0, 0.3, 100, 5), v=0.3)
    cfg = SelectionConfig(J=4, seed=6, epsilon0=100.0)  # threshold passes everything
    report, est = s_trans_mc(target, sources, cfg, policy, CFG)
    assert report.selected == (1, 2, 3)
    assert est.penalty_used == pytest.approx(0.03)
    direct = trans_mc(target, sources, policy, CFG)
    assert np.array_equal(est.matrix, direct.matrix)


def test_s_trans_mc_reports_unconverged_fits(caplog):
    rng = np.random.default_rng(16)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5)) * 2
    target = uniform_task(T, 90, (16, 0), 0)
    sources = [uniform_task(T, 60, (16, k), k) for k in (1, 2)]
    policy = PenaltyPolicy(a=8.0, c1=penalty_multiplier(0.02, 8.0, 0.3, 210, 5),
                           c2=penalty_multiplier(0.03, 8.0, 0.3, 90, 5), v=0.3)
    # lam0 = 0.02 over the 60 observations of two folds; lam_k = 0.02 over n_k = 60
    c = penalty_multiplier(0.02, 8.0, 0.3, 60, 5)
    cfg = SelectionConfig(J=3, seed=5, epsilon0=0.5, c0=c, ck=c)
    with caplog.at_level(logging.WARNING, logger="transmc"):
        report, est = s_trans_mc(target, sources, cfg, policy, SolverConfig(max_iters=3))
    assert est.penalty_used == pytest.approx(0.03)
    assert report.unconverged == ("fold 0", "fold 1", "fold 2", "source 1", "source 2")
    # the warnings name the fits as the report does; the transfer stages follow
    warned = [rec.getMessage().split(" fit did not converge")[0]
              for rec in caplog.records if "did not converge" in rec.getMessage()]
    assert warned[:5] == list(report.unconverged)
    report, _ = s_trans_mc(target, sources, cfg, policy, CFG)
    assert report.unconverged == ()


@pytest.mark.parametrize("max_iters", [3, 1000])
def test_s_trans_mc_does_not_depend_on_the_worker_count(set_workers, caplog, max_iters):
    rng = np.random.default_rng(18)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5)) * 2
    target = uniform_task(T, 90, (18, 0), 0)
    sources = [uniform_task(T, 60, (18, k), k) for k in (1, 2, 3)]
    policy = PenaltyPolicy(a=8.0, c1=0.3, c2=0.3, v=0.3)
    cfg = SelectionConfig(J=4, seed=5, epsilon0=0.5, c0=0.3, ck=0.3)
    runs = []
    for workers in (1, 2):
        set_workers(workers)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="transmc"):
            report, est = s_trans_mc(target, sources, cfg, policy,
                                     SolverConfig(max_iters=max_iters))
        runs.append((report, est, [rec.getMessage() for rec in caplog.records]))
    (r1, e1, w1), (r2, e2, w2) = runs
    assert (len(r1.fold_traces), len(r1.source_traces)) == (4, 3)
    assert r1 == r2
    assert np.array_equal(e1.matrix, e2.matrix)
    assert w1 == w2
    assert w1 and any("did not converge" in m for m in w1) == (max_iters == 3)


def test_screening_failure_logs_the_warnings_of_the_fits_before_it(set_workers, caplog):
    # Source 2's values near 1e200 make its loss overflow at the zero start;
    # three iterations leave every fit before it unconverged, so each warns.
    rng = np.random.default_rng(19)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5)) * 2
    target = uniform_task(T, 90, (19, 0), 0)
    huge = MaskedDataset(6, 5, [0, 1, 2], [0, 2, 4], [1e200, -1e200, 1e200], task_id=2)
    sources = [uniform_task(T, 60, (19, 1), 1), huge]
    policy = PenaltyPolicy(a=8.0, v=0.3)
    cfg = SelectionConfig(J=3, seed=5, epsilon0=0.5, c0=0.3, ck=0.3)
    runs = []
    for workers in (1, 2):
        set_workers(workers)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="transmc"):
            with pytest.raises(SolverDivergedError) as failure:
                screen_sources(target, sources, cfg, policy, SolverConfig(max_iters=3))
        runs.append((str(failure.value), [rec.getMessage() for rec in caplog.records
                                          if rec.name == "transmc"]))
    assert runs[0] == runs[1]
    warned = [m.split(" fit did not converge")[0] for m in runs[0][1]]
    assert warned == ["fold 0", "fold 1", "fold 2", "source 1"]


def test_s_trans_mc_runs_the_noise_pilot_once(pilot_calls):
    rng = np.random.default_rng(17)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5)) * 2
    target = uniform_task(T, 90, (17, 0), 0)
    sources = [uniform_task(T, 60, (17, k), k) for k in (1, 2)]
    cfg = SelectionConfig(J=3, seed=5, epsilon0=0.5, c0=0.3, ck=0.3)
    report, est = s_trans_mc(target, sources, cfg, PenaltyPolicy(a=8.0, c1=0.3, c2=0.3),
                             CFG)
    assert len(pilot_calls) == 1
    given = PenaltyPolicy(a=8.0, c1=0.3, c2=0.3, v=pilot_calls[0])
    report_given, est_given = s_trans_mc(target, sources, cfg, given, CFG)
    assert len(pilot_calls) == 1
    assert report == report_given
    assert np.array_equal(est.matrix, est_given.matrix)


# ---------------------------------------------------------------------------
# paper-5.2-small: the small-penalty fits of source detection converge
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def paper_52_small():
    spec = PRESETS["paper-5.2-small"]
    return spec, generate_scenario(spec, rep=0)


def test_paper_52_source_only_fits_converge(paper_52_small):
    # Five of these ten fits stopped at max_iters = 500 without momentum.
    spec, data = paper_52_small
    m = min(spec.m1, spec.m2)
    for k, ds in enumerate(data.sources, start=1):
        lam = theorem_penalty(DEFAULT_MULTIPLIER, spec.a_cap, spec.noise_sd, ds.n, m)
        est = fit_loss(MaskedSquaredLoss.from_dataset(ds), lam, spec.a_cap, SolverConfig(),
                       label=f"source {k}")
        assert est.trace.converged, f"source {k}"
        assert est.trace.iterations <= 500


def test_paper_52_s_trans_mc_reports_no_unconverged_fit(paper_52_small):
    spec, data = paper_52_small
    policy = PenaltyPolicy(a=spec.a_cap, c1=DEFAULT_MULTIPLIER, c2=DEFAULT_MULTIPLIER,
                           v=spec.noise_sd)
    cfg = SelectionConfig(J=4, c_tilde=2.0, epsilon0=1.25, c0=DEFAULT_MULTIPLIER,
                          ck=DEFAULT_MULTIPLIER, seed=(spec.seed, 4, 0))
    report, _ = s_trans_mc(data.target, data.sources, cfg, policy, SolverConfig())
    assert report.unconverged == ()
    assert report.selected == (1, 2, 3, 4, 5)


def test_paper_52_noise_pilot_converges(paper_52_small, caplog):
    spec, data = paper_52_small
    with caplog.at_level(logging.WARNING, logger="transmc"):
        sigma = estimate_noise_scale(data.target, spec.a_cap, SolverConfig())
    assert not [r for r in caplog.records if "did not converge" in r.getMessage()]
    assert sigma > 0.0


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(J=1)
    with pytest.raises(ValueError):
        SelectionConfig(epsilon0=-0.1)
    with pytest.raises(ValueError):
        SelectionConfig(c_tilde=0.0)


@pytest.mark.parametrize("field, value", [
    *(("epsilon0", x) for x in (float("nan"), float("inf"), 0.0, -1.0)),
    *(("c_tilde", x) for x in (float("nan"), float("inf"), 0.0, -1.0)),
    *(("c0", x) for x in (float("nan"), float("inf"), 0.0, -1.0)),
    *(("ck", x) for x in (float("nan"), float("inf"), 0.0, -1.0)),
])
def test_selection_config_rejects_non_finite_and_out_of_range_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SelectionConfig(**{field: value})
