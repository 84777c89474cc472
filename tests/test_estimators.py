import concurrent.futures
import logging
import multiprocessing
import os
import threading
import time
from functools import partial

import numpy as np
import pytest

from transmc import fanout
from transmc.datasets import MaskedDataset
from transmc.estimators import (
    PenaltyPolicy,
    debias_fit,
    estimate_noise_scale,
    fit_loss,
    fit_single,
    pooled_fit,
    theorem_penalty,
    trans_mc,
)
from transmc.losses import MaskedSquaredLoss
from transmc.metrics import rel_frob_error
from transmc.simulation import sample_observations
from transmc.solver import SolverConfig, SolverDivergedError
from _oracles import penalty_multiplier, prox_gradient_fixed_step

RNG = np.random.default_rng(1234)


def full_obs(T, task_id=0, noise=0.0, rng=RNG):
    m1, m2 = T.shape
    rows, cols = np.meshgrid(np.arange(m1), np.arange(m2), indexing="ij")
    rows, cols = rows.ravel(), cols.ravel()
    values = T[rows, cols]
    if noise:
        values = values + noise * rng.standard_normal(values.size)
    return MaskedDataset(m1, m2, rows, cols, values, task_id)


def objective(ds, A, lam):
    loss = MaskedSquaredLoss.from_dataset(ds)
    return loss.value(A) + lam * np.linalg.svd(A, compute_uv=False).sum()


CFG = SolverConfig(max_iters=2000)


# ---------------------------------------------------------------------------
# fit_single
# ---------------------------------------------------------------------------

def test_fit_single_recovers_noiseless_rank1():
    T = np.outer([1.0, -2.0, 0.5], [2.0, 1.0, -1.0])
    est = fit_single(full_obs(T), 1e-6, 10.0, CFG)
    assert est.stage == "single"
    assert rel_frob_error(est.matrix, T) <= 1e-3


def test_fit_single_huge_penalty_gives_zero():
    T = RNG.standard_normal((4, 4))
    ds = full_obs(T)
    lam = ds.n * 10.0 * 16
    est = fit_single(ds, lam, 10.0, CFG)
    assert np.allclose(est.matrix, 0.0)


def test_fit_single_matches_prox_gradient_oracle():
    rng = np.random.default_rng(5)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    ds = full_obs(T)
    keep = rng.permutation(ds.n)[: int(0.8 * ds.n)]
    ds = ds.subset(np.sort(keep))
    cfg = SolverConfig(max_iters=5000, epsilon=1e-10)
    est = fit_single(ds, 0.05, 50.0, cfg)
    oracle = prox_gradient_fixed_step(ds.rows, ds.cols, ds.values, (6, 5), 0.05,
                                      box=50.0, n_iters=30000)
    assert np.linalg.norm(est.matrix - oracle) <= 1e-5 * (1 + np.linalg.norm(oracle))


def test_fit_single_optimality_sanity():
    rng = np.random.default_rng(17)
    r = 2
    T = rng.standard_normal((8, 6)) @ np.diag([5.0] * 6)
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    T = (U[:, :r] * s[:r]) @ Vt[:r]
    ds = full_obs(T, noise=0.1, rng=rng)
    keep = np.sort(rng.permutation(ds.n)[: int(0.7 * ds.n)])
    ds = ds.subset(keep)
    lam = 0.05
    est = fit_single(ds, lam, 20.0, CFG)
    fill = np.zeros((8, 6))
    fill[ds.rows, ds.cols] = ds.values
    U, s, Vt = np.linalg.svd(fill, full_matrices=False)
    candidate = (U[:, :r] * s[:r]) @ Vt[:r]
    candidate = np.clip(candidate, -20.0, 20.0)
    obj = objective(ds, est.matrix, lam)
    assert obj <= objective(ds, np.zeros((8, 6)), lam) + 1e-9
    assert obj <= objective(ds, candidate, lam) + 1e-9


def test_fit_single_box_feasibility():
    T = 5 * RNG.standard_normal((5, 4))
    est = fit_single(full_obs(T), 0.01, 1.5, CFG)
    assert np.max(np.abs(est.matrix)) <= 1.5 + 1e-12


# ---------------------------------------------------------------------------
# pooled_fit
# ---------------------------------------------------------------------------

def test_pooled_single_dataset_identical_to_fit_single():
    T = RNG.standard_normal((5, 4))
    ds = full_obs(T, noise=0.2)
    a = 10.0
    single = fit_single(ds, 0.03, a, CFG)
    pooled = pooled_fit([ds], 0.03, a, CFG)
    assert pooled.stage == "pooled"
    assert np.array_equal(single.matrix, pooled.matrix)


def test_pooled_duplicated_dataset_invariance():
    T = RNG.standard_normal((5, 4))
    ds = full_obs(T, noise=0.2)
    one = pooled_fit([ds], 0.03, 10.0, CFG)
    two = pooled_fit([ds, ds], 0.03, 10.0, CFG)
    assert np.linalg.norm(one.matrix - two.matrix) <= 1e-8 * (1 + np.linalg.norm(one.matrix))


def test_pooled_noiseless_identical_sources_recover_truth():
    T = np.outer([2.0, 1.0, -1.0], [1.0, 0.5, 2.0, -0.3])
    d0 = full_obs(T, task_id=0)
    d1 = full_obs(T, task_id=1)
    est = pooled_fit([d0, d1], 1e-6, 10.0, CFG)
    assert rel_frob_error(est.matrix, T) <= 1e-3


def test_pooled_rejects_dimension_mismatch():
    a = MaskedDataset(3, 3, [0], [0], [1.0], 0)
    b = MaskedDataset(3, 4, [0], [0], [1.0], 1)
    with pytest.raises(ValueError):
        pooled_fit([a, b], 0.1, 1.0, CFG)


# ---------------------------------------------------------------------------
# debias_fit
# ---------------------------------------------------------------------------

def test_debias_no_correction_when_pooled_is_optimal():
    T = RNG.standard_normal((4, 4))
    ds = full_obs(T)
    correction = debias_fit(ds, T.copy(), lam2=50.0, a=10.0, cfg=CFG)
    assert correction.stage == "debiased"
    assert np.allclose(correction.matrix, 0.0, atol=1e-10)


def test_debias_from_zero_reduces_to_fit_single():
    T = np.outer([1.0, -1.5], [2.0, 0.5, 1.0])
    ds = full_obs(T)
    correction = debias_fit(ds, np.zeros((2, 3)), 1e-6, 10.0, CFG)
    assert rel_frob_error(correction.matrix, T) <= 1e-3


def test_debias_never_worse_than_zero_correction():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((5, 4))
    ds = full_obs(T, noise=0.3, rng=rng)
    a_tilde = np.clip(T + 0.5 * rng.standard_normal((5, 4)), -10, 10)
    lam2 = 0.05
    corr = debias_fit(ds, a_tilde, lam2, 10.0, CFG)
    loss = MaskedSquaredLoss.from_dataset(ds).shifted(a_tilde)
    obj_hat = loss.value(corr.matrix) + lam2 * np.linalg.svd(corr.matrix, compute_uv=False).sum()
    obj_zero = loss.value(np.zeros((5, 4)))
    assert obj_hat <= obj_zero + 1e-9
    assert np.max(np.abs(a_tilde + corr.matrix)) <= 10.0 + 1e-12


def test_debias_rejects_infeasible_base():
    ds = full_obs(np.ones((2, 2)))
    with pytest.raises(ValueError):
        debias_fit(ds, np.full((2, 2), 9.0), 0.1, 5.0, CFG)


def test_debias_requires_target_task():
    ds = full_obs(np.ones((2, 2)), task_id=3)
    with pytest.raises(ValueError):
        debias_fit(ds, np.zeros((2, 2)), 0.1, 5.0, CFG)


# ---------------------------------------------------------------------------
# trans_mc
# ---------------------------------------------------------------------------

def _sampled_task(T, n, seed, task_id, noise=0.5):
    return sample_observations(T, None, n, noise, seed, task_id=task_id)


def test_trans_mc_zero_sources_matches_fit_single():
    rng = np.random.default_rng(8)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    ds = _sampled_task(T, 60, (8, 0), 0)
    lam = 0.05
    cfg = SolverConfig(max_iters=3000, epsilon=1e-8)
    c = penalty_multiplier(lam, 10.0, 0.5, 60, 5)
    policy = PenaltyPolicy(a=10.0, c1=c, c2=c, v=0.5)
    combined = trans_mc(ds, [], policy, cfg)
    assert combined.stage == "combined"
    assert combined.penalty_used == pytest.approx(lam)
    single = fit_single(ds, lam, 10.0, cfg)
    assert np.linalg.norm(combined.matrix - single.matrix) <= 10 * cfg.epsilon


def test_trans_mc_pooling_reduces_error_at_zero_contrast():
    rng = np.random.default_rng(21)
    T = np.outer(rng.standard_normal(8), rng.standard_normal(6)) * 2
    n = 30
    single_errs, transfer_errs = [], []
    for rep in range(20):
        target = _sampled_task(T, n, (21, rep, 0), 0)
        sources = [_sampled_task(T, n, (21, rep, k), k) for k in range(1, 6)]
        lam_s = theorem_penalty(0.3, 5.0, 0.5, n, 6)
        single_errs.append(rel_frob_error(
            fit_single(target, lam_s, 8.0, CFG).matrix, T))
        policy = PenaltyPolicy(a=8.0, c1=0.3, c2=0.3, v=0.5)
        transfer_errs.append(rel_frob_error(
            trans_mc(target, sources, policy, CFG).matrix, T))
    slack = np.std(single_errs, ddof=1) / np.sqrt(20)
    assert np.mean(transfer_errs) <= np.mean(single_errs) + slack


def test_trans_mc_source_order_invariance():
    rng = np.random.default_rng(33)
    T = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    target = _sampled_task(T, 40, (33, 0), 0)
    sources = [_sampled_task(T, 20, (33, k), k) for k in (1, 2, 3)]
    policy = PenaltyPolicy(a=8.0, c1=penalty_multiplier(0.05, 8.0, 0.5, 100, 4),
                           c2=penalty_multiplier(0.08, 8.0, 0.5, 40, 4), v=0.5)
    fwd = trans_mc(target, sources, policy, CFG)
    rev = trans_mc(target, sources[::-1], policy, CFG)
    assert fwd.penalty_used == pytest.approx(0.08)
    assert np.array_equal(fwd.matrix, rev.matrix)


def test_trans_mc_theorem_formula_penalties():
    rng = np.random.default_rng(40)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(4))
    target = _sampled_task(T, 50, (40, 0), 0)
    sources = [_sampled_task(T, 30, (40, k), k) for k in (1, 2)]
    policy = PenaltyPolicy(a=4.0, c1=1.5, c2=2.5, v=0.7)
    est = trans_mc(target, sources, policy, CFG)
    m = 4
    expected_lam2 = 2.5 * np.sqrt(max(16.0, 0.49) / (50 * m))
    assert est.penalty_used == pytest.approx(expected_lam2)
    expected_lam1 = 1.5 * np.sqrt(max(16.0, 0.49) / (110 * m))
    assert theorem_penalty(1.5, 4.0, 0.7, 110, m) == pytest.approx(expected_lam1)


def test_trans_mc_combined_box_feasible():
    rng = np.random.default_rng(50)
    T = 6 * np.outer(rng.standard_normal(5), rng.standard_normal(4))
    a = 0.8 * float(np.max(np.abs(T)))
    target = _sampled_task(np.clip(T, -a, a), 45, (50, 0), 0)
    sources = [_sampled_task(np.clip(T, -a, a), 25, (50, k), k) for k in (1, 2)]
    policy = PenaltyPolicy(a=a, c1=penalty_multiplier(0.01, a, 0.5, 95, 4),
                           c2=penalty_multiplier(0.01, a, 0.5, 45, 4), v=0.5)
    est = trans_mc(target, sources, policy, CFG)
    assert est.penalty_used == pytest.approx(0.01)
    assert np.max(np.abs(est.matrix)) <= a + 1e-12


def test_trans_mc_warns_when_target_share_too_small(caplog):
    rng = np.random.default_rng(60)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    target = _sampled_task(T, 5, (60, 0), 0)
    sources = [_sampled_task(T, 5000, (60, 1), 1)]
    policy = PenaltyPolicy(a=30.0, c1=penalty_multiplier(0.01, 30.0, 0.1, 5005, 5),
                           c2=penalty_multiplier(0.05, 30.0, 0.1, 5, 5), v=0.1)
    with caplog.at_level(logging.WARNING, logger="transmc"):
        est = trans_mc(target, sources, policy, CFG)
    assert est.penalty_used == pytest.approx(0.05)
    assert any("technical bound" in rec.message for rec in caplog.records)


def _svds_without_vectors(monkeypatch):
    """Shapes of the np.linalg.svd calls without vectors from now on. With v
    given and a box that never clips, trans_mc makes such a call only for the
    rank of the pooled fit in its sample-balance check."""
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(A, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            shapes.append(A.shape)
        return real_svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return shapes


def test_trans_mc_sample_balance_bound_uses_the_pooled_rank(caplog, monkeypatch):
    # n0/N = 5/5005 and a full-rank truth: the pooled fit has rank 5, so the
    # bound is a^2 log(6 + 5) / (a^2 * 5 * 6) = 0.0799, not its rank-1 value 0.4.
    rng = np.random.default_rng(60)
    T = 3 * rng.standard_normal((6, 5))
    target = _sampled_task(T, 5, (60, 0), 0)
    sources = [_sampled_task(T, 5000, (60, 1), 1)]
    policy = PenaltyPolicy(a=30.0, c1=penalty_multiplier(0.01, 30.0, 0.1, 5005, 5),
                           c2=penalty_multiplier(0.05, 30.0, 0.1, 5, 5), v=0.1)
    svds = _svds_without_vectors(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="transmc"):
        trans_mc(target, sources, policy, SolverConfig(max_iters=3000, epsilon=1e-8))
    assert [rec.getMessage() for rec in caplog.records] == [
        "target share n0/N = 0.000999 below the theory's technical bound 0.0799; "
        "debiasing may be under-powered"]
    assert svds == [(6, 5)]


def test_trans_mc_skips_the_rank_svd_when_the_balance_check_cannot_fire(caplog, monkeypatch):
    # n0/N = 60/100 lies above the bound at rank 1, log(5 + 4) / 5 = 0.44, and
    # the bound only falls as the rank grows.
    rng = np.random.default_rng(33)
    T = np.outer(rng.standard_normal(5), rng.standard_normal(4))
    target = _sampled_task(T, 60, (33, 0), 0)
    sources = [_sampled_task(T, 20, (33, k), k) for k in (1, 2)]
    policy = PenaltyPolicy(a=8.0, c1=0.3, c2=0.3, v=0.5)
    svds = _svds_without_vectors(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="transmc"):
        est = trans_mc(target, sources, policy, CFG)
    assert not est.trace.box_active
    assert svds == []
    assert not any("technical bound" in rec.getMessage() for rec in caplog.records)


def test_unconverged_fit_logs_warning(caplog):
    rng = np.random.default_rng(61)
    T = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    ds = _sampled_task(T, 40, (61, 0), 0)
    cfg = SolverConfig(max_iters=3, epsilon=1e-12)
    with caplog.at_level(logging.WARNING, logger="transmc"):
        est = fit_single(ds, 0.01, 10.0, cfg)
    assert not est.trace.converged
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "transmc"]
    assert any("single fit did not converge in 3 iterations" in m and "lam = 0.01" in m
               for m in messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="transmc"):
        estimate_noise_scale(ds, 10.0, cfg)
    assert any(rec.getMessage().startswith("pilot fit did not converge in 3 iterations")
               for rec in caplog.records)


def _run(fit):
    return fit()


def test_fit_loss_in_workers_match_and_leave_no_process(set_workers):
    T = np.outer([1.0, -2.0, 0.5], [2.0, 1.0, -1.0, 0.5])
    fits = [partial(fit_loss, MaskedSquaredLoss.from_dataset(full_obs(T, noise=0.1)), lam, 10.0,
                    CFG, label=f"fit {lam}") for lam in (0.01, 0.1, 1.0)]
    set_workers(1)
    serial = fanout.map_in_workers(_run, fits)
    set_workers(2)
    pooled = fanout.map_in_workers(_run, fits)
    assert multiprocessing.active_children() == []
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.matrix, b.matrix)
        assert (a.penalty_used, a.trace, a.stage) == (b.penalty_used, b.trace, b.stage)

    # values near 1e200 make the loss overflow at the zero start
    huge = MaskedDataset(3, 4, [0, 1], [0, 2], [1e200, -1e200])
    failing = fits[:1] + [partial(fit_loss, MaskedSquaredLoss.from_dataset(huge), 0.1, 1e201,
                                  CFG)]
    with pytest.raises(SolverDivergedError, match="non-finite"):
        fanout.map_in_workers(_run, failing)
    assert multiprocessing.active_children() == []
    assert_no_child_left()


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_workers(set_workers):
    set_workers(2)


def test_map_in_workers_returns_and_logs_in_input_order(two_workers, caplog):
    # Item 0 holds the caller while the child takes the rest, and item 5
    # holds whichever process claims it.
    def item(i):
        time.sleep(0.2 if i in (0, 5) else 0.01)
        fanout.log.warning("item %d", i)
        return i * i, os.getpid()

    with caplog.at_level(logging.WARNING, logger="transmc"):
        out = fanout.map_in_workers(item, range(8))
    assert [r for r, _ in out] == [i * i for i in range(8)]
    assert len({pid for _, pid in out}) == 2
    assert [rec.getMessage() for rec in caplog.records] == [f"item {i}" for i in range(8)]
    assert_no_child_left()


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its __init__ needs two arguments."""

    def __init__(self, a, b):
        super().__init__(a)


@pytest.mark.parametrize("low, high", [(1, 3), (0, 1), (2, 3)])
def test_map_in_workers_raises_the_lowest_failing_item(two_workers, caplog, low, high):
    # Item 0 runs in the caller and item 1 in the child; later items go to
    # whichever process is free.
    def item(i):
        fanout.log.warning("item %d", i)
        if i == low:
            raise SolverDivergedError(f"item {i}")
        if i == high:
            raise ValueError(f"item {i}")
        return i

    with caplog.at_level(logging.WARNING, logger="transmc"):
        with pytest.raises(SolverDivergedError, match=f"^item {low}$"):
            fanout.map_in_workers(item, range(5))
    # Warnings come as a serial run would log them: up to the failing item.
    assert [rec.getMessage() for rec in caplog.records] == [
        f"item {i}" for i in range(low + 1)]
    assert_no_child_left()


@pytest.mark.parametrize("outcome, message", [
    (lambda: threading.Lock(), "result of item 1 .* cannot be sent back"),
    (lambda: _raise(ValueError("unsent", threading.Lock())),
     "ValueError exception of item 1 .* cannot be sent back"),
    (lambda: _raise(_TwoArgError("a", "b")), "item 1 of a fan-out came back unreadable"),
])
def test_map_in_workers_reports_what_cannot_come_back(two_workers, outcome, message):
    # Item 1 runs in the child, whose outcome must pickle to come back.
    with pytest.raises(RuntimeError, match=message):
        fanout.map_in_workers(lambda i: outcome() if i == 1 else i, range(2))
    assert_no_child_left()


def _raise(exc):
    raise exc


def test_map_in_chunks_runs_one_fixed_chunk_per_process(two_workers):
    # Item 0 is slow, yet the child never takes an item of the caller's chunk.
    def item(i):
        time.sleep(0.1 if i == 0 else 0.0)
        return i * i, os.getpid()

    for _ in range(3):
        out = fanout.map_in_chunks(item, range(7))
        assert [r for r, _ in out] == [i * i for i in range(7)]
        pids = [pid for _, pid in out]
        assert pids[:3] == [os.getpid()] * 3
        assert len(set(pids[3:])) == 1 and pids[3] != os.getpid()
    assert fanout.map_in_chunks(item, []) == []
    assert_no_child_left()


def test_map_in_chunks_raises_the_first_failing_item(two_workers, caplog):
    # Items 1 and 7 fail, one in each process's chunk of 4.
    def item(i):
        fanout.log.warning("item %d", i)
        if i == 1:
            raise SolverDivergedError(f"item {i}")
        if i == 7:
            raise ValueError(f"item {i}")
        return i

    with caplog.at_level(logging.WARNING, logger="transmc"):
        with pytest.raises(SolverDivergedError, match="^item 1$"):
            fanout.map_in_chunks(item, range(8))
    assert [rec.getMessage() for rec in caplog.records] == ["item 0", "item 1"]
    assert_no_child_left()


def test_worker_count_is_one_inside_a_fan_out(monkeypatch, four_cores):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert fanout._worker_count(14) == 4
    inside = fanout.map_in_workers(
        lambda i: (fanout._worker_count(14), os.getpid()), range(2))
    assert [count for count, _ in inside] == [1, 1]
    assert len({pid for _, pid in inside}) == 2
    assert fanout._worker_count(14) == 4
    assert_no_child_left()


@pytest.fixture
def four_cores(monkeypatch):
    """_worker_count on four cores, with no BLAS thread count set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for var in fanout.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("env, workers", [
    ({}, 1),  # BLAS runs a thread per core
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
    ({"MKL_NUM_THREADS": "4"}, 1),
    ({"OMP_NUM_THREADS": "two"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),  # OpenBLAS then runs a thread per core
    ({"OPENBLAS_NUM_THREADS": "-1"}, 1),
])
def test_worker_count_leaves_the_cores_to_blas_threads(monkeypatch, four_cores, env, workers):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert fanout._worker_count(14) == workers
    assert fanout._worker_count(3) == min(3, workers)
    assert fanout._worker_count(1) == 1


def test_worker_count_is_one_inside_a_worker(monkeypatch, four_cores):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert fanout._worker_count(14) == 4
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(fanout._worker_count, 14).result(timeout=60) == 1


def test_estimate_noise_scale_close_to_truth():
    rng = np.random.default_rng(70)
    T = np.outer(rng.standard_normal(12), rng.standard_normal(10)) * 8
    v = 0.8
    ds = _sampled_task(T, 400, (70, 0), 0, noise=v)
    v_hat = estimate_noise_scale(ds, 1.05 * float(np.max(np.abs(T))), CFG)
    assert 0.3 * v <= v_hat <= 3.0 * v


def test_penalty_policy_validation():
    with pytest.raises(ValueError):
        PenaltyPolicy(a=-1.0)
    with pytest.raises(ValueError):
        PenaltyPolicy(a=1.0, c1=0.0)


@pytest.mark.parametrize("field, value", [
    *((f, x) for f in ("a", "c1", "c2") for x in (float("nan"), float("inf"), 0.0, -1.0)),
    ("v", float("nan")), ("v", float("inf")), ("v", -1.0),
])
def test_penalty_policy_rejects_non_finite_and_out_of_range_settings(field, value):
    with pytest.raises(ValueError, match=field):
        PenaltyPolicy(**{"a": 1.0, field: value})


def test_penalty_policy_accepts_a_zero_or_missing_noise_scale():
    assert PenaltyPolicy(a=1.0, v=0.0).v == 0.0
    assert PenaltyPolicy(a=1.0).v is None
