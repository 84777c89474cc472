import logging

import numpy as np
import pytest

from transmc.datasets import MaskedDataset
from transmc.estimators import fit_single
from transmc.losses import MaskedSquaredLoss
from transmc.solver import SolverConfig, SolverDivergedError, lamm_solve
from _oracles import (
    grad_finite_difference,
    majorizer,
    majorizer_term_by_term,
    norms,
    prox_gradient_fixed_step,
)

RNG = np.random.default_rng(31)


def full_observation_dataset(T, noise=0.0, rng=RNG):
    m1, m2 = T.shape
    rows, cols = np.meshgrid(np.arange(m1), np.arange(m2), indexing="ij")
    values = T[rows.ravel(), cols.ravel()]
    if noise:
        values = values + noise * rng.standard_normal(values.size)
    return MaskedDataset(m1, m2, rows.ravel(), cols.ravel(), values)


def random_dataset(m1, m2, n, rng=RNG, noise=0.1):
    rows = rng.integers(0, m1, size=n)
    cols = rng.integers(0, m2, size=n)
    truth = rng.standard_normal((m1, m2))
    values = truth[rows, cols] + noise * rng.standard_normal(n)
    return MaskedDataset(m1, m2, rows, cols, values)


# ---------------------------------------------------------------------------
# squared loss oracle
# ---------------------------------------------------------------------------

def test_loss_zero_at_interpolant():
    ds = random_dataset(5, 4, 12, noise=0.0)
    loss = MaskedSquaredLoss.from_dataset(ds)
    A = np.zeros((5, 4))
    A[ds.rows, ds.cols] = ds.values
    assert loss.value(A) == 0.0
    assert np.allclose(loss.gradient(A), 0.0)


def test_loss_single_observation():
    ds = MaskedDataset(2, 2, [0], [0], [3.0])
    loss = MaskedSquaredLoss.from_dataset(ds)
    A = np.zeros((2, 2))
    assert loss.value(A) == pytest.approx(9.0)
    g = loss.gradient(A)
    assert g[0, 0] == pytest.approx(-6.0)
    assert np.count_nonzero(g) == 1


def test_loss_rejects_bad_input():
    with pytest.raises(ValueError):
        MaskedDataset(3, 3, [], [], [])
    with pytest.raises(ValueError):
        MaskedDataset(3, 3, [3], [0], [1.0])


def test_gradient_matches_finite_differences():
    max_rel = 0.0
    for _ in range(20):
        m1, m2 = int(RNG.integers(2, 7)), int(RNG.integers(2, 7))
        ds = random_dataset(m1, m2, int(RNG.integers(4, 30)))
        loss = MaskedSquaredLoss.from_dataset(ds)
        A = RNG.standard_normal((m1, m2))
        g = loss.gradient(A)
        g_fd = grad_finite_difference(loss.value, A, step=1e-6)
        mask = np.abs(g_fd) > 1e-8
        if mask.any():
            max_rel = max(max_rel, float(np.max(np.abs(g - g_fd)[mask] / np.abs(g_fd)[mask])))
        assert np.all(np.abs(g - g_fd)[~mask] <= 1e-6)
    assert max_rel <= 1e-4


# ---------------------------------------------------------------------------
# majorizer
# ---------------------------------------------------------------------------

def test_majorizer_anchor_point():
    ds = random_dataset(4, 3, 10)
    loss = MaskedSquaredLoss.from_dataset(ds)
    B = RNG.standard_normal((4, 3))
    assert majorizer(B, B, 2.5, loss) == pytest.approx(loss.value(B))


class _HalfFrobSquared:
    """L(A) = 0.5 ||A||_F^2 on a fixed shape."""

    def __init__(self, shape):
        self.shape = shape

    def value(self, A):
        return 0.5 * float(np.sum(A * A))

    def gradient(self, A, out=None):
        return A.copy()

    def curvature_bound(self):
        return 1.0


def test_majorizer_exact_for_matching_quadratic():
    loss = _HalfFrobSquared((3, 3))
    A = RNG.standard_normal((3, 3))
    B = np.zeros((3, 3))
    assert majorizer(A, B, 1.0, loss) == pytest.approx(loss.value(A))


def test_majorizer_matches_term_by_term_oracle():
    ds = random_dataset(4, 4, 14)
    loss = MaskedSquaredLoss.from_dataset(ds)
    A = RNG.standard_normal((4, 4))
    B = RNG.standard_normal((4, 4))
    expected = majorizer_term_by_term(A, B, 2.0, loss.value, loss.gradient(B))
    assert majorizer(A, B, 2.0, loss) == pytest.approx(expected, abs=1e-12)


def test_majorizer_validates_inputs():
    ds = random_dataset(3, 3, 6)
    loss = MaskedSquaredLoss.from_dataset(ds)
    with pytest.raises(ValueError):
        majorizer(np.zeros((3, 3)), np.zeros((2, 3)), 1.0, loss)
    with pytest.raises(ValueError):
        majorizer(np.zeros((3, 3)), np.zeros((3, 3)), 0.0, loss)


# ---------------------------------------------------------------------------
# lamm_solve
# ---------------------------------------------------------------------------

def test_lamm_recovers_fully_observed_target_without_penalty():
    T = RNG.standard_normal((5, 4))
    loss = MaskedSquaredLoss.from_dataset(full_observation_dataset(T))
    cfg = SolverConfig(epsilon=1e-8, max_iters=2000)
    A, trace = lamm_solve(loss, 0.0, 100.0, cfg)
    assert trace.converged
    assert np.linalg.norm(A - T) <= 1e-6 * np.linalg.norm(T)


def test_lamm_full_shrinkage_first_step():
    # penalty above the top singular value: the first proximal step
    # annihilates every singular value and zero is a fixed point
    T = RNG.standard_normal((4, 4))
    loss = MaskedSquaredLoss.from_dataset(full_observation_dataset(T))
    lam = norms(T).spectral * 1.1
    cfg = SolverConfig(epsilon=1e-9, max_iters=5)
    A, trace = lamm_solve(loss, lam, 100.0, cfg)
    assert np.array_equal(A, np.zeros((4, 4)))
    assert trace.converged and trace.iterations == 1


def test_lamm_matches_long_run_prox_gradient_oracle():
    rng = np.random.default_rng(99)
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    T = np.outer(u, v)
    ds = full_observation_dataset(T)
    loss = MaskedSquaredLoss.from_dataset(ds)
    lam = 0.1
    cfg = SolverConfig(epsilon=1e-10, max_iters=5000)
    A, trace = lamm_solve(loss, lam, 50.0, cfg)
    oracle = prox_gradient_fixed_step(ds.rows, ds.cols, ds.values, T.shape,
                                      lam, box=50.0, n_iters=20000)
    assert np.linalg.norm(A - oracle) <= 1e-6 * (1 + np.linalg.norm(oracle))


def test_lamm_objective_monotone_and_feasible():
    for trial in range(5):
        rng = np.random.default_rng(trial)
        ds = random_dataset(6, 5, 18, rng=rng)
        loss = MaskedSquaredLoss.from_dataset(ds)
        a = 3.0
        A, trace = lamm_solve(loss, 0.05, a, SolverConfig(max_iters=300))
        assert np.max(np.abs(A)) <= a + 1e-12
        obj = trace.objective_values
        scale = abs(obj[0]) + 1.0
        assert all(obj[i + 1] <= obj[i] + 1e-9 * scale for i in range(len(obj) - 1))


def test_lamm_max_iters_reports_not_converged():
    ds = random_dataset(6, 5, 20)
    loss = MaskedSquaredLoss.from_dataset(ds)
    cfg = SolverConfig(epsilon=1e-14, max_iters=3)
    _, trace = lamm_solve(loss, 0.001, 10.0, cfg)
    assert not trace.converged
    assert trace.iterations == 3


def _prox_evals_problem():
    # Seeded 60x30 rank-3 problem with 300 observations and a small penalty.
    rng = np.random.default_rng(0)
    T = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 30))
    rows = rng.integers(0, 60, 300)
    cols = rng.integers(0, 30, 300)
    values = T[rows, cols] + 0.5 * rng.standard_normal(300)
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(60, 30, rows, cols, values))
    return loss, float(np.max(np.abs(T)))


def test_lamm_prox_evals_per_iteration():
    # Every rejected candidate costs a full prox evaluation. Lowering phi
    # after each single step with slack gets the next step rejected often
    # (about 1.65 prox evaluations per iteration here); waiting for PATIENCE
    # slack steps in a row and jumping straight to the rejected step's
    # curvature give about 1.17.
    loss, a = _prox_evals_problem()
    _, trace = lamm_solve(loss, 0.005, a, SolverConfig())
    assert trace.prox_evals >= trace.iterations
    assert trace.prox_evals / trace.iterations < 1.3
    assert trace.final_phi <= loss.curvature_bound()


def test_lamm_first_iteration_ramp_is_short():
    # phi starts at 1e-3 * L. Doubling from there took 10 prox evaluations in
    # the first iteration of this problem; a rejected candidate's exact
    # curvature along its step gets there in 4.
    loss, a = _prox_evals_problem()
    _, trace = lamm_solve(loss, 0.005, a, SolverConfig(max_iters=1))
    assert trace.iterations == 1
    assert trace.prox_evals <= 5
    assert trace.final_phi <= loss.curvature_bound()


def test_lamm_tight_solve_step_rule_ignores_roundoff():
    # At epsilon = 1e-10 the last steps are so short that L(c) - L(Y) -
    # <grad L(Y), c - Y> computed from loss values is roundoff; a step rule
    # fed by it kept phi near L and took 7183 prox evaluations here (3259
    # under the rule that halves phi after every slack step). The gradient
    # form of the same curvature takes 1953.
    loss, a = _prox_evals_problem()
    cfg = SolverConfig(epsilon=1e-10, max_iters=20000)
    _, trace = lamm_solve(loss, 0.005, a, cfg)
    assert trace.converged
    assert trace.prox_evals < 2600
    assert trace.final_phi <= loss.curvature_bound()


@pytest.mark.parametrize("a", [100.0, 3.0])
def test_lamm_final_objective_matches_fresh_svd(a, caplog):
    # a = 100 leaves every step inside the box (penalty from the prox's
    # nuclear norm); a = 3 clips one entry of the solution (penalty from an
    # SVD of the clipped step), which the trace and a warning report.
    rng = np.random.default_rng(3)
    T = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 12))
    rows = rng.integers(0, 20, 150)
    cols = rng.integers(0, 12, 150)
    values = T[rows, cols] + 0.1 * rng.standard_normal(150)
    ds = MaskedDataset(20, 12, rows, cols, values)
    loss = MaskedSquaredLoss.from_dataset(ds)
    lam = 0.02
    with caplog.at_level(logging.WARNING, logger="transmc"):
        est = fit_single(ds, lam, a, SolverConfig(), label="fold 1")
    A, trace = est.matrix, est.trace
    assert trace.converged
    assert np.count_nonzero(np.abs(A) == a) == (1 if a == 3.0 else 0)
    assert trace.box_active == (a == 3.0)
    uncertified = [rec.message for rec in caplog.records if "not certified" in rec.message]
    assert len(uncertified) == (1 if a == 3.0 else 0)
    assert all(msg.startswith("fold 1 fit") for msg in uncertified)
    fresh = loss.value(A) + lam * float(np.linalg.svd(A, compute_uv=False).sum())
    assert trace.objective_values[-1] == pytest.approx(fresh, rel=1e-10)


class _NanLoss:
    shape = (2, 2)

    def value(self, A):
        return float("nan")

    def gradient(self, A, out=None):
        return np.zeros((2, 2))

    def curvature_bound(self):
        return 1.0


def test_lamm_nonfinite_loss_raises():
    cfg = SolverConfig(epsilon=1e-6, max_iters=10)
    with pytest.raises(SolverDivergedError):
        lamm_solve(_NanLoss(), 0.0, 1.0, cfg)


def test_lamm_nonfinite_prox_raises_through_the_loss_check(monkeypatch):
    # The candidate is not re-checked after soft_threshold: a non-finite one
    # is caught by the loss value at it.
    from transmc import solver

    def nan_threshold(B, lam):
        return np.full(B.shape, np.nan), 0.0

    monkeypatch.setattr(solver, "soft_threshold", nan_threshold)
    loss = MaskedSquaredLoss.from_dataset(random_dataset(4, 3, 10))
    for shift in (None, np.zeros((4, 3))):
        with pytest.raises(SolverDivergedError, match="candidate"):
            lamm_solve(loss, 0.1, 1.0, SolverConfig(max_iters=5), shift=shift)


def test_lamm_infeasible_init_rejected():
    # The solve starts at zero, which |A + shift|_inf <= a excludes when |shift| > a.
    ds = random_dataset(3, 3, 6)
    loss = MaskedSquaredLoss.from_dataset(ds)
    with pytest.raises(ValueError, match="zero start"):
        lamm_solve(loss, 0.0, 0.5, SolverConfig(max_iters=5), shift=np.full((3, 3), 2.0))
    with pytest.raises(ValueError, match="shift shape"):
        lamm_solve(loss, 0.0, 0.5, SolverConfig(max_iters=5), shift=np.zeros((1, 3)))


def test_lamm_backtracking_stays_bounded():
    ds = random_dataset(8, 6, 60)
    loss = MaskedSquaredLoss.from_dataset(ds)
    _, trace = lamm_solve(loss, 0.01, 10.0, SolverConfig(max_iters=200))
    assert trace.final_phi <= loss.curvature_bound()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=1e-6, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    loss = MaskedSquaredLoss.from_dataset(random_dataset(3, 3, 6))
    with pytest.raises(ValueError):
        lamm_solve(loss, -0.1, 1.0, SolverConfig())
    with pytest.raises(ValueError):
        lamm_solve(loss, 0.0, 0.0, SolverConfig())
