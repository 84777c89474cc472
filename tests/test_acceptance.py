"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The reduced-scale designs, penalty multipliers and selection constants used
here are the shipped preset calibrations; see README for how to rerun them
from the command line.
"""

import time
import zlib

import numpy as np
import pytest

from transmc import linalg
from transmc.cli import DEFAULT_MULTIPLIER, run_benchmark
from transmc.data_io import FrameFile, holdout_split, window_sources
from transmc.datasets import MaskedDataset
from transmc.estimators import (
    PenaltyPolicy,
    estimate_noise_scale,
    fit_single,
    theorem_penalty,
    trans_mc,
)
from transmc.losses import MaskedSquaredLoss
from transmc.metrics import holdout_errors, rel_frob_error
from transmc.simulation import (
    PRESETS,
    ScenarioSpec,
    generate_scenario,
    synthetic_frames,
)
from transmc.solver import SolverConfig, lamm_solve
from _oracles import (
    duality_gap,
    grad_finite_difference,
    numerical_rank,
    project_rowcol,
    prox_gradient_fixed_step,
    svd,
)

REPS = 20
C = DEFAULT_MULTIPLIER  # calibrated penalty multiplier for the shipped presets
SELECTION_PARAMS = {"c1": C, "c2": C, "c_tilde": 2.0, "epsilon0": 1.25,
                    "folds": 4, "max_iters": 1500}


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {criterion} ({label}): {status} {detail}")
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: error-vs-sources curve, both sampling schemes
# ---------------------------------------------------------------------------

def test_criterion_1_error_curve_shape():
    t0 = time.time()
    bench = run_benchmark(PRESETS["paper-5.1-small"], REPS, ("curve",),
                          SELECTION_PARAMS, schemes=("uniform", "product"))
    ok = True
    details = []
    for label, block in bench.items():
        curves = np.array([r["curve"] for r in block["results"]], dtype=float)
        mean = curves.mean(axis=0)
        se = curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])
        monotone = all(mean[k + 1] <= mean[k] + se[k + 1] for k in range(10))
        drop = 1.0 - mean[10] / mean[0]
        ok = ok and monotone and drop >= 0.25
        details.append(f"{label}: drop {100 * drop:.0f}%, monotone {monotone}")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 600
    report(1, "error curve vs source count",
           ok, "; ".join(details) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 2 and 3 share the mixed-design benchmark runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_design_runs():
    return run_benchmark(PRESETS["paper-5.2-small"], REPS,
                         ("transmc", "s-transmc"), SELECTION_PARAMS,
                         schemes=("uniform", "product"))


def test_criterion_2_selection_beats_pooling_on_all(mixed_design_runs):
    ok = True
    details = []
    for label, block in mixed_design_runs.items():
        all_errs = np.array([r["errors"]["transmc"] for r in block["results"]])
        sel_errs = np.array([r["errors"]["s-transmc"] for r in block["results"]])
        wins = int(np.sum(sel_errs < all_errs))
        ratio = float(all_errs.mean() / sel_errs.mean())
        ok = ok and wins >= 18 and ratio >= 2.0
        details.append(f"{label}: wins {wins}/20, mean ratio {ratio:.2f}")
    report(2, "selective transfer beats pooling over all sources",
           ok, "; ".join(details))


def test_criterion_3_selection_consistency(mixed_design_runs):
    ok = True
    details = []
    for label, block in mixed_design_runs.items():
        exact = sum(r["selected"] == (1, 2, 3, 4, 5) for r in block["results"])
        ok = ok and exact >= 18
        details.append(f"{label}: exact {exact}/20")
    report(3, "informative set recovered exactly", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: error rate scales like 1/N at zero contrast
# ---------------------------------------------------------------------------

def test_criterion_4_rate_scaling():
    spec = ScenarioSpec(m1=30, m2=20, rank=2, contrasts=(0.0,) * 7,
                        n0_frac=0.5, nk_frac=0.5, sampling="uniform", seed=7)
    policy = PenaltyPolicy(a=spec.a_cap, c1=C, c2=C, v=spec.noise_sd)
    solver = SolverConfig(max_iters=1500)
    sizes, mses = [], []
    for k in (0, 1, 3, 7):
        errs = []
        for rep in range(REPS):
            data = generate_scenario(spec, rep=rep)
            est = trans_mc(data.target, data.sources[:k], policy, solver)
            errs.append(rel_frob_error(est.matrix, data.truth) ** 2)
        sizes.append(spec.n0 * (1 + k))
        mses.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(sizes), np.log(mses), 1)[0])
    ok = -1.3 <= slope <= -0.7
    report(4, "mean squared error scales like 1/N at zero contrast",
           ok, f"slope {slope:.3f}")


# ---------------------------------------------------------------------------
# criterion 5: solver equals the long-run proximal-gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_5_solver_oracle_equivalence(thresholds):
    rng = np.random.default_rng(4242)
    problems, solutions = [], []
    monotone = True
    gaps = []  # duality gap relative to the objective, per problem
    for _ in range(10):
        truth = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        n = 24
        rows = rng.integers(0, 6, size=n)
        cols = rng.integers(0, 5, size=n)
        values = truth[rows, cols] + 0.1 * rng.standard_normal(n)
        ds = MaskedDataset(6, 5, rows, cols, values)
        lam = float(rng.uniform(0.03, 0.12))
        loss = MaskedSquaredLoss.from_dataset(ds)
        cfg = SolverConfig(max_iters=20000, epsilon=1e-11)
        thresholds.clear()
        A, trace = lamm_solve(loss, lam, 50.0, cfg)
        assert all(tau >= lam / loss.curvature_bound() for tau in thresholds)
        obj = trace.objective_values
        tol = 1e-9 * (1.0 + abs(obj[0]))
        monotone = monotone and all(
            obj[i + 1] <= obj[i] + tol for i in range(len(obj) - 1)
        )
        gap, primal = duality_gap(A, rows, cols, values, lam)
        gaps.append(gap / primal)
        problems.append((rows, cols, values, lam))
        solutions.append(A)
    oracles = prox_gradient_fixed_step(problems, (6, 5), box=50.0, n_iters=100_000)
    worst = max(float(np.linalg.norm(A - oracle) / max(np.linalg.norm(oracle), 1e-12))
                for A, oracle in zip(solutions, oracles))
    # A gap below -1e-14 would break weak duality: the certificate is wrong.
    ok = worst <= 1e-5 and monotone and -1e-14 <= min(gaps) and max(gaps) <= 1e-10
    report(5, "solver matches fixed-step proximal-gradient oracle",
           ok, f"worst relative gap {worst:.2e}, trace monotone {monotone}, "
               f"worst relative duality gap {max(gaps):.2e}")


# ---------------------------------------------------------------------------
# criterion 6: analytic gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_6_gradient_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        m1, m2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        n = int(rng.integers(4, 40))
        rows = rng.integers(0, m1, size=n)
        cols = rng.integers(0, m2, size=n)
        values = rng.standard_normal(n) * 2
        loss = MaskedSquaredLoss.from_dataset(MaskedDataset(m1, m2, rows, cols, values))
        A = rng.standard_normal((m1, m2))
        g = loss.gradient(A)
        g_fd = grad_finite_difference(loss.value, A, step=1e-6)
        mask = np.abs(g_fd) > 1e-8
        if mask.any():
            worst = max(worst, float(np.max(
                np.abs(g - g_fd)[mask] / np.abs(g_fd)[mask]
            )))
    ok = worst <= 1e-4
    report(6, "gradient matches finite differences", ok,
           f"max relative entry error {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: invariant suites at 1000 cases each
# ---------------------------------------------------------------------------

def _cases_soft_threshold_nonexpansive(rng):
    m1, m2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    lam = float(rng.uniform(0, 4))
    A = rng.standard_normal((m1, m2)) * 3
    B = rng.standard_normal((m1, m2)) * 3
    lhs = np.linalg.norm(linalg.soft_threshold(A, lam)[0] - linalg.soft_threshold(B, lam)[0])
    return lhs <= np.linalg.norm(A - B) + 1e-9


def _cases_box_projection_idempotent(rng):
    m1, m2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    a = float(rng.uniform(0.1, 5.0))
    shift = rng.standard_normal((m1, m2)) if rng.uniform() < 0.5 else None
    A = rng.standard_normal((m1, m2)) * 10
    bounds = linalg.box_bounds(a, shift)
    once = linalg.clamp_box(A, *bounds)[0]
    return np.array_equal(once, linalg.clamp_box(once, *bounds)[0])


def _cases_projection_rank_bound(rng):
    m1, m2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    r = int(rng.integers(1, min(m1, m2) + 1))
    A = rng.standard_normal((m1, r)) @ rng.standard_normal((r, m2))
    B = rng.standard_normal((m1, m2))
    proj, perp = project_rowcol(A, B)
    if not np.allclose(proj + perp, B, atol=1e-12):
        return False
    return numerical_rank(proj) <= 2 * numerical_rank(A)


def _cases_svd_round_trip(rng):
    m1 = int(np.exp(rng.uniform(0, np.log(200))))
    m2 = int(np.exp(rng.uniform(0, np.log(200))))
    A = rng.standard_normal((max(m1, 1), max(m2, 1))) * float(rng.uniform(0.1, 10))
    f = svd(A)
    return np.linalg.norm(f.reconstruct() - A) <= 1e-10 * (1 + np.linalg.norm(A))


def _cases_holdout_partition(rng):
    m1, m2 = 10, 12
    n = int(rng.integers(4, 80))
    flat = rng.choice(m1 * m2, size=n, replace=False)
    frame = FrameFile(m1, m2, "f", flat // m2, flat % m2, rng.standard_normal(n))
    fraction = float(rng.uniform(0.1, 0.9))
    n_test = round(fraction * n)
    if n_test < 1 or n_test >= n:
        return True
    train, test = holdout_split(frame, fraction, seed=int(rng.integers(2**31)))
    if test.n != n_test or train.n + test.n != n:
        return False
    keys = set(zip(train.rows, train.cols)) | set(zip(test.rows, test.cols))
    return len(keys) == n


def _cases_pipeline_determinism(rng):
    seed = int(rng.integers(2**31))
    rep = int(rng.integers(4))
    spec = ScenarioSpec(m1=9, m2=7, rank=2, contrasts=(3.0,),
                        n0_frac=0.4, nk_frac=0.3, noise_sd=0.5,
                        sampling="product" if rng.uniform() < 0.5 else "uniform",
                        seed=seed)
    a = generate_scenario(spec, rep=rep)
    b = generate_scenario(spec, rep=rep)
    return (
        np.array_equal(a.truth, b.truth)
        and np.array_equal(a.target.rows, b.target.rows)
        and np.array_equal(a.target.values, b.target.values)
        and np.array_equal(a.sources[0].values, b.sources[0].values)
    )


def test_criterion_7_invariant_suites():
    suites = [
        ("soft-threshold nonexpansive", _cases_soft_threshold_nonexpansive),
        ("box projection idempotent", _cases_box_projection_idempotent),
        ("projection rank bound", _cases_projection_rank_bound),
        ("svd round trip", _cases_svd_round_trip),
        ("holdout partition exact", _cases_holdout_partition),
        ("pipeline seed determinism", _cases_pipeline_determinism),
    ]
    failures = []
    for name, case in suites:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        bad = sum(not case(rng) for _ in range(1000))
        if bad:
            failures.append(f"{name}: {bad}/1000 failed")
    report(7, "invariant suites x 1000 cases", not failures,
           "; ".join(failures) or "all 6 suites clean")


# ---------------------------------------------------------------------------
# criterion 8: holdout pipeline on a synthetic frame sequence
# ---------------------------------------------------------------------------

def test_criterion_8_frame_pipeline_smoke():
    t0 = time.time()
    truths, obs = synthetic_frames(m1=91, m2=180, n_frames=12, rank=5,
                                   missing=0.25, noise_sd=1.0, drift=0.02,
                                   seed=42)
    frames = [FrameFile(91, 180, f"t{t:03d}", r, c, v)
              for t, (r, c, v) in enumerate(obs)]
    a = 1.05 * max(float(np.max(np.abs(f.values))) for f in frames)
    solver = SolverConfig(max_iters=500)
    single_res, transfer_res = [], []
    for t in range(10):
        train, test = holdout_split(frames[t], 0.2, (42, t))
        v_hat = estimate_noise_scale(train, a, solver)
        lam = theorem_penalty(C, a, v_hat, train.n, min(91, 180))
        est_single = fit_single(train, lam, a, solver)
        _, re_single = holdout_errors(est_single.matrix, test)
        sources = [frames[i].to_dataset(task_id=j + 1)
                   for j, i in enumerate(window_sources(len(frames), t, half_width=10))]
        policy = PenaltyPolicy(a=a, c1=C, c2=C, v=v_hat)
        est_transfer = trans_mc(train, sources, policy, solver)
        _, re_transfer = holdout_errors(est_transfer.matrix, test)
        single_res.append(re_single)
        transfer_res.append(re_transfer)
    mean_single = float(np.mean(single_res))
    mean_transfer = float(np.mean(transfer_res))
    ok = mean_transfer <= mean_single
    report(8, "frame-sequence holdout: transfer beats single-task", ok,
           f"mean RE transfer {mean_transfer:.4f} vs single {mean_single:.4f}; "
           f"{time.time() - t0:.0f}s")
