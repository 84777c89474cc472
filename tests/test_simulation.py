import numpy as np
import pytest

from transmc.simulation import (
    CONTRAST_BAND,
    PRESETS,
    GenerationError,
    SamplingModel,
    ScenarioSpec,
    gen_sampling,
    gen_sources,
    gen_target,
    generate_scenario,
    sample_observations,
    scenario_matrices,
    synthetic_frames,
)
from _oracles import norms, numerical_rank, prob_matrix, sampling_diagnostics

SMALL = ScenarioSpec(m1=12, m2=8, rank=2, contrasts=(6.0, 0.0, 20.0),
                     n0_frac=0.5, nk_frac=0.4, noise_sd=0.5, sampling="uniform",
                     seed=99)


# ---------------------------------------------------------------------------
# gen_target
# ---------------------------------------------------------------------------

def test_gen_target_rank_exact():
    spec = ScenarioSpec(m1=10, m2=7, rank=1, seed=3)
    A0 = gen_target(spec)
    assert numerical_rank(A0) == 1
    spec = ScenarioSpec(m1=10, m2=7, rank=4, seed=3)
    assert numerical_rank(gen_target(spec)) == 4


def test_gen_target_entry_cap_binds_with_equality():
    spec = ScenarioSpec(m1=40, m2=25, rank=5, a_cap=2.0, seed=8)
    A0 = gen_target(spec)
    peak = float(np.max(np.abs(A0)))
    assert peak <= 2.0
    # cap 2.0 always binds for this spectrum scale
    assert peak == pytest.approx(2.0, abs=1e-9)


def test_gen_target_spectrum_range():
    spec = ScenarioSpec(m1=30, m2=20, rank=6, a_cap=1e9, seed=5)
    s = np.linalg.svd(gen_target(spec), compute_uv=False)[:6]
    assert np.all(s >= 1.0 - 1e-9)
    assert np.all(s <= np.exp(5.0) + 1e-6)
    assert np.all(np.diff(s) <= 1e-12)


def test_gen_target_deterministic():
    assert np.array_equal(gen_target(SMALL), gen_target(SMALL))


# ---------------------------------------------------------------------------
# gen_sources
# ---------------------------------------------------------------------------

def test_gen_sources_zero_contrast_is_exact_copy():
    A0 = gen_target(SMALL)
    mats, achieved = gen_sources(A0, SMALL)
    assert np.array_equal(mats[1], A0)
    assert achieved[1] == 0.0


def test_gen_sources_hit_band_and_cap():
    A0 = gen_target(SMALL)
    mats, achieved = gen_sources(A0, SMALL)
    for target_h, got, Ak in zip(SMALL.contrasts, achieved, mats):
        if target_h > 0:
            assert abs(got - target_h) <= CONTRAST_BAND * target_h
            delta_nuc = norms(Ak - A0).nuclear
            assert delta_nuc == pytest.approx(got, rel=1e-9)
        assert np.max(np.abs(Ak)) <= SMALL.a_cap + 1e-12


def test_gen_sources_band_separation():
    spec = PRESETS["paper-5.2-small"]
    A0, _, achieved = scenario_matrices(spec)
    informative = achieved[:5]
    noninformative = achieved[5:]
    assert max(informative) < min(noninformative)


def test_gen_sources_infeasible_cap_raises():
    spec = ScenarioSpec(m1=6, m2=5, rank=1, a_cap=0.01, contrasts=(50.0,), seed=1)
    A0 = gen_target(spec)
    with pytest.raises(GenerationError):
        gen_sources(A0, spec, max_retries=5)


# ---------------------------------------------------------------------------
# gen_sampling / SamplingModel
# ---------------------------------------------------------------------------

def test_uniform_sampling_probabilities():
    spec = ScenarioSpec(m1=300, m2=150, rank=3, seed=1)
    model = gen_sampling(spec, task=0)
    P = prob_matrix(model)
    assert np.allclose(P, 1.0 / 45000)
    diag = sampling_diagnostics(model)
    assert diag["mu_hat"] == pytest.approx(1.0)


def test_product_sampling_is_rank_one():
    spec = ScenarioSpec(m1=20, m2=15, rank=2, sampling="product", seed=4)
    model = gen_sampling(spec, task=2)
    P = prob_matrix(model)
    assert abs(P.sum() - 1.0) <= 1e-10
    assert numerical_rank(P) == 1
    outer = np.outer(model.row_probs, model.col_probs)
    assert np.max(np.abs(P - outer)) <= 1e-12


def test_product_sampling_differs_by_task():
    spec = ScenarioSpec(m1=20, m2=15, rank=2, sampling="product", seed=4)
    a = gen_sampling(spec, task=0)
    b = gen_sampling(spec, task=1)
    assert not np.allclose(a.row_probs, b.row_probs)


def test_product_sampling_validation():
    half = np.full(2, 0.5)
    with pytest.raises(ValueError):  # marginal sums to 0.6
        SamplingModel(kind="row_col_product", m1=2, m2=2,
                      row_probs=np.full(2, 0.3), col_probs=half)
    with pytest.raises(ValueError):  # negative entry, sum still 1
        SamplingModel(kind="row_col_product", m1=2, m2=2,
                      row_probs=half, col_probs=np.array([1.1, -0.1]))
    with pytest.raises(ValueError):  # wrong length
        SamplingModel(kind="row_col_product", m1=3, m2=2, row_probs=half, col_probs=half)
    with pytest.raises(ValueError):
        SamplingModel(kind="explicit", m1=2, m2=2)
    model = SamplingModel(kind="row_col_product", m1=2, m2=2,
                          row_probs=np.array([0.75, 0.25]), col_probs=half)
    diag = sampling_diagnostics(model)
    assert diag["mu_hat"] == pytest.approx(1.0 / (4 * 0.125))
    assert diag["max_prob"] == pytest.approx(0.375)
    assert diag["max_row_marginal"] == pytest.approx(0.75)
    assert diag["max_col_marginal"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# sample_observations
# ---------------------------------------------------------------------------

def test_sample_observations_noiseless_exact():
    A = np.arange(12.0).reshape(3, 4)
    model = SamplingModel(kind="uniform", m1=3, m2=4)
    ds = sample_observations(A, model, 50, 0.0, seed=7)
    assert np.array_equal(ds.values, A[ds.rows, ds.cols])


def test_sample_observations_deterministic():
    A = np.arange(12.0).reshape(3, 4)
    model = SamplingModel(kind="uniform", m1=3, m2=4)
    d1 = sample_observations(A, model, 30, 1.0, seed=(1, 2))
    d2 = sample_observations(A, model, 30, 1.0, seed=(1, 2))
    assert np.array_equal(d1.rows, d2.rows)
    assert np.array_equal(d1.values, d2.values)
    d3 = sample_observations(A, model, 30, 1.0, seed=(1, 3))
    assert not np.array_equal(d1.values, d3.values)


def test_sample_observations_multinomial_concentration():
    A = np.zeros((10, 10))
    model = SamplingModel(kind="uniform", m1=10, m2=10)
    n = 100_000
    ds = sample_observations(A, model, n, 0.0, seed=13)
    counts = np.zeros((10, 10))
    np.add.at(counts, (ds.rows, ds.cols), 1.0)
    p = 0.01
    se = np.sqrt(n * p * (1 - p))
    within = np.abs(counts - n * p) <= 3 * se
    assert within.sum() >= 95


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_generate_scenario_sizes_and_ids():
    data = generate_scenario(SMALL, rep=0)
    assert data.target.task_id == 0
    assert data.target.n == SMALL.n0
    assert [s.task_id for s in data.sources] == [1, 2, 3]
    assert all(s.n == SMALL.nk for s in data.sources)


def test_generate_scenario_bit_deterministic():
    a = generate_scenario(SMALL, rep=3)
    b = generate_scenario(SMALL, rep=3)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.target.values, b.target.values)
    for s, t in zip(a.sources, b.sources):
        assert np.array_equal(s.rows, t.rows)
        assert np.array_equal(s.values, t.values)
    c = generate_scenario(SMALL, rep=4)
    assert not np.array_equal(a.target.values, c.target.values)
    assert np.array_equal(a.truth, c.truth)  # matrices fixed across reps


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(m1=4, m2=4, rank=5)
    with pytest.raises(ValueError):
        ScenarioSpec(m1=4, m2=4, rank=2, n0_frac=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(m1=4, m2=4, rank=2, noise_sd=-1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(m1=4, m2=4, rank=2, contrasts=(1.0,), sampling=("uniform",))
    with pytest.raises(ValueError):
        ScenarioSpec(m1=4, m2=4, rank=2, spectrum_law="flat")


def test_presets_materialize():
    for name in ("paper-5.1-small", "paper-5.2-small", "paper-5.1-small-ss2",
                 "paper-5.2-small-ss2"):
        spec = PRESETS[name]
        data = generate_scenario(spec, rep=0)
        assert data.target.n == spec.n0
        assert len(data.sources) == spec.K


def test_synthetic_frames_shapes_and_missingness():
    truths, obs = synthetic_frames(m1=20, m2=30, n_frames=4, rank=3,
                                   missing=0.25, noise_sd=0.0, drift=0.1, seed=1)
    assert len(truths) == len(obs) == 4
    n_expected = round(0.75 * 600)
    for A, (rows, cols, values) in zip(truths, obs):
        assert rows.size == n_expected
        flat = rows * 30 + cols
        assert np.unique(flat).size == flat.size  # each cell at most once
        assert np.array_equal(values, A[rows, cols])
    assert not np.array_equal(truths[0], truths[3])
