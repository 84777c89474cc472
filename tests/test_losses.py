import numpy as np
import pytest

from transmc.datasets import MaskedDataset
from transmc.losses import MaskedSquaredLoss
from _oracles import grad_double_loop, loss_double_loop

RNG = np.random.default_rng(7)


def random_instance(m1=8, m2=6, n=40, duplicates=True):
    rows = RNG.integers(0, m1, size=n)
    cols = RNG.integers(0, m2, size=n)
    if duplicates:
        rows[1] = rows[0]
        cols[1] = cols[0]
    values = RNG.standard_normal(n)
    A = RNG.standard_normal((m1, m2))
    return A, rows, cols, values


def test_matches_per_observation_reference():
    A, rows, cols, values = random_instance()
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(*A.shape, rows, cols, values))
    assert loss.n == values.size and loss.shape == A.shape
    assert np.allclose(loss.gradient(A), grad_double_loop(A, rows, cols, values),
                       rtol=0.0, atol=1e-13)
    out = np.full(A.shape, np.nan)
    assert loss.gradient(A, out=out) is out
    assert np.array_equal(out, loss.gradient(A))


def test_loss_value_matches_double_loop():
    A, rows, cols, values = random_instance()
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(*A.shape, rows, cols, values))
    assert loss.value(A) == pytest.approx(loss_double_loop(A, rows, cols, values), rel=1e-13)


def test_value_precise_for_large_entries():
    # Entries near 1e4 with unit noise: the loss is O(1) while sum y^2 / n is
    # O(1e8), so any form that expands the square loses about 8 digits here.
    m1, m2, n = 20, 15, 900
    truth = 1e4 + RNG.standard_normal((m1, m2))
    rows = RNG.integers(0, m1, size=n)
    cols = RNG.integers(0, m2, size=n)
    values = truth[rows, cols] + RNG.standard_normal(n)
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(m1, m2, rows, cols, values))
    for A in (truth, truth + 0.01 * RNG.standard_normal((m1, m2))):
        assert loss.value(A) == pytest.approx(loss_double_loop(A, rows, cols, values),
                                              rel=1e-12)


def test_gradient_accumulates_duplicates():
    loss = MaskedSquaredLoss.from_dataset(
        MaskedDataset(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 3.0, 2.0]))
    g = loss.gradient(np.zeros((2, 2)))
    # (2/3) * ((0-1) + (0-3)) at (0,0), (2/3) * (0-2) at (1,1)
    assert g[0, 0] == pytest.approx(-8.0 / 3.0)
    assert g[1, 1] == pytest.approx(-4.0 / 3.0)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0
    # (1 + 9 + 4) / 3 at A = 0
    assert loss.value(np.zeros((2, 2))) == pytest.approx(14.0 / 3.0)


def test_gradient_zero_at_interpolant():
    A, rows, cols, _ = random_instance(duplicates=False)
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(*A.shape, rows, cols, A[rows, cols]))
    assert np.allclose(loss.gradient(A), 0.0)
    assert loss.value(A) == 0.0


def test_zero_at_interpolant_with_repeated_cells():
    # Cells sampled three and seven times with equal values: the cell means
    # must reproduce the value exactly, so the loss is exactly zero.
    A = np.array([[0.1, 1.0 / 3.0], [2.7, -5.3]])
    rows = np.array([0, 0, 0, 1] + [0] * 7)
    cols = np.array([0, 0, 0, 1] + [1] * 7)
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(2, 2, rows, cols, A[rows, cols]))
    assert loss.value(A) == 0.0
    assert not np.any(loss.gradient(A))


def test_shifted_matches_recentered_values():
    A, rows, cols, values = random_instance()
    base = RNG.standard_normal(A.shape)
    shifted = MaskedSquaredLoss.from_dataset(
        MaskedDataset(*A.shape, rows, cols, values)).shifted(base)
    direct = MaskedSquaredLoss.from_dataset(
        MaskedDataset(*A.shape, rows, cols, values - base[rows, cols]))
    assert shifted.n == direct.n
    assert shifted.value(A) == pytest.approx(direct.value(A), rel=1e-13)
    assert np.allclose(shifted.gradient(A), direct.gradient(A), rtol=0.0, atol=1e-13)
    assert shifted.curvature_bound() == direct.curvature_bound()
    with pytest.raises(ValueError):
        shifted.shifted(np.zeros((2, 2)))


def test_curvature_bound_is_twice_max_count_over_n():
    rows = np.array([0, 1, 1, 2, 1, 0])
    cols = np.array([0, 2, 2, 1, 2, 0])
    loss = MaskedSquaredLoss.from_dataset(MaskedDataset(3, 3, rows, cols, np.ones(6)))
    assert loss.curvature_bound() == 2.0 * 3 / 6


def test_pooled_loss_equals_concatenated_samples():
    A, rows, cols, values = random_instance(n=30)
    first = MaskedDataset(*A.shape, rows[:12], cols[:12], values[:12], task_id=0)
    second = MaskedDataset(*A.shape, rows[12:], cols[12:], values[12:], task_id=1)
    pooled = MaskedSquaredLoss.from_datasets([first, second])
    assert pooled.n == 30
    assert pooled.value(A) == pytest.approx(loss_double_loop(A, rows, cols, values), rel=1e-13)


def test_pooled_statistics_match_concatenated_constructor():
    # Three tasks sharing cells, entries near 1e3: the per-task reduction
    # must give the statistics of one constructor call on the concatenation.
    rng = np.random.default_rng(11)
    m1, m2 = 7, 5
    tasks = []
    for task_id, n in enumerate((40, 3, 25)):
        rows = rng.integers(0, m1, size=n)
        cols = rng.integers(0, m2, size=n)
        values = 1e3 + rng.standard_normal(n)
        tasks.append(MaskedDataset(m1, m2, rows, cols, values, task_id=task_id))
    pooled = MaskedSquaredLoss.from_datasets(tasks)
    whole = MaskedSquaredLoss.from_dataset(
        MaskedDataset(m1, m2, *(np.concatenate([getattr(ds, f) for ds in tasks])
                                for f in ("rows", "cols", "values"))))
    assert pooled.n == whole.n == 68
    assert np.array_equal(pooled.counts, whole.counts)
    assert np.allclose(pooled.means, whole.means, rtol=1e-12, atol=0.0)
    assert pooled.rss0 == pytest.approx(whole.rss0, rel=1e-12)
    A = 1e3 + rng.standard_normal((m1, m2))
    assert pooled.value(A) == pytest.approx(whole.value(A), rel=1e-12)
    assert np.allclose(pooled.gradient(A), whole.gradient(A), rtol=1e-12, atol=0.0)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        MaskedSquaredLoss.from_dataset(MaskedDataset(2, 2, [], [], []))
    with pytest.raises(ValueError):
        MaskedSquaredLoss.from_dataset(MaskedDataset(2, 2, [2], [0], [1.0]))
    with pytest.raises(ValueError):
        MaskedSquaredLoss.from_dataset(MaskedDataset(2, 2, [0], [-1], [1.0]))
    with pytest.raises(ValueError):
        MaskedSquaredLoss.from_dataset(MaskedDataset(2, 2, [0], [0, 1], [1.0, 2.0]))
