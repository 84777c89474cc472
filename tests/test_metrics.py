import csv
import math
from dataclasses import astuple

import numpy as np
import pytest

from transmc.datasets import MaskedDataset
from transmc.metrics import RepSummary, holdout_errors, rel_frob_error, summarize, write_csv

RNG = np.random.default_rng(55)


def test_rel_frob_error_basics():
    T = RNG.standard_normal((4, 5))
    assert rel_frob_error(T, T) == 0.0
    assert rel_frob_error(2 * T, T) == pytest.approx(1.0)
    assert rel_frob_error(np.zeros_like(T), T) == pytest.approx(1.0)


def test_rel_frob_error_scale_invariant():
    est = RNG.standard_normal((3, 3))
    truth = RNG.standard_normal((3, 3))
    base = rel_frob_error(est, truth)
    for c in (0.1, -2.0, 37.5):
        assert rel_frob_error(c * est, c * truth) == pytest.approx(base, rel=1e-12)


def test_rel_frob_error_rejects_zero_truth():
    with pytest.raises(ValueError):
        rel_frob_error(np.ones((2, 2)), np.zeros((2, 2)))


def test_holdout_errors_perfect_and_single():
    T = RNG.standard_normal((4, 4))
    test = MaskedDataset(4, 4, [0, 1], [1, 2], T[[0, 1], [1, 2]])
    e, re = holdout_errors(T, test)
    assert e == 0.0 and re == 0.0
    single = MaskedDataset(3, 3, [2], [0], [-1.5])
    e, re = holdout_errors(np.zeros((3, 3)), single)
    assert e == pytest.approx(1.5)
    assert re == pytest.approx(1.0)


def test_holdout_errors_match_naive_sums():
    T = RNG.standard_normal((5, 6))
    rows = RNG.integers(0, 5, size=12)
    cols = RNG.integers(0, 6, size=12)
    values = RNG.standard_normal(12)
    test = MaskedDataset(5, 6, rows, cols, values)
    est = RNG.standard_normal((5, 6))
    e_naive = np.sqrt(sum((est[r, c] - v) ** 2 for r, c, v in zip(rows, cols, values)))
    re_naive = e_naive / np.sqrt(sum(v * v for v in values))
    e, re = holdout_errors(est, test)
    assert e == pytest.approx(e_naive, abs=1e-12)
    assert re == pytest.approx(re_naive, abs=1e-12)


def test_holdout_errors_rejects_all_zero_values():
    test = MaskedDataset(2, 2, [0, 1], [0, 1], [0.0, 0.0])
    with pytest.raises(ValueError):
        holdout_errors(np.ones((2, 2)), test)


def test_summarize_closed_forms():
    s = summarize([1.0, 1.0, 1.0])
    assert (s.mean, s.sd) == (1.0, 0.0)
    s = summarize([1.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.median == pytest.approx(2.0)
    assert s.sd == pytest.approx(np.sqrt(2.0))


def test_summarize_recomputable_and_permutation_invariant():
    vals = [0.132, 0.135, 0.138, 0.1345, 0.1365]
    s = summarize(vals)
    arr = np.array(vals)
    assert s.mean == pytest.approx(arr.mean(), abs=1e-12)
    assert s.median == pytest.approx(np.median(arr), abs=1e-12)
    assert s.sd == pytest.approx(arr.std(ddof=1), abs=1e-12)
    assert s.min <= s.median <= s.max
    shuffled = summarize(vals[::-1])
    assert shuffled.mean == s.mean and shuffled.sd == s.sd and shuffled.median == s.median


def test_summarize_skips_failed_fits():
    # None marks a replicate whose fit failed; it is left out of every statistic.
    s = summarize([None, 0.3, 0.1, None])
    assert s == summarize([0.1, 0.3]) and s.mean == pytest.approx(0.2)


@pytest.mark.parametrize("errors", [[], [None, None]], ids=["empty", "all-failed"])
def test_summarize_is_nan_when_no_error_is_left(errors):
    s = summarize(errors)
    assert isinstance(s, RepSummary)
    assert all(math.isnan(x) for x in (s.mean, s.median, s.min, s.max, s.sd))


def test_summary_csv_format(tmp_path):
    # A summary.csv row as the benchmark writes it: method, scheme, then the
    # RepSummary fields in order, each float to 12 significant digits.
    path = tmp_path / "summary.csv"
    header = ("method", "scheme", "mean", "median", "min", "max", "sd")
    write_csv(path, header, [["transmc", "SS1", *astuple(summarize([0.1, 0.2]))]])
    rows = list(csv.reader(open(path)))
    assert rows[0] == list(header)
    assert rows[1][:6] == ["transmc", "SS1", "0.15", "0.15", "0.1", "0.2"]
    assert float(rows[1][6]) == pytest.approx(np.std([0.1, 0.2], ddof=1))


def test_curve_csv_format(tmp_path):
    # The k_sources column stays an integer; only float cells are formatted.
    path = tmp_path / "curve.csv"
    header = ("k_sources", "mean_err", "sd")
    write_csv(path, header, [(0, 0.5, 0.01), (1, 0.4, 0.02)])
    rows = list(csv.reader(open(path)))
    assert rows[0] == list(header)
    assert [r[0] for r in rows[1:]] == ["0", "1"]
