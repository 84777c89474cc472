import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmc.data_io import (
    FrameFile,
    ParseError,
    holdout_split,
    read_dense,
    read_frame,
    read_samples,
    read_scenario,
    window_sources,
    write_dense,
    write_frame,
    write_samples,
    write_scenario,
)
from transmc.datasets import MaskedDataset
from transmc.simulation import PRESETS, generate_scenario

RNG = np.random.default_rng(202)


def random_frame(m1=7, m2=9, n=20, frame_id="t000", rng=RNG):
    flat = rng.choice(m1 * m2, size=n, replace=False)
    return FrameFile(m1, m2, frame_id, flat // m2, flat % m2,
                     rng.standard_normal(n))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_frame_round_trip_byte_identical(tmp_path):
    frame = random_frame()
    p1 = tmp_path / "a.frame"
    p2 = tmp_path / "b.frame"
    write_frame(frame, p1)
    write_frame(read_frame(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_frame_round_trip_values_lossless(tmp_path):
    frame = random_frame().canonical_order()
    path = tmp_path / "c.frame"
    write_frame(frame, path)
    back = read_frame(path)
    assert np.array_equal(back.rows, frame.rows)
    assert np.array_equal(back.cols, frame.cols)
    assert np.array_equal(back.values, frame.values)
    assert back.frame_id == frame.frame_id


def test_empty_frame_is_valid(tmp_path):
    frame = FrameFile(3, 4, "empty", np.array([], dtype=np.int64),
                      np.array([], dtype=np.int64), np.array([]))
    path = tmp_path / "e.frame"
    write_frame(frame, path)
    back = read_frame(path)
    assert back.n == 0 and (back.m1, back.m2) == (3, 4)


def test_frame_duplicate_coordinate_parse_error(tmp_path):
    path = tmp_path / "dup.frame"
    path.write_text("2 2 f\n0 0 1.0\n0 0 2.0\n")
    with pytest.raises(ParseError) as err:
        read_frame(path)
    assert err.value.line_no == 3
    assert "duplicate" in str(err.value)


def test_frame_parse_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.frame"
    bad_header.write_text("2 2\n")
    with pytest.raises(ParseError) as err:
        read_frame(bad_header)
    assert err.value.line_no == 1

    out_of_range = tmp_path / "r.frame"
    out_of_range.write_text("2 2 f\n5 0 1.0\n")
    with pytest.raises(ParseError) as err:
        read_frame(out_of_range)
    assert err.value.line_no == 2

    garbled = tmp_path / "g.frame"
    garbled.write_text("2 2 f\n0 zero 1.0\n")
    with pytest.raises(ParseError):
        read_frame(garbled)


def test_frame_rejects_duplicates_at_construction():
    with pytest.raises(ValueError):
        FrameFile(2, 2, "f", np.array([0, 0]), np.array([1, 1]),
                  np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def test_samples_round_trip_with_duplicates(tmp_path):
    ds = MaskedDataset(3, 4, [0, 0, 2], [1, 1, 3], [1.5, -0.25, 3.0], task_id=2)
    path = tmp_path / "x.samples"
    write_samples(ds, path)
    back = read_samples(path)
    assert back.task_id == 2
    assert np.array_equal(back.rows, ds.rows)
    assert np.array_equal(back.cols, ds.cols)
    assert np.array_equal(back.values, ds.values)


def test_samples_preserve_simulated_dataset_bits(tmp_path):
    data = generate_scenario(PRESETS["paper-5.1-small"], rep=1)
    path = tmp_path / "t.samples"
    write_samples(data.target, path)
    back = read_samples(path)
    assert np.array_equal(back.values, data.target.values)


# ---------------------------------------------------------------------------
# holdout_split
# ---------------------------------------------------------------------------

def test_holdout_split_sizes_and_disjoint():
    frame = random_frame(n=10)
    train, test = holdout_split(frame, 0.2, seed=4)
    assert test.n == 2 and train.n == 8
    train_keys = set(zip(train.rows, train.cols))
    test_keys = set(zip(test.rows, test.cols))
    assert not (train_keys & test_keys)


def test_holdout_split_partitions_exactly():
    frame = random_frame(n=23)
    train, test = holdout_split(frame, 0.3, seed=9)
    got = sorted(
        list(zip(train.rows, train.cols, train.values))
        + list(zip(test.rows, test.cols, test.values))
    )
    want = sorted(zip(frame.rows, frame.cols, frame.values))
    assert got == want


def test_holdout_split_deterministic():
    frame = random_frame(n=15)
    a = holdout_split(frame, 0.2, seed=(3, 1))
    b = holdout_split(frame, 0.2, seed=(3, 1))
    assert np.array_equal(a[1].rows, b[1].rows)


def test_holdout_split_rejects_bad_inputs():
    frame = random_frame(n=10)
    with pytest.raises(ValueError):
        holdout_split(frame, 1.2, seed=0)
    with pytest.raises(ValueError):
        holdout_split(frame, 0.01, seed=0)  # rounds to zero test entries
    tiny = random_frame(n=1)
    with pytest.raises(ValueError):
        holdout_split(tiny, 0.5, seed=0)


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 60), st.floats(0.1, 0.9), st.integers(0, 2**31 - 1))
def test_holdout_split_property(n, fraction, seed):
    rng = np.random.default_rng(seed)
    frame = random_frame(m1=10, m2=10, n=n, rng=rng)
    n_test = round(fraction * n)
    if n_test < 1 or n_test >= n:
        return
    train, test = holdout_split(frame, fraction, seed=seed)
    assert test.n == n_test
    assert train.n + test.n == n
    keys = set(zip(train.rows, train.cols)) | set(zip(test.rows, test.cols))
    assert len(keys) == n


# ---------------------------------------------------------------------------
# window_sources
# ---------------------------------------------------------------------------

def test_window_sources_interior():
    paths = [f"f{i:02d}" for i in range(30)]
    manifest = window_sources(paths, 15, half_width=10)
    assert manifest.target == "f15"
    assert len(manifest.sources) == 20
    assert manifest.sources[0] == "f05"
    assert manifest.sources[-1] == "f25"


def test_window_sources_boundary():
    paths = [f"f{i}" for i in range(12)]
    manifest = window_sources(paths, 0, half_width=10)
    assert len(manifest.sources) == 10
    assert manifest.sources[0] == "f1"


def test_window_sources_zero_width():
    manifest = window_sources(["a", "b", "c"], 1, half_width=0)
    assert manifest.sources == ()


# ---------------------------------------------------------------------------
# scenario config / dense matrices
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    spec = PRESETS["paper-5.2-small-ss2"]
    path = tmp_path / "s.cfg"
    write_scenario(spec, path)
    assert read_scenario(path) == spec


def test_scenario_parse_error_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("m1: 4\nnot a key-value line\n")
    with pytest.raises(ParseError) as err:
        read_scenario(path)
    assert err.value.line_no == 2


def test_dense_round_trip(tmp_path):
    A = RNG.standard_normal((5, 7))
    path = tmp_path / "a.txt"
    write_dense(A, path, label="truth")
    assert np.array_equal(read_dense(path), A)
