import pickle
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmc.data_io import (
    FrameFile,
    ParseError,
    holdout_split,
    read_dataset,
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
from transmc.simulation import PRESETS, ScenarioSpec, generate_scenario
from _oracles import read_frame_line_by_line, read_samples_line_by_line

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


def test_parse_error_survives_pickling(tmp_path):
    path = tmp_path / "g.frame"
    path.write_text("2 2 f\n0 0 1.0\n1 zero 1.0\n")
    with pytest.raises(ParseError) as err:
        read_frame(path)
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is ParseError
    assert (str(copy), copy.path, copy.line_no) == (str(err.value), str(path), 3)


def test_frame_rejects_duplicates_at_construction():
    with pytest.raises(ValueError):
        FrameFile(2, 2, "f", np.array([0, 0]), np.array([1, 1]),
                  np.array([1.0, 2.0]))


@pytest.mark.parametrize("m1, m2, rows, cols, values", [
    (2, 2, [0, 1], [0], [1.0, 2.0]),             # cols shorter
    (2, 2, [0, 1], [0, 1], [1.0]),               # values shorter
    (2, 2, [[0, 1]], [[0, 1]], [[1.0, 2.0]]),    # 2-d arrays
    (0, 2, [], [], []),
    (2, 0, [], [], []),
], ids=["cols-short", "values-short", "2-d", "m1-zero", "m2-zero"])
def test_frame_rejects_malformed_observations(m1, m2, rows, cols, values):
    with pytest.raises(ValueError):
        FrameFile(m1, m2, "x", rows, cols, values)


def test_empty_frame_reads_without_warning(tmp_path):
    path = tmp_path / "e.frame"
    for text in ("3 4 empty\n", "3 4 empty", "3 4 empty\n\n  \t\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = read_frame(path)
        assert frame.n == 0 and (frame.m1, frame.m2) == (3, 4)


# ---------------------------------------------------------------------------
# bulk parse against the line-by-line oracle
# ---------------------------------------------------------------------------

ERROR_KINDS = {
    "expected 'row col value'": "fields",
    "could not parse record": "parse",
    "out of range": "range",
    "non-finite value": "finite",
    "duplicate coordinate": "duplicate",
}


def _outcome(reader, path):
    """("ok", array bytes), ("ParseError", line, kind) or (error type, message)."""
    try:
        got = reader(path)
    except ParseError as exc:
        kinds = [k for marker, k in ERROR_KINDS.items() if marker in str(exc)]
        return "ParseError", exc.line_no, kinds
    except (ValueError, OverflowError) as exc:  # the samples oracle overflows on huge indices
        return type(exc).__name__, str(exc)
    return "ok", got.rows.tobytes(), got.cols.tobytes(), got.values.tobytes()


@st.composite
def record_bodies(draw, unique):
    """(m1, m2, lines, newline, final newline) for a body of row col value
    records in varied layout, with 0-3 records corrupted."""
    m1, m2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coord = st.tuples(st.integers(0, m1 - 1), st.integers(0, m2 - 1))
    coords = draw(st.lists(coord, max_size=min(12, m1 * m2), unique=unique))
    fmt = draw(st.sampled_from([repr, "{:.6g}".format, "{:e}".format]))
    clean = [[str(r), str(c), fmt(draw(st.floats(allow_nan=False, allow_infinity=False)))]
             for r, c in coords]
    records = list(clean)
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        fields = clean[i]
        kind = draw(st.sampled_from(["fields", "index", "value", "duplicate"]))
        if kind == "fields":
            records[i] = fields[:-1] if draw(st.booleans()) else fields + ["7"]
        elif kind == "index":
            bad = draw(st.sampled_from(["x", "1.5", "1e0", "--1", "-1", "-3", str(m1 + m2),
                                        "12345678901234567890123"]))
            records[i] = [bad, fields[1], fields[2]] if draw(st.booleans()) \
                else [fields[0], bad, fields[2]]
        elif kind == "value":
            bad = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400",
                                        "-1e400", "1.2.3", "abc"]))
            records[i] = fields[:2] + [bad]
        else:
            j = draw(st.sampled_from([k for k in range(len(clean)) if k != i] or [i]))
            records[i] = clean[j][:2] + fields[2:]
    space = st.sampled_from(["", "", " ", "\t", " \t "])
    lines = []
    for fields in records:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(space))  # a blank line
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append(draw(space) + sep.join(fields) + draw(space))
    return m1, m2, lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans())


def _write_records_file(path, header, body):
    _, _, lines, newline, final = body
    text = newline.join([header, *lines]) + (newline if final else "")
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=400, deadline=None)
@given(body=record_bodies(unique=True))
def test_read_frame_matches_line_by_line_oracle(oracle_dir, body):
    m1, m2 = body[:2]
    path = _write_records_file(oracle_dir / "f.frame", f"{m1} {m2} f", body)
    assert _outcome(read_frame, path) == _outcome(read_frame_line_by_line, path)


@settings(max_examples=400, deadline=None)
@given(body=record_bodies(unique=False))
def test_read_samples_matches_line_by_line_oracle(oracle_dir, body):
    # The samples reader accepts what the line-by-line samples reader
    # accepts, bit for bit. Unlike that reader, which leaves range and
    # finiteness to MaskedDataset, it checks them per line, so it names the
    # first line the frame oracle without the duplicate check rejects.
    m1, m2 = body[:2]
    samples = _write_records_file(oracle_dir / "s.samples", f"{m1} {m2} task3", body)
    frame = _write_records_file(oracle_dir / "s.frame", f"{m1} {m2} s", body)
    new = _outcome(read_samples, samples)
    per_line = _outcome(partial(read_frame_line_by_line, unique=False), frame)
    if per_line[0] == "ParseError":
        assert new == per_line
    else:
        assert new == _outcome(read_samples_line_by_line, samples)


@pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-one"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_underscore_and_non_ascii_digits_are_parse_errors(tmp_path, token, column):
    # Python's int and float read these tokens; the bulk parse does not. This
    # is the one documented difference from the line-by-line reader.
    fields = ["0", "0", "1.5"]
    fields[column] = token
    path = tmp_path / "u.frame"
    path.write_text("20 20 f\n1 1 2.0\n" + " ".join(fields) + "\n", encoding="utf-8")
    assert read_frame_line_by_line(path).n == 2
    with pytest.raises(ParseError) as err:
        read_frame(path)
    assert err.value.line_no == 3 and "could not parse record" in str(err.value)


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


def test_task_ids_are_nonnegative(tmp_path):
    with pytest.raises(ValueError, match="task_id"):
        MaskedDataset(3, 4, [0], [1], [1.5], task_id=-1)
    # The header token is "task" and ASCII digits only, as read_dataset reads it.
    path = tmp_path / "neg.samples"
    for token in ("task-1", "task+1", "task", "task1_0", "task\u0661"):
        path.write_text(f"3 4 {token}\n0 1 1.5\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_samples(path)
        assert err.value.line_no == 1


@pytest.mark.parametrize("dims", ["1_0 2", "٣ 2", "3 ٢", "3 2٠"])
@pytest.mark.parametrize("reader, token", [(read_frame, "f"), (read_samples, "task1"),
                                           (read_dataset, "f"), (read_dataset, "task1")])
def test_header_dimensions_follow_the_record_grammar(tmp_path, dims, reader, token):
    # Python's int reads "1_0" as 10 and Arabic-Indic digits as ASCII ones;
    # the header, like the records, takes ASCII digits without '_'.
    path = tmp_path / "h.txt"
    path.write_text(f"{dims} {token}\n0 1 1.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-integer dimensions") as err:
        reader(path)
    assert err.value.line_no == 1
    # A sign is part of the record grammar too.
    path.write_text(f"+3 2 {token}\n0 1 1.5\n", encoding="utf-8")
    back = reader(path)
    assert (back.m1, back.m2) == (3, 2)


def test_samples_preserve_simulated_dataset_bits(tmp_path):
    data = generate_scenario(PRESETS["paper-5.1-small"], rep=1)
    path = tmp_path / "t.samples"
    write_samples(data.target, path)
    back = read_samples(path)
    assert np.array_equal(back.values, data.target.values)


def _same_observations(a: MaskedDataset, b: MaskedDataset) -> bool:
    return (a.shape == b.shape and a.task_id == b.task_id
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("rows", "cols", "values")))


def test_read_dataset_tells_a_task_frame_id_from_a_sample_header(tmp_path):
    # "task" followed by decimal digits marks a sample file; a frame whose id
    # merely starts with "task" is still a frame.
    frame = FrameFile(3, 4, "taskforce", [0, 2], [1, 3], [1.5, -0.25])
    write_frame(frame, tmp_path / "tf.frame")
    samples = MaskedDataset(3, 4, [0, 0, 2], [1, 1, 3], [1.5, -0.25, 3.0], task_id=3)
    write_samples(samples, tmp_path / "t.samples")
    assert (tmp_path / "t.samples").read_text().startswith("3 4 task3\n")

    assert _same_observations(read_dataset(tmp_path / "tf.frame", task_id=2),
                              frame.to_dataset(task_id=2))
    # Repeated coordinates: only a sample file may hold them.
    assert _same_observations(read_dataset(tmp_path / "t.samples", task_id=1),
                              MaskedDataset(3, 4, samples.rows, samples.cols, samples.values,
                                            task_id=1))
    assert read_dataset(tmp_path / "t.samples").task_id == 0


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
    sources = window_sources(30, 15, half_width=10)
    assert sources == [*range(5, 15), *range(16, 26)]


def test_window_sources_boundary():
    assert window_sources(12, 0, half_width=10) == list(range(1, 11))
    assert window_sources(12, 11, half_width=10) == list(range(1, 11))
    assert window_sources(12, 2, half_width=3) == [0, 1, 3, 4, 5]
    with pytest.raises(ValueError):
        window_sources(12, 12)


def test_window_sources_zero_width():
    assert window_sources(3, 1, half_width=0) == []


def test_window_sources_rejects_a_negative_half_width():
    with pytest.raises(ValueError, match="half_width -3"):
        window_sources(12, 5, -3)


# ---------------------------------------------------------------------------
# scenario config / dense matrices
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    spec = PRESETS["paper-5.2-small-ss2"]
    path = tmp_path / "s.cfg"
    write_scenario(spec, path)
    assert read_scenario(path) == spec
    # Scenario files written before the spectrum law was fixed carry it.
    text = path.read_text()
    assert "spectrum_law" not in text
    path.write_text(text + "spectrum_law: exp5_uniform\n")
    assert read_scenario(path) == spec
    path.write_text(text + "spectrum_law: flat\n")
    with pytest.raises(ValueError, match="flat"):
        read_scenario(path)


def test_scenario_missing_keys_take_the_spec_defaults(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("m1: 6\nm2: 5\nrank: 2\n")
    assert read_scenario(path) == ScenarioSpec(6, 5, 2)
    path.write_text("m1: 6\nm2: 5\na_cap: 4.0\n")
    with pytest.raises(ValueError, match="missing key 'rank'"):
        read_scenario(path)


def test_scenario_parse_error_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    for text, message in [("m1: 4\nnot a key-value line\n", "expected 'key: value'"),
                          ("m1: 4\nn0_fraction: 0.9\n", "unknown key 'n0_fraction'")]:
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            read_scenario(path)
        assert err.value.line_no == 2
        assert str(path) in str(err.value)


def test_config_key_given_twice_is_a_parse_error(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("seed: 1\nm1: 6\nm2: 5\n# seed: 3\nrank: 2\nseed: 2\n")
    with pytest.raises(ParseError, match="key 'seed' given twice, on lines 1 and 6") as err:
        read_scenario(path)
    assert err.value.line_no == 6


def test_dense_round_trip(tmp_path):
    A = RNG.standard_normal((5, 7))
    path = tmp_path / "a.txt"
    write_dense(A, path, label="truth")
    assert np.array_equal(np.loadtxt(path, skiprows=1, ndmin=2), A)
