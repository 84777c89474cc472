"""Persistence: masked-frame files, key-value files (configs and reports),
sample files, dense matrices, source windows and train/test holdout splitting.

Frame and sample files (UTF-8, LF) share one layout: a header line
``m1 m2 token`` followed by one ``row col value`` line per observation,
indices 0-based (record grammar in README "File formats"). A frame's token is
its id; its coordinates must be unique, unobserved entries are simply absent
(never sentinel zeros), and writers emit records sorted by (row, col), so
write/read is byte-lossless on canonicalized frames. A sample file's token is
``task`` and its task id (at least 0) in ASCII digits, which is how
read_dataset tells it from a frame (any other token, ``task-1`` too, is a
frame id); its records may repeat coordinates.
"""

import math
import re
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from transmc.datasets import MaskedDataset, checked_triplets
from transmc.simulation import ScenarioSpec


class ParseError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        # args hold only the formatted text, which __init__ cannot take back.
        return ParseError, (self.path, self.line_no, self.message)


@dataclass(frozen=True)
class FrameFile:
    """One partially observed matrix frame: checked_triplets' observations,
    at unique coordinates and possibly none, under a frame id without whitespace."""

    m1: int
    m2: int
    frame_id: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows, cols, values = checked_triplets(self.m1, self.m2, self.rows, self.cols,
                                              self.values)
        flat = np.sort(rows * self.m2 + cols)
        if np.any(flat[1:] == flat[:-1]):
            raise ValueError("duplicate coordinates within one frame")
        # The header parser's rule, so that every frame written reads back.
        if self.frame_id.split() != [self.frame_id]:
            raise ValueError(f"frame_id must be a nonempty token without whitespace, "
                             f"got {self.frame_id!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.rows.size

    def canonical_order(self) -> "FrameFile":
        order = np.lexsort((self.cols, self.rows))
        return FrameFile(self.m1, self.m2, self.frame_id,
                         self.rows[order], self.cols[order], self.values[order])

    def to_dataset(self, task_id: int = 0) -> MaskedDataset:
        if not self.n:
            raise ValueError(f"frame {self.frame_id} has no observations")
        return MaskedDataset(self.m1, self.m2, self.rows, self.cols, self.values, task_id)


# One ``row col value`` record, as loadtxt parses a whole body in C.
_RECORD = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _read_records(path, fh, m1, m2, build, unique):
    """build(rows, cols, values) over the ``row col value`` lines after the
    header, which fh has just read.

    One loadtxt call parses the body straight from the file and build checks
    the arrays (coordinates in range, finite values and, for frames, unique
    coordinates), raising ValueError on a fault. Only then does a per-line
    pass read the body from fh, to raise the ParseError that names the first
    offending line.
    """
    try:
        with warnings.catch_warnings():
            # An empty or blank body holds no records, which loadtxt warns about.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            records = np.loadtxt(path, dtype=_RECORD, comments=None, skiprows=1, ndmin=1,
                                 encoding="utf-8")
        return build(records["row"], records["col"], records["value"])
    except ValueError:
        _raise_first_bad_record(path, fh.read().split("\n"), m1, m2, unique)
        raise


def _token(parse, field):
    """parse (int or float) of one header or record token, in loadtxt's
    grammar: unlike Python's int and float, it reads ASCII digits only and no
    '_' separators, so any other token is a ValueError."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"token {field!r} is outside the record grammar")
    return parse(field)


def _raise_first_bad_record(path, lines, m1, m2, unique):
    """Raise ParseError for the first line (numbered from 2) that is not a valid
    record (tokens read by _token); return if there is none."""
    seen = set()
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(path, line_no, f"expected 'row col value', got {line.strip()!r}")
        try:
            r, c, v = _token(int, fields[0]), _token(int, fields[1]), _token(float, fields[2])
        except ValueError:
            raise ParseError(path, line_no, f"could not parse record {line.strip()!r}")
        if not (0 <= r < m1 and 0 <= c < m2):
            raise ParseError(path, line_no, f"coordinate ({r}, {c}) out of range for {m1}x{m2}")
        if not math.isfinite(v):
            raise ParseError(path, line_no, "non-finite value")
        if unique:
            if (r, c) in seen:
                raise ParseError(path, line_no, f"duplicate coordinate ({r}, {c})")
            seen.add((r, c))


def _write_records(fh, rows, cols, values):
    fh.write("".join(f"{r} {c} {v!r}\n"
                     for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist())))


# The header token of a sample file: "task" and the task id in ASCII digits.
# Any other token is a frame id.
_SAMPLE_TAG = re.compile(r"task[0-9]+")


def _read_header(path, fh):
    """(m1, m2, token) of the ``m1 m2 token`` header, the line fh reads next;
    m1 and m2 must be positive integers, read by _token."""
    header = fh.readline()
    if not header:
        raise ParseError(path, 1, "empty file, expected header 'm1 m2 token'")
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(path, 1, f"malformed header {header.strip()!r}")
    try:
        m1, m2 = _token(int, parts[0]), _token(int, parts[1])
    except ValueError:
        raise ParseError(path, 1, f"non-integer dimensions in header {header.strip()!r}")
    if m1 < 1 or m2 < 1:
        raise ParseError(path, 1, "matrix dimensions must be positive")
    return m1, m2, parts[2]


def read_frame(path) -> FrameFile:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        m1, m2, frame_id = _read_header(path, fh)
        return _read_records(path, fh, m1, m2, partial(FrameFile, m1, m2, frame_id),
                             unique=True)


def write_frame(frame: FrameFile, path):
    frame = frame.canonical_order()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{frame.m1} {frame.m2} {frame.frame_id}\n")
        _write_records(fh, frame.rows, frame.cols, frame.values)


def holdout_split(frame: FrameFile, fraction: float, seed):
    """Disjoint uniform split of the n observed entries into train and test.

    The test set holds round(fraction * n) entries; both halves are returned
    as datasets with task_id 0. A fraction outside (0, 1), or one that
    leaves either half empty, is a ValueError that names the frame.
    """
    n = frame.n
    n_test = round(fraction * n) if 0.0 < fraction < 1.0 else 0
    if not 0 < n_test < n:
        raise ValueError(f"frame {frame.frame_id}: a holdout of {fraction} of its {n} "
                         f"observations leaves a half empty")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    ds = frame.to_dataset()
    return ds.subset(train_idx), ds.subset(test_idx)


def window_sources(n_frames: int, t: int, half_width: int) -> list[int]:
    """Indices of the source frames of target frame t in a sequence of
    n_frames: offsets +-1 .. +-half_width around t, truncated at the sequence
    boundaries; left neighbors first, ascending."""
    if not (0 <= t < n_frames):
        raise ValueError(f"target index {t} out of range")
    if half_width < 0:
        raise ValueError(f"source window half_width {half_width} is negative")
    return [*range(max(0, t - half_width), t), *range(t + 1, min(n_frames, t + half_width + 1))]


# ---------------------------------------------------------------------------
# key-value files (scenario specs, evaluation configs and run reports)
# ---------------------------------------------------------------------------

def _read_kv(path, parsers) -> dict:
    """The values of the ``key: value`` lines of a config file, each read by
    its key's parser; a key outside parsers, a key given twice or a value that
    its parser rejects with a ValueError is a ParseError that names it."""
    out = {}
    line_of = {}
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in stripped:
                raise ParseError(path, line_no, f"expected 'key: value', got {stripped!r}")
            key, _, value = stripped.partition(":")
            key = key.strip()
            if key not in parsers:
                raise ParseError(path, line_no, f"unknown key {key!r}; known keys: "
                                 + ", ".join(parsers))
            if key in line_of:
                raise ParseError(path, line_no, f"key {key!r} given twice, on lines "
                                 f"{line_of[key]} and {line_no}")
            try:
                out[key] = parsers[key](value.strip())
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad value of key {key!r}: {exc}") from None
            line_of[key] = line_no
    return out


def _write_kv(path, comment=None, /, **pairs):
    """A '# comment' line if comment is given, then one 'key: value' line per
    pair, in order, and one per element of a list value; LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        for key, value in pairs.items():
            fh.writelines(f"{key}: {v}\n" for v in (value if isinstance(value, list) else [value]))


def write_scenario(spec: ScenarioSpec, path):
    """One 'key: value' line per ScenarioSpec field, in field order."""
    _write_kv(path, "transmc scenario",
              **{**asdict(spec), "contrasts": ",".join(map(str, spec.contrasts))})


# How read_scenario parses the value of a ScenarioSpec field of each type; an
# empty comma list is (), and float rejects an empty entry, as in '1,,2'.
_FIELD_PARSERS = {int: int, float: float, str: str,
                  tuple[float, ...]: lambda raw: tuple(map(float, raw.split(","))) if raw else ()}


def read_scenario(path) -> ScenarioSpec:
    """The ScenarioSpec of a file write_scenario wrote: one key per field, a
    missing optional key taking the field's default. Each error names the file."""
    kv = _read_kv(path, {f.name: _FIELD_PARSERS[f.type] for f in fields(ScenarioSpec)})
    for f in fields(ScenarioSpec):
        if f.name not in kv and f.default is MISSING:
            raise ValueError(f"scenario {path} missing key {f.name!r}")
    try:
        return ScenarioSpec(**kv)
    except ValueError as exc:
        raise ValueError(f"scenario {path}: {exc}") from None


def write_samples(dataset: MaskedDataset, path):
    """Persist a sampled dataset, preserving duplicates and draw order.

    Unlike TEC frames, simulated datasets sample coordinates with
    replacement, so repeated (row, col) records are meaningful here.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{dataset.m1} {dataset.m2} task{dataset.task_id}\n")
        _write_records(fh, dataset.rows, dataset.cols, dataset.values)


def read_dataset(path, task_id: int = 0) -> MaskedDataset:
    """A sample file or a frame, as a dataset with the given task id (which
    replaces a sample file's own); the header's token tells which."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        m1, m2, token = _read_header(path, fh)
        if _SAMPLE_TAG.fullmatch(token):
            return _read_records(path, fh, m1, m2,
                                 partial(MaskedDataset, m1, m2, task_id=task_id), unique=False)
        frame = _read_records(path, fh, m1, m2, partial(FrameFile, m1, m2, token), unique=True)
    try:
        return frame.to_dataset(task_id)
    except ValueError as exc:  # a frame with no observations
        raise ValueError(f"{path}: {exc}") from None


def write_dense(matrix, path, label: str = "matrix"):
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]} {label}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
