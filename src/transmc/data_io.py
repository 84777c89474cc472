"""Persistence: masked-frame files, scenario configs, sample files, dense
matrices, source windows and train/test holdout splitting.

Frame format (UTF-8, LF): a header line ``m1 m2 frame_id`` followed by one
``row col value`` line per observed entry, indices 0-based. Coordinates must
be unique within a frame; unobserved entries are simply absent (never
sentinel zeros). Writers emit records sorted by (row, col), so write/read is
byte-lossless on canonicalized frames. Sample files share the record grammar
(see README "File formats") and allow repeated coordinates.
"""

import math
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from transmc.datasets import MaskedDataset
from transmc.simulation import ScenarioSpec


class ParseError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class FrameFile:
    """One partially observed matrix frame."""

    m1: int
    m2: int
    frame_id: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m1:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.m2:
                raise ValueError("column index out of range")
            flat = np.sort(rows * self.m2 + cols)
            if np.any(flat[1:] == flat[:-1]):
                raise ValueError("duplicate coordinates within one frame")
        if not np.all(np.isfinite(values)):
            raise ValueError("frame values contain non-finite entries")
        if " " in self.frame_id or not self.frame_id:
            raise ValueError("frame_id must be a nonempty token without spaces")
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


def _raise_first_bad_record(path, lines, m1, m2, unique):
    """Raise ParseError for the first line (numbered from 2) that is not a valid
    record; return if there is none.

    Tokens follow loadtxt's grammar: unlike Python's int and float, it reads
    ASCII digits only and no '_' separators.
    """
    seen = set()
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(path, line_no, f"expected 'row col value', got {line.strip()!r}")
        try:
            r, c, v = int(fields[0]), int(fields[1]), float(fields[2])
            parsed = all(f.isascii() and "_" not in f for f in fields)
        except ValueError:
            parsed = False
        if not parsed:
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


def read_frame(path) -> FrameFile:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ParseError(path, 1, "empty file, expected header 'm1 m2 frame_id'")
        parts = header.split()
        if len(parts) != 3:
            raise ParseError(path, 1, f"malformed header {header.strip()!r}")
        try:
            m1, m2 = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, 1, f"non-integer dimensions in header {header.strip()!r}")
        if m1 < 1 or m2 < 1:
            raise ParseError(path, 1, "matrix dimensions must be positive")
        return _read_records(path, fh, m1, m2, partial(FrameFile, m1, m2, parts[2]),
                             unique=True)


def write_frame(frame: FrameFile, path):
    frame = frame.canonical_order()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{frame.m1} {frame.m2} {frame.frame_id}\n")
        _write_records(fh, frame.rows, frame.cols, frame.values)


def holdout_split(frame: FrameFile, fraction: float, seed):
    """Disjoint uniform split of the observed entries into train and test.

    The test set holds round(fraction * n) entries; both halves are returned
    as datasets with task_id 0.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("holdout fraction must lie in (0, 1)")
    n = frame.n
    if n < 2:
        raise ValueError("need at least two observations to split")
    n_test = round(fraction * n)
    if n_test < 1 or n_test >= n:
        raise ValueError(f"holdout of {n_test} entries from {n} leaves an empty half")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    ds = frame.to_dataset()
    return ds.subset(train_idx), ds.subset(test_idx)


def window_sources(n_frames: int, t: int, half_width: int = 10) -> list[int]:
    """Indices of the source frames of target frame t in a sequence of
    n_frames: offsets +-1 .. +-half_width around t, truncated at the sequence
    boundaries; left neighbors first, ascending."""
    if not (0 <= t < n_frames):
        raise ValueError(f"target index {t} out of range")
    return [*range(max(0, t - half_width), t), *range(t + 1, min(n_frames, t + half_width + 1))]


# ---------------------------------------------------------------------------
# key-value config files (scenario specs and evaluation configs)
# ---------------------------------------------------------------------------

def _read_kv(path, keys) -> dict:
    """The ``key: value`` lines of a config file; a key outside keys is a
    ParseError that names it."""
    out = {}
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
            if key not in keys:
                raise ParseError(path, line_no, f"unknown key {key!r}; known keys: "
                                 + ", ".join(keys))
            out[key] = value.strip()
    return out


def write_scenario(spec: ScenarioSpec, path):
    """One 'key: value' line per ScenarioSpec field, in field order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# transmc scenario\n")
        for f in fields(ScenarioSpec):
            value = getattr(spec, f.name)
            if isinstance(value, tuple):
                value = ",".join(repr(x) for x in value)
            elif not isinstance(value, str):
                value = repr(value)
            fh.write(f"{f.name}: {value}\n")


# How read_scenario parses the value of a ScenarioSpec field of each type.
_FIELD_PARSERS = {int: int, float: float, str: str,
                  tuple[float, ...]: lambda raw: tuple(float(x) for x in raw.split(",") if x)}


def read_scenario(path) -> ScenarioSpec:
    """The ScenarioSpec of a file write_scenario wrote: one key per field, a
    missing optional key taking the field's default. The spectrum_law line of
    older files is read and must name the one law, exp5_uniform."""
    kv = _read_kv(path, [*(f.name for f in fields(ScenarioSpec)), "spectrum_law"])
    law = kv.pop("spectrum_law", "exp5_uniform")
    if law != "exp5_uniform":
        raise ValueError(f"scenario {path}: unknown spectrum law {law!r}")
    for f in fields(ScenarioSpec):
        if f.name not in kv and f.default is MISSING:
            raise ValueError(f"scenario {path} missing key {f.name!r}")
    return ScenarioSpec(**{f.name: _FIELD_PARSERS[f.type](kv[f.name])
                           for f in fields(ScenarioSpec) if f.name in kv})


def write_samples(dataset: MaskedDataset, path):
    """Persist a sampled dataset, preserving duplicates and draw order.

    Unlike TEC frames, simulated datasets sample coordinates with
    replacement, so repeated (row, col) records are meaningful here.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{dataset.m1} {dataset.m2} task{dataset.task_id}\n")
        _write_records(fh, dataset.rows, dataset.cols, dataset.values)


def read_samples(path) -> MaskedDataset:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or not header[2].startswith("task"):
            raise ParseError(path, 1, "malformed sample header, expected 'm1 m2 taskN'")
        try:
            m1, m2 = int(header[0]), int(header[1])
            task_id = int(header[2][4:])
        except ValueError:
            raise ParseError(path, 1, "malformed sample header fields")
        if m1 < 1 or m2 < 1:
            raise ParseError(path, 1, "matrix dimensions must be positive")
        return _read_records(path, fh, m1, m2, partial(MaskedDataset, m1, m2, task_id=task_id),
                             unique=False)


def write_dense(matrix, path, label: str = "matrix"):
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]} {label}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
