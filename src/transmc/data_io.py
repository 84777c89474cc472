"""Persistence: masked-frame files, scenario configs, sample files, dense
matrices, source windows and train/test holdout splitting.

Frame format (UTF-8, LF): a header line ``m1 m2 frame_id`` followed by one
``row col value`` line per observed entry, indices 0-based. Coordinates must
be unique within a frame; unobserved entries are simply absent (never
sentinel zeros). Writers emit records sorted by (row, col), so write/read is
byte-lossless on canonicalized frames.
"""

import math
from dataclasses import dataclass
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
            flat = rows * self.m2 + cols
            if np.unique(flat).size != flat.size:
                raise ValueError("duplicate coordinates within one frame")
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


@dataclass(frozen=True)
class Manifest:
    """One holdout experiment: a target frame and its ordered source frames."""

    target: str
    sources: tuple[str, ...]


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
        frame_id = parts[2]
        rows, cols, values = [], [], []
        seen = set()
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(path, line_no, f"expected 'row col value', got {line.strip()!r}")
            try:
                r, c, v = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ParseError(path, line_no, f"could not parse record {line.strip()!r}")
            if not (0 <= r < m1 and 0 <= c < m2):
                raise ParseError(path, line_no, f"coordinate ({r}, {c}) out of range for {m1}x{m2}")
            if not math.isfinite(v):
                raise ParseError(path, line_no, "non-finite value")
            if (r, c) in seen:
                raise ParseError(path, line_no, f"duplicate coordinate ({r}, {c})")
            seen.add((r, c))
            rows.append(r)
            cols.append(c)
            values.append(v)
    return FrameFile(m1, m2, frame_id,
                     np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                     np.array(values, dtype=np.float64))


def write_frame(frame: FrameFile, path):
    frame = frame.canonical_order()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{frame.m1} {frame.m2} {frame.frame_id}\n")
        for r, c, v in zip(frame.rows, frame.cols, frame.values):
            fh.write(f"{r} {c} {float(v)!r}\n")


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


def window_sources(frame_paths, t: int, half_width: int = 10) -> Manifest:
    """Manifest with sources at offsets +-1 .. +-half_width around index t,
    truncated at the sequence boundaries; left neighbors first, ascending."""
    frame_paths = list(frame_paths)
    if not (0 <= t < len(frame_paths)):
        raise ValueError(f"target index {t} out of range")
    left = [frame_paths[i] for i in range(max(0, t - half_width), t)]
    right = [frame_paths[i] for i in range(t + 1, min(len(frame_paths), t + half_width + 1))]
    return Manifest(
        target=str(frame_paths[t]),
        sources=tuple(str(p) for p in left + right),
    )


# ---------------------------------------------------------------------------
# key-value config files (scenario specs and evaluation configs)
# ---------------------------------------------------------------------------

def _read_kv(path) -> dict:
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
            out[key.strip()] = value.strip()
    return out


def write_scenario(spec: ScenarioSpec, path):
    sampling = spec.sampling if isinstance(spec.sampling, str) else ",".join(spec.sampling)
    contrasts = ",".join(f"{h!r}" for h in spec.contrasts)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# transmc scenario\n")
        fh.write(f"m1: {spec.m1}\n")
        fh.write(f"m2: {spec.m2}\n")
        fh.write(f"rank: {spec.rank}\n")
        fh.write(f"a_cap: {spec.a_cap!r}\n")
        fh.write(f"spectrum_law: {spec.spectrum_law}\n")
        fh.write(f"contrasts: {contrasts}\n")
        fh.write(f"n0_frac: {spec.n0_frac!r}\n")
        fh.write(f"nk_frac: {spec.nk_frac!r}\n")
        fh.write(f"noise_sd: {spec.noise_sd!r}\n")
        fh.write(f"sampling: {sampling}\n")
        fh.write(f"seed: {spec.seed}\n")


def read_scenario(path) -> ScenarioSpec:
    kv = _read_kv(path)
    try:
        sampling_raw = kv.get("sampling", "uniform")
        sampling = tuple(sampling_raw.split(",")) if "," in sampling_raw else sampling_raw
        contrasts_raw = kv.get("contrasts", "")
        contrasts = tuple(float(x) for x in contrasts_raw.split(",") if x)
        return ScenarioSpec(
            m1=int(kv["m1"]),
            m2=int(kv["m2"]),
            rank=int(kv["rank"]),
            a_cap=float(kv.get("a_cap", 30.0)),
            spectrum_law=kv.get("spectrum_law", "exp5_uniform"),
            contrasts=contrasts,
            n0_frac=float(kv.get("n0_frac", 0.2)),
            nk_frac=float(kv.get("nk_frac", 0.1)),
            noise_sd=float(kv.get("noise_sd", 1.0)),
            sampling=sampling,
            seed=int(kv.get("seed", 0)),
        )
    except KeyError as exc:
        raise ValueError(f"scenario {path} missing key {exc}")


def write_samples(dataset: MaskedDataset, path):
    """Persist a sampled dataset, preserving duplicates and draw order.

    Unlike TEC frames, simulated datasets sample coordinates with
    replacement, so repeated (row, col) records are meaningful here.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{dataset.m1} {dataset.m2} task{dataset.task_id}\n")
        for r, c, v in zip(dataset.rows, dataset.cols, dataset.values):
            fh.write(f"{r} {c} {float(v)!r}\n")


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
        rows, cols, values = [], [], []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(path, line_no, f"expected 'row col value', got {line.strip()!r}")
            try:
                rows.append(int(fields[0]))
                cols.append(int(fields[1]))
                values.append(float(fields[2]))
            except ValueError:
                raise ParseError(path, line_no, f"could not parse record {line.strip()!r}")
    return MaskedDataset(m1, m2, np.array(rows, dtype=np.int64),
                         np.array(cols, dtype=np.int64),
                         np.array(values, dtype=np.float64), task_id)


def write_dense(matrix, path, label: str = "matrix"):
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]} {label}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_dense(path) -> np.ndarray:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ParseError(path, 1, "malformed dense-matrix header")
        m1, m2 = int(header[0]), int(header[1])
        out = np.empty((m1, m2), dtype=np.float64)
        for i in range(m1):
            line = fh.readline()
            if not line:
                raise ParseError(path, i + 2, "unexpected end of file")
            vals = line.split()
            if len(vals) != m2:
                raise ParseError(path, i + 2, f"expected {m2} values, got {len(vals)}")
            out[i] = [float(v) for v in vals]
    return out
