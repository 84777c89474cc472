"""Independent reference implementations used to cross-check the library,
and the matrix, solver and sampling helpers only tests use.

The oracles are deliberately written from scratch against the defining
formulas (double loops, characteristic polynomials, finite differences,
fixed-step proximal gradient, one record per line) so a bug in the library
cannot hide in its own oracle.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from transmc.data_io import FrameFile, ParseError
from transmc.datasets import MaskedDataset
from transmc.linalg import _as_matrix

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_1 count as zero


def gram_singular_values_2x2(A):
    """Singular values of a 2x2 matrix from the characteristic polynomial
    of the Gram matrix A^T A: t^2 - tr(G) t + det(G)."""
    A = np.asarray(A, dtype=float)
    G = A.T @ A
    tr = G[0, 0] + G[1, 1]
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    disc = max(tr * tr - 4.0 * det, 0.0)
    lo = (tr - np.sqrt(disc)) / 2.0
    hi = (tr + np.sqrt(disc)) / 2.0
    return np.sqrt(max(hi, 0.0)), np.sqrt(max(lo, 0.0))


def weighted_frob_double_loop(A, P):
    acc = 0.0
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            acc += A[i, j] * A[i, j] * P[i, j]
    return np.sqrt(acc)


def loss_double_loop(A, rows, cols, values):
    acc = 0.0
    for i in range(len(values)):
        d = values[i] - A[rows[i], cols[i]]
        acc += d * d
    return acc / len(values)


def grad_double_loop(A, rows, cols, values):
    """(2/n) sum_i (A[r_i, c_i] - y_i) e_{r_i} e_{c_i}^T, one observation at a time."""
    G = np.zeros(np.shape(A))
    n = len(values)
    for i in range(n):
        G[rows[i], cols[i]] += 2.0 * (A[rows[i], cols[i]] - values[i]) / n
    return G


def grad_finite_difference(loss_value, A, step=1e-6):
    """Central finite differences of a scalar loss over every matrix entry."""
    A = np.asarray(A, dtype=float)
    G = np.zeros_like(A)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            up = A.copy()
            dn = A.copy()
            up[i, j] += step
            dn[i, j] -= step
            G[i, j] = (loss_value(up) - loss_value(dn)) / (2.0 * step)
    return G


def majorizer_term_by_term(A, B, phi, loss_value, grad):
    """Q(A; B, phi) summed entry by entry."""
    acc = loss_value(B)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            d = A[i, j] - B[i, j]
            acc += grad[i, j] * d + 0.5 * phi * d * d
    return acc


def prox_gradient_fixed_step(rows, cols, values, shape, lam, box, n_iters=100_000,
                             step=None):
    """Fixed-step proximal gradient for the masked squared loss plus lam * ||.||_*
    over |A|_inf <= box, run from zero for n_iters iterations.

    The default step is 1 / (2 * max entry multiplicity), i.e. 1 over
    (2 * max entry-probability * n) for the empirical sampling measure.
    A step is a deterministic function of A alone, so once one returns A
    bit for bit every later step would too, and the loop stops there with
    the same result.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    values = np.asarray(values, dtype=float)
    n = values.size
    if step is None:
        flat = rows * shape[1] + cols
        _, counts = np.unique(flat, return_counts=True)
        step = 1.0 / (2.0 * counts.max())
    A = np.zeros(shape)
    for _ in range(n_iters):
        grad = np.zeros(shape)
        np.add.at(grad, (rows, cols), (2.0 / n) * (A[rows, cols] - values))
        B = A - step * grad
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        s = np.maximum(s - lam * step, 0.0)
        A_next = (U * s) @ Vt
        np.clip(A_next, -box, box, out=A_next)
        if np.array_equal(A_next, A):
            break
        A = A_next
    return A


# ---------------------------------------------------------------------------
# line-by-line readers of frame and sample files
# ---------------------------------------------------------------------------

def read_frame_line_by_line(path, unique=True) -> FrameFile:
    """Frame reader that parses and checks one record at a time with Python's
    int and float; unique=False drops the duplicate-coordinate check."""
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
            if unique and (r, c) in seen:
                raise ParseError(path, line_no, f"duplicate coordinate ({r}, {c})")
            seen.add((r, c))
            rows.append(r)
            cols.append(c)
            values.append(v)
    return FrameFile(m1, m2, frame_id,
                     np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                     np.array(values, dtype=np.float64))


def read_samples_line_by_line(path) -> MaskedDataset:
    """Sample reader that parses one record at a time with Python's int and
    float and leaves range and finiteness to MaskedDataset."""
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


# ---------------------------------------------------------------------------
# matrix helpers only tests use: sign-fixed SVD, norms, weighted Frobenius
# norm, row/column-space projection, numerical rank
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD A = U @ diag(singular_values) @ V.T.

    U is m1 x q and V is m2 x q with orthonormal columns, q = min(m1, m2),
    singular values sorted nonincreasing. Each column of U has its
    largest-magnitude entry nonnegative.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.singular_values) @ self.V.T


@dataclass(frozen=True)
class MatrixNorms:
    frobenius: float
    nuclear: float
    spectral: float
    max_abs_entry: float


def svd(A) -> SvdFactors:
    """Thin SVD with deterministic signs.

    The sign of each (U column, V column) pair is chosen so the
    largest-magnitude entry of the U column is nonnegative.
    """
    A = _as_matrix(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    for j in range(s.size):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    U.flags.writeable = False
    s.flags.writeable = False
    V.flags.writeable = False
    return SvdFactors(U=U, singular_values=s, V=V)


def norms(A) -> MatrixNorms:
    """Frobenius, nuclear, spectral and max-entry norms from one SVD."""
    A = _as_matrix(A)
    s = np.linalg.svd(A, compute_uv=False)
    return MatrixNorms(
        frobenius=float(np.linalg.norm(A)),
        nuclear=float(s.sum()),
        spectral=float(s[0]),
        max_abs_entry=float(np.max(np.abs(A))),
    )


def weighted_frobenius(A, P) -> float:
    """sqrt(sum_ij A_ij^2 P_ij) for a probability matrix P over the entries."""
    A = _as_matrix(A)
    P = np.asarray(P, dtype=np.float64)
    if P.shape != A.shape:
        raise ValueError(f"P shape {P.shape} does not match A shape {A.shape}")
    if np.any(P < 0.0):
        raise ValueError("P has negative entries")
    total = float(P.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"P sums to {total!r}, expected 1 within 1e-8")
    return float(np.sqrt(np.sum(A * A * P)))


def project_rowcol(A, B):
    """Projection of B onto the row/column spaces of A and its complement.

    Returns (P_A(B), B - P_A(B)) where P_A(B) = U U^T B V V^T built from the
    singular vectors of A with singular value above RANK_RTOL * sigma_1.
    rank(P_A(B)) <= 2 rank(A).
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs B {B.shape}")
    f = svd(A)
    s = f.singular_values
    if s[0] == 0.0:
        proj = np.zeros_like(B)
        return proj, B - proj
    keep = s > RANK_RTOL * s[0]
    U = f.U[:, keep]
    V = f.V[:, keep]
    proj = U @ (U.T @ B @ V) @ V.T
    return proj, B - proj


def numerical_rank(A, rtol: float = RANK_RTOL) -> int:
    s = np.linalg.svd(_as_matrix(A), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


# ---------------------------------------------------------------------------
# solver and sampling helpers only tests use
# ---------------------------------------------------------------------------

def majorizer(A, B, phi: float, loss) -> float:
    """Quadratic model Q(A; B, phi) = L(B) + <grad L(B), A - B> + (phi/2)||A - B||_F^2."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if phi <= 0.0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    diff = A - B
    return float(loss.value(B) + np.sum(loss.gradient(B) * diff) + 0.5 * phi * np.sum(diff * diff))


def prob_matrix(model) -> np.ndarray:
    """The m1 x m2 matrix of cell probabilities of a SamplingModel."""
    if model.kind == "uniform":
        return np.full((model.m1, model.m2), 1.0 / (model.m1 * model.m2))
    return np.outer(model.row_probs, model.col_probs)


def sampling_diagnostics(model) -> dict:
    """mu_hat = 1 / (m1 m2 min P) plus max cell and marginal probabilities of a
    SamplingModel."""
    if model.kind == "uniform":
        cell = 1.0 / (model.m1 * model.m2)
        return {
            "mu_hat": 1.0,
            "max_prob": cell,
            "max_row_marginal": 1.0 / model.m1,
            "max_col_marginal": 1.0 / model.m2,
        }
    P = prob_matrix(model)
    min_p = float(P.min())
    return {
        "mu_hat": math.inf if min_p == 0.0 else 1.0 / (model.m1 * model.m2 * min_p),
        "max_prob": float(P.max()),
        "max_row_marginal": float(P.sum(axis=1).max()),
        "max_col_marginal": float(P.sum(axis=0).max()),
    }


def penalty_multiplier(lam: float, a: float, v: float, n: float, m: int) -> float:
    """The multiplier c for which theorem_penalty(c, a, v, n, m) is lam (up
    to roundoff): lam / sqrt(max(a^2, v^2) / (n m))."""
    return lam / math.sqrt(max(a * a, v * v) / (n * m))
