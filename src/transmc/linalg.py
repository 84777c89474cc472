"""Dense linear-algebra primitives: SVD, matrix norms, singular-value
soft-thresholding, box and row/column-space projections.

All functions are pure and operate on float64 numpy arrays. The SVD is thin
(q = min(m1, m2)) with a fixed sign convention so downstream results are
reproducible bit-for-bit.
"""

from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_1 count as zero


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


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


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


def soft_threshold(A, lam: float) -> np.ndarray:
    """Singular-value shrinkage U @ diag(max(sigma - lam, 0)) @ V.T.

    Uses the raw LAPACK factors: flipping the signs of a (U column, V column)
    pair cancels exactly in the product, so the result is bit-identical to
    the one built from svd()'s sign-fixed factors.
    """
    if lam < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {lam!r}")
    A = _as_matrix(A)
    if lam == 0.0:
        return A.copy()
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    k = int(np.count_nonzero(s > lam))  # s is nonincreasing: keep a prefix
    if k == 0:
        return np.zeros_like(A)
    # A Fortran-ordered left factor keeps the BLAS product bit-identical to
    # the shrinkage built from svd()'s factors; a C-ordered one can round
    # differently.
    return np.multiply(U[:, :k], s[:k] - lam, order="F") @ Vt[:k]


def project_box(A, a: float, shift=None) -> np.ndarray:
    """Entrywise clamp so |(A + shift)_ij| <= a; plain clamp to [-a, a] without shift."""
    if a <= 0.0:
        raise ValueError(f"box level must be positive, got {a!r}")
    A = _as_matrix(A)
    if shift is None:
        return np.clip(A, -a, a)
    shift = np.asarray(shift, dtype=np.float64)
    if shift.shape != A.shape:
        raise ValueError(f"shift shape {shift.shape} does not match A shape {A.shape}")
    return np.clip(A, -a - shift, a - shift)


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
