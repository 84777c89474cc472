"""Dense linear-algebra primitives of the proximal solver: singular-value
soft-thresholding (with the nuclear norm of its result) and the entrywise box
projection.

Both functions are pure, operate on float64 numpy arrays and reject
non-finite input.
"""

import numpy as np


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def soft_threshold(A, lam: float) -> tuple[np.ndarray, float]:
    """Singular-value shrinkage S = U @ diag(max(sigma - lam, 0)) @ V.T and its
    nuclear norm sum(max(sigma - lam, 0)), taken from the same singular values.

    Uses the raw LAPACK factors of a thin SVD: flipping the signs of a
    (U column, V column) pair cancels exactly in the product, so S is
    bit-identical to the one built from sign-normalized factors. With lam = 0,
    S is an exact copy of A.
    """
    if lam < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {lam!r}")
    A = _as_matrix(A)
    if lam == 0.0:
        return A.copy(), float(np.linalg.svd(A, compute_uv=False).sum())
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    k = int(np.count_nonzero(s > lam))  # s is nonincreasing: keep a prefix
    if k == 0:
        return np.zeros_like(A), 0.0
    kept = s[:k] - lam
    # A Fortran-ordered left factor keeps the BLAS product bit-identical to
    # the shrinkage built from sign-normalized factors; a C-ordered one can
    # round differently.
    return np.multiply(U[:, :k], kept, order="F") @ Vt[:k], float(kept.sum())


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
