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

    Works through the Gram matrix of the short side: for a wide A (m1 <= m2),
    G = A @ A.T is q x q with q = m1, its SVD gives the left singular vectors
    U and w = sigma**2, and the rows of C = U_k.T @ A for the k values with
    w > lam**2 are sigma_i * v_i.T. The sigma_i are taken as the row norms of
    C, a Rayleigh-Ritz refinement that keeps them, and the returned nuclear
    norm, at full accuracy although w carries the squared condition number.
    Then S = (U_k * (1 - lam / sigma)) @ C; a tall A is handled as the
    transpose of a wide one, so S(A.T) == S(A).T exactly. With lam = 0, S is
    an exact copy of A.

    Accuracy: S agrees with the shrinkage from a full SVD of A to about
    1e-14 relative for lam down to 1e-5 * sigma_1. Singular values below
    about sqrt(eps) * sigma_1 (1.5e-8 sigma_1) drown in the roundoff of G,
    so with lam that low and singular values spread over many decades the
    error can reach about 1e-9 relative.
    """
    if lam < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {lam!r}")
    A = _as_matrix(A)
    if lam == 0.0:
        return A.copy(), float(np.linalg.svd(A, compute_uv=False).sum())
    wide = A.shape[0] <= A.shape[1]
    B = A if wide else A.T
    U, w, _ = np.linalg.svd(B @ B.T)
    k = int(np.count_nonzero(w > lam * lam))  # w is nonincreasing: keep a prefix
    if k == 0:
        return np.zeros_like(A), 0.0
    U = U[:, :k]
    C = U.T @ B
    sigma = np.sqrt(np.einsum("ij,ij->i", C, C))
    S = (U * (1.0 - lam / np.maximum(sigma, lam))) @ C
    return (S if wide else S.T), float(np.maximum(sigma - lam, 0.0).sum())


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
