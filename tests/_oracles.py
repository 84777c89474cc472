"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the defining
formulas (double loops, characteristic polynomials, finite differences,
fixed-step proximal gradient) so a bug in the library cannot hide in its own
oracle.
"""

import numpy as np


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
        A = (U * s) @ Vt
        np.clip(A, -box, box, out=A)
    return A
