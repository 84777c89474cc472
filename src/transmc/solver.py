"""Accelerated local adaptive majorize-minimization (LAMM) for nuclear-norm
penalized convex programs  min L(A) + lam * ||A||_*  subject to an entrywise box.

Each iteration takes a gradient step of length 1/phi from a point Y,
soft-thresholds the singular values at lam/phi, projects onto the box, and
backtracks phi by a factor gamma until the local quadratic model at Y
majorizes the loss at the candidate. phi is carried from one iteration to
the next and lowered to max(phi0, phi / gamma) only when the accepted step
showed slack, that is when the model at phi / gamma would also have
majorized the loss there (the I-LAMM rule of Fan, Liu, Sun and Zhang, Ann.
Statist. 2018). The fit stops when ||candidate - Y||_F <= epsilon, the norm
of the proximal-gradient mapping at Y.

Momentum (FISTA; Beck and Teboulle, SIAM J. Imaging Sci. 2009): Y is the
extrapolated point A_k + beta_k (A_k - A_{k-1}), beta_k = (t_k - 1) / t_{k+1},
t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, t_1 = 1. Restart (O'Donoghue and
Candes, Found. Comput. Math. 2015): a candidate from an extrapolated point
whose objective exceeds the objective at A_k is dropped, t is reset to 1 and
the step is redone from Y = A_k. Every accepted step is therefore either no
worse than A_k or a plain majorize-minimize step from A_k. A step the box
clips is not a proximal step of the objective and can raise it, so t is
also reset to 1 after such a step.

The penalty at a candidate needs no second SVD: for B = Y - grad L(Y) / phi
and S = soft_threshold(B, lam / phi), ||S||_* = <S, B - S> / (lam / phi), so
lam * ||S||_* = phi * <S, B - S>. A compute_uv=False SVD gives the penalty
only when the box clipped S, or when lam / phi is too small next to
||B||_F for the identity to be accurate.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from transmc.linalg import project_box, soft_threshold

MAX_BACKTRACK_DOUBLINGS = 64  # phi may not exceed phi0 * gamma**64
# The penalty identity loses about eps * ||B||_F / tau relative accuracy to
# cancellation in B - S; for tau below this multiple of ||B||_F (phi driven up
# by roundoff-level backtracking next to a solution) an SVD gives the penalty.
IDENTITY_MIN_TAU = 1e-4


class SolverDivergedError(RuntimeError):
    """Loss turned non-finite or backtracking failed to find a majorizer."""


@dataclass(frozen=True)
class SolverConfig:
    """LAMM parameters.

    phi0 and epsilon may be left None and resolved against a problem via
    resolve(): phi0 defaults to 1e-3 times the loss curvature bound and
    epsilon to 1e-5 * sqrt(m1 * m2).
    """

    phi0: float | None = None
    gamma: float = 2.0
    lam: float = 0.0
    epsilon: float | None = None
    max_iters: int = 500
    box_level: float | None = None
    box_shift: np.ndarray | None = None

    def validate(self):
        if self.phi0 is None or not self.phi0 > 0.0:
            raise ValueError(f"phi0 must be positive, got {self.phi0!r}")
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma!r}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam!r}")
        if self.epsilon is None or not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if self.box_level is None or not self.box_level > 0.0:
            raise ValueError(f"box_level must be positive, got {self.box_level!r}")

    def resolve(self, loss, lam=None, box_level=None, box_shift=None) -> "SolverConfig":
        """Fill unset fields from the problem at hand."""
        cfg = self
        if lam is not None:
            cfg = replace(cfg, lam=float(lam))
        if box_level is not None:
            cfg = replace(cfg, box_level=float(box_level))
        if box_shift is not None:
            cfg = replace(cfg, box_shift=np.asarray(box_shift, dtype=np.float64))
        if cfg.phi0 is None:
            cfg = replace(cfg, phi0=1e-3 * loss.curvature_bound())
        if cfg.epsilon is None:
            m1, m2 = loss.shape
            cfg = replace(cfg, epsilon=1e-5 * math.sqrt(m1 * m2))
        cfg.validate()
        return cfg


@dataclass
class SolveTrace:
    """iterations counts loop passes: accepted steps plus passes whose
    extrapolated candidate was dropped by a restart. objective_values holds
    the objective at the initial point and after each accepted step.
    prox_evals counts every proximal (soft-threshold) evaluation, accepted or
    rejected by backtracking or restart. final_phi is the phi the next
    iteration would start from."""

    iterations: int
    objective_values: list[float]
    final_phi: float
    converged: bool
    prox_evals: int


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


def _nuclear_penalty(A, lam):
    return lam * float(np.linalg.svd(A, compute_uv=False).sum()) if lam else 0.0


def lamm_solve(loss, init, cfg: SolverConfig):
    """Minimize L(A) + lam * ||A||_* over the (possibly shifted) box.

    Returns (solution, SolveTrace). Hitting max_iters is reported through
    trace.converged = False, not an error; a non-finite loss or a failed
    backtracking search raises SolverDivergedError.
    """
    cfg.validate()
    a = cfg.box_level
    shift = cfg.box_shift
    lam = cfg.lam
    A = np.asarray(init, dtype=np.float64).copy()
    if not np.all(np.isfinite(A)):
        raise ValueError("initial matrix contains non-finite entries")
    feas = A if shift is None else A + shift
    if np.max(np.abs(feas)) > a * (1.0 + 1e-12) + 1e-12:
        raise ValueError("initial matrix violates the box constraint")

    phi_cap = cfg.phi0 * cfg.gamma ** MAX_BACKTRACK_DOUBLINGS
    value_A = loss.value(A)
    obj_A = value_A + (_nuclear_penalty(A, lam) if A.any() else 0.0)
    objective = [obj_A]
    if not math.isfinite(obj_A):
        raise SolverDivergedError("objective non-finite at the initial point")

    # Work buffers reused across iterations: the extrapolated point Y, the
    # gradient at Y, the gradient step B and the step candidate - Y.
    Y = np.empty_like(A)
    grad = np.empty_like(A)
    B = np.empty_like(A)
    diff = np.empty_like(A)
    A_prev = A
    phi = cfg.phi0
    t = 1.0
    converged = False
    iterations = 0
    prox_evals = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        extrapolated = t > 1.0
        if extrapolated:
            np.subtract(A, A_prev, out=Y)
            Y *= (t - 1.0) / t_next
            Y += A
            point, value_Y = Y, loss.value(Y)
            if not math.isfinite(value_Y):
                raise SolverDivergedError("loss value non-finite at the extrapolated point")
        else:
            point, value_Y = A, value_A
        grad = loss.gradient(point, out=grad)
        while True:
            prox_evals += 1
            np.divide(grad, phi, out=B)
            np.subtract(point, B, out=B)
            shrunk = soft_threshold(B, lam / phi)
            candidate = project_box(shrunk, a, shift)
            np.subtract(candidate, point, out=diff)
            linear = float(np.vdot(grad, diff))
            sq_step = float(np.vdot(diff, diff))
            quad = value_Y + linear + 0.5 * phi * sq_step
            value_c = loss.value(candidate)
            if not math.isfinite(value_c):
                raise SolverDivergedError("loss value non-finite at candidate")
            if quad >= value_c:
                break
            phi *= cfg.gamma
            if phi > phi_cap:
                raise SolverDivergedError(
                    f"backtracking exceeded phi0 * gamma**{MAX_BACKTRACK_DOUBLINGS}"
                )
        clipped = not np.array_equal(candidate, shrunk)
        if clipped or lam / phi < IDENTITY_MIN_TAU * np.linalg.norm(B):
            penalty = _nuclear_penalty(candidate, lam)
        else:
            # lam * ||S||_* = phi * <S, B - S> for S = soft_threshold(B, lam / phi).
            B -= shrunk
            penalty = phi * float(np.vdot(shrunk, B))
        obj_c = value_c + penalty
        if extrapolated and obj_c > obj_A:
            t = 1.0  # restart: redo the step from A without momentum
            continue
        A_prev, A = A, candidate
        value_A, obj_A = value_c, obj_c
        objective.append(obj_A)
        if value_c - value_Y - linear <= 0.5 * (phi / cfg.gamma) * sq_step:
            phi = max(cfg.phi0, phi / cfg.gamma)
        # A clipped step is not a proximal step of the objective (its value
        # can rise), so no momentum is carried past it.
        t = 1.0 if clipped else t_next
        if math.sqrt(sq_step) <= cfg.epsilon:
            converged = True
            break

    trace = SolveTrace(
        iterations=iterations,
        objective_values=objective,
        final_phi=phi,
        converged=converged,
        prox_evals=prox_evals,
    )
    return A, trace
