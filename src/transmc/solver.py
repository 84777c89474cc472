"""Local adaptive majorize-minimization (LAMM) for nuclear-norm penalized
convex programs  min L(A) + lam * ||A||_*  subject to an entrywise box.

Each iteration takes a gradient step of length 1/phi, soft-thresholds the
singular values at lam/phi, projects onto the box, and backtracks phi by a
factor gamma until the local quadratic model majorizes the loss at the
candidate. phi is carried from one iteration to the next and lowered to
max(phi0, phi / gamma) only when the accepted step showed slack, that is
when the model at phi / gamma would also have majorized the loss there (the
I-LAMM rule of Fan, Liu, Sun and Zhang, Ann. Statist. 2018). Every accepted
step is a majorize-minimize step, so the objective never increases.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from transmc.linalg import project_box, soft_threshold

MAX_BACKTRACK_DOUBLINGS = 64  # phi may not exceed phi0 * gamma**64


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
    """iterations counts accepted steps; prox_evals counts every proximal
    (soft-threshold) evaluation, accepted or rejected by backtracking.
    final_phi is the phi the next iteration would start from."""

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
    A = np.asarray(init, dtype=np.float64).copy()
    if not np.all(np.isfinite(A)):
        raise ValueError("initial matrix contains non-finite entries")
    feas = A if shift is None else A + shift
    if np.max(np.abs(feas)) > a * (1.0 + 1e-12) + 1e-12:
        raise ValueError("initial matrix violates the box constraint")

    phi_cap = cfg.phi0 * cfg.gamma ** MAX_BACKTRACK_DOUBLINGS
    value_A = loss.value(A)
    objective = [value_A + _nuclear_penalty(A, cfg.lam)]
    if not math.isfinite(objective[0]):
        raise SolverDivergedError("objective non-finite at the initial point")

    phi = cfg.phi0
    converged = False
    iterations = 0
    prox_evals = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        grad = loss.gradient(A)
        while True:
            prox_evals += 1
            candidate = soft_threshold(A - grad / phi, cfg.lam / phi)
            candidate = project_box(candidate, a, shift)
            diff = candidate - A
            linear = float(np.sum(grad * diff))
            sq_step = float(np.sum(diff * diff))
            quad = value_A + linear + 0.5 * phi * sq_step
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
        step = float(np.linalg.norm(diff))
        A = candidate
        objective.append(value_c + _nuclear_penalty(A, cfg.lam))
        if value_c - value_A - linear <= 0.5 * (phi / cfg.gamma) * sq_step:
            phi = max(cfg.phi0, phi / cfg.gamma)
        value_A = value_c
        if step <= cfg.epsilon:
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
