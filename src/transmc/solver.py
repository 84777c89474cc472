"""Accelerated local adaptive majorize-minimization (LAMM) for nuclear-norm
penalized least squares  min L(A) + lam * ||A||_*  subject to an entrywise box.

Each iteration takes a gradient step of length 1/phi from a point Y,
soft-thresholds the singular values at lam/phi, projects onto the box, and
raises phi until the local quadratic model at Y majorizes the loss at the
candidate. The loss is quadratic with Hessian at most L =
loss.curvature_bound(), so every phi >= L majorizes it exactly: phi starts
at 1e-3 * L, never exceeds L, and a candidate at phi = L is accepted without
the comparison, which there can only fail by roundoff. A candidate c rejected
at phi would have passed at any phi >= rho, its exact curvature along the step,
rho = 2 (L(c) - L(Y) - <grad L(Y), c - Y>) / ||c - Y||^2, so backtracking jumps
to min(L, max(GAMMA * phi, rho)) instead of climbing by doublings. For the
quadratic loss the numerator equals <grad L(c) - grad L(Y), c - Y>, and the
test uses that form: the loss-value difference cancels to roundoff once steps
are small, which would leave phi stuck at L in tight solves. phi is
carried from one iteration to the next and halved, down to 1e-3 * L, only
after PATIENCE accepted steps in a row showed slack, that is when the model
at phi / 2 would also have majorized the loss there (the slack test of I-LAMM,
Fan, Liu, Sun and Zhang, Ann. Statist. 2018; step sizes that grow and shrink
under FISTA are analysed by Scheinberg, Goldfarb and Bai, Found. Comput. Math.
2014). Lowering phi after a single slack step often gets the next step
rejected, and each rejection costs a full proximal evaluation. The fit stops
when ||candidate - Y||_F <= epsilon, the norm of the proximal-gradient mapping
at Y.

Momentum (FISTA; Beck and Teboulle, SIAM J. Imaging Sci. 2009): Y is the
extrapolated point A_k + beta_k (A_k - A_{k-1}), beta_k = (t_k - 1) / t_{k+1},
t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2, t_1 = 1. Restart (O'Donoghue and
Candes, Found. Comput. Math. 2015): a candidate from an extrapolated point
whose objective exceeds the objective at A_k is dropped, t is reset to 1 and
the step is redone from Y = A_k. Every accepted step is therefore either no
worse than A_k or a plain majorize-minimize step from A_k.

The box bounds are computed once per solve (linalg.box_bounds); a candidate
is clipped (linalg.clamp_box) only when a range test finds an entry outside
them, and that test also says whether the step was clipped. A step the box
clips is not a proximal step of the objective and can raise it, so t is
also reset to 1 after such a step, and the trace reports a fit whose last
step was clipped as box-active: its result is not certified. The candidate
is not checked for finiteness; a non-finite one ends in SolverDivergedError
at the loss-value check.

The penalty of a step needs no second SVD: soft_threshold returns the
nuclear norm of its result. Only a clipped step takes its penalty from a
compute_uv=False SVD.
"""

import math
from dataclasses import dataclass

import numpy as np

from transmc.linalg import box_bounds, clamp_box, soft_threshold

GAMMA = 2.0  # least factor by which backtracking raises phi; the slack rule lowers it by GAMMA
PATIENCE = 3  # accepted steps with slack in a row before phi is lowered
PHI0_SCALE = 1e-3  # phi starts at, and is never lowered below, PHI0_SCALE * L


class SolverDivergedError(RuntimeError):
    """Loss turned non-finite."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of lamm_solve: stop once a proximal-gradient step is at
    most epsilon in Frobenius norm, or after max_iters iterations. epsilon left
    None becomes 1e-5 * sqrt(m1 * m2) of the problem at hand."""

    epsilon: float | None = None
    max_iters: int = 500

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


@dataclass
class SolveTrace:
    """iterations counts loop passes: accepted steps plus passes whose
    extrapolated candidate was dropped by a restart. objective_values holds
    the objective at the zero start and after each accepted step.
    prox_evals counts every proximal (soft-threshold) evaluation, accepted or
    rejected by backtracking or restart. final_phi is the phi the next
    iteration would start from. box_active is True when the box clipped the
    last accepted step, so the result is not a certified minimizer."""

    iterations: int
    objective_values: list[float]
    final_phi: float
    converged: bool
    prox_evals: int
    box_active: bool


def _nuclear_penalty(A, lam):
    return lam * float(np.linalg.svd(A, compute_uv=False).sum()) if lam else 0.0


def lamm_solve(loss, lam: float, a: float, cfg: SolverConfig, shift=None):
    """Minimize L(A) + lam * ||A||_* over the box |A + shift|_inf <= a (shift
    None: |A|_inf <= a; else a matrix of the loss's shape), starting from
    A = 0, which the box must contain: |shift|_inf <= a.

    Returns (solution, SolveTrace). Hitting max_iters is reported through
    trace.converged = False, not an error; a non-finite loss raises
    SolverDivergedError.
    """
    if not lam >= 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if not a > 0.0:
        raise ValueError(f"box level a must be positive, got {a!r}")
    if shift is not None:
        shift = np.asarray(shift, dtype=np.float64)
        if shift.shape != loss.shape:
            raise ValueError(f"shift shape {shift.shape} does not match {loss.shape}")
        if np.max(np.abs(shift)) > a * (1.0 + 1e-12) + 1e-12:
            raise ValueError("the zero start violates the box constraint: |shift| > a")
    lo, hi = box_bounds(a, shift)
    A = np.zeros(loss.shape)
    epsilon = cfg.epsilon
    if epsilon is None:
        m1, m2 = loss.shape
        epsilon = 1e-5 * math.sqrt(m1 * m2)

    curvature = loss.curvature_bound()
    phi_min = PHI0_SCALE * curvature
    obj_A = loss.value(A)  # the penalty is zero at A = 0
    objective = [obj_A]
    if not math.isfinite(obj_A):
        raise SolverDivergedError("objective non-finite at the zero start")

    # Work buffers reused across iterations: the extrapolated point Y, the
    # gradients at Y and at the candidate, the gradient step B and the step
    # candidate - Y.
    Y = np.empty_like(A)
    grad = np.empty_like(A)
    grad_c = np.empty_like(A)
    B = np.empty_like(A)
    diff = np.empty_like(A)
    A_prev = A
    phi = phi_min
    t = 1.0
    slack_steps = 0
    converged = False
    box_active = False
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
        point = Y if extrapolated else A
        grad = loss.gradient(point, out=grad)
        while True:
            prox_evals += 1
            np.divide(grad, phi, out=B)
            np.subtract(point, B, out=B)
            shrunk, nuclear = soft_threshold(B, lam / phi)
            candidate, clipped = clamp_box(shrunk, lo, hi)
            np.subtract(candidate, point, out=diff)
            linear = float(np.vdot(grad, diff))
            sq_step = float(np.vdot(diff, diff))
            value_c = loss.value(candidate)
            if not math.isfinite(value_c):
                raise SolverDivergedError("loss value non-finite at candidate")
            # L(c) - L(Y) - <grad L(Y), c - Y> of the quadratic loss, taken as
            # <grad L(c) - grad L(Y), c - Y> / 2: the value difference cancels
            # to roundoff once steps are small, this form does not.
            grad_c = loss.gradient(candidate, out=grad_c)
            excess = 0.5 * (float(np.vdot(grad_c, diff)) - linear)
            if phi >= curvature or excess <= 0.5 * phi * sq_step:
                break
            # A rejected step has sq_step > 0: at candidate == point the test passes.
            phi = min(curvature, max(GAMMA * phi, 2.0 * excess / sq_step))
        obj_c = value_c + (_nuclear_penalty(candidate, lam) if clipped else lam * nuclear)
        if extrapolated and obj_c > obj_A:
            t = 1.0  # restart: redo the step from A without momentum
            continue
        A_prev, A = A, candidate
        obj_A = obj_c
        objective.append(obj_A)
        slack_steps = slack_steps + 1 if excess <= 0.5 * (phi / GAMMA) * sq_step else 0
        if slack_steps == PATIENCE:
            phi = max(phi_min, phi / GAMMA)
            slack_steps = 0
        box_active = clipped
        t = 1.0 if clipped else t_next
        if math.sqrt(sq_step) <= epsilon:
            converged = True
            break

    trace = SolveTrace(
        iterations=iterations,
        objective_values=objective,
        final_phi=phi,
        converged=converged,
        prox_evals=prox_evals,
        box_active=box_active,
    )
    return A, trace
