"""Nuclear-norm penalized estimators: single-task completion and the
two-step pooled/debiased transfer estimator.

The transfer estimator first fits one penalized regression on the pooled
samples of every task (estimating the sample-size weighted average of the
task matrices), then fits a target-only correction under a shifted box
constraint, and returns the sum of the two stages.

map_in_workers is the one fan-out of transmc: source screening, evaluate's
cases and benchmark replicates run their independent calls through it, side
by side in forked child processes and the calling process, with results,
errors and warnings that do not depend on the worker count.
"""

import functools
import logging
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace

import numpy as np

from transmc.datasets import MaskedDataset, check_compatible
from transmc.losses import MaskedSquaredLoss
from transmc.solver import SolveTrace, SolverConfig, lamm_solve

log = logging.getLogger("transmc")

BOX_FEASIBILITY_TOL = 1e-12
# Thread-count variables of the BLAS libraries numpy links (OpenBLAS, MKL, and
# OpenMP builds of either); _worker_count reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Estimate:
    """A recovered matrix plus fit diagnostics."""

    matrix: np.ndarray
    penalty_used: float
    trace: SolveTrace
    stage: str  # single | pooled | debiased | combined


@dataclass(frozen=True)
class PenaltyPolicy:
    """The paper's penalty rule, lam = c * sqrt(max(a^2, v^2) / (n m)) with
    m = min(m1, m2), for every fit of one target dataset.

    trans_mc takes lam1 with c1 over the pooled sample count N and lam2 with
    c2 over the target sample count n0; the single-task fit takes c2 over n0.
    Source screening takes its own multipliers c0 and ck (SelectionConfig).
    v left None is estimated from a pilot fit on the target by resolve().
    """

    a: float
    c1: float = 2.0
    c2: float = 2.0
    v: float | None = None

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("entry bound a must be positive")
        if self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValueError("penalty multipliers must be positive")

    def resolve(self, target: MaskedDataset, cfg: SolverConfig) -> "PenaltyPolicy":
        """This policy with v filled in: unchanged when v is given, else v is
        the residual scale of a pilot fit on target (estimate_noise_scale).

        Every estimator resolves its policy on the target; pass the resolved
        policy on so that the pilot runs once per target dataset.
        """
        if self.v is not None:
            return self
        return replace(self, v=estimate_noise_scale(target, self.a, cfg))

    def penalty(self, c: float, n: float, m: int) -> float:
        """theorem_penalty(c, a, v, n, m) of a resolved policy."""
        return theorem_penalty(c, self.a, self.v, n, m)


def theorem_penalty(c: float, a: float, v: float, n: int, m: int) -> float:
    """c * sqrt(max(a^2, v^2) / (n m))."""
    return c * math.sqrt(max(a * a, v * v) / (n * m))


def estimate_noise_scale(data: MaskedDataset, a: float, cfg: SolverConfig) -> float:
    """Residual standard deviation of a cheap pilot fit.

    The pilot penalty is one tenth of the full-shrinkage threshold
    ||(2/n) sum Y_i X_i||_2, the spectral norm of the naive moment fill-in
    under the mean-squared-loss convention.
    """
    loss = MaskedSquaredLoss.from_dataset(data)
    fill = (2.0 / loss.n) * loss.counts * loss.means
    lam_pilot = float(np.linalg.svd(fill, compute_uv=False)[0]) / 10.0
    pilot_cfg = replace(cfg, max_iters=min(cfg.max_iters, 150))
    est = fit_loss(loss, lam_pilot, a, pilot_cfg, label="pilot")
    residuals = data.values - est.matrix[data.rows, data.cols]
    if residuals.size < 2:
        return float(np.abs(residuals[0]))
    return float(np.std(residuals, ddof=1))


@dataclass(frozen=True)
class FitProblem:
    """One fit of fit_losses: the arguments of fit_loss but the solver config."""

    loss: MaskedSquaredLoss
    lam: float
    a: float
    shift: np.ndarray | None = None
    stage: str = "single"
    label: str | None = None


def fit_loss(loss: MaskedSquaredLoss, lam: float, a: float, cfg: SolverConfig,
             shift=None, stage: str = "single", label: str | None = None) -> Estimate:
    """Nuclear-norm penalized fit of loss, started from zero, over the box
    |A + shift|_inf <= a (|A|_inf <= a when shift is None).

    stage is the returned Estimate's stage; label (default: stage) names the
    fit in the solver warnings only, e.g. "fold 2", "source 7" or "pilot".
    """
    return fit_losses([FitProblem(loss, float(lam), a, shift, stage, label)], cfg)[0]


def fit_losses(problems, cfg: SolverConfig) -> list[Estimate]:
    """fit_loss of each FitProblem, returned and warned about in input order.

    The solves run through map_in_workers; each worker runs only the pure
    lamm_solve, so the estimates do not depend on the worker count.
    """
    problems = list(problems)
    solved = map_in_workers(functools.partial(_solve, cfg=cfg), problems)
    estimates = []
    for p, (matrix, trace) in zip(problems, solved):
        if not trace.converged:
            log.warning("%s fit did not converge in %d iterations (lam = %.4g)",
                        p.label or p.stage, trace.iterations, p.lam)
        if trace.box_active:
            log.warning("%s fit is not certified: the box clipped its last step "
                        "(a = %.4g, lam = %.4g)", p.label or p.stage, p.a, p.lam)
        estimates.append(Estimate(matrix=matrix, penalty_used=p.lam, trace=trace,
                                  stage=p.stage))
    return estimates


def _solve(problem: FitProblem, cfg: SolverConfig):
    """lamm_solve of one problem from zero: (solution, SolveTrace)."""
    return lamm_solve(problem.loss, problem.lam, problem.a, cfg, problem.shift)


def map_in_workers(fn, items) -> list:
    """[fn(item) for item in items], run side by side when
    _worker_count(len(items)) is above 1, and in this process otherwise.

    The fan-out forks w - 1 child processes for this call only, and this
    process works too. Process k starts with item k, this process being 0;
    after that each process claims the next unclaimed item. fn and the items
    reach the children through the fork, so they need not pickle; a result
    or exception a child sends back must, and one that does not arrives as a
    RuntimeError. Every item runs, then the exception of the lowest failing
    index is raised. Records that the items log to the transmc logger are held
    back and replayed here in input order, up to the failing item. fn must not
    depend on the process it runs in, so the results, the exception raised and
    the warnings do not depend on the worker count."""
    items = list(items)
    workers = _worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    outcomes = _fan_out(fn, items, workers)
    for ok, value, records in outcomes:
        for record in records:
            log.handle(record)
        if not ok:
            raise value
    return [value for _, value, _ in outcomes]


# True in a process while it runs the items of a fan-out: in its children, and
# in the caller until its own items are done.
_in_fan_out = False


class _HeldRecords(logging.Filter):
    """A filter on the transmc logger that keeps every record in records
    instead of letting it through."""

    def __init__(self):
        super().__init__()
        self.records = []

    def filter(self, record):
        self.records.append(record)
        return False


def _fan_out(fn, items, workers) -> list:
    """(ok, result or exception, held log records) of each item, in input
    order, from this process and workers - 1 forked children."""
    global _in_fan_out
    import multiprocessing

    # fork, not spawn: a spawned child would import numpy and transmc afresh,
    # which costs more than the calls it runs.
    counter = multiprocessing.get_context("fork").Value("l", workers)
    held = _HeldRecords()
    outcomes = {}
    children = []  # (pid, read end of the child's pipe)
    finished = False
    log.addFilter(held)
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(fn, items, k, counter, held, write_end,
                       inherited=[read_end, *(fd for _, fd in children)])
            os.close(write_end)
            children.append((pid, read_end))
        _in_fan_out = True
        for i in _claims(counter, 0, len(items)):
            outcomes[i] = _run_item(fn, items[i], held)
        _in_fan_out = False
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                sent = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                sent = []  # the child died while writing; its items are lost
            for i, outcome in sent:
                try:
                    outcomes[i] = pickle.loads(outcome)
                except Exception as exc:
                    outcomes[i] = (False, RuntimeError(
                        f"item {i} of a fan-out came back unreadable: {exc!r}"), [])
        finished = True
    finally:
        _in_fan_out = False
        log.removeFilter(held)
        for pid, read_end in children:
            os.close(read_end)
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    lost = (False, RuntimeError("a worker process of a fan-out exited before "
                                "returning one of its items"), [])
    return [outcomes.get(i, lost) for i in range(len(items))]


def _claims(counter, first: int, n: int):
    """Item first, then the next unclaimed item of the shared counter, until
    the counter passes n."""
    i = first
    while i < n:
        yield i
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1


def _run_item(fn, item, held: _HeldRecords):
    """(ok, fn(item) or the exception it raised, the records it logged)."""
    held.records = records = []
    try:
        return True, fn(item), records
    except Exception as exc:
        return False, exc, records


def _child(fn, items, k: int, counter, held: _HeldRecords, write_end: int, inherited):
    """The body of a forked child: item k and every item it claims after it,
    sent through write_end as one list of (index, pickled outcome) once all
    are run; inherited are the caller's file descriptors it closes first. It
    leaves through os._exit, so it never returns into the caller's stack or
    flushes the stdio buffers it inherited."""
    global _in_fan_out
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        _in_fan_out = True
        sent = [(i, _pickled(i, _run_item(fn, items[i], held)))
                for i in _claims(counter, k, len(items))]
        with open(write_end, "wb") as out:
            pickle.dump(sent, out)
        status = 0
    finally:
        os._exit(status)


def _pickled(i: int, outcome) -> bytes:
    """A child's outcome of item i as bytes, with the records' messages
    formatted; an outcome that does not pickle becomes a RuntimeError."""
    ok, value, records = outcome
    for record in records:
        record.msg, record.args = record.getMessage(), None
    try:
        return pickle.dumps((ok, value, records))
    except Exception as exc:
        what = "result" if ok else f"{type(value).__name__} exception"
        return pickle.dumps((False, RuntimeError(
            f"the {what} of item {i} of a fan-out cannot be sent back: {exc!r}"), records))


def _worker_count(n: int) -> int:
    """Worker processes for n independent calls: the available cores divided
    by the BLAS threads each process runs, at most n.

    Each process's BLAS runs the largest thread count that BLAS_THREAD_VARS
    set, or a thread per core when none is set or a set value is not a whole
    number of at least 1. More workers than the ratio allows oversubscribe
    the cores, and BLAS threads spin while they wait: on 2 cores with 2-thread
    BLAS, 2 workers screened paper-5.2-full 9x slower than one. So unpinned
    BLAS means 1 worker. It is also 1, and the calls run in this process,
    where a fork is unsafe or would nest: no fork start method, inside a
    multiprocessing worker, inside another fan-out (so a benchmark replicate
    screens serially), or with other threads running, whose locks a fork would
    copy."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cores = cores or 1
    pinned = [os.environ.get(var, "").strip() for var in BLAS_THREAD_VARS]
    threads = [int(v) if v.isdecimal() and int(v) >= 1 else cores for v in pinned if v]
    n = min(n, cores // max(threads, default=cores))
    if n <= 1 or _in_fan_out:
        return 1
    import multiprocessing

    if (multiprocessing.parent_process() is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return n


def fit_single(data: MaskedDataset, lam: float, a: float, cfg: SolverConfig,
               label: str = "single") -> Estimate:
    """Nuclear-norm penalized regression on one dataset over the box |A|_inf <= a;
    label names the fit in the solver warnings (see fit_loss)."""
    return fit_loss(MaskedSquaredLoss.from_dataset(data), lam, a, cfg, label=label)


def pooled_fit(datasets, lam1: float, a: float, cfg: SolverConfig) -> Estimate:
    """Penalized fit on all tasks' samples pooled together.

    Tasks are accumulated in ascending task_id order so the result does not
    depend on how the caller ordered the sequence.
    """
    datasets = sorted(datasets, key=lambda ds: ds.task_id)
    return fit_loss(MaskedSquaredLoss.from_datasets(datasets), lam1, a, cfg, stage="pooled")


def debias_fit(target: MaskedDataset, a_tilde, lam2: float, a: float,
               cfg: SolverConfig) -> Estimate:
    """Target-only correction: minimize the loss of D + a_tilde over
    |D + a_tilde|_inf <= a with penalty lam2 * ||D||_*."""
    if target.task_id != 0:
        raise ValueError(f"debiasing expects the target task (id 0), got {target.task_id}")
    a_tilde = np.asarray(a_tilde, dtype=np.float64)
    if a_tilde.shape != target.shape:
        raise ValueError("pooled estimate shape does not match the target")
    if np.max(np.abs(a_tilde)) > a + BOX_FEASIBILITY_TOL:
        raise ValueError("pooled estimate lies outside the box; cannot debias")
    loss = MaskedSquaredLoss.from_dataset(target).shifted(a_tilde)
    return fit_loss(loss, lam2, a, cfg, shift=a_tilde, stage="debiased")


def _check_sample_balance(n0: int, n_total: int, a: float, v: float, rank_hint: int,
                          m1: int, m2: int):
    # Condition on n0/N from the transfer theory; diagnostic only, never enforced.
    d = m1 + m2
    big = max(m1, m2)
    r = max(1, rank_hint)
    bound = a * a * math.log(d) / (max(a * a, v * v) * r * big)
    if n0 / n_total < bound:
        log.warning(
            "target share n0/N = %.3g below the theory's technical bound %.3g; "
            "debiasing may be under-powered", n0 / n_total, bound,
        )


def trans_mc(target: MaskedDataset, sources, policy: PenaltyPolicy,
             cfg: SolverConfig) -> Estimate:
    """Two-step transfer estimate: pooled fit plus target-only correction.

    An empty source sequence degenerates to pooling over the target alone
    followed by debiasing against the same data.
    """
    sources = list(sources)
    check_compatible([target, *sources])
    policy = policy.resolve(target, cfg)
    a = policy.a
    n0 = target.n
    n_total = n0 + sum(ds.n for ds in sources)
    m = min(target.m1, target.m2)

    pooled = pooled_fit([target, *sources], policy.penalty(policy.c1, n_total, m), a, cfg)

    sigma = np.linalg.svd(pooled.matrix, compute_uv=False)
    rank_hint = int(np.sum(sigma > 1e-8 * max(1e-300, float(sigma[0]))))
    _check_sample_balance(n0, n_total, a, policy.v, rank_hint, target.m1, target.m2)

    lam2 = policy.penalty(policy.c2, n0, m)
    correction = debias_fit(target, pooled.matrix, lam2, a, cfg)
    combined = pooled.matrix + correction.matrix
    return Estimate(matrix=combined, penalty_used=lam2, trace=correction.trace,
                    stage="combined")
