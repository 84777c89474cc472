"""map_in_workers is the one fan-out of transmc: source screening, evaluate's
cases and benchmark replicates run their independent calls through it, side
by side in forked child processes and the calling process, with results,
errors and warnings that do not depend on the worker count.
"""

import logging
import os
import pickle
import signal
import threading

log = logging.getLogger("transmc")

# Thread-count variables of the BLAS libraries numpy links (OpenBLAS, MKL, and
# OpenMP builds of either); _worker_count reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
