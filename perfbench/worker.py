"""One workload process: set-up, one untimed warm-up op, then timed ops.

    python3 perfbench/worker.py --workload select-small --seed 23 --seconds 40
    python3 perfbench/worker.py --workload holdout-frames --seed 42 --ops 3 --trace

run.py starts one of these per measurement; it can also be run by hand from
the repository root. BLAS is pinned to one thread before numpy is imported,
and transmc is imported from this checkout's src/. Ops run closed-loop with
one client. Every output is checked; an op that raises or fails its check
counts as failed.

The last stdout line is one JSON object: op times, per-op quality, failures,
set-up timings, peak RSS, the environment block and, with --trace, the
per-layer metrics. With --trace the timed ops run twice: untraced, then the
same ops traced.
"""

import argparse
import json
import os
import platform
import re
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAILURE_MESSAGES = 5


def environment() -> dict:
    """Core count, BLAS build and threads, numpy and Python versions, kernel backend."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    max_threads = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    kernels = sys.modules.get("transmc.kernels")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_max_threads": int(max_threads.group(1)) if max_threads else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "kernels_backend": getattr(kernels, "BACKEND", "absent"),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    limit = p.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float, help="run ops until this much time has passed")
    limit.add_argument("--ops", type=int, help="run exactly this many ops (0: set-up only)")
    p.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    p.add_argument("--spans", help="write the spans here (gzip CSV) when --trace is given")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (imported here, after the thread pinning)
    import transmc  # noqa: F401

    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    workload_cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    def attempt(i, traced=False):
        """Run and check op i: (seconds, failure message or None, rel_err, matched)."""
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(i, lambda: wl.op(i)) if traced else wl.op(i)
        except Exception:  # any error of the program under test is a failed op
            return time.perf_counter() - t0, f"op {i}: {traceback.format_exc(limit=4)}", None, None
        seconds = time.perf_counter() - t0
        try:
            rel_err, matched = wl.check(i, out)
        except workloads.CheckError as exc:
            return seconds, f"op {i}: {exc}", None, None
        return seconds, None, rel_err, matched

    RUN_DIR.mkdir(exist_ok=True)
    op_s, traced_op_s, rel_errs, exact, failures = [], [], [], [], []
    with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix="inputs-") as tmp:
        if tracer:
            tracer.install()  # set-up is traced only for simulation.generate_s
        t0 = time.perf_counter()
        wl = workload_cls(args.seed, Path(tmp))
        inputs_s = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        # Index -1 is the warm-up; ops index their pool modulo its size, so
        # the warm-up runs the last pool entry.
        warmup_s, warmup_failure, _, _ = attempt(tracing.WARMUP_OP)
        ready_at = time.time()

        start = time.perf_counter()
        i = 0
        while (i < args.ops) if args.ops is not None else (time.perf_counter() - start < args.seconds):
            seconds, failure, rel_err, matched = attempt(i)
            op_s.append(seconds)
            if failure:
                failures.append(failure)
            else:
                rel_errs.append(rel_err)
                if matched is not None:
                    exact.append(matched)
            i += 1

        if tracer:  # the same ops again, traced
            tracer.install()
            for i in range(len(op_s)):
                seconds, failure, _, _ = attempt(i, traced=True)
                traced_op_s.append(seconds)
                if failure:
                    failures.append(failure)
            tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(op_s) + len(traced_op_s),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "op_s": op_s,
        "traced_op_s": traced_op_s,
        "rel_err": rel_errs,
        "selection_exact": exact,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "warmup_s": warmup_s,
        "warmup_failure": warmup_failure,
        "ready_at": ready_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer:
        result["layers"], result["absent"] = tracing.layer_metrics(tracer, len(traced_op_s))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
