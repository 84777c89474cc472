"""transmc benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload select-small --seed 23 --seconds 40 --trace 0

Run from the repository root. Workloads: select-small, holdout-frames and
transfer-full (see perfbench/README.md for what each one stresses; the
first two are the ones BENCHMARK.json lists).

--trace 0 runs the workload for --seconds in one process with tracing off,
then repeats its set-up in two more processes, and reports the end-to-end
metrics. --trace 1 runs the workload untraced for half of --seconds, then
repeats the same ops traced in the same process, and reports the per-layer
metrics plus the tracing overhead. Each process pins BLAS to one thread.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A run record with the
environment block is also written to .perfbench_run/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
WORKER = HERE / "worker.py"
WORKLOADS = ("transfer-full", "select-small", "holdout-frames")
DEFAULT_SEEDS = {"transfer-full": 11, "select-small": 23, "holdout-frames": 42}
SETUP_REPEATS = 3      # set-up time is the median over this many processes
TIME_LIMIT_S = 170.0   # every process of one run must finish within this


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run one worker process to completion; its result with setup_s added."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    started = time.time()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the {TIME_LIMIT_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def end_to_end(workload, seed, seconds, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    main = spawn(common + ["--seconds", repr(seconds)], deadline)
    setups = [main] + [spawn(common + ["--ops", "0"], deadline)
                       for _ in range(SETUP_REPEATS - 1)]
    op_s = main["op_s"]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        # With no successful op the run is incorrect; 0 keeps the line valid JSON.
        "rel_err.mean": (statistics.fmean(main["rel_err"]) if main["rel_err"] else 0.0, "ratio"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    notes = [
        f"ops: {main['ops']} closed-loop, one client, {sum(op_s):.3f} s in ops",
        "set-up s: " + ", ".join(f"{r['setup_s']:.4f}" for r in setups)
        + f" (import {main['import_s']:.3f}, inputs {main['inputs_s']:.3f},"
          f" warm-up {main['warmup_s']:.3f})",
    ]
    if main["selection_exact"]:
        share = statistics.fmean(main["selection_exact"])
        notes.append(f"selection_exact_frac: {share:.4f} of {len(main['selection_exact'])} ops")
    return setups, metrics, notes


def per_layer(workload, seed, seconds, deadline):
    spans = RUN_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    run = spawn(["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds / 2.0),
                 "--trace", "--spans", str(spans)], deadline)
    metrics = {name: (m["value"], m["unit"]) for name, m in run["layers"].items()}
    metrics["trace.overhead_frac"] = (1.0 - sum(run["op_s"]) / sum(run["traced_op_s"]), "ratio")
    notes = [f"ops: {len(run['op_s'])} untraced, then the same {len(run['traced_op_s'])} traced",
             f"spans: {spans.relative_to(ROOT)}"]
    if run["absent"]:
        notes.append("absent (symbol gone, reported as 0): " + ", ".join(run["absent"]))
    return [run], metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the preset's seed)")
    p.add_argument("--seconds", type=float, default=40.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "transmc" / "__init__.py").is_file():
        print(f"error: no transmc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    measure = per_layer if args.trace else end_to_end
    try:
        runs, metrics, notes = measure(args.workload, seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    warmup_failures = [r["warmup_failure"] for r in runs if r["warmup_failure"]]
    correct = failed == 0 and not warmup_failures
    env = runs[0]["environment"]

    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<34} {failed / max(attempted, 1):>16.6g} ratio"
          f" ({failed} of {attempted} ops)")
    for note in notes:
        print("  " + note)
    for message in warmup_failures + [m for r in runs for m in r["failures"]]:
        print("  FAILED " + message.rstrip().replace("\n", "\n    "))

    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "runs": runs,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (RUN_DIR / f"run-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
