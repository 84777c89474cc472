"""Command-line entry point.

Subcommands: simulate, fit, transfer, select, benchmark, evaluate. Relative
paths resolve against the workspace root given by the TRANSMC_WORKSPACE
environment variable (default: current directory). Validation failures exit
nonzero after printing a single ``error: ...`` line to stderr.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from transmc import data_io, metrics, simulation
from transmc.datasets import MaskedDataset
from transmc.estimators import PenaltyPolicy, fit_single, trans_mc
from transmc.fanout import map_in_workers
from transmc.selection import SelectionConfig, screen_sources
from transmc.simulation import PRESETS, ScenarioSpec, generate_scenario
from transmc.solver import SolverConfig, SolverDivergedError

SCHEME_LABELS = {"uniform": "SS1", "product": "SS2"}
# Penalty multipliers calibrated for the shipped presets (noise sd 1, cap 30).
DEFAULT_MULTIPLIER = 0.07

# The keys of an evaluate config.
EVALUATE_KEYS = ("frames", "targets", "half_width", "holdout_fraction", "seed", "noise_sd",
                 "methods", "a", "c1", "c2")

# Synthetic partially-observed frame sequences for the holdout pipeline.
TEC_PRESETS = {
    "tec-synthetic-small": dict(m1=91, m2=180, n_frames=12, rank=5, missing=0.25,
                                noise_sd=1.0, drift=0.02, seed=42),
    "tec-synthetic-tiny": dict(m1=20, m2=30, n_frames=6, rank=2, missing=0.25,
                               noise_sd=0.5, drift=0.02, seed=42),
}


class CliError(Exception):
    pass


def _workspace() -> Path:
    return Path(os.environ.get("TRANSMC_WORKSPACE", "."))


def _resolve(path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _workspace() / p


def _load_spec(args, also_known=()) -> ScenarioSpec:
    """The scenario of --preset or --config, with --seed applied; also_known
    names the presets the caller handles itself, for the error message."""
    if args.preset and args.config:
        raise CliError("pass either --preset or --config, not both")
    if args.preset:
        if args.preset not in PRESETS:
            known = ", ".join(sorted([*PRESETS, *also_known]))
            raise CliError(f"unknown preset {args.preset!r}; known presets: {known}")
        spec = PRESETS[args.preset]
    elif args.config:
        spec = data_io.read_scenario(_resolve(args.config))
    else:
        raise CliError("need --preset or --config")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec


def _out_dir(args) -> Path:
    out = _resolve(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(path, task_id):
    """Accept either a sample file (duplicates allowed) or a TEC-style frame."""
    path = _resolve(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
    if len(header) == 3 and header[2].startswith("task"):
        ds = data_io.read_samples(path)
    else:
        ds = data_io.read_frame(path).to_dataset()
    if ds.task_id != task_id:
        ds = MaskedDataset(ds.m1, ds.m2, ds.rows, ds.cols, ds.values, task_id)
    return ds


def _box_level(a, value_arrays) -> float:
    """a if given, else 1.05 times the largest absolute value (at least 1)."""
    if a is not None:
        return a
    return 1.05 * max([1.0, *(float(np.max(np.abs(v))) for v in value_arrays if v.size)])


def _policy(target, a, opts, solver, methods) -> PenaltyPolicy:
    """The penalty policy of every method in methods on one target, with the
    noise scale resolved once: opts.noise_sd, else a pilot fit on target. No
    pilot runs when every method is `single` with an explicit opts.lam."""
    policy = PenaltyPolicy(a=a, c1=opts.c1, c2=opts.c2, v=opts.noise_sd)
    if opts.lam is not None and set(methods) == {"single"}:
        return policy
    return policy.resolve(target, solver)


def _estimate(method, target, sources, policy, opts, solver, seed, transfer=None):
    """Run one of the paper's estimators; returns (Estimate, SelectionReport or None).

    policy comes from _policy; opts carries the single-task penalty lam (None:
    the policy's rule with c2) and the selection knobs folds, c_tilde and
    epsilon0; seed draws the s-transmc fold split. transfer, called like
    trans_mc (the default), runs the transfer fit of transmc and s-transmc.
    """
    if method == "single":
        lam = opts.lam
        if lam is None:
            lam = policy.penalty(policy.c2, target.n, min(target.m1, target.m2))
        return fit_single(target, lam, policy.a, solver), None
    transfer = transfer or trans_mc
    if method == "transmc":
        return transfer(target, sources, policy, solver), None
    if method == "s-transmc":
        cfg = SelectionConfig(J=opts.folds, c_tilde=opts.c_tilde, epsilon0=opts.epsilon0,
                              c0=policy.c1, ck=policy.c2, seed=seed)
        report = screen_sources(target, sources, cfg, policy, solver)
        chosen = [sources[k - 1] for k in report.selected]
        return transfer(target, chosen, policy, solver), report
    raise CliError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_tec_frames(args) -> int:
    params = dict(TEC_PRESETS[args.preset])
    if args.seed is not None:
        params["seed"] = args.seed
    out = _out_dir(args)
    truths, observations = simulation.synthetic_frames(**params)
    names = []
    for t, ((rows, cols, values), truth) in enumerate(zip(observations, truths)):
        name = f"frame_{t:03d}.frame"
        frame = data_io.FrameFile(params["m1"], params["m2"], f"t{t:03d}",
                                  rows, cols, values)
        data_io.write_frame(frame, out / name)
        data_io.write_dense(truth, out / f"truth_{t:03d}.txt", label=f"t{t:03d}")
        names.append(name)
    n_eval = min(10, len(names))
    with open(out / "eval.cfg", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"frames: {','.join(str(out / n) for n in names)}\n")
        fh.write(f"targets: 0-{n_eval - 1}\n")
        fh.write("half_width: 10\n")
        fh.write("holdout_fraction: 0.2\n")
        fh.write(f"seed: {params['seed']}\n")
        fh.write(f"noise_sd: {params['noise_sd']!r}\n")
        fh.write("methods: single,transmc\n")
    print(f"wrote {len(names)} frames + truths + eval.cfg to {out}")
    return 0


def cmd_simulate(args) -> int:
    if args.preset in TEC_PRESETS:
        return _simulate_tec_frames(args)
    spec = _load_spec(args, also_known=TEC_PRESETS)
    out = _out_dir(args)
    data = generate_scenario(spec, rep=args.rep)

    data_io.write_scenario(spec, out / "scenario.cfg")
    data_io.write_dense(data.truth, out / "truth_task00.txt", label="task0")
    data_io.write_samples(data.target, out / "target.samples")
    source_files = []
    for k, (ds, truth) in enumerate(zip(data.sources, data.source_truths), start=1):
        name = f"source_{k:02d}.samples"
        data_io.write_samples(ds, out / name)
        data_io.write_dense(truth, out / f"truth_task{k:02d}.txt", label=f"task{k}")
        source_files.append(name)

    with open(out / "simulate_manifest.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario: scenario.cfg\n")
        fh.write("target: target.samples\n")
        fh.write(f"sources: {','.join(source_files)}\n")
        fh.write(f"rep: {args.rep}\n")
        fh.write("achieved_contrasts: "
                 + ",".join(f"{h!r}" for h in data.achieved_contrasts) + "\n")
    print(f"wrote 1 target, {len(source_files)} sources, {1 + len(source_files)} "
          f"truth matrices to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit / transfer / select
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    """fit, transfer and select: args.method on the given files."""
    if args.method == "single" and not args.target:
        raise CliError("fit needs --data FILE")
    if args.method != "single" and not (args.target and args.sources):
        raise CliError("need --target FILE and --sources F1,F2,...")
    paths = [args.target, *(p for p in args.sources.split(",") if p)]
    target, *sources = [_load_dataset(p, task_id=k) for k, p in enumerate(paths)]
    a = _box_level(args.a, [ds.values for ds in (target, *sources)])
    solver = SolverConfig(max_iters=args.max_iters)
    policy = _policy(target, a, args, solver, [args.method])
    est, report = _estimate(args.method, target, sources, policy, args, solver,
                            args.seed or 0)
    out = _out_dir(args)
    data_io.write_dense(est.matrix, out / "estimate.txt", label=args.method)
    with open(out / "fit_report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"stage: {est.stage}\n")
        fh.write(f"penalty: {est.penalty_used!r}\n")
        fh.write(f"iterations: {est.trace.iterations}\n")
        fh.write(f"prox_evals: {est.trace.prox_evals}\n")
        fh.write(f"converged: {est.trace.converged}\n")
        fh.write(f"box_active: {est.trace.box_active}\n")
        fh.write(f"objective: {est.trace.objective_values[-1]!r}\n")
    print(f"{args.method} fit: lam={est.penalty_used:.6g}, "
          f"iterations={est.trace.iterations}, converged={est.trace.converged}")
    if report is not None:
        _write_selection_report(out / "selection_report.csv", report)
        print(f"selected sources: {list(report.selected)} "
              f"(threshold {report.threshold:.6g})")
    return 0


def _write_selection_report(path, report):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["quantity", "index", "value"])
        for j, x in enumerate(report.fold_losses):
            w.writerow(["fold_loss", j, f"{x:.12g}"])
        w.writerow(["benchmark", "", f"{report.benchmark:.12g}"])
        for k, x in enumerate(report.source_losses, start=1):
            w.writerow(["source_loss", k, f"{x:.12g}"])
        w.writerow(["sigma_hat", "", f"{report.sigma_hat:.12g}"])
        w.writerow(["epsilon0", "", f"{report.epsilon0:.12g}"])
        w.writerow(["threshold", "", f"{report.threshold:.12g}"])
        w.writerow(["selected", "", " ".join(str(k) for k in report.selected)])
        w.writerow(["unconverged", "", ";".join(report.unconverged)])
        for name, t in report.fit_traces():
            w.writerow(["fit", name, f"iterations={t.iterations} prox_evals={t.prox_evals} "
                                     f"converged={t.converged} box_active={t.box_active}"])


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _bench_worker(payload):
    """One (scheme, replicate) cell; returns per-method errors and the curve."""
    spec, rep, methods, params = payload
    data = generate_scenario(spec, rep=rep)
    solver = SolverConfig(max_iters=params["max_iters"])
    opts = argparse.Namespace(**params, noise_sd=spec.noise_sd, lam=None)
    policy = _policy(data.target, spec.a_cap, opts, solver, methods)
    result = {"rep": rep, "errors": {}, "curve": None, "selected": None,
              "failures": []}
    # Chosen sources' task ids -> trans_mc Estimate or the error it raised.
    # Every transfer fit of one replicate shares target, policy and solver, so
    # the `transmc` method, curve point k = K and an s-transmc run that keeps
    # every source make one fit between them.
    fits = {}

    def cached_trans_mc(target, chosen, policy, cfg):
        key = tuple(ds.task_id for ds in chosen)
        if key not in fits:
            try:
                fits[key] = trans_mc(target, chosen, policy, cfg)
            except SolverDivergedError as exc:
                fits[key] = exc
        if isinstance(fits[key], SolverDivergedError):
            raise fits[key]
        return fits[key]

    def run(tag, method, sources):
        try:
            est, report = _estimate(method, data.target, sources, policy, opts, solver,
                                    (spec.seed, 4, rep), transfer=cached_trans_mc)
        except SolverDivergedError as exc:
            result["failures"].append(f"{tag}: {exc}")
            return None
        if report is not None:
            result["selected"] = report.selected
        return metrics.rel_frob_error(est.matrix, data.truth)

    for method in methods:
        if method == "curve":
            result["curve"] = [run(f"curve-k{k}", "transmc", data.sources[:k])
                               for k in range(len(data.sources) + 1)]
        else:
            result["errors"][method] = run(method, method, data.sources)
    return result


def run_benchmark(spec: ScenarioSpec, reps: int, methods, params,
                  schemes=("uniform", "product")):
    """Replicates of each scheme, run through map_in_workers and merged in
    (scheme, replicate) order.

    Returns {scheme_label: {"results": [per-rep dicts], "spec": spec}}.
    """
    tasks = []
    for scheme in schemes:
        scheme_spec = replace(spec, sampling=scheme)
        for rep in range(reps):
            tasks.append((scheme_spec, rep, tuple(methods), params))
    results = map_in_workers(_bench_worker, tasks)
    out = {}
    idx = 0
    for scheme in schemes:
        label = SCHEME_LABELS.get(scheme, scheme)
        out[label] = {"results": results[idx: idx + reps],
                      "spec": replace(spec, sampling=scheme)}
        idx += reps
    return out


def cmd_benchmark(args) -> int:
    spec = _load_spec(args)
    out = _out_dir(args)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    params = {
        "c1": args.c1, "c2": args.c2, "c_tilde": args.c_tilde,
        "epsilon0": args.epsilon0, "folds": args.folds,
        "max_iters": args.max_iters,
    }
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    for s in schemes:
        if s not in SCHEME_LABELS:
            raise CliError(f"unknown sampling scheme {s!r}; use uniform or product")

    bench = run_benchmark(spec, args.reps, methods, params, schemes=schemes)

    summary_rows = []
    n_failures = 0
    for label, block in bench.items():
        for method in methods:
            if method == "curve":
                continue
            errs = [r["errors"].get(method) for r in block["results"]]
            ok = [e for e in errs if e is not None]
            n_failures += sum(1 for e in errs if e is None)
            if ok:
                summary_rows.append((method, label, metrics.summarize(ok)))
        if "curve" in methods:
            points = []
            K = len(spec.contrasts)
            for k in range(K + 1):
                vals = [r["curve"][k] for r in block["results"]
                        if r["curve"] is not None and r["curve"][k] is not None]
                n_failures += sum(1 for r in block["results"]
                                  if r["curve"] is None or r["curve"][k] is None)
                s = metrics.summarize(vals)
                points.append((k, s.mean, s.sd))
            metrics.write_curve_csv(out / f"curve_{label.lower()}.csv", points)
    metrics.write_summary_csv(out / "summary.csv", summary_rows)

    with open(out / "run_report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"replications: {args.reps}\n")
        fh.write(f"schemes: {','.join(bench)}\n")
        fh.write(f"methods: {','.join(methods)}\n")
        fh.write(f"solver_failures: {n_failures}\n")
    print(f"benchmark complete: {args.reps} reps x {len(bench)} schemes, "
          f"{n_failures} solver failures")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _parse_targets(raw, n_frames):
    out = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo, hi = (int(x) for x in chunk.split("-"))
            if hi < lo:
                raise CliError(f"descending target range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(chunk))
    if not out:
        raise CliError("evaluate config selects no target frames")
    for t in out:
        if not (0 <= t < n_frames):
            raise CliError(f"target frame index {t} out of range (0..{n_frames - 1})")
    return out


def cmd_evaluate(args) -> int:
    if not args.config:
        raise CliError("evaluate needs --config FILE")
    cfg = data_io._read_kv(_resolve(args.config), EVALUATE_KEYS)

    def setting(key, parse, default=None):
        """The --key flag if given, else the config's key, else default."""
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return parse(cfg[key]) if key in cfg else default

    frame_paths = [p for p in cfg.get("frames", "").split(",") if p]
    if not frame_paths:
        raise CliError("evaluate config needs a 'frames' list")
    frame_paths = [_resolve(p) for p in frame_paths]
    missing = [str(p) for p in frame_paths if not p.exists()]
    if missing:
        raise CliError(f"missing frames: {', '.join(missing)}")
    targets = _parse_targets(cfg.get("targets", "0"), len(frame_paths))
    half_width = int(cfg.get("half_width", 10))
    fraction = float(cfg.get("holdout_fraction", 0.2))
    seed = setting("seed", int, 0)
    methods = [m.strip() for m in cfg.get("methods", "single,transmc,s-transmc").split(",")
               if m.strip()]
    if not methods:
        raise CliError("evaluate config lists no methods")
    frames = [data_io.read_frame(p) for p in frame_paths]
    a = _box_level(setting("a", float), [f.values for f in frames])
    opts = argparse.Namespace(**{
        **vars(args),
        "c1": setting("c1", float, DEFAULT_MULTIPLIER),
        "c2": setting("c2", float, DEFAULT_MULTIPLIER),
        "noise_sd": setting("noise_sd", float),
    })
    solver = SolverConfig(max_iters=args.max_iters)

    out = _out_dir(args)
    cases = []  # (target index, train, test, sources, policy, method), target by target
    for t in targets:
        train, test = data_io.holdout_split(frames[t], fraction, (seed, t))
        sources = [frames[i].to_dataset(task_id=j + 1) for j, i in
                   enumerate(data_io.window_sources(len(frames), t, half_width))]
        policy = _policy(train, a, opts, solver, methods)
        cases.extend((t, train, test, sources, policy, method) for method in methods)

    def case_errors(case):
        t, train, test, sources, policy, method = case
        est, _ = _estimate(method, train, sources, policy, opts, solver, (seed, 5, t))
        return metrics.holdout_errors(est.matrix, test)

    # Every case is independent, so they run side by side, but the s-transmc
    # cases run afterwards, here, so that their screening fits get a fan-out
    # of their own.
    first = [i for i, case in enumerate(cases) if case[-1] != "s-transmc"]
    errors = dict(zip(first, map_in_workers(case_errors, [cases[i] for i in first])))
    rows = []
    for i, case in enumerate(cases):
        e, re = errors[i] if i in errors else case_errors(case)
        rows.append((frames[case[0]].frame_id, case[-1], e, re))

    with open(out / "eval.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["frame", "method", "E", "RE"])
        for frame_id, method, e, re in rows:
            w.writerow([frame_id, method, f"{e:.12g}", f"{re:.12g}"])
    print(f"evaluated {len(targets)} frames x {len(methods)} methods -> {out / 'eval.csv'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Every option of the subcommands, by dest; each subcommand takes the ones it reads.
OPTIONS = {
    "config": ("--config", dict(help="scenario or evaluation config file")),
    "preset": ("--preset", dict(help="named scenario preset")),
    "out": ("--out", dict(default="out", help="output directory")),
    "seed": ("--seed", dict(type=int, default=None, help="seed override")),
    "reps": ("--reps", dict(type=int, default=1, help="replication count")),
    "max_iters": ("--max-iters", dict(type=int, default=500)),
    "a": ("--a", dict(type=float, default=None, help="entrywise box level")),
    "c1": ("--c1", dict(type=float, default=DEFAULT_MULTIPLIER,
                        help="pooling penalty multiplier")),
    "c2": ("--c2", dict(type=float, default=DEFAULT_MULTIPLIER,
                        help="debias / single-task penalty multiplier")),
    "c_tilde": ("--c-tilde", dict(type=float, default=2.0,
                                  help="selection threshold multiplier")),
    "epsilon0": ("--epsilon0", dict(type=float, default=None,
                                    help="selection threshold floor")),
    "folds": ("--folds", dict(type=int, default=4, help="cross-validation folds")),
    "noise_sd": ("--noise-sd", dict(type=float, default=None,
                                    help="known noise scale (skips the pilot estimate)")),
}
FIT_OPTIONS = ("max_iters", "a", "c1", "c2", "noise_sd")
SELECTION_OPTIONS = ("c_tilde", "epsilon0", "folds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transmc",
        description="Transfer learning for noisy low-rank matrix completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *options):
        p = sub.add_parser(name, help=help_text)
        for dest in ("out", *options):
            flag, kwargs = OPTIONS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        return p

    p = command("simulate", "generate scenario datasets on disk", "config", "preset", "seed")
    p.add_argument("--rep", type=int, default=0, help="replicate index to materialize")
    p.set_defaults(func=cmd_simulate)

    p = command("fit", "single-task nuclear-norm fit", *FIT_OPTIONS)
    p.add_argument("--lam", type=float, default=None, help="explicit penalty")
    p.add_argument("--data", dest="target", help="samples or frame file")
    p.set_defaults(func=cmd_estimate, method="single", sources="", seed=None)

    # Only select draws a fold split, so only select takes --seed.
    for name, method, help_text, options in (
        ("transfer", "transmc", "two-step transfer fit", FIT_OPTIONS),
        ("select", "s-transmc", "informative-source selection + transfer fit",
         FIT_OPTIONS + SELECTION_OPTIONS + ("seed",)),
    ):
        p = command(name, help_text, *options)
        p.add_argument("--target", help="target samples/frame file")
        p.add_argument("--sources", help="comma-separated source files")
        p.set_defaults(func=cmd_estimate, method=method, lam=None, seed=None)

    p = command("benchmark", "Monte-Carlo benchmark over a scenario", "config", "preset",
                "seed", "reps", "max_iters", "c1", "c2", *SELECTION_OPTIONS)
    p.add_argument("--methods", default="single,transmc,s-transmc,curve",
                   help="comma list out of single,transmc,s-transmc,curve")
    p.add_argument("--schemes", default="uniform,product",
                   help="sampling schemes to run (uniform and/or product)")
    p.set_defaults(func=cmd_benchmark)

    p = command("evaluate", "holdout evaluation over a frame sequence", "config", "seed",
                *FIT_OPTIONS, *SELECTION_OPTIONS)
    p.add_argument("--lam", type=float, default=None,
                   help="explicit penalty of the single method")
    # None marks an absent flag: cmd_evaluate then reads the config's c1 and c2.
    p.set_defaults(func=cmd_evaluate, c1=None, c2=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: invalid-invocation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, data_io.ParseError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except SolverDivergedError as exc:
        print(f"error: solver-diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
