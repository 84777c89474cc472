"""Command-line entry point.

Subcommands: simulate, fit, transfer, select, benchmark, evaluate. Relative
paths resolve against the workspace root given by the TRANSMC_WORKSPACE
environment variable (default: current directory). Validation failures exit
nonzero after printing a single ``error: ...`` line to stderr. Every fit,
noise pilots included, runs in _run_cases; benchmark and evaluate run every
case and write every file, then exit 3 if a fit diverged.
"""

import argparse
import math
import os
import re
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from transmc import data_io, estimators, metrics, simulation
from transmc.estimators import PenaltyPolicy, fit_single, trans_mc
from transmc.fanout import map_in_chunks, map_in_workers
from transmc.selection import SelectionConfig, s_trans_mc
from transmc.simulation import PRESETS, TEC_PRESETS, ScenarioSpec, generate_scenario
from transmc.solver import SolverConfig, SolverDivergedError

SCHEME_LABELS = {"uniform": "SS1", "product": "SS2"}
# The estimators _estimate runs; benchmark also takes "curve".
METHODS = ("single", "transmc", "s-transmc")
# The settings each method reads besides max_iters, a and noise_sd; benchmark's
# "curve" fits transmc on each prefix of the sources.
READS = {"single": ("c2", "lam"), "transmc": ("c1", "c2"),
         "s-transmc": ("c1", "c2", "folds", "c_tilde", "epsilon0"), "curve": ("c1", "c2")}
# Penalty multipliers calibrated for the shipped presets (noise sd 1, cap 30).
DEFAULT_MULTIPLIER = 0.07
# What _settings uses for an absent c1 or c2; every other absent setting takes
# its config class's default, and an absent lam stays None.
DEFAULTS = {"c1": DEFAULT_MULTIPLIER, "c2": DEFAULT_MULTIPLIER}


class CliError(ValueError):
    """A bad invocation; a ValueError, so that a config file's parser that
    raises it names the file, line and key."""


def _resolve(path) -> Path:
    """path against the TRANSMC_WORKSPACE root (default .); an absolute path is kept."""
    return Path(os.environ.get("TRANSMC_WORKSPACE", "."), path)


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


def _entries(entries, what, known=None):
    """entries as a tuple, checked: none empty, none repeated and, when known
    is given, each one of known; a CliError names the offending entry."""
    entries = tuple(entries)
    if not entries:
        raise CliError(f"no {what} listed")
    seen = set()
    for e in entries:
        if known is not None and e not in known:
            raise CliError(f"unknown {what} {e!r}; known: {', '.join(known)}")
        if e in seen:
            raise CliError(f"{what} {e!r} listed twice")
        seen.add(e)
    return entries


def _split(raw, what):
    """Stripped comma-list entries, none if all are empty; a CliError if only some are."""
    entries = [e.strip() for e in raw.split(",")]
    if any(entries) and not all(entries):
        raise CliError(f"empty entry in the {what} list {raw!r}")
    return [e for e in entries if e]


def _comma_list(raw, what, known=None):
    """The entries of a comma list, split by _split and checked by _entries."""
    return _entries(_split(raw, what), what, known)


def _input_files(entries, what):
    """The workspace paths of input-file entries, checked by _entries as real
    paths (a.samples and ./a.samples are one); a CliError names every one missing."""
    paths = [_resolve(e) for e in entries]
    _entries(map(os.path.realpath, paths), what)
    if missing := [str(p) for p in paths if not p.exists()]:
        raise CliError(f"missing {what}s: {', '.join(missing)}")
    return paths


def _box_level(a, value_arrays) -> float:
    """a if given, else 1.05 times the largest absolute value (at least 1)."""
    if a is not None:
        return a
    return 1.05 * max([1.0, *(float(np.max(np.abs(v))) for v in value_arrays if v.size)])


def _settings(params, methods, a, v, seed=0):
    """The configs of params, all checked before any fit: the PenaltyPolicy of
    c1 and c2 at box level a and noise scale v, the SelectionConfig of folds,
    c_tilde, epsilon0 and seed when s-transmc is among methods (else None),
    and the SolverConfig of max_iters. An absent setting (lacking or None in
    params) takes its DEFAULTS value, else its config class's default."""
    params = {**DEFAULTS, **{k: x for k, x in params.items() if x is not None}}
    if not 0.0 <= params.get("lam", 0.0) < math.inf:
        raise ValueError(f"penalty lam must be finite and at least 0, got {params['lam']}")

    def given(**names):  # config keyword -> the setting it takes, where given
        return {kw: params[k] for kw, k in names.items() if k in params}

    policy = PenaltyPolicy(a=a, c1=params["c1"], c2=params["c2"], v=v)
    selection = SelectionConfig(
        **given(J="folds", c_tilde="c_tilde", epsilon0="epsilon0"),
        seed=seed, c0=policy.c1, ck=policy.c2) if "s-transmc" in methods else None
    return policy, selection, SolverConfig(**given(max_iters="max_iters"))


def _reject_unread(params, methods):
    """A CliError naming the first setting given in params that none of methods reads."""
    read = {s for m in methods for s in READS[m]}
    for dest in dict.fromkeys(s for row in READS.values() for s in row):
        if params.get(dest) is not None and dest not in read:
            raise CliError(f"{OPTIONS[dest][0]} is read by none of the methods "
                           f"{','.join(methods)}")


def _estimate(method, target, sources, policy, selection, solver, lam=None):
    """Run method, one of METHODS; returns (Estimate, SelectionReport or None).

    lam is the single-task penalty (None: the policy's rule with c2) and
    selection the s-transmc SelectionConfig. policy has its noise scale v
    wherever method reads it, as _run_cases leaves it, so no pilot runs here.
    """
    if method == "single":
        if lam is None:
            lam = policy.penalty(policy.c2, target.n, min(target.m1, target.m2))
        return fit_single(target, lam, policy.a, solver), None
    if method == "transmc":
        return trans_mc(target, sources, policy, solver), None
    report, est = s_trans_mc(target, sources, selection, policy, solver)
    return est, report


def _run_cases(cases, solver, lam=None) -> list:
    """Each case's (Estimate, SelectionReport or None), or the
    SolverDivergedError its fit or noise pilot raised; a case is _estimate's
    (method, target, sources, policy, selection). First, here and in case
    order, each distinct (target, policy) that a case reads v on (all but single
    at an explicit lam) and that lacks v gets it from estimate_noise_scale, the
    one pilot call in transmc; a diverged pilot is the outcome of each case that needed it.
    The s-transmc cases run next, one at a time here so that their screening
    fans out, and record their transfer fits. The other cases run in one
    map_in_workers call, one fit per key: cases that share a fit share its
    outcome, and its warnings appear once."""
    def key(method, target, sources, policy, selection):
        # What the fit reads besides solver and lam; datasets by identity.
        return (method, id(target), tuple(map(id, sources)), policy,
                selection if method == "s-transmc" else None)

    def reads_v(method):
        return method != "single" or lam is None

    pilots = {}  # (target by identity, policy) -> policy with v, or its pilot's error
    for method, target, _, policy, _ in cases:
        if reads_v(method) and policy.v is None and (id(target), policy) not in pilots:
            try:
                pilots[id(target), policy] = replace(
                    policy, v=estimators.estimate_noise_scale(target, policy.a, solver))
            except SolverDivergedError as exc:
                pilots[id(target), policy] = exc
    cases = [(m, t, s, pilots.get((id(t), p), p) if reads_v(m) else p, sel)
             for m, t, s, p, sel in cases]

    def attempt(case):
        try:
            return _estimate(*case, solver, lam)
        except SolverDivergedError as exc:
            return exc

    # key of a fit -> its outcome; a case whose pilot diverged has that error.
    outcomes = {key(*case): case[3] for case in cases
                if isinstance(case[3], SolverDivergedError)}
    for case in cases:
        if case[0] == "s-transmc" and key(*case) not in outcomes:
            outcomes[key(*case)] = outcome = attempt(case)
            if not isinstance(outcome, SolverDivergedError):
                _, target, sources, policy, _ = case
                chosen = [sources[k - 1] for k in outcome[1].selected]
                outcomes[key("transmc", target, chosen, policy, None)] = outcome[0], None
    # Cases that share a key share the fit, so any one of them can run it.
    rest = {k: case for case in cases if (k := key(*case)) not in outcomes}
    outcomes.update(zip(rest, map_in_workers(attempt, rest.values())))
    return [outcomes[key(*case)] for case in cases]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_tec_frames(args) -> int:
    if args.rep is not None:
        raise CliError(f"--rep is read by none of the frame presets {','.join(TEC_PRESETS)}")
    if "," in args.out:  # eval.cfg's frames list separates its paths with commas
        raise CliError(f"--out {args.out!r} holds a comma, which eval.cfg cannot list")
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
    # Frame paths as --out was given, relative to the workspace, so that the
    # workspace can move.
    data_io._write_kv(out / "eval.cfg", frames=",".join(str(Path(args.out, n)) for n in names),
                      targets=f"0-{min(10, len(names)) - 1}", half_width=10,
                      holdout_fraction=0.2, seed=params["seed"], noise_sd=params["noise_sd"],
                      methods="single,transmc")
    print(f"wrote {len(names)} frames + truths + eval.cfg to {out}")
    return 0


def cmd_simulate(args) -> int:
    if args.preset in TEC_PRESETS and not args.config:  # with --config, _load_spec rejects it
        return _simulate_tec_frames(args)
    spec = _load_spec(args, also_known=TEC_PRESETS)
    data = generate_scenario(spec, rep=args.rep or 0)
    out = _out_dir(args)

    data_io.write_scenario(spec, out / "scenario.cfg")
    data_io.write_dense(data.truth, out / "truth_task00.txt", label="task0")
    data_io.write_samples(data.target, out / "target.samples")
    source_files = []
    for k, (ds, truth) in enumerate(zip(data.sources, data.source_truths), start=1):
        name = f"source_{k:02d}.samples"
        data_io.write_samples(ds, out / name)
        data_io.write_dense(truth, out / f"truth_task{k:02d}.txt", label=f"task{k}")
        source_files.append(name)

    data_io._write_kv(out / "simulate_manifest.txt", scenario="scenario.cfg",
                      target="target.samples", sources=",".join(source_files),
                      rep=args.rep or 0,
                      achieved_contrasts=",".join(map(str, data.achieved_contrasts)))
    print(f"wrote 1 target, {len(source_files)} sources, {1 + len(source_files)} "
          f"truth matrices to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit / transfer / select
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    """fit, transfer and select: args.method on its target and sources, one checked list."""
    params = vars(args)  # without the flags that the command does not take
    sources = _comma_list(args.sources, "source file") if "sources" in params else ()
    target, *sources = [data_io.read_dataset(p, task_id=k) for k, p in
                        enumerate(_input_files([args.target, *sources], "input file"))]
    a = _box_level(args.a, [ds.values for ds in (target, *sources)])
    policy, selection, solver = _settings(params, [args.method], a, args.noise_sd,
                                          params.get("seed") or 0)
    [outcome] = _run_cases([(args.method, target, sources, policy, selection)], solver,
                           params.get("lam"))
    if isinstance(outcome, SolverDivergedError):
        raise outcome
    est, report = outcome
    out = _out_dir(args)
    data_io.write_dense(est.matrix, out / "estimate.txt", label=args.method)
    data_io._write_kv(out / "fit_report.txt", stage=est.stage, penalty=est.penalty_used,
                      iterations=est.trace.iterations, prox_evals=est.trace.prox_evals,
                      converged=est.trace.converged, box_active=est.trace.box_active,
                      objective=est.trace.objective_values[-1])
    print(f"{args.method} fit: lam={est.penalty_used:.6g}, "
          f"iterations={est.trace.iterations}, converged={est.trace.converged}")
    if report is not None:
        _write_selection_report(out / "selection_report.csv", report)
        print(f"selected sources: {list(report.selected)} "
              f"(threshold {report.threshold:.6g})")
    return 0


def _write_selection_report(path, report):
    metrics.write_csv(path, ("quantity", "index", "value"), [
        *(["fold_loss", j, x] for j, x in enumerate(report.fold_losses)),
        ["benchmark", "", report.benchmark],
        *(["source_loss", k, x] for k, x in enumerate(report.source_losses, start=1)),
        ["sigma_hat", "", report.sigma_hat],
        ["epsilon0", "", report.epsilon0],
        ["threshold", "", report.threshold],
        ["selected", "", " ".join(str(k) for k in report.selected)],
        ["unconverged", "", ";".join(report.unconverged)],
        *(["fit", name, f"iterations={t.iterations} prox_evals={t.prox_evals} "
                        f"converged={t.converged} box_active={t.box_active}"]
          for name, t in report.fit_traces()),
    ])


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _bench_worker(payload):
    """One (scheme, replicate) cell; returns per-method errors and the curve
    (None where the fit failed), the sources s-transmc selected and one
    "tag: message" per failed fit."""
    spec, rep, methods, params = payload
    data = generate_scenario(spec, rep=rep)
    policy, selection, solver = _settings(params, methods, spec.a_cap, spec.noise_sd,
                                          (spec.seed, 4, rep))
    named = [m for m in methods if m != "curve"]
    # (tag, method, sources) of each fit; _run_cases makes a shared fit once.
    runs = [(m, m, data.sources) for m in named] + [
        (f"curve-k{k}", "transmc", data.sources[:k])
        for k in range(len(data.sources) + 1) if "curve" in methods]
    outcomes = _run_cases([(method, data.target, sources, policy, selection)
                           for _, method, sources in runs], solver)
    failed = [isinstance(outcome, SolverDivergedError) for outcome in outcomes]
    errors = [None if f else metrics.rel_frob_error(outcome[0].matrix, data.truth)
              for f, outcome in zip(failed, outcomes)]
    reports = [outcome[1] for f, outcome in zip(failed, outcomes) if not f and outcome[1]]
    return {"errors": dict(zip(named, errors)),
            "curve": errors[len(named):] if "curve" in methods else None,
            "selected": reports[0].selected if reports else None,
            "failures": [f"{tag}: {outcome}"
                         for (tag, _, _), f, outcome in zip(runs, failed, outcomes) if f]}


def run_benchmark(spec: ScenarioSpec, reps: int, methods, params,
                  schemes=("uniform", "product")):
    """Replicates of each scheme, run through map_in_workers and merged in
    (scheme, replicate) order. Each scheme replaces spec's own sampling, so
    a preset and its -ss2 twin give the same results.

    Returns {scheme_label: {"results": [per-rep dicts]}}.
    """
    tasks = [(replace(spec, sampling=scheme), rep, tuple(methods), params)
             for scheme in schemes for rep in range(reps)]
    results = map_in_workers(_bench_worker, tasks)
    return {SCHEME_LABELS[scheme]: {"results": results[i * reps:(i + 1) * reps]}
            for i, scheme in enumerate(schemes)}


def cmd_benchmark(args) -> int:
    spec = _load_spec(args)
    methods = _comma_list(args.methods, "method", tuple(READS))
    _reject_unread(vars(args), methods)
    schemes = _comma_list(args.schemes, "sampling scheme", tuple(SCHEME_LABELS))
    if args.reps < 1:
        raise CliError(f"--reps must be at least 1, got {args.reps}")
    # Checked before --out is made; each replicate builds its own.
    _settings(vars(args), methods, spec.a_cap, spec.noise_sd)
    out = _out_dir(args)

    bench = run_benchmark(spec, args.reps, methods, vars(args), schemes=schemes)

    summary_rows = []
    failures = []  # "scheme rep r tag: message", in (scheme, replicate) order
    for label, block in bench.items():
        results = block["results"]
        for rep, r in enumerate(results):
            failures.extend(f"{label} rep {rep} {message}" for message in r["failures"])
        summary_rows += [[m, label, *astuple(metrics.summarize(r["errors"][m] for r in results))]
                         for m in methods if m != "curve"]
        if "curve" in methods:  # point k summarizes the k-th error of every replicate
            curve = map(metrics.summarize, zip(*(r["curve"] for r in results)))
            metrics.write_csv(out / f"curve_{label.lower()}.csv", ("k_sources", "mean_err", "sd"),
                              [(k, s.mean, s.sd) for k, s in enumerate(curve)])
    metrics.write_csv(out / "summary.csv",
                      ("method", "scheme", "mean", "median", "min", "max", "sd"), summary_rows)

    data_io._write_kv(out / "run_report.txt", replications=args.reps,
                      schemes=",".join(bench), methods=",".join(methods),
                      solver_failures=len(failures), failure=failures)
    print(f"benchmark complete: {args.reps} reps x {len(bench)} schemes, "
          f"{len(failures)} solver failures")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _parse_targets(raw):
    """The frame indices of an evaluate `targets` list of entries N and
    ascending ranges N-M, split by _split and checked by _entries."""
    out = []
    for chunk in _split(raw, "target frame"):
        match = re.fullmatch(r"([0-9]+)\s*(?:-\s*([0-9]+))?", chunk)
        if match is None:
            raise CliError(f"bad target entry {chunk!r}; expected N or N-M")
        lo, hi = int(match[1]), int(match[2] or match[1])
        if hi < lo:
            raise CliError(f"descending target range {chunk!r}")
        out.extend(range(lo, hi + 1))
    return _entries(out, "target frame")


def cmd_evaluate(args) -> int:
    if not args.config:
        raise CliError("evaluate needs --config FILE")
    cfg = data_io._read_kv(_resolve(args.config), EVALUATE_KEYS)
    frame_paths = _input_files(cfg.get("frames", ()), "frame")
    targets, methods = cfg.get("targets", (0,)), cfg.get("methods", METHODS)
    half_width, fraction = cfg.get("half_width", 10), cfg.get("holdout_fraction", 0.2)
    if beyond := [t for t in targets if t >= len(frame_paths)]:
        raise CliError(f"target frame index {beyond[0]} out of range "
                       f"(0..{len(frame_paths) - 1})")
    # A given flag, else its config key.
    params = {**{k: x for k, x in cfg.items() if k in OPTIONS},
              **{k: x for k, x in vars(args).items() if x is not None}}
    _reject_unread(params, methods)
    seed = params.get("seed", 0)
    frames = map_in_chunks(data_io.read_frame, frame_paths)
    a = _box_level(params.get("a"), [f.values for f in frames])
    policy, selection, solver = _settings(params, methods, a, params.get("noise_sd"))

    def of_frame(i, convert, *args):  # convert(frames[i], *args), naming its file on error
        try:
            return convert(frames[i], *args)
        except ValueError as exc:
            raise ValueError(f"{frame_paths[i]}: {exc}") from None

    cases, tests = [], []  # the cases and, for each, (frame id, method, holdout split)
    for t in targets:
        train, test = of_frame(t, data_io.holdout_split, fraction, (seed, t))
        sources = [of_frame(i, data_io.FrameFile.to_dataset, j + 1) for j, i in
                   enumerate(data_io.window_sources(len(frames), t, half_width))]
        shared = (train, sources, policy, selection and replace(selection, seed=(seed, 5, t)))
        cases.extend((method, *shared) for method in methods)
        tests.extend((frames[t].frame_id, method, test) for method in methods)
    out = _out_dir(args)

    rows, status = [], 0
    for (frame_id, method, test), outcome in zip(tests, _run_cases(cases, solver, args.lam)):
        if isinstance(outcome, SolverDivergedError):
            print(f"error: solver-diverged: {frame_id} {method}: {outcome}", file=sys.stderr)
            e = rel = math.nan
            status = 3
        else:
            e, rel = metrics.holdout_errors(outcome[0].matrix, test)
        rows.append((frame_id, method, e, rel))

    metrics.write_csv(out / "eval.csv", ("frame", "method", "E", "RE"), rows)
    print(f"evaluated {len(targets)} frames x {len(methods)} methods -> {out / 'eval.csv'}")
    return status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def non_negative_int(raw) -> int:
    """The type of a seed or replicate index: an int that is at least 0."""
    if (value := int(raw)) < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


# Every option of the subcommands, by dest, in --help order; each subcommand
# takes the ones it reads. An absent setting is None until _settings.
OPTIONS = {
    "out": ("--out", dict(default="out", help="output directory")),
    "config": ("--config", dict(help="scenario or evaluation config file")),
    "preset": ("--preset", dict(help="named scenario preset")),
    "seed": ("--seed", dict(type=non_negative_int, help="seed override")),
    "reps": ("--reps", dict(type=int, default=1, help="replication count")),
    "max_iters": ("--max-iters", dict(type=int)),
    "a": ("--a", dict(type=float, help="entrywise box level")),
    "c1": ("--c1", dict(type=float, help="pooling penalty multiplier")),
    "c2": ("--c2", dict(type=float, help="debias / single-task penalty multiplier")),
    "noise_sd": ("--noise-sd", dict(type=float,
                                    help="known noise scale (skips the pilot estimate)")),
    "c_tilde": ("--c-tilde", dict(type=float, help="selection threshold multiplier")),
    "epsilon0": ("--epsilon0", dict(type=float, help="selection threshold floor")),
    "folds": ("--folds", dict(type=int, help="cross-validation folds")),
    "lam": ("--lam", dict(type=float, help="explicit single-task penalty")),
}

# The keys of an evaluate config and their parsers; each setting that is also
# a flag is parsed with the flag's type.
EVALUATE_KEYS = {"frames": lambda raw: _comma_list(raw, "frame"), "targets": _parse_targets,
                 "half_width": int, "holdout_fraction": float,
                 "methods": lambda raw: _comma_list(raw, "method", METHODS),
                 **{k: OPTIONS[k][1]["type"] for k in ("seed", "noise_sd", "a", "c1", "c2")}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transmc",
        description="Transfer learning for noisy low-rank matrix completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, *options):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for dest in sorted({"out", *options}, key=list(OPTIONS).index):
            flag, kwargs = OPTIONS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        return p

    p = command("simulate", "generate scenario datasets on disk", cmd_simulate,
                "config", "preset", "seed")
    p.add_argument("--rep", type=non_negative_int,
                   help="replicate index to materialize (default 0)")

    # Only select draws a fold split, so only select takes --seed.
    for name, method, help_text in (
        ("fit", "single", "single-task nuclear-norm fit"),
        ("transfer", "transmc", "two-step transfer fit"),
        ("select", "s-transmc", "informative-source selection + transfer fit"),
    ):
        p = command(name, help_text, cmd_estimate, "max_iters", "a", "noise_sd",
                    *READS[method], *(["seed"] if method == "s-transmc" else []))
        if method == "single":
            p.add_argument("--data", dest="target", required=True, help="samples or frame file")
        else:
            p.add_argument("--target", required=True, help="target samples/frame file")
            p.add_argument("--sources", required=True, help="comma-separated source files")
        p.set_defaults(method=method)

    # benchmark's single fits take the penalty rule, so it takes no --lam.
    p = command("benchmark", "Monte-Carlo benchmark over a scenario", cmd_benchmark,
                "config", "preset", "seed", "reps", "max_iters", *READS["s-transmc"])
    p.add_argument("--methods", default="single,transmc,s-transmc,curve",
                   help="comma list out of single,transmc,s-transmc,curve")
    p.add_argument("--schemes", default="uniform,product",
                   help="sampling schemes to run (uniform and/or product); each replaces "
                        "the scenario's own sampling")

    command("evaluate", "holdout evaluation over a frame sequence", cmd_evaluate, "config",
            "seed", "max_iters", "a", "noise_sd", *(s for row in READS.values() for s in row))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: invalid-invocation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except SolverDivergedError as exc:
        print(f"error: solver-diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
