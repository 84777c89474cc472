import csv
import logging
import multiprocessing
import os

import numpy as np
import pytest

from transmc import cli, estimators, selection
from transmc.data_io import FrameFile, read_dataset, read_scenario, write_dense, write_frame
from transmc.estimators import PenaltyPolicy, trans_mc
from transmc.selection import SelectionConfig, s_trans_mc
from transmc.solver import SolverConfig


def run(args, workspace):
    env_before = os.environ.get("TRANSMC_WORKSPACE")
    os.environ["TRANSMC_WORKSPACE"] = str(workspace)
    try:
        return cli.main(args)
    finally:
        if env_before is None:
            del os.environ["TRANSMC_WORKSPACE"]
        else:
            os.environ["TRANSMC_WORKSPACE"] = env_before


TINY_SCENARIO = """\
m1: 12
m2: 8
rank: 2
a_cap: 30.0
contrasts: 5.0,40.0
n0_frac: 0.5
nk_frac: 0.4
noise_sd: 0.5
sampling: uniform
seed: 3
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SCENARIO)
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_preset_file_count(tmp_path):
    assert run(["simulate", "--preset", "paper-5.1-small", "--out", "sim"], tmp_path) == 0
    out = tmp_path / "sim"
    samples = sorted(p.name for p in out.glob("source_*.samples"))
    assert len(samples) == 10
    assert (out / "target.samples").exists()
    truths = sorted(out.glob("truth_task*.txt"))
    assert len(truths) == 11
    assert (out / "scenario.cfg").exists()
    assert (out / "simulate_manifest.txt").exists()


def test_simulate_rerun_identical(tmp_path):
    assert run(["simulate", "--config", "tiny.cfg", "--out", "a"],
               tmp_path) == 2  # config not created yet -> validation error
    (tmp_path / "tiny.cfg").write_text(TINY_SCENARIO)
    assert run(["simulate", "--config", "tiny.cfg", "--out", "a"], tmp_path) == 0
    assert run(["simulate", "--config", "tiny.cfg", "--out", "b"], tmp_path) == 0
    for name in ["target.samples", "source_01.samples", "truth_task00.txt",
                 "scenario.cfg"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_written_scenario_round_trips(tmp_path, tiny_cfg):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    spec = read_scenario(tmp_path / "sim" / "scenario.cfg")
    assert spec.m1 == 12 and spec.contrasts == (5.0, 40.0)
    ds = read_dataset(tmp_path / "sim" / "target.samples")
    assert ds.n == spec.n0
    truth = np.loadtxt(tmp_path / "sim" / "truth_task00.txt", skiprows=1, ndmin=2)
    assert truth.shape == (12, 8)


def test_simulate_invalid_rank_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m1: 4\nm2: 4\nrank: 9\n")
    assert run(["simulate", "--config", str(bad), "--out", "x"], tmp_path) == 2
    # A misspelled key is an error, not a silent fall back to its default.
    bad.write_text(TINY_SCENARIO + "n0_fraction: 0.9\n")
    capsys.readouterr()
    assert run(["simulate", "--config", str(bad), "--out", "y"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "n0_fraction" in err and str(bad) in err
    assert not (tmp_path / "y" / "scenario.cfg").exists()


def test_simulate_rejects_a_nan_noise_sd_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(TINY_SCENARIO.replace("noise_sd: 0.5", "noise_sd: nan"))
    assert run(["simulate", "--config", str(bad), "--out", "sim"], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not (tmp_path / "sim").exists()


def test_unknown_preset_rejected(tmp_path, capsys):
    assert run(["simulate", "--preset", "nope", "--out", "x"], tmp_path) == 2
    err = capsys.readouterr().err
    # simulate lists every preset it accepts, frame presets included
    assert all(name in err for name in [*cli.PRESETS, *cli.TEC_PRESETS])
    assert run(["benchmark", "--preset", "nope", "--out", "x"], tmp_path) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in cli.PRESETS)
    assert not any(name in err for name in cli.TEC_PRESETS)


# ---------------------------------------------------------------------------
# fit / transfer / select round trip
# ---------------------------------------------------------------------------

def test_fit_transfer_select_pipeline(tmp_path, tiny_cfg):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    target = str(tmp_path / "sim" / "target.samples")
    sources = ",".join(str(tmp_path / "sim" / f"source_{k:02d}.samples")
                       for k in (1, 2))

    assert run(["fit", "--data", target, "--out", "fit", "--noise-sd", "0.5",
                "--max-iters", "300"], tmp_path) == 0
    est = np.loadtxt(tmp_path / "fit" / "estimate.txt", skiprows=1, ndmin=2)
    assert est.shape == (12, 8)

    # transfer and select write what the library estimators return
    target_ds = read_dataset(target)
    source_ds = [read_dataset(p, task_id=k) for k, p in enumerate(sources.split(","), start=1)]
    policy = PenaltyPolicy(a=30.0, c1=cli.DEFAULT_MULTIPLIER, c2=cli.DEFAULT_MULTIPLIER,
                           v=0.5)
    solver = SolverConfig(max_iters=300)

    assert run(["transfer", "--target", target, "--sources", sources,
                "--out", "tr", "--a", "30", "--noise-sd", "0.5",
                "--max-iters", "300"], tmp_path) == 0
    direct = trans_mc(target_ds, source_ds, policy, solver).matrix
    written = np.loadtxt(tmp_path / "tr" / "estimate.txt", skiprows=1, ndmin=2)
    np.testing.assert_allclose(written, direct, rtol=1e-12, atol=0)

    assert run(["select", "--target", target, "--sources", sources,
                "--out", "sel", "--a", "30", "--noise-sd", "0.5",
                "--max-iters", "300", "--epsilon0", "0.5"], tmp_path) == 0
    sel_cfg = SelectionConfig(J=4, c_tilde=2.0, epsilon0=0.5, c0=cli.DEFAULT_MULTIPLIER,
                              ck=cli.DEFAULT_MULTIPLIER, seed=0)
    _, direct = s_trans_mc(target_ds, source_ds, sel_cfg, policy, solver)
    written = np.loadtxt(tmp_path / "sel" / "estimate.txt", skiprows=1, ndmin=2)
    np.testing.assert_allclose(written, direct.matrix, rtol=1e-12, atol=0)
    rows = list(csv.reader(open(tmp_path / "sel" / "selection_report.csv")))
    kinds = {r[0] for r in rows[1:]}
    assert {"fold_loss", "benchmark", "source_loss", "sigma_hat",
            "threshold", "selected", "unconverged"} <= kinds

    assert run(["select", "--target", target, "--sources", sources,
                "--out", "sel3", "--a", "30", "--noise-sd", "0.5",
                "--max-iters", "3", "--folds", "2"], tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "sel3" / "selection_report.csv")))
    assert ["unconverged", "", "fold 0;fold 1;source 1;source 2"] in rows


def test_selection_report_has_a_row_per_fit(tmp_path, tiny_cfg):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    target = str(tmp_path / "sim" / "target.samples")
    sources = ",".join(str(tmp_path / "sim" / f"source_{k:02d}.samples") for k in (1, 2))
    assert run(["select", "--target", target, "--sources", sources, "--out", "sel",
                "--a", "30", "--noise-sd", "0.5", "--max-iters", "3", "--folds", "2",
                "--seed", "4"], tmp_path) == 0
    policy = PenaltyPolicy(a=30.0, c1=cli.DEFAULT_MULTIPLIER, c2=cli.DEFAULT_MULTIPLIER,
                           v=0.5)
    cfg = SelectionConfig(J=2, c_tilde=2.0, c0=cli.DEFAULT_MULTIPLIER,
                          ck=cli.DEFAULT_MULTIPLIER, seed=4)
    report, _ = s_trans_mc(read_dataset(target),
                           [read_dataset(p, task_id=k)
                            for k, p in enumerate(sources.split(","), start=1)],
                           cfg, policy, SolverConfig(max_iters=3))
    assert report.fold_traces[0].converged is False
    rows = list(csv.reader(open(tmp_path / "sel" / "selection_report.csv")))
    fits = {r[1]: dict(kv.split("=") for kv in r[2].split()) for r in rows if r[0] == "fit"}
    assert list(fits) == ["fold 0", "fold 1", "source 1", "source 2"]
    assert fits["fold 0"]["converged"] == "False"
    for name, trace in report.fit_traces():
        assert fits[name] == {"iterations": str(trace.iterations),
                              "prox_evals": str(trace.prox_evals),
                              "converged": str(trace.converged),
                              "box_active": str(trace.box_active)}


def test_select_writes_what_s_trans_mc_returns_byte_for_byte(tmp_path, tiny_cfg):
    # transmc select and a library call of s_trans_mc with the same settings
    # give the same estimate.txt and selection_report.csv.
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    target = str(tmp_path / "sim" / "target.samples")
    sources = [str(tmp_path / "sim" / f"source_{k:02d}.samples") for k in (1, 2)]
    assert run(["select", "--target", target, "--sources", ",".join(sources), "--out", "sel",
                "--a", "30", "--noise-sd", "0.5", "--max-iters", "300", "--folds", "3",
                "--c-tilde", "1.5", "--epsilon0", "0.4", "--seed", "7"], tmp_path) == 0
    policy = PenaltyPolicy(a=30.0, c1=cli.DEFAULT_MULTIPLIER, c2=cli.DEFAULT_MULTIPLIER,
                           v=0.5)
    cfg = SelectionConfig(J=3, c_tilde=1.5, epsilon0=0.4, c0=cli.DEFAULT_MULTIPLIER,
                          ck=cli.DEFAULT_MULTIPLIER, seed=7)
    report, est = s_trans_mc(read_dataset(target),
                             [read_dataset(p, task_id=k) for k, p in enumerate(sources, start=1)],
                             cfg, policy, SolverConfig(max_iters=300))
    write_dense(est.matrix, tmp_path / "estimate.txt", label="s-transmc")
    cli._write_selection_report(tmp_path / "selection_report.csv", report)
    for name in ("estimate.txt", "selection_report.csv"):
        assert (tmp_path / "sel" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_fit_reads_a_frame_whose_id_starts_with_task(tmp_path):
    rng = np.random.default_rng(5)
    flat = rng.choice(60, size=40, replace=False)
    write_frame(FrameFile(6, 10, "taskforce", flat // 10, flat % 10,
                          rng.standard_normal(40)), tmp_path / "tf.frame")
    assert run(["fit", "--data", "tf.frame", "--out", "fit", "--noise-sd", "0.5"],
               tmp_path) == 0
    assert (tmp_path / "fit" / "estimate.txt").read_text().startswith("6 10 single\n")


@pytest.mark.parametrize("command, option", [
    ("fit", ["--noise-sd", "inf"]),
    ("fit", ["--noise-sd", "nan"]),
    ("fit", ["--noise-sd", "-1"]),
    ("fit", ["--a", "inf"]),
    ("fit", ["--c2", "nan"]),
    ("select", ["--noise-sd", "nan"]),
    ("select", ["--epsilon0", "nan"]),
    ("select", ["--c-tilde", "inf"]),
])
def test_non_finite_penalty_and_selection_settings_exit_2(tmp_path, tiny_cfg, capsys,
                                                          command, option):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    files = {"fit": ["--data", "sim/target.samples"],
             "select": ["--target", "sim/target.samples", "--sources", "sim/source_01.samples"]}
    capsys.readouterr()
    assert run([command, *files[command], "--out", "x", *option], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not (tmp_path / "x" / "estimate.txt").exists()


def test_fit_report_shows_prox_evals_and_box_activity(tmp_path, tiny_cfg):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    target = str(tmp_path / "sim" / "target.samples")
    base = ["fit", "--data", target, "--noise-sd", "0.5", "--max-iters", "300"]
    assert run(base + ["--out", "tight", "--a", "1"], tmp_path) == 0
    assert run(base + ["--out", "default"], tmp_path) == 0
    tight = (tmp_path / "tight" / "fit_report.txt").read_text().splitlines()
    default = (tmp_path / "default" / "fit_report.txt").read_text().splitlines()
    assert "box_active: True" in tight
    assert "box_active: False" in default
    for lines in (tight, default):
        prox_evals = [int(x.split(": ")[1]) for x in lines if x.startswith("prox_evals: ")]
        iterations = [int(x.split(": ")[1]) for x in lines if x.startswith("iterations: ")]
        assert len(prox_evals) == 1 and prox_evals[0] >= iterations[0] > 0


@pytest.mark.parametrize("command", [
    ["transfer", "--target", "t.samples", "--sources", "s.samples"],
    ["select", "--target", "t.samples", "--sources", "s.samples"],
    ["benchmark", "--preset", "paper-5.1-small"],
])
def test_lam_rejected_where_no_single_fit_reads_it(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--lam", "0.1", "--out", "x"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [
    ["benchmark", "--preset", "paper-5.1-small", "--noise-sd", "0.5"],
    ["benchmark", "--preset", "paper-5.1-small", "--a", "10"],
    ["fit", "--data", "t.samples", "--jobs", "2"],
    ["transfer", "--target", "t.samples", "--sources", "s.samples", "--folds", "2"],
    ["simulate", "--preset", "paper-5.1-small", "--c1", "0.1"],
    ["evaluate", "--config", "eval.cfg", "--preset", "paper-5.1-small"],
    ["fit", "--data", "t.samples", "--seed", "3"],
    ["transfer", "--target", "t.samples", "--sources", "s.samples", "--seed", "3"],
    ["benchmark", "--preset", "paper-5.1-small", "--jobs", "2"],
    ["fit", "--data", "t.samples", "--c1", "0.1"],
])
def test_options_rejected_where_the_command_does_not_read_them(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", "x"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("methods, option", [
    ("single,transmc", ["--folds", "2"]),
    ("single,transmc", ["--c-tilde", "1.5"]),
    ("single", ["--epsilon0", "0.5"]),
    ("single", ["--folds", "1", "--c-tilde", "-5", "--epsilon0", "-1"]),
    ("transmc,s-transmc", ["--lam", "0.1"]),
    ("single", ["--c1", "0.1"]),
])
def test_evaluate_rejects_options_its_methods_do_not_read(tmp_path, monkeypatch, capsys,
                                                          methods, option):
    # Which flags evaluate reads depends on its config's methods, so the
    # check comes after the config, but before any frame is parsed.
    cfg = _tiny_frames(tmp_path)
    cfg.write_text(cfg.read_text().replace("methods: single,transmc", f"methods: {methods}"))
    parsed = []
    monkeypatch.setattr(cli.data_io, "read_frame", parsed.append)
    capsys.readouterr()
    assert run(["evaluate", "--config", str(cfg), "--out", "x", *option], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid-invocation: {option[0]} is read by none of the "
                          f"methods {methods}")
    assert parsed == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("methods, option", [
    ("single", ["--folds", "1"]),
    ("single", ["--c-tilde", "1.5"]),
    ("single", ["--c1", "0.1"]),
    ("curve", ["--epsilon0", "0.5"]),
])
def test_benchmark_rejects_options_its_methods_do_not_read(tmp_path, monkeypatch, capsys,
                                                           methods, option):
    runs = []
    monkeypatch.setattr(cli, "run_benchmark", lambda *args, **kwargs: runs.append(args))
    capsys.readouterr()
    assert run(["benchmark", "--preset", "paper-5.1-small", "--methods", methods,
                "--out", "x", *option], tmp_path) == 2
    assert capsys.readouterr().err == (f"error: invalid-invocation: {option[0]} is read by "
                                       f"none of the methods {methods}\n")
    assert runs == []
    assert not (tmp_path / "x").exists()


def test_evaluate_rejects_a_config_key_its_methods_do_not_read(tmp_path, monkeypatch, capsys):
    # A config key is checked as its flag is, and named by that flag.
    cfg = _tiny_frames(tmp_path)
    cfg.write_text(cfg.read_text().replace("methods: single,transmc", "methods: single")
                   + "c1: 0.1\n")
    parsed = []
    monkeypatch.setattr(cli.data_io, "read_frame", parsed.append)
    capsys.readouterr()
    assert run(["evaluate", "--config", str(cfg), "--out", "x"], tmp_path) == 2
    assert capsys.readouterr().err == ("error: invalid-invocation: --c1 is read by none of "
                                       "the methods single\n")
    assert parsed == []
    assert not (tmp_path / "x").exists()


def test_benchmark_takes_c1_when_curve_reads_it(tmp_path, tiny_cfg):
    assert run(["benchmark", "--config", str(tiny_cfg), "--methods", "transmc,curve",
                "--c1", "0.1", "--schemes", "uniform", "--max-iters", "300",
                "--out", "b"], tmp_path) == 0


def test_select_runs_the_noise_pilot_once(tmp_path, tiny_cfg, pilot_calls):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    sources = ",".join(str(tmp_path / "sim" / f"source_{k:02d}.samples") for k in (1, 2))
    assert run(["select", "--target", str(tmp_path / "sim" / "target.samples"),
                "--sources", sources, "--out", "sel", "--max-iters", "300",
                "--epsilon0", "0.5"], tmp_path) == 0
    assert len(pilot_calls) == 1


@pytest.mark.parametrize("command, pilots", [
    (["fit", "--data", "sim/target.samples", "--lam", "0.1"], 0),
    (["fit", "--data", "sim/target.samples"], 1),
    (["transfer", "--target", "sim/target.samples", "--sources", "sim/source_01.samples"], 1),
])
def test_fit_and_transfer_run_the_noise_pilot_only_where_v_is_read(tmp_path, tiny_cfg,
                                                                   pilot_calls, command, pilots):
    # An explicit --lam leaves nothing that reads v; a rule penalty and
    # trans_mc read it, resolving it once.
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    assert run(command + ["--out", "x", "--max-iters", "300"], tmp_path) == 0
    assert len(pilot_calls) == pilots


@pytest.fixture
def fit_count(monkeypatch, set_workers):
    """The number of solver runs (pilots included) in this process; with one
    worker every fit of a command runs here."""
    solve = estimators.lamm_solve
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimators, "lamm_solve", counting)
    set_workers(1)
    return lambda: len(calls)


@pytest.mark.parametrize("option", [["--folds", "1"], ["--epsilon0", "0"]])
def test_a_bad_selection_setting_exits_2_before_any_fit(tmp_path, tiny_cfg, capsys, fit_count,
                                                        option):
    # s-transmc is listed last in evaluate, after single and transmc cases
    # and their pilots, which must not run either.
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    cfg = _tiny_frames(tmp_path)
    cfg.write_text(cfg.read_text().replace("methods: single,transmc",
                                           "methods: single,transmc,s-transmc"))
    commands = {
        "evaluate": ["evaluate", "--config", str(cfg)],
        "select": ["select", "--target", "sim/target.samples",
                   "--sources", "sim/source_01.samples"],
        "benchmark": ["benchmark", "--config", str(tiny_cfg), "--methods", "single,s-transmc"],
    }
    for name, command in commands.items():
        capsys.readouterr()
        assert run(command + ["--out", name, *option], tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: validation: ")
        assert not (tmp_path / name).exists()
    assert fit_count() == 0


@pytest.mark.parametrize("lam", ["inf", "nan", "-1"])
def test_a_non_finite_or_negative_lam_exits_2_before_any_fit(tmp_path, tiny_cfg, capsys,
                                                             fit_count, lam):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    commands = {"fit": ["fit", "--data", "sim/target.samples"],
                "evaluate": ["evaluate", "--config", str(_tiny_frames(tmp_path))]}
    for name, command in commands.items():
        capsys.readouterr()
        assert run(command + ["--out", name, "--lam", lam], tmp_path) == 2
        assert capsys.readouterr().err == ("error: validation: penalty lam must be finite "
                                           f"and at least 0, got {float(lam)}\n")
        assert not (tmp_path / name).exists()
    assert fit_count() == 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_outputs_and_parallel_byte_stability(tmp_path, tiny_cfg, set_workers):
    base = ["benchmark", "--config", str(tiny_cfg), "--reps", "2",
            "--max-iters", "300"]
    set_workers(1)
    assert run(base + ["--out", "b1"], tmp_path) == 0
    # Two replicate workers; inside them the rule stays 1, as the real one is.
    set_workers(2)
    assert run(base + ["--out", "b2"], tmp_path) == 0
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for name in ["summary.csv", "curve_ss1.csv", "curve_ss2.csv", "run_report.txt"]:
        assert (tmp_path / "b1" / name).read_bytes() == (tmp_path / "b2" / name).read_bytes()

    rows = list(csv.reader(open(tmp_path / "b1" / "summary.csv")))
    assert rows[0] == ["method", "scheme", "mean", "median", "min", "max", "sd"]
    methods_schemes = {(r[0], r[1]) for r in rows[1:]}
    assert ("single", "SS1") in methods_schemes
    assert ("s-transmc", "SS2") in methods_schemes

    curve = list(csv.reader(open(tmp_path / "b1" / "curve_ss1.csv")))
    assert curve[0] == ["k_sources", "mean_err", "sd"]
    assert len(curve) - 1 == 3  # K + 1 rows for K = 2


def test_benchmark_runs_no_noise_pilot(tmp_path, tiny_cfg, pilot_calls, set_workers):
    # Every replicate fits at the scenario's known noise scale.
    set_workers(1)
    assert run(["benchmark", "--config", str(tiny_cfg), "--out", "b", "--reps", "2",
                "--max-iters", "300", "--epsilon0", "0.5"], tmp_path) == 0
    assert pilot_calls == []


def test_benchmark_single_scheme_and_methods_subset(tmp_path, tiny_cfg):
    assert run(["benchmark", "--config", str(tiny_cfg), "--out", "b", "--reps", "1",
                "--schemes", "uniform", "--methods", "single,transmc",
                "--max-iters", "300"], tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "b" / "summary.csv")))
    assert {(r[0], r[1]) for r in rows[1:]} == {("single", "SS1"), ("transmc", "SS1")}
    assert not (tmp_path / "b" / "curve_ss1.csv").exists()


def test_benchmark_runs_full_source_trans_mc_once_per_replicate(tmp_path, tiny_cfg,
                                                               monkeypatch, set_workers):
    # The `transmc` method and curve point k = K fit the same inputs: each
    # replicate makes K + 1 trans_mc calls (k = 0..K), not K + 2.
    calls = []

    def counting(target, sources, policy, solver):
        calls.append(len(sources))
        return trans_mc(target, sources, policy, solver)

    monkeypatch.setattr(cli, "trans_mc", counting)
    # The replicates run in this process, where the counter sees them.
    set_workers(1)
    assert run(["benchmark", "--config", str(tiny_cfg), "--out", "b", "--reps", "2",
                "--schemes", "uniform", "--methods", "transmc,curve",
                "--max-iters", "300"], tmp_path) == 0
    assert calls == [2, 0, 1] * 2
    summary = list(csv.reader(open(tmp_path / "b" / "summary.csv")))
    curve = list(csv.reader(open(tmp_path / "b" / "curve_ss1.csv")))
    assert summary[1][:3] == ["transmc", "SS1", curve[-1][1]]


def test_benchmark_s_transmc_reuses_the_transfer_fit_of_its_sources(tiny_cfg, monkeypatch):
    # s-transmc's transfer fit is keyed by the chosen sources' task ids: when
    # it keeps every source it is the `transmc` method's fit, and when it
    # keeps source 1 alone it is curve point k = 1. Each replicate then makes
    # K + 1 trans_mc calls (k = 0..K), not K + 2.
    calls = []

    def counting(target, sources, policy, solver):
        calls.append(len(sources))
        return trans_mc(target, sources, policy, solver)

    monkeypatch.setattr(cli, "trans_mc", counting)
    monkeypatch.setattr(selection, "trans_mc", counting)
    spec = read_scenario(tiny_cfg)
    params = {"c1": cli.DEFAULT_MULTIPLIER, "c2": cli.DEFAULT_MULTIPLIER,
              "c_tilde": 2.0, "epsilon0": None, "folds": 4, "max_iters": 300}
    selected = []
    for rep in range(3):
        calls.clear()
        result = cli._bench_worker((spec, rep, ("transmc", "s-transmc", "curve"), params))
        selected.append(result["selected"])
        k = len(result["selected"])
        assert sorted(calls) == [0, 1, 2]
        assert result["errors"]["s-transmc"] == result["curve"][k]
        assert result["errors"]["transmc"] == result["curve"][2]
    assert selected == [(1, 2), (1, 2), (1,)]


def test_benchmark_shared_fit_failure_is_recorded_under_both_tags(monkeypatch):
    from transmc.simulation import ScenarioSpec
    from transmc.solver import SolverDivergedError

    def failing(target, sources, policy, solver):
        if len(sources) == 2:
            raise SolverDivergedError("diverged")
        return trans_mc(target, sources, policy, solver)

    monkeypatch.setattr(cli, "trans_mc", failing)
    spec = ScenarioSpec(m1=12, m2=8, rank=2, contrasts=(5.0, 40.0), n0_frac=0.5,
                        nk_frac=0.4, noise_sd=0.5, sampling="uniform", seed=3)
    params = {"c1": cli.DEFAULT_MULTIPLIER, "c2": cli.DEFAULT_MULTIPLIER,
              "c_tilde": 2.0, "epsilon0": None, "folds": 4, "max_iters": 300}
    result = cli._bench_worker((spec, 0, ("transmc", "curve"), params))
    assert result["errors"]["transmc"] is None
    assert result["curve"][2] is None and result["curve"][0] is not None
    assert result["failures"] == ["transmc: diverged", "curve-k2: diverged"]


def test_benchmark_writes_a_curve_point_that_failed_in_every_replicate(
        tmp_path, tiny_cfg, monkeypatch, set_workers):
    # Every fit on both sources diverges: the `transmc` method and curve point
    # k = 2 have no error to summarize, yet the run writes its files, gives
    # both a row of nan, names each failure in run_report.txt and exits 3.
    from transmc.solver import SolverDivergedError

    def failing(target, sources, policy, solver):
        if len(sources) == 2:
            raise SolverDivergedError("diverged")
        return trans_mc(target, sources, policy, solver)

    monkeypatch.setattr(cli, "trans_mc", failing)
    set_workers(2)
    assert run(["benchmark", "--config", str(tiny_cfg), "--out", "b", "--reps", "2",
                "--methods", "transmc,curve", "--schemes", "uniform"], tmp_path) == 3
    out = tmp_path / "b"
    assert list(csv.reader(open(out / "summary.csv")))[1:] == [["transmc", "SS1", *["nan"] * 5]]
    curve = list(csv.reader(open(out / "curve_ss1.csv")))
    assert curve[3] == ["2", "nan", "nan"] and "nan" not in curve[1] + curve[2]
    assert (out / "run_report.txt").read_text().splitlines()[3:] == [
        "solver_failures: 4",
        "failure: SS1 rep 0 transmc: diverged",
        "failure: SS1 rep 0 curve-k2: diverged",
        "failure: SS1 rep 1 transmc: diverged",
        "failure: SS1 rep 1 curve-k2: diverged",
    ]


@pytest.mark.parametrize("option, named", [
    (["--methods", ""], "no method listed"),
    (["--methods", "single,single"], "method 'single' listed twice"),
    (["--methods", "single,bogus"], "unknown method 'bogus'"),
    (["--schemes", ""], "no sampling scheme listed"),
    (["--schemes", "uniform,uniform"], "sampling scheme 'uniform' listed twice"),
    (["--schemes", "ss1"], "unknown sampling scheme 'ss1'"),
    (["--reps", "0"], "--reps must be at least 1, got 0"),
    (["--reps", "0", "--methods", "curve"], "--reps must be at least 1, got 0"),
])
def test_benchmark_rejects_bad_lists_before_any_work(tmp_path, tiny_cfg, capsys, option,
                                                     named):
    assert run(["benchmark", "--config", str(tiny_cfg), "--out", "b", *option], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-invocation: ") and named in err
    assert not (tmp_path / "b").exists()


def test_benchmark_degenerate_matches_fit_plus_evaluate(tmp_path):
    cfg = tmp_path / "nosrc.cfg"
    cfg.write_text("m1: 10\nm2: 8\nrank: 2\ncontrasts:\nn0_frac: 0.6\n"
                   "nk_frac: 0.5\nnoise_sd: 0.5\nsampling: uniform\nseed: 9\n")
    assert run(["benchmark", "--config", str(cfg), "--out", "b", "--reps", "1",
                "--schemes", "uniform", "--methods", "single"],
               tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "b" / "summary.csv")))
    mean = float(rows[1][2])

    # reproduce by hand: generate the same replicate, fit, evaluate
    from transmc.estimators import fit_single, theorem_penalty
    from transmc.metrics import rel_frob_error
    from transmc.simulation import generate_scenario, ScenarioSpec

    spec = ScenarioSpec(m1=10, m2=8, rank=2, contrasts=(), n0_frac=0.6,
                        nk_frac=0.5, noise_sd=0.5, sampling="uniform", seed=9)
    data = generate_scenario(spec, rep=0)
    lam = theorem_penalty(cli.DEFAULT_MULTIPLIER, spec.a_cap, spec.noise_sd,
                          data.target.n, 8)
    est = fit_single(data.target, lam, spec.a_cap, SolverConfig(max_iters=500))
    assert mean == pytest.approx(rel_frob_error(est.matrix, data.truth), rel=1e-12)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_three_methods_three_rows_per_frame(tmp_path):
    assert run(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"],
               tmp_path) == 0
    cfg = tmp_path / "tec" / "eval.cfg"
    text = cfg.read_text().replace("methods: single,transmc",
                                   "methods: single,transmc,s-transmc")
    text = text.replace("targets: 0-5", "targets: 0-1")
    cfg.write_text(text)
    assert run(["evaluate", "--config", str(cfg), "--out", "ev", "--noise-sd", "0.5",
                "--max-iters", "300", "--epsilon0", "0.5"], tmp_path) == 0
    rows = list(csv.reader(open(tmp_path / "ev" / "eval.csv")))
    assert rows[0] == ["frame", "method", "E", "RE"]
    body = rows[1:]
    assert len(body) == 6  # 2 frames x 3 methods
    assert [r[1] for r in body[:3]] == ["single", "transmc", "s-transmc"]


def test_evaluate_does_not_depend_on_the_worker_count(tmp_path, set_workers, caplog):
    assert run(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"],
               tmp_path) == 0
    cfg = tmp_path / "tec" / "eval.cfg"
    text = cfg.read_text().replace("methods: single,transmc",
                                   "methods: single,transmc,s-transmc")
    cfg.write_text(text.replace("targets: 0-5", "targets: 0-2"))
    warnings = {}
    for workers in (1, 2):
        set_workers(workers)
        caplog.clear()
        # 5 iterations leave fits of every method unconverged, so each warns.
        with caplog.at_level(logging.WARNING, logger="transmc"):
            assert run(["evaluate", "--config", str(cfg), "--out", f"ev{workers}",
                        "--max-iters", "5", "--epsilon0", "0.5"], tmp_path) == 0
        warnings[workers] = [rec.getMessage() for rec in caplog.records
                             if rec.name == "transmc"]
    assert (tmp_path / "ev1" / "eval.csv").read_bytes() == \
        (tmp_path / "ev2" / "eval.csv").read_bytes()
    rows = list(csv.reader(open(tmp_path / "ev2" / "eval.csv")))
    assert [r[1] for r in rows[1:]] == ["single", "transmc", "s-transmc"] * 3
    assert {w.split()[0] for w in warnings[1]} == {"single", "pooled", "debiased", "fold",
                                                    "source"}
    assert warnings[1] == warnings[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evaluate_runs_every_case_when_a_fit_diverges(tmp_path, monkeypatch, set_workers,
                                                      capsys):
    # trans_mc diverges on target frame 3 alone: evaluate still writes every
    # row, gives that case nan, names it once on stderr and exits 3.
    from transmc.data_io import holdout_split, read_frame
    from transmc.solver import SolverDivergedError

    cfg = _tiny_frames(tmp_path)
    train, _ = holdout_split(read_frame(tmp_path / "tec" / "frame_003.frame"), 0.2, (42, 3))
    assert "holdout_fraction: 0.2\n" in cfg.read_text() and "seed: 42\n" in cfg.read_text()

    def failing(target, sources, policy, solver):
        if np.array_equal(target.values, train.values):
            raise SolverDivergedError("diverged")
        return trans_mc(target, sources, policy, solver)

    monkeypatch.setattr(cli, "trans_mc", failing)
    outputs = []
    for workers in (1, 2):
        set_workers(workers)
        capsys.readouterr()
        assert run(["evaluate", "--config", str(cfg), "--out", f"ev{workers}",
                    "--max-iters", "300"], tmp_path) == 3
        outputs.append(((tmp_path / f"ev{workers}" / "eval.csv").read_bytes(),
                        capsys.readouterr().err))
    assert outputs[0] == outputs[1]
    rows = list(csv.reader(open(tmp_path / "ev1" / "eval.csv")))[1:]
    assert [r[:2] for r in rows] == [[f"t{t:03d}", m] for t in range(6)
                                     for m in ("single", "transmc")]
    assert [r for r in rows if "nan" in r] == [["t003", "transmc", "nan", "nan"]]
    assert [line for line in outputs[0][1].splitlines() if line.startswith("error")] == [
        "error: solver-diverged: t003 transmc: diverged"]


def test_evaluate_s_transmc_reuses_its_transfer_fit(tmp_path, monkeypatch, set_workers):
    # With frame 5 negated and a window of two frames each side, screening
    # keeps every source of targets 0-2 and drops some of targets 3-5. Where
    # it keeps every source, its transfer fit is the transmc case's fit.
    from dataclasses import replace

    from transmc.data_io import read_frame

    cfg = _tiny_frames(tmp_path)
    cfg.write_text(cfg.read_text().replace("half_width: 10", "half_width: 2")
                   .replace("methods: single,transmc", "methods: single,transmc,s-transmc"))
    path = tmp_path / "tec" / "frame_005.frame"
    frame = read_frame(path)
    write_frame(replace(frame, values=-frame.values), path)
    calls, keeps_all = [], {}  # target of each trans_mc call; target -> every source kept

    def counting(target, sources, policy, solver):
        calls.append(id(target))
        return trans_mc(target, sources, policy, solver)

    def screening(target, sources, *args):
        report = screen(target, sources, *args)
        keeps_all[id(target)] = len(report.selected) == len(sources)
        return report

    screen = selection.screen_sources
    monkeypatch.setattr(cli, "trans_mc", counting)
    monkeypatch.setattr(selection, "trans_mc", counting)
    monkeypatch.setattr(selection, "screen_sources", screening)
    set_workers(1)  # every fit runs in this process, where the counters see it
    assert run(["evaluate", "--config", str(cfg), "--out", "ev", "--max-iters", "300"],
               tmp_path) == 0
    # The s-transmc cases run first, in target order.
    assert list(keeps_all.values()) == [True] * 3 + [False] * 3
    assert [calls.count(t) for t in keeps_all] == [1] * 3 + [2] * 3
    rows = {(r[0], r[1]): r[2:] for r in csv.reader(open(tmp_path / "ev" / "eval.csv"))}
    for t in range(6):
        same = rows[(f"t{t:03d}", "transmc")] == rows[(f"t{t:03d}", "s-transmc")]
        assert same == (t < 3)


def test_evaluate_runs_the_noise_pilot_once_per_target_frame(tmp_path, pilot_calls):
    assert run(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"],
               tmp_path) == 0
    cfg = tmp_path / "tec" / "eval.cfg"
    lines = [line for line in cfg.read_text().splitlines()
             if not line.startswith(("noise_sd:", "targets:", "methods:"))]
    cfg.write_text("\n".join(lines + ["targets: 0-1",
                                       "methods: single,transmc,s-transmc"]) + "\n")
    assert run(["evaluate", "--config", str(cfg), "--out", "ev", "--max-iters", "300",
                "--epsilon0", "0.5"], tmp_path) == 0
    assert len(pilot_calls) == 2
    rows = list(csv.reader(open(tmp_path / "ev" / "eval.csv")))
    assert [r[1] for r in rows[1:]] == ["single", "transmc", "s-transmc"] * 2


def test_evaluate_of_single_at_an_explicit_lam_runs_no_noise_pilot(tmp_path, pilot_calls):
    cfg = _tiny_frames(tmp_path)
    lines = [line for line in cfg.read_text().splitlines()
             if not line.startswith(("noise_sd:", "methods:"))]
    cfg.write_text("\n".join(lines + ["methods: single"]) + "\n")
    assert run(["evaluate", "--config", str(cfg), "--out", "ev", "--lam", "0.1"], tmp_path) == 0
    assert pilot_calls == []
    assert run(["evaluate", "--config", str(cfg), "--out", "ev_rule"], tmp_path) == 0
    assert len(pilot_calls) == 6


def test_evaluate_perfect_frames_zero_errors(tmp_path):
    # noiseless, drift-free frames: every method interpolates on the holdout
    from transmc.data_io import FrameFile, write_frame

    rng = np.random.default_rng(4)
    truth = np.outer(rng.standard_normal(8), rng.standard_normal(10)) * 3
    paths = []
    for t in range(3):
        flat = rng.choice(80, size=70, replace=False)
        frame = FrameFile(8, 10, f"t{t}", flat // 10, flat % 10,
                          truth[flat // 10, flat % 10])
        p = tmp_path / f"f{t}.frame"
        write_frame(frame, p)
        paths.append(str(p))
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"frames: {','.join(paths)}\ntargets: 1\nhalf_width: 2\n"
                   "holdout_fraction: 0.2\nseed: 0\nmethods: single,transmc\n"
                   "noise_sd: 0.001\n")
    assert run(["evaluate", "--config", str(cfg), "--out", "ev",
                "--max-iters", "6000", "--c1", "0.002", "--c2", "0.002"],
               tmp_path) == 0
    rows = {r[1]: r for r in csv.reader(open(tmp_path / "ev" / "eval.csv"))}
    assert float(rows["single"][3]) <= 1e-2   # RE at solver/penalty tolerance
    assert float(rows["transmc"][3]) <= 1e-3  # pooled frames cover every cell


def test_evaluate_missing_frames_error(tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("frames: does_not_exist.frame\ntargets: 0\n")
    assert run(["evaluate", "--config", str(cfg), "--out", "ev"], tmp_path) == 2


def test_evaluate_a_flag_matches_config_a(tmp_path):
    assert run(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"],
               tmp_path) == 0
    cfg = tmp_path / "tec" / "eval.cfg"
    text = cfg.read_text().replace("targets: 0-5", "targets: 0-1")
    cfg.write_text(text)
    base = ["evaluate", "--max-iters", "300"]
    assert run(base + ["--config", str(cfg), "--out", "default"], tmp_path) == 0
    assert run(base + ["--config", str(cfg), "--out", "flag", "--a", "5"], tmp_path) == 0
    cfg_a = tmp_path / "tec" / "eval_a.cfg"
    cfg_a.write_text(text + "a: 5\n")
    assert run(base + ["--config", str(cfg_a), "--out", "cfg"], tmp_path) == 0
    flag = (tmp_path / "flag" / "eval.csv").read_bytes()
    default = (tmp_path / "default" / "eval.csv").read_bytes()
    assert flag == (tmp_path / "cfg" / "eval.csv").read_bytes()
    assert flag != default
    # A flag beats the config key: --a 5 over a: 30, --noise-sd 100.0 over the
    # noise_sd: 0.5 that simulate writes. The penalty scales with max(a, v), so
    # only a noise scale above a changes the fits.
    cfg_a.write_text(text + "a: 30\n")
    assert run(base + ["--config", str(cfg_a), "--out", "over", "--a", "5"], tmp_path) == 0
    assert (tmp_path / "over" / "eval.csv").read_bytes() == flag
    assert "noise_sd: 0.5\n" in text
    cfg_sd = tmp_path / "tec" / "eval_sd.cfg"
    cfg_sd.write_text(text.replace("noise_sd: 0.5\n", "noise_sd: 100.0\n"))
    assert run(base + ["--config", str(cfg_sd), "--out", "cfg_sd"], tmp_path) == 0
    assert run(base + ["--config", str(cfg), "--out", "flag_sd", "--noise-sd", "100.0"],
               tmp_path) == 0
    flag_sd = (tmp_path / "flag_sd" / "eval.csv").read_bytes()
    assert flag_sd == (tmp_path / "cfg_sd" / "eval.csv").read_bytes()
    assert flag_sd != default


@pytest.mark.parametrize("targets, methods", [
    ("2-0", "single"),   # descending range
    ("", "single"),      # no targets
    ("0", ""),           # no methods
])
def test_evaluate_rejects_empty_selection(tmp_path, targets, methods):
    from transmc.data_io import FrameFile, write_frame

    paths = []
    for t in range(3):
        path = tmp_path / f"f{t}.frame"
        write_frame(FrameFile(4, 5, f"t{t}", [0, 1, 2, 3], [0, 1, 2, 3],
                              [1.0, 2.0, 3.0, 4.0]), path)
        paths.append(str(path))
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"frames: {','.join(paths)}\ntargets: {targets}\n"
                   f"methods: {methods}\n")
    assert run(["evaluate", "--config", str(cfg), "--out", "ev"], tmp_path) == 2
    assert not (tmp_path / "ev" / "eval.csv").exists()


@pytest.mark.parametrize("targets, methods, named", [
    ("0,0", "single", "target frame 0 listed twice"),
    ("0-2,1", "single", "target frame 1 listed twice"),
    ("0", "single,single", "method 'single' listed twice"),
    ("-1", "single", "bad target entry '-1'"),
    ("0", "single,bogus", "unknown method 'bogus'"),
])
def test_evaluate_rejects_bad_lists_before_parsing_frames(tmp_path, capsys, targets, methods,
                                                          named):
    # The frames are not even valid: the list checks come first.
    paths = []
    for t in range(3):
        path = tmp_path / f"f{t}.frame"
        path.write_text("4 5 bad\n0 0 oops\n")
        paths.append(str(path))
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"frames: {','.join(paths)}\ntargets: {targets}\nmethods: {methods}\n")
    assert run(["evaluate", "--config", str(cfg), "--out", "ev"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-invocation: ") and named in err
    assert not (tmp_path / "ev").exists()


def test_evaluate_rejects_unknown_config_key(tmp_path, capsys):
    assert run(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"],
               tmp_path) == 0
    cfg = tmp_path / "tec" / "eval.cfg"
    cfg.write_text(cfg.read_text() + "holdout_fracton: 0.5\n")
    capsys.readouterr()
    assert run(["evaluate", "--config", str(cfg), "--out", "ev"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "holdout_fracton" in err and str(cfg) in err
    assert not (tmp_path / "ev" / "eval.csv").exists()


def _tiny_frames(tmp_path):
    """The eval.cfg of tec-synthetic-tiny with targets 0-5, after simulate."""
    assert run(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"],
               tmp_path) == 0
    return tmp_path / "tec" / "eval.cfg"


def test_evaluate_reports_a_bad_frame_line_at_any_worker_count(tmp_path, set_workers,
                                                                capsys):
    cfg = _tiny_frames(tmp_path)
    frame = tmp_path / "tec" / "frame_005.frame"
    lines = frame.read_text().splitlines(keepends=True)
    lines[3] = "3 4 oops\n"
    frame.write_text("".join(lines))
    errors = []
    for workers in (1, 2):
        set_workers(workers)
        capsys.readouterr()
        assert run(["evaluate", "--config", str(cfg), "--out", f"ev{workers}"], tmp_path) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == \
        f"error: validation: {frame}:4: could not parse record '3 4 oops'\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_config_key_given_twice_exits_2(tmp_path, tiny_cfg, capsys):
    tiny_cfg.write_text(TINY_SCENARIO + "seed: 4\n")
    cfg = _tiny_frames(tmp_path)
    cfg.write_text(cfg.read_text() + "half_width: 2\n")
    for command in (["simulate", "--config", str(tiny_cfg)], ["evaluate", "--config", str(cfg)]):
        capsys.readouterr()
        assert run(command + ["--out", "x"], tmp_path) == 2
        assert "given twice, on lines" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_evaluate_rejects_a_negative_half_width(tmp_path, capsys):
    cfg = _tiny_frames(tmp_path)
    cfg.write_text(cfg.read_text().replace("half_width: 10", "half_width: -3"))
    capsys.readouterr()
    assert run(["evaluate", "--config", str(cfg), "--out", "ev"], tmp_path) == 2
    assert "half_width -3" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "eval.csv").exists()
