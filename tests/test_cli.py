import csv
import logging
import multiprocessing
import os

import numpy as np
import pytest

from transmc import cli, selection
from transmc.data_io import read_samples, read_scenario
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
    ds = read_samples(tmp_path / "sim" / "target.samples")
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
    target_ds = read_samples(target)
    source_ds = [read_samples(p) for p in sources.split(",")]
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
    report, _ = s_trans_mc(read_samples(target), [read_samples(p) for p in sources.split(",")],
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
])
def test_options_rejected_where_the_command_does_not_read_them(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", "x"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_select_runs_the_noise_pilot_once(tmp_path, tiny_cfg, pilot_calls):
    assert run(["simulate", "--config", str(tiny_cfg), "--out", "sim"], tmp_path) == 0
    sources = ",".join(str(tmp_path / "sim" / f"source_{k:02d}.samples") for k in (1, 2))
    assert run(["select", "--target", str(tmp_path / "sim" / "target.samples"),
                "--sources", sources, "--out", "sel", "--max-iters", "300",
                "--epsilon0", "0.5"], tmp_path) == 0
    assert len(pilot_calls) == 1


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
