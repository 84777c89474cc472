"""Tests of the benchmark itself: its counts must be exact and repeatable.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import transmc  # noqa: E402
from transmc import simulation  # noqa: E402
from transmc.estimators import PenaltyPolicy  # noqa: E402
from transmc.solver import SolverConfig  # noqa: E402

import tracing  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def small_scenario():
    return simulation.generate_scenario(simulation.PRESETS["paper-5.1-small"], rep=0)


def test_solver_counts_match_returned_traces(tracer):
    d = small_scenario()
    solver = SolverConfig(max_iters=60)  # some fits stop at the cap
    traces = []
    for lam in (0.05, 0.2, 1.0):
        est = tracer.run_op(0, lambda: transmc.fit_single(d.target, lam, 30.0, solver))
        traces.append(est.trace)
    layers, absent = tracing.layer_metrics(tracer, n_ops=1)
    assert absent == []
    assert layers["solver.solves"]["value"] == 3
    assert layers["solver.iterations"]["value"] == sum(t.iterations for t in traces)
    assert layers["solver.prox_evals"]["value"] >= layers["solver.iterations"]["value"]
    assert layers["solver.unconverged_frac"]["value"] == (
        sum(not t.converged for t in traces) / 3)
    # One SVD with vectors per prox evaluation, each through soft_threshold.
    assert layers["linalg.lapack_svd.calls"]["value"] == layers["solver.prox_evals"]["value"]


def test_nested_fits_are_all_counted(tracer):
    # trans_mc returns only the debias trace; the pooled solve must still count.
    d = small_scenario()
    policy = PenaltyPolicy(a=30.0, c1=0.07, c2=0.07, v=1.0)
    est = tracer.run_op(0, lambda: transmc.trans_mc(d.target, d.sources, policy,
                                                    SolverConfig()))
    layers, _ = tracing.layer_metrics(tracer, n_ops=1)
    assert layers["solver.solves"]["value"] == 2
    assert layers["solver.iterations"]["value"] > est.trace.iterations
    assert layers["estimators.pooled_fit_s"]["value"] > 0.0
    assert layers["estimators.debias_fit_s"]["value"] > 0.0


def test_untimed_spans_are_excluded(tracer):
    d = small_scenario()
    tracer.run_op(tracing.WARMUP_OP,
                  lambda: transmc.fit_single(d.target, 0.2, 30.0, SolverConfig()))
    layers, _ = tracing.layer_metrics(tracer, n_ops=1)
    assert layers["solver.solves"]["value"] == 0
    assert layers["linalg.lapack_svd.calls"]["value"] == 0


def test_missing_symbol_is_reported_absent(monkeypatch):
    from transmc import data_io

    monkeypatch.delattr(data_io, "holdout_split")
    t = tracing.Tracer()
    t.install()
    try:
        layers, absent = tracing.layer_metrics(t, n_ops=1)
    finally:
        t.uninstall()
    assert "data_io.holdout_split" in t.missing
    assert "data_io.holdout_split_s" in absent and "data_io.share" in absent
    assert layers["data_io.holdout_split_s"]["value"] == 0.0
    assert "solver.iterations" not in absent


def test_uninstall_restores_every_binding():
    import numpy as np
    from transmc import estimators, losses, selection

    before = (np.linalg.svd, estimators.fit_single, selection.fit_single,
              transmc.fit_single, losses.MaskedSquaredLoss.value)
    t = tracing.Tracer()
    t.install()
    assert selection.fit_single is not before[2] and np.linalg.svd is not before[0]
    t.uninstall()
    after = (np.linalg.svd, estimators.fit_single, selection.fit_single,
             transmc.fit_single, losses.MaskedSquaredLoss.value)
    assert all(a is b for a, b in zip(before, after))


COUNT_UNITS = ("1/op", "B/op", "flop/op", "obs", "count")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--ops", "1", "--trace"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and len(result["traced_op_s"]) == 1
    return {name: m["value"] for name, m in result["layers"].items()
            if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["transfer-full", "holdout-frames"])
def test_counts_repeat_exactly_across_traced_runs(workload):
    first = traced_counts(workload, seed=5)
    second = traced_counts(workload, seed=5)
    assert first == second
    assert first["linalg.lapack_svd.flops_computed"] > 0
    assert first["losses.bytes_computed"] > 0
    assert first["solver.prox_evals"] >= first["solver.iterations"] > 0
