"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Each workload builds its inputs at set-up from the workload seed, runs one
user-level call per op through transmc's public API, and checks every
output. Ops cycle through a pool of inputs so that one run averages over
several draws.

Seed mapping. Every workload keeps its preset's truth and takes the seed as
the stream of observation-level draws. The scenario workloads keep the
preset's matrices (its own ScenarioSpec.seed): pool entry j is replicate
seed * pool + j, a fresh draw of sampling and noise. The frame workload keeps
the preset's frame sequence and uses the seed as the holdout-split seed of
its eval configs. Redrawing the truth instead changes the problem itself:
over 12 matrix seeds the relative error of s_trans_mc ranged from 0.17 to
1.04 and its op time varied by 21%; over ten frame seeds, even with eight
frame sets per run, the holdout RE varied by 11% (interquartile range over
median). A ten-seed spread would then measure the draw of the truth, not
the code.
"""

import csv
import math
from pathlib import Path

import numpy as np

import transmc
from transmc import cli, data_io, metrics, simulation
from transmc.estimators import PenaltyPolicy
from transmc.selection import SelectionConfig
from transmc.solver import SolverConfig

# Penalty multipliers, selection floor and iteration cap as the shipped CLI
# uses them on the presets.
MULTIPLIER = cli.DEFAULT_MULTIPLIER
EPSILON0 = 1.25
FOLDS = 4
BOX_TOL = 1e-9


class CheckError(Exception):
    """An op returned an output that fails the benchmark's correctness check."""


def check_estimate(matrix, shape, a):
    A = np.asarray(matrix)
    if A.shape != shape:
        raise CheckError(f"estimate shape {A.shape}, expected {shape}")
    if not np.all(np.isfinite(A)):
        raise CheckError("estimate has non-finite entries")
    peak = float(np.max(np.abs(A)))
    if peak > a + BOX_TOL:
        raise CheckError(f"estimate leaves the box: max |A| = {peak!r} > a = {a!r}")


class TransferFull:
    """trans_mc on one replicate of paper-5.1-full per op."""

    preset = "paper-5.1-full"
    pool = 8

    def __init__(self, seed: int, workdir: Path):
        self.spec = simulation.PRESETS[self.preset]
        self.data = [transmc.generate_scenario(self.spec, rep=seed * self.pool + j)
                     for j in range(self.pool)]
        self.policy = PenaltyPolicy(a=self.spec.a_cap, c1=MULTIPLIER, c2=MULTIPLIER,
                                    v=self.spec.noise_sd)
        self.solver = SolverConfig()

    def op(self, i):
        d = self.data[i % self.pool]
        return transmc.trans_mc(d.target, d.sources, self.policy, self.solver)

    def check(self, i, est):
        """(relative Frobenius error, selection exact or None)."""
        d = self.data[i % self.pool]
        check_estimate(est.matrix, d.truth.shape, self.spec.a_cap)
        return metrics.rel_frob_error(est.matrix, d.truth), None


class SelectSmall(TransferFull):
    """s_trans_mc on one replicate of paper-5.2-small per op."""

    preset = "paper-5.2-small"

    def op(self, i):
        d = self.data[i % self.pool]
        cfg = SelectionConfig(J=FOLDS, c_tilde=2.0, epsilon0=EPSILON0, c0=MULTIPLIER,
                              ck=MULTIPLIER, seed=(self.spec.seed, 4, d.rep))
        return transmc.s_trans_mc(d.target, d.sources, cfg, self.policy, self.solver)

    def check(self, i, out):
        report, est = out
        rel_err, _ = super().check(i, est)
        K = self.spec.K
        selected = tuple(report.selected)
        if not all(isinstance(k, int) and 1 <= k <= K for k in selected):
            raise CheckError(f"selected indices {selected} not in 1..{K}")
        if list(selected) != sorted(set(selected)):
            raise CheckError(f"selected indices {selected} not strictly ascending")
        closest = min(self.spec.contrasts)
        informative = tuple(k for k, h in enumerate(self.spec.contrasts, start=1)
                            if h == closest)
        return rel_err, selected == informative


class HoldoutFrames:
    """In-process ``transmc evaluate`` on one target frame per op."""

    preset = "tec-synthetic-small"
    targets = 10
    methods = ("single", "transmc")

    def __init__(self, seed: int, workdir: Path):
        params = cli.TEC_PRESETS[self.preset]
        _, observations = simulation.synthetic_frames(**params)
        paths = []
        for t, (rows, cols, values) in enumerate(observations):
            path = workdir / f"frame_{t:03d}.frame"
            data_io.write_frame(data_io.FrameFile(params["m1"], params["m2"], f"t{t:03d}",
                                                  rows, cols, values), path)
            paths.append(str(path))
        self.cases = []
        for t in range(self.targets):
            cfg = workdir / f"eval_{t:03d}.cfg"
            cfg.write_text(
                f"frames: {','.join(paths)}\n"
                f"targets: {t}\n"
                "half_width: 10\n"
                "holdout_fraction: 0.2\n"
                f"seed: {seed}\n"
                f"noise_sd: {params['noise_sd']!r}\n"
                f"methods: {','.join(self.methods)}\n",
                encoding="utf-8",
            )
            self.cases.append((cfg, workdir / f"out_{t:03d}", f"t{t:03d}"))

    def _case(self, i):
        """Op i evaluates target frame i mod 10."""
        return self.cases[i % self.targets]

    def op(self, i):
        cfg, out, _ = self._case(i)
        return cli.main(["evaluate", "--config", str(cfg), "--out", str(out)])

    def check(self, i, code):
        _, out, frame_id = self._case(i)
        if code != 0:
            raise CheckError(f"transmc evaluate exited with {code}")
        path = out / "eval.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        path.unlink()  # the next op on this case must write a fresh file
        if not rows or rows[0] != ["frame", "method", "E", "RE"]:
            raise CheckError(f"eval.csv header {rows[:1]}")
        body = rows[1:]
        if [r[1] for r in body] != list(self.methods):
            raise CheckError(f"eval.csv methods {[r[1] for r in body]}, expected {self.methods}")
        rel_errs = []
        for row in body:
            if len(row) != 4 or row[0] != frame_id:
                raise CheckError(f"eval.csv row {row}, expected frame {frame_id!r}")
            e, rel = float(row[2]), float(row[3])
            if not (math.isfinite(e) and math.isfinite(rel) and e >= 0.0 and rel >= 0.0):
                raise CheckError(f"{row[1]}: E={e!r}, RE={rel!r}")
            rel_errs.append(rel)
        return sum(rel_errs) / len(rel_errs), None


WORKLOADS = {
    "transfer-full": TransferFull,
    "select-small": SelectSmall,
    "holdout-frames": HoldoutFrames,
}
