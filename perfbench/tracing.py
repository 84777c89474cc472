"""Spans and counts at the layer boundaries of transmc, recorded from outside.

A Tracer replaces each boundary function with a wrapper that records a span
(name, op, start, end, parent) and, where the call carries a measurable
amount of work, a count. Every binding of the function is replaced: the
module that defines it and every transmc (or numpy.linalg) module that
imported it by name, so calls made through either path are seen. A boundary
whose symbol no longer exists is listed in ``Tracer.missing`` and the metrics
that need it are reported as absent; the package is never edited.

Spans are kept in memory and written out once, after the timed phase.
"""

import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute path). numpy.linalg.svd is handled
# separately because its span name depends on compute_uv.
BOUNDARIES = (
    ("simulation.generate", "transmc.simulation", "generate_scenario"),
    ("simulation.generate", "transmc.simulation", "synthetic_frames"),
    ("data_io.read_frame", "transmc.data_io", "read_frame"),
    ("data_io.holdout_split", "transmc.data_io", "holdout_split"),
    ("losses.value", "transmc.losses", "MaskedSquaredLoss.value"),
    ("losses.gradient", "transmc.losses", "MaskedSquaredLoss.gradient"),
    ("linalg.soft_threshold", "transmc.solver", "soft_threshold"),
    ("solver.lamm_solve", "transmc.estimators", "lamm_solve"),
    ("estimators.fit_single", "transmc.estimators", "fit_single"),
    ("estimators.pooled_fit", "transmc.estimators", "pooled_fit"),
    ("estimators.debias_fit", "transmc.estimators", "debias_fit"),
    ("estimators.trans_mc", "transmc.estimators", "trans_mc"),
    ("selection.benchmark_loss", "transmc.selection", "benchmark_loss"),
    ("selection.s_trans_mc", "transmc.selection", "s_trans_mc"),
    ("cli.evaluate", "transmc.cli", "cmd_evaluate"),
)
SVD = "linalg.lapack_svd"
SVD_NOVEC = "linalg.lapack_svd_novec"

# Record layout: [name, op, start, end, parent record index, child seconds].
NAME, OP, START, END, PARENT, CHILD = range(6)

SETUP_OP = None   # spans recorded during input generation
WARMUP_OP = -1    # spans of the untimed warm-up op


def svd_flops(shape) -> float:
    """Flops of a thin SVD with vectors of an m x n matrix, m >= n:
    6 m n^2 + 20 n^3, the R-SVD count for U1, Sigma and V in Golub and
    Van Loan, Matrix Computations."""
    m, n = max(shape[-2:]), min(shape[-2:])
    return 6.0 * m * n * n + 20.0 * n ** 3


def loss_bytes(loss, gradient: bool) -> float:
    """Bytes a masked-loss call touches, computed from sizes: 32 per
    observation (row, column and value read, one matrix entry gathered), and
    for the gradient 8 more per observation (scatter) plus 16 per matrix cell
    (zero fill and rescale of the dense output)."""
    n = loss.n
    m1, m2 = loss.shape
    return 40.0 * n + 16.0 * m1 * m2 if gradient else 32.0 * n


def _bindings(obj):
    """(module, attribute) pairs in transmc and numpy.linalg bound to obj."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "transmc" or mod_name.startswith("transmc.")
                               or mod_name.startswith("numpy.linalg")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                out.append((mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.records = []
        self.op = SETUP_OP
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> key -> value
        self.missing = []
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, self.op, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(len(self.records) - 1)
        return self.records[-1]

    def _exit(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.records[rec[PARENT]][CHILD] += rec[END] - rec[START]

    def count(self, key, value=1.0):
        self.counts[self.op][key] += value

    def span(self, name, fn, after=None):
        """fn wrapped so each call records a span, then runs after(args, result)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def run_op(self, index, fn):
        """Run one timed op (index >= 0) or the warm-up (WARMUP_OP) under an "op" span."""
        self.op = index
        rec = self._enter("op")
        try:
            return fn()
        finally:
            self._exit(rec)

    # -- hooks -----------------------------------------------------------

    def _after_loss(self, gradient):
        def after(args, result):
            loss = args[0]
            self.count("losses.obs", loss.n)
            self.count("losses.bytes", loss_bytes(loss, gradient))
        return after

    def _after_solve(self, args, result):
        trace = result[1]
        self.count("solver.iterations", trace.iterations)
        self.count("solver.unconverged", 0.0 if trace.converged else 1.0)

    def _after_read_frame(self, args, result):
        self.count("data_io.read_bytes", os.path.getsize(args[0]))

    def _after_select(self, args, result):
        report = result[0]
        self.count("selection.sources_kept", len(report.selected))

    # -- installation ----------------------------------------------------

    def _patch(self, obj, wrapper):
        for owner, attr in _bindings(obj):
            self._patches.append((owner, attr, obj))
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every boundary that exists, importing its module if needed."""
        import numpy.linalg

        self.missing = []

        hooks = {
            "data_io.read_frame": self._after_read_frame,
            "losses.value": self._after_loss(gradient=False),
            "losses.gradient": self._after_loss(gradient=True),
            "solver.lamm_solve": self._after_solve,
            "selection.s_trans_mc": self._after_select,
        }
        for name, mod_name, path in BOUNDARIES:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.span(name, fn, hooks.get(name))
            if outer:  # a method: replace it on its class
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                self._patch(fn, wrapper)

        svd = numpy.linalg.svd

        @functools.wraps(svd)
        def traced_svd(*args, **kwargs):
            compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            rec = self._enter(SVD if compute_uv else SVD_NOVEC)
            try:
                result = svd(*args, **kwargs)
            finally:
                self._exit(rec)
            if compute_uv:
                self.count("linalg.lapack_svd.flops", svd_flops(args[0].shape))
            return result

        self._patch(svd, traced_svd)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        """One CSV row per span: id, parent, op, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,parent,op,name,start,end\n")
            for i, r in enumerate(self.records):
                op = "setup" if r[OP] is SETUP_OP else r[OP]
                fh.write(f"{i},{r[PARENT]},{op},{r[NAME]},{r[START]:.9f},{r[END]:.9f}\n")


def _has_ancestor(records, rec, names):
    parent = rec[PARENT]
    while parent >= 0:
        if records[parent][NAME] in names:
            return True
        parent = records[parent][PARENT]
    return False


# Per-layer metrics: name -> (unit, boundaries it needs). Sums are per timed op.
LAYER_METRICS = {
    "simulation.generate_s": ("s", ("simulation.generate",)),
    "data_io.read_frame.calls": ("1/op", ("data_io.read_frame",)),
    "data_io.read_frame_s": ("s/op", ("data_io.read_frame",)),
    "data_io.read_bytes": ("B/op", ("data_io.read_frame",)),
    "data_io.holdout_split_s": ("s/op", ("data_io.holdout_split",)),
    "data_io.share": ("ratio", ("data_io.read_frame", "data_io.holdout_split")),
    "losses.value.calls": ("1/op", ("losses.value",)),
    "losses.value_s": ("s/op", ("losses.value",)),
    "losses.gradient.calls": ("1/op", ("losses.gradient",)),
    "losses.gradient_s": ("s/op", ("losses.gradient",)),
    "losses.obs_per_call": ("obs", ("losses.value", "losses.gradient")),
    "losses.bytes_computed": ("B/op", ("losses.value", "losses.gradient")),
    "losses.share": ("ratio", ("losses.value", "losses.gradient")),
    "linalg.lapack_svd.calls": ("1/op", ()),
    "linalg.lapack_svd_s": ("s/op", ()),
    "linalg.lapack_svd_novec.calls": ("1/op", ()),
    "linalg.lapack_svd_novec_s": ("s/op", ()),
    "linalg.lapack_svd.flops_computed": ("flop/op", ()),
    "linalg.lapack_svd.share": ("ratio", ()),
    "linalg.soft_threshold.calls": ("1/op", ("linalg.soft_threshold",)),
    "linalg.soft_threshold.self_s": ("s/op", ("linalg.soft_threshold",)),
    "solver.solves": ("1/op", ("solver.lamm_solve",)),
    "solver.iterations": ("1/op", ("solver.lamm_solve",)),
    "solver.prox_evals": ("1/op", ("solver.lamm_solve", "linalg.soft_threshold")),
    "solver.prox_accept_ratio": ("ratio", ("solver.lamm_solve", "linalg.soft_threshold")),
    "solver.unconverged_frac": ("ratio", ("solver.lamm_solve",)),
    "solver.lamm_solve_s": ("s/op", ("solver.lamm_solve",)),
    "solver.self_s": ("s/op", ("solver.lamm_solve",)),
    "estimators.fit_single.calls": ("1/op", ("estimators.fit_single",)),
    "estimators.pooled_fit_s": ("s/op", ("estimators.pooled_fit",)),
    "estimators.debias_fit_s": ("s/op", ("estimators.debias_fit",)),
    "selection.cv_s": ("s/op", ("selection.benchmark_loss",)),
    "selection.source_fits_s": ("s/op", ("selection.s_trans_mc", "selection.benchmark_loss",
                                         "estimators.fit_single")),
    "selection.transfer_s": ("s/op", ("selection.s_trans_mc", "estimators.trans_mc")),
    "selection.fits.share": ("ratio", ("selection.s_trans_mc", "selection.benchmark_loss",
                                       "estimators.fit_single")),
    "selection.sources_kept.mean": ("count", ("selection.s_trans_mc",)),
    "cli.evaluate.self_s": ("s/op", ("cli.evaluate",)),
}


def layer_metrics(tracer: Tracer, n_ops: int):
    """Per-layer metrics over the timed ops, and the names reported as absent."""
    records = tracer.records
    timed = [r for r in records if r[OP] is not None and r[OP] >= 0]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for r in timed:
        d = r[END] - r[START]
        calls[r[NAME]] += 1
        total[r[NAME]] += d
        self_s[r[NAME]] += d - r[CHILD]
    counts = defaultdict(float)
    for op, per_op in tracer.counts.items():
        if op is not None and op >= 0:
            for key, value in per_op.items():
                counts[key] += value

    source_fit_s = sum(r[END] - r[START] for r in timed
                       if r[NAME] == "estimators.fit_single"
                       and _has_ancestor(records, r, ("selection.s_trans_mc",))
                       and not _has_ancestor(records, r, ("selection.benchmark_loss",)))
    transfer_s = sum(r[END] - r[START] for r in timed
                     if r[NAME] == "estimators.trans_mc"
                     and _has_ancestor(records, r, ("selection.s_trans_mc",)))
    prox_evals = sum(1 for r in timed if r[NAME] == "linalg.soft_threshold"
                     and _has_ancestor(records, r, ("solver.lamm_solve",)))
    setup_generate_s = sum(r[END] - r[START] for r in records
                           if r[OP] is SETUP_OP and r[NAME] == "simulation.generate")
    op_s = total["op"]
    solves = calls["solver.lamm_solve"]
    loss_calls = calls["losses.value"] + calls["losses.gradient"]
    svd_s = total[SVD] + total[SVD_NOVEC]

    def ratio(a, b):
        return a / b if b else 0.0

    per_op = 1.0 / max(n_ops, 1)
    values = {
        "simulation.generate_s": setup_generate_s,
        "data_io.read_frame.calls": calls["data_io.read_frame"] * per_op,
        "data_io.read_frame_s": total["data_io.read_frame"] * per_op,
        "data_io.read_bytes": counts["data_io.read_bytes"] * per_op,
        "data_io.holdout_split_s": total["data_io.holdout_split"] * per_op,
        "data_io.share": ratio(total["data_io.read_frame"] + total["data_io.holdout_split"], op_s),
        "losses.value.calls": calls["losses.value"] * per_op,
        "losses.value_s": total["losses.value"] * per_op,
        "losses.gradient.calls": calls["losses.gradient"] * per_op,
        "losses.gradient_s": total["losses.gradient"] * per_op,
        "losses.obs_per_call": ratio(counts["losses.obs"], loss_calls),
        "losses.bytes_computed": counts["losses.bytes"] * per_op,
        "losses.share": ratio(total["losses.value"] + total["losses.gradient"], op_s),
        "linalg.lapack_svd.calls": calls[SVD] * per_op,
        "linalg.lapack_svd_s": total[SVD] * per_op,
        "linalg.lapack_svd_novec.calls": calls[SVD_NOVEC] * per_op,
        "linalg.lapack_svd_novec_s": total[SVD_NOVEC] * per_op,
        "linalg.lapack_svd.flops_computed": counts["linalg.lapack_svd.flops"] * per_op,
        "linalg.lapack_svd.share": ratio(svd_s, op_s),
        "linalg.soft_threshold.calls": calls["linalg.soft_threshold"] * per_op,
        "linalg.soft_threshold.self_s": self_s["linalg.soft_threshold"] * per_op,
        "solver.solves": solves * per_op,
        "solver.iterations": counts["solver.iterations"] * per_op,
        "solver.prox_evals": prox_evals * per_op,
        "solver.prox_accept_ratio": ratio(counts["solver.iterations"], prox_evals),
        "solver.unconverged_frac": ratio(counts["solver.unconverged"], solves),
        "solver.lamm_solve_s": total["solver.lamm_solve"] * per_op,
        "solver.self_s": self_s["solver.lamm_solve"] * per_op,
        "estimators.fit_single.calls": calls["estimators.fit_single"] * per_op,
        "estimators.pooled_fit_s": total["estimators.pooled_fit"] * per_op,
        "estimators.debias_fit_s": total["estimators.debias_fit"] * per_op,
        "selection.cv_s": total["selection.benchmark_loss"] * per_op,
        "selection.source_fits_s": source_fit_s * per_op,
        "selection.transfer_s": transfer_s * per_op,
        "selection.fits.share": ratio(total["selection.benchmark_loss"] + source_fit_s, op_s),
        "selection.sources_kept.mean": ratio(counts["selection.sources_kept"],
                                             calls["selection.s_trans_mc"]),
        "cli.evaluate.self_s": self_s["cli.evaluate"] * per_op,
    }
    missing = set(tracer.missing)
    absent = sorted(name for name, (_, needs) in LAYER_METRICS.items()
                    if missing.intersection(needs))
    for name in absent:
        values[name] = 0.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in LAYER_METRICS.items()}
    return metrics, absent
