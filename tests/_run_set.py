"""The byte-identity run set: every transmc command, run in-process in a fresh
workspace with relative paths, reduced to SHA-256 digests.

run_set digests each file the commands write and each command's exit code,
stdout, stderr and records on the transmc logger. test_run_set.py compares
them against DIGESTS; make_run_set_digests.py rewrites DIGESTS. A change that
alters outputs on purpose regenerates the file and names the outputs that
changed.
"""

import contextlib
import hashlib
import io
import logging
import os
from pathlib import Path

import numpy as np

from test_cli import TINY_SCENARIO  # 12x8 with two sources
from transmc import cli, fanout

DIGESTS = Path(__file__).with_name("run_set_digests.json")

# Each run: its scenario options and the worker count of every fan-out.
RUNS = {
    "paper-5.2-small, 1 worker": (["--preset", "paper-5.2-small"], 1),
    "tiny, 2 workers": (["--config", "tiny.cfg"], 2),
}


def versions() -> dict:
    """The numpy version and the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(f"{record.levelname}: {record.getMessage()}\n")


@contextlib.contextmanager
def _workspace(path: Path, workers: int):
    """path as the working directory and workspace root, with every fan-out
    outside another one running min(n, workers) processes for n items."""
    cwd, root = os.getcwd(), os.environ.pop("TRANSMC_WORKSPACE", None)
    count = fanout._worker_count
    os.chdir(path)
    fanout._worker_count = lambda n: 1 if fanout._in_fan_out else min(n, workers)
    try:
        yield
    finally:
        fanout._worker_count = count
        os.chdir(cwd)
        if root is not None:
            os.environ["TRANSMC_WORKSPACE"] = root


def _command(argv, digests: dict):
    """Run argv, recording its exit code and the digests of its output under
    its --out directory's name."""
    out, err, records = io.StringIO(), io.StringIO(), _Records()
    log = logging.getLogger("transmc")
    level = log.level
    log.addHandler(records)
    log.setLevel(logging.WARNING)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        log.removeHandler(records)
        log.setLevel(level)
    name = argv[argv.index("--out") + 1]
    digests[f"[{name}] exit"] = str(code)
    for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                         ("log", "".join(records.lines))):
        digests[f"[{name}] {stream}"] = _digest(text)


def run_set(workspace: Path, run: str) -> dict:
    """The digests of run, one of RUNS, made in the empty directory workspace:
    simulate, fit, transfer and select on its scenario, evaluate with all
    three methods on tec-synthetic-tiny with and without noise_sd (so that
    the second runs the noise pilots), and benchmark with one replicate."""
    scenario, workers = RUNS[run]
    digests = {}
    with _workspace(workspace, workers):
        Path("tiny.cfg").write_text(TINY_SCENARIO)
        _command(["simulate", *scenario, "--out", "sim"], digests)
        sources = ",".join(f"sim/{p.name}" for p in sorted(Path("sim").glob("source_*.samples")))
        target = ["--target", "sim/target.samples", "--sources", sources]
        # 20 iterations leave fits unconverged, so that their warnings are pinned too.
        _command(["fit", "--data", "sim/target.samples", "--max-iters", "20", "--out", "fit"],
                 digests)
        _command(["transfer", *target, "--out", "transfer"], digests)
        _command(["select", *target, "--epsilon0", "1.25", "--out", "select"], digests)

        _command(["simulate", "--preset", "tec-synthetic-tiny", "--out", "tec"], digests)
        known = Path("tec/eval.cfg").read_text().replace(
            "methods: single,transmc", "methods: single,transmc,s-transmc")
        Path("known.cfg").write_text(known)
        Path("pilot.cfg").write_text("".join(line for line in known.splitlines(True)
                                             if not line.startswith("noise_sd:")))
        for name in ("known", "pilot"):
            _command(["evaluate", "--config", f"{name}.cfg", "--max-iters", "20",
                      "--out", f"evaluate-{name}"], digests)

        _command(["benchmark", *scenario, "--reps", "1", "--out", "benchmark"], digests)
        for path in sorted(Path(".").rglob("*")):
            if path.is_file():
                digests[path.as_posix()] = _digest(path.read_bytes())
    return digests


def differing(recorded: dict, digests: dict) -> list:
    """Every output whose digest differs between recorded and digests, or
    that only one of them has."""
    return [key for key in sorted({*recorded, *digests})
            if recorded.get(key) != digests.get(key)]
