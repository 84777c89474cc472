import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def pilot_calls(monkeypatch):
    """The noise scales returned by each estimate_noise_scale call, in call
    order; its one caller in transmc, cli._run_cases, calls it through the
    estimators module."""
    from transmc import estimators

    pilot = estimators.estimate_noise_scale
    calls = []

    def counting(*args, **kwargs):
        calls.append(pilot(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(estimators, "estimate_noise_scale", counting)
    return calls


@pytest.fixture
def thresholds(monkeypatch):
    """The threshold of each soft_threshold call that lamm_solve makes, in
    call order: lam / phi of every proximal evaluation."""
    from transmc import solver

    soft_threshold = solver.soft_threshold
    taus = []

    def recording(B, tau):
        taus.append(tau)
        return soft_threshold(B, tau)

    monkeypatch.setattr(solver, "soft_threshold", recording)
    return taus


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(k) makes map_in_workers run min(n, k) processes for n items
    outside a fan-out and one inside a fan-out, as the real worker count does,
    whatever the cores and BLAS settings."""
    from transmc import fanout

    def set_workers(k):
        monkeypatch.setattr(fanout, "_worker_count",
                            lambda n: 1 if fanout._in_fan_out else min(n, k))

    return set_workers
