import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def pilot_calls(monkeypatch):
    """The noise scales returned by each estimate_noise_scale call, in call
    order, counted through every transmc module that binds the name."""
    from transmc import cli, estimators, selection

    pilot = estimators.estimate_noise_scale
    calls = []

    def counting(*args, **kwargs):
        calls.append(pilot(*args, **kwargs))
        return calls[-1]

    for module in (estimators, selection, cli):
        if hasattr(module, "estimate_noise_scale"):
            monkeypatch.setattr(module, "estimate_noise_scale", counting)
    return calls


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
