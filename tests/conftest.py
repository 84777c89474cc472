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
