"""Every output of the run set (_run_set.py) matches its committed digest, at
one worker and at two: a one-ulp change to any written number fails here."""

import json

import pytest

from _run_set import DIGESTS, RUNS, differing, run_set, versions


@pytest.mark.parametrize("run", list(RUNS))
def test_run_set_outputs_match_their_committed_digests(tmp_path, run):
    recorded = json.loads(DIGESTS.read_text())
    differ = differing(recorded["runs"][run], run_set(tmp_path, run))
    made, here = (f"numpy {v['numpy']} with {v['blas']}" for v in (recorded, versions()))
    assert not differ, (f"{run}: these outputs differ from {DIGESTS.name} (made with {made}; "
                        f"this run: {here}): {', '.join(differ)}")
