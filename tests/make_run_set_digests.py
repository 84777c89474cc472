"""Rewrite run_set_digests.json from this checkout and list the outputs whose
digests changed.

    PYTHONPATH=src python tests/make_run_set_digests.py

A change that alters an output on purpose runs this and names the changed
outputs in CHANGES.md; test_run_set.py then checks the new digests.
"""

import json
import sys
import tempfile
from pathlib import Path

from _run_set import DIGESTS, RUNS, differing, run_set, versions


def main() -> int:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"runs": {}}
    runs = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as workspace:
            runs[run] = run_set(Path(workspace), run)
    DIGESTS.write_text(json.dumps({**versions(), "runs": runs}, indent=1) + "\n")
    changed = [f"{run}: {key}" for run in runs
               for key in differing(old["runs"].get(run, {}), runs[run])]
    print("\n".join(changed) or "no output changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
