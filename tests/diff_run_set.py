"""Report how far each output of the run set (_run_set.py) moves between a
revision and the working tree.

    PYTHONPATH=src python tests/diff_run_set.py [REV]      (REV defaults to HEAD)

Side 1 is REV, extracted with `git archive REV | tar -x` into a temporary
directory (the repository's .git is not touched); side 2 is the working
tree. Each side runs every run of RUNS in a subprocess with that side's src
and tests first on the path, and keeps its workspaces for inspection.

For each written file that differs, the script prints the largest absolute
and relative change of any number in it and each changed line that is not
just a change of numbers. Stdout, stderr and the log are kept only as
digests, so for them it prints which ones changed. It stores no values.
"""

import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from _run_set import RUNS

ROOT = Path(__file__).resolve().parent.parent

# Runs one run of the run set in the workspace argv[2] and writes its digests
# to the file argv[3].
_SIDE = """import json, sys
from pathlib import Path
from _run_set import run_set
Path(sys.argv[3]).write_text(json.dumps(run_set(Path(sys.argv[2]), sys.argv[1])))
"""

# Cells of a line: the separators of the CSV, sample and report formats.
_SEPARATORS = re.compile(r"([\s,;=:()\[\]]+)")


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _split(line: str):
    """(the line with every number replaced by '#', its numbers)."""
    parts = _SEPARATORS.split(line)
    numbers = [_number(p) if i % 2 == 0 else None for i, p in enumerate(parts)]
    skeleton = "".join("#" if x is not None else p for p, x in zip(parts, numbers))
    return skeleton, [x for x in numbers if x is not None]


def _change(x: float, y: float):
    """(absolute, relative) change from x to y; a nan on one side only is infinite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf, math.inf
    return abs(y - x), abs(y - x) / max(abs(x), abs(y))


def compare_files(old: Path, new: Path) -> list[str]:
    """Report lines for one differing file: the largest number moves and every
    changed line that is not just a change of numbers."""
    old_lines = old.read_text(errors="replace").splitlines()
    new_lines = new.read_text(errors="replace").splitlines()
    old_split = [_split(s) for s in old_lines]
    new_split = [_split(s) for s in new_lines]
    matcher = difflib.SequenceMatcher(None, [s for s, _ in old_split],
                                      [s for s, _ in new_split], autojunk=False)
    moved, abs_max, rel_max, text = 0, 0.0, 0.0, []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            for i, j in zip(range(i1, i2), range(j1, j2)):
                changes = [_change(x, y) for x, y in zip(old_split[i][1], new_split[j][1])]
                if any(c != (0.0, 0.0) for c in changes):
                    moved += sum(c != (0.0, 0.0) for c in changes)
                    abs_max = max(abs_max, *(a for a, _ in changes))
                    rel_max = max(rel_max, *(r for _, r in changes))
                elif old_lines[i] != new_lines[j]:  # same numbers, written differently
                    text += [f"    - {old_lines[i]}", f"    + {new_lines[j]}"]
        else:
            text += [f"    - {s}" for s in old_lines[i1:i2]]
            text += [f"    + {s}" for s in new_lines[j1:j2]]
    lines = []
    if moved:
        lines.append(f"  {moved} number(s) moved: largest absolute change {abs_max:.3g}, "
                     f"largest relative change {rel_max:.3g}")
    if text:
        lines.append("  changed lines:")
        lines += text
    return lines or ["  bytes differ, but no line does"]


def _run_side(tree: Path, workspace: Path, run: str) -> dict:
    """The digests of run, made in workspace by tree's src and tests."""
    workspace.mkdir(parents=True)
    digests = workspace.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
    subprocess.run([sys.executable, "-c", _SIDE, run, str(workspace), str(digests)],
                   env=env, check=True)
    return json.loads(digests.read_text())


def report(rev: str, kept: Path) -> list[str]:
    """The report lines of REV against the working tree; the extracted tree and
    both sides' workspaces are kept under kept."""
    tree = kept / "rev"
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    lines = []
    for index, run in enumerate(RUNS):
        old_ws, new_ws = kept / "old" / f"run-{index}", kept / "new" / f"run-{index}"
        old, new = _run_side(tree, old_ws, run), _run_side(ROOT, new_ws, run)
        for key in sorted({*old, *new}):
            if old.get(key) == new.get(key):
                continue
            if key.startswith("["):  # "[out] exit", or the digest of a stream
                what = (f"exit {old.get(key)} -> {new.get(key)}" if key.endswith(" exit")
                        else "changed")
                lines.append(f"{run}: {key} {what}")
            elif key not in old or key not in new:
                lines.append(f"{run}: {key} only in {rev if key in old else 'the working tree'}")
            else:
                lines.append(f"{run}: {key}")
                lines += compare_files(old_ws / key, new_ws / key)
    return lines


def main(argv) -> int:
    rev = argv[0] if argv else "HEAD"
    kept = Path(tempfile.mkdtemp(prefix="diff_run_set-"))
    lines = report(rev, kept)
    print("\n".join(lines) or f"no output changed between {rev} and the working tree")
    print(f"workspaces kept in {kept}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
