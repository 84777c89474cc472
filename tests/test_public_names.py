"""Every public top-level function, class and assigned name of src/transmc has
a reference elsewhere in src: library code and constants that only tests read
do not live there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "transmc"

# Public names kept without a reference in src, each with its reason.
ALLOWED = {
    # perfbench's tracer binds it (perfbench/tracing.py, BOUNDARIES), and its
    # self-test asserts that every bound name exists.
    "benchmark_loss",
}


def _referenced(node) -> set[str]:
    """The names node refers to: loaded or stored names, attributes and
    imported names (each part of a dotted import)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
    return out


def _defined(stmt) -> set[str]:
    """The names a top-level statement defines: a function's or class's name,
    or the names an assignment stores to."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}


def unreferenced_public_names(src_dir) -> set[str]:
    """The public names that top-level statements of the modules in src_dir
    define and no other top-level statement refers to."""
    statements = [stmt for path in sorted(Path(src_dir).glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [(stmt, _referenced(stmt)) for stmt in statements]
    return {name for stmt in statements for name in _defined(stmt)
            if not name.startswith("_")
            and not any(name in names for other, names in refs if other is not stmt)}


def test_every_public_name_in_src_has_a_reference_in_src():
    assert unreferenced_public_names(SRC) == ALLOWED


def test_the_scan_counts_names_attributes_and_imports_but_not_self_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        "def called():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def imported():\n    pass\n\n"
        "class ByAttribute:\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "x = called()\n"
        "SQUARES = [i * i for i in range(3)]\n"
        "LIMIT: int = 3\n"
        "LEFT, RIGHT = 1, 2\n"
        "_HIDDEN = 4\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import a\nfrom a import imported\n\ny = a.ByAttribute + LEFT\n"
        "def f():\n    return x + a.LIMIT\n", encoding="utf-8")
    assert unreferenced_public_names(tmp_path) == {"recursive", "SQUARES", "RIGHT", "y", "f"}
