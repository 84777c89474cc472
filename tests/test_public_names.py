"""Every public top-level function and class of src/transmc has a reference
elsewhere in src: library code that only tests call does not live there."""

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


def unreferenced_public_names(src_dir) -> set[str]:
    """The public top-level functions and classes of the modules in src_dir
    that no top-level statement other than their own definition refers to."""
    statements = [stmt for path in sorted(Path(src_dir).glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [(stmt, _referenced(stmt)) for stmt in statements]
    return {stmt.name for stmt in statements
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not any(stmt.name in names for other, names in refs if other is not stmt)}


def test_every_public_name_in_src_has_a_reference_in_src():
    assert unreferenced_public_names(SRC) == ALLOWED


def test_the_scan_counts_names_attributes_and_imports_but_not_self_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        "def called():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def imported():\n    pass\n\n"
        "class ByAttribute:\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "x = called()\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import a\nfrom a import imported\n\ny = a.ByAttribute\n", encoding="utf-8")
    assert unreferenced_public_names(tmp_path) == {"recursive"}
