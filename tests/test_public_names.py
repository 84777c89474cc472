"""Every public top-level function, class and assigned name of src/transmc has
a reference elsewhere in src, and every dataclass field there is read as an
attribute in src: library code, constants and fields that only tests read do
not live there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "transmc"

# Public names kept without a reference in src, each with its reason.
ALLOWED = {
    # perfbench's tracer binds it (perfbench/tracing.py, BOUNDARIES), and its
    # self-test asserts that every bound name exists.
    "benchmark_loss",
}

# Dataclass fields, as (class, field), kept without an attribute read in src.
ALLOWED_FIELDS = set()


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


def _is_dataclass(cls) -> bool:
    """Whether a class statement is decorated with dataclass, called or not,
    by name or as an attribute."""
    for deco in cls.decorator_list:
        deco = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(src_dir) -> set[tuple[str, str]]:
    """(class, field) of each field of a dataclass in the modules of src_dir
    that no module there reads as an attribute (x.field)."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(src_dir).glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {(cls.name, stmt.target.id) for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read}


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


def test_every_dataclass_field_in_src_is_read_in_src():
    assert unread_dataclass_fields(SRC) == ALLOWED_FIELDS


def test_the_field_scan_counts_attribute_reads_of_dataclass_fields_only(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Called:\n    read: int\n    unread: int = 0\n\n"
        "@dataclass\nclass Bare:\n    stored: int\n    keyword: int\n\n"
        "@dataclasses.dataclass\nclass Dotted:\n    other_module: int\n\n"
        "class Plain:\n    annotated: int\n\n"
        "def f(c, b):\n    b.stored = c.read\n    return Bare(stored=1, keyword=2)\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text("def g(d):\n    return d.other_module\n", encoding="utf-8")
    assert unread_dataclass_fields(tmp_path) == {("Called", "unread"), ("Bare", "stored"),
                                                 ("Bare", "keyword")}
