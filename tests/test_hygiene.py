"""Source hygiene: every module reads each name it imports.  An import
nothing reads is left over from code that was deleted or moved."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "abwscl").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names the source imports and never reads; a name listed in
    `__all__` counts as read, and `__future__` features are not names."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    assert unused_imports("import os\nfrom a.b import c as d, e\ne()\n") == ["d", "os"]
    assert unused_imports("__all__ = ['x']\nfrom m import x\n") == []
    unused = {}
    for path in MODULES:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}


SOURCES = sorted((ROOT / "src" / "abwscl").glob("*.py"))


def private_definitions(tree):
    """Module-level `_name` functions, classes and assigned constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            }
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(tree):
    """Names the tree reads: as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def test_every_private_helper_is_read():
    """A helper nothing reads is left over from code that was folded
    into another; the package's own modules are the only readers."""
    sample = ast.parse("def _f(): pass\nclass _C: pass\n_K, _L = 1, 2\n_M: int = 3\n_K\nx._f\n")
    assert private_definitions(sample) - names_read(sample) == {"_C", "_L", "_M"}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set().union(*(names_read(t) for t in trees.values()))
    unread = {
        name: sorted(private_definitions(tree) - read)
        for name, tree in trees.items()
        if private_definitions(tree) - read
    }
    assert unread == {}
