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
