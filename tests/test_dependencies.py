"""numpy is the package's only runtime dependency outside the standard library."""

import ast
import sys
from pathlib import Path

import gridrates

_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gridrates"}


def test_every_import_is_stdlib_numpy_or_the_package():
    sources = sorted(Path(gridrates.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue   # a relative import is the package itself
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in _ALLOWED]
    assert outside == []
