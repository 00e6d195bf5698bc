"""The names the benchmark harness under bench/ imports or patches resolve.

bench/test_bench.py runs the harness end to end and is not part of this
suite, so a refactor of the package could break the harness unseen. These
tests read bench/*.py with `ast` (without importing or changing them) and
check every name they take from `gridrates`.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"), filename=name)


def _gridrates_imports():
    """(file, module, name or None) for every import of gridrates in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gridrates":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "gridrates"]
    return found


def _literal(tree: ast.Module, name: str):
    """The literal value assigned to a module-level name."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return ast.literal_eval(value)


def test_bench_imports_gridrates_somewhere():
    files = {file for file, _, _ in _gridrates_imports()}
    assert {"checks.py", "run.py"} <= files


@pytest.mark.parametrize("file, module, name", _gridrates_imports())
def test_bench_import_resolves(file, module, name):
    owner = importlib.import_module(module)
    if name is not None:
        assert hasattr(owner, name), f"{file}: from {module} import {name}"


@pytest.mark.parametrize("span, module, cls, attr", _literal(_tree("tracer.py"), "EXTRA_TARGETS"))
def test_bench_tracer_extra_target_resolves(span, module, cls, attr):
    # the tracer patches vars(owner)[attr]: the attribute must be the owner's own
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in vars(owner), f"{span}: {module}.{cls}.{attr}"


@pytest.mark.parametrize("layer", _literal(_tree("tracer.py"), "LAYERS"))
def test_bench_tracer_layer_imports(layer):
    importlib.import_module(f"gridrates.{layer}")
