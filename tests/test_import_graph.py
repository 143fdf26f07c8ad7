"""The package's modules import one another without a cycle, only errors
imports logging, and only errors and phenotype import csv."""

import ast
from pathlib import Path

import normcharts

PACKAGE = Path(normcharts.__file__).parent


def _imports(path: Path) -> set[str]:
    """The package modules one source file imports by relative import, at any
    depth (function bodies included)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:  # from .a import x
                found.add(node.module.split(".")[0])
    return found


def import_graph() -> dict[str, set[str]]:
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {name: _imports(path) & modules.keys() - {name} for name, path in modules.items()}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that ends where it starts, or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for succ in sorted(graph[node]):
            if cycle := visit(succ):
                return cycle
        path.pop()
        done.add(node)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_find_cycle_sees_a_function_level_import(tmp_path):
    (tmp_path / "a.py").write_text("from . import b\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import x\n")
    graph = {path.stem: _imports(path) for path in tmp_path.glob("*.py")}
    assert find_cycle(graph) in (["a", "b", "a"], ["b", "a", "b"])
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_module_graph_has_no_cycle():
    graph = import_graph()
    assert {"cli", "experiments", "growthchart", "phenotype", "synthcorpus"} <= graph.keys()
    assert "phenotype" in graph["growthchart"]  # the walk sees module-level imports
    assert find_cycle(graph) is None


def _imports_module(path: Path, module: str) -> bool:
    """Whether a source file imports the top-level `module` at any depth (function bodies included)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == module:
            return True
    return False


def _modules_importing(module: str) -> list[str]:
    return sorted(path.name for path in PACKAGE.glob("*.py") if _imports_module(path, module))


def test_imports_logging_sees_every_spelling(tmp_path):
    for text in ("import logging\n", "def f():\n    import logging.handlers\n",
                 "from logging import getLogger\n", "import os, logging as log\n"):
        (tmp_path / "a.py").write_text(text)
        assert _imports_module(tmp_path / "a.py", "logging"), text
    (tmp_path / "a.py").write_text("from .logging import x\nimport logginghelpers\n")
    assert not _imports_module(tmp_path / "a.py", "logging")


def test_only_errors_imports_logging():
    """Every warning goes through errors.warn, so only errors.py imports logging."""
    assert _modules_importing("logging") == ["errors.py"]


def test_only_errors_and_phenotype_import_csv():
    """errors.csv_rows reads and errors.write_rows and write_number_csv write
    every CSV; phenotype reads only the header it hands to np.loadtxt."""
    assert _modules_importing("csv") == ["errors.py", "phenotype.py"]
