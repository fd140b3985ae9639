"""The package's intra-module import graph, read from the source with `ast`.

The record format (`trace`) and the branch unit stand alone, the caches know
only the machine description, nothing depends on the command line, and the
graph has no cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sensim"


def _sensim_imports(path: Path) -> set[str]:
    """Names of the sensim modules one source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "sensim" and len(parts) > 1:
                    found.add(parts[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sensim" and len(parts) > 1:
                    found.add(parts[1])
    return found


GRAPH = {path.stem: _sensim_imports(path) for path in PACKAGE.glob("*.py")}


def test_graph_is_read():
    assert {"trace", "branch", "caches", "engine", "cli"} <= set(GRAPH)
    assert GRAPH["engine"] >= {"trace", "caches", "branch", "machine"}


@pytest.mark.parametrize("module", ["trace", "branch"])
def test_standalone_modules_import_no_sensim_module(module):
    assert GRAPH[module] == set()


def test_caches_import_only_the_machine():
    assert GRAPH["caches"] == {"machine"}


def test_nothing_imports_the_cli():
    assert [m for m, deps in GRAPH.items() if "cli" in deps] == []


def test_import_graph_is_acyclic():
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, " -> ".join([*path, module])
        if module in done or module not in GRAPH:
            return
        for dep in sorted(GRAPH[module]):
            visit(dep, [*path, module])
        done.add(module)

    for module in sorted(GRAPH):
        visit(module, [])
