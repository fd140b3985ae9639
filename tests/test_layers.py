"""The package's intra-module import graph, read from the source with `ast`.

The record format (`trace`), the machine description (`machine`) and the
branch unit stand alone, the caches know only the machine description,
nothing depends on the command line, and the graph has no cycle.  Importing
the command line loads no networking, mail or XML module, and each command loads
only the package modules it runs.  The package stays
within the seed's line count, and exports exactly the names the README's
table lists.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("module", ["trace", "machine", "branch"])
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


# each costs milliseconds and megabytes on every command, for nothing the
# commands do (xml.sax.saxutils, for one, loads urllib.request)
HEAVY_MODULES = ("urllib.request", "http", "email", "ssl", "socket", "xml")


def test_cli_imports_no_heavy_module():
    # -S keeps site-packages .pth hooks, which may import anything, out of it
    code = ("import json, sys; before = set(sys.modules); import sensim.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "sensim.cli" in loaded
    heavy = [m for m in loaded
             if any(m == h or m.startswith(h + ".") for h in HEAVY_MODULES)]
    assert heavy == []


def test_sensitivity_command_loads_no_process_pool_module(tmp_path):
    # the sweep forks its workers itself; a pool would cost its imports on
    # every command
    trace, config = tmp_path / "block.trace", tmp_path / "block.cfg"
    code = ("import json, sys; from sensim.cli import main; "
            f"main(['gen-kernel', 'portblock', '--out', {str(trace)!r}]); "
            f"main(['sensitivity', {str(trace)!r}, '--config', {str(config)!r}, "
            "'--workers', '2']); "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "p1                          3.37%  yes\n" in out  # the sweep ran
    loaded = json.loads(out.splitlines()[-1])
    assert "sensim.sensitivity" in loaded
    assert [m for m in loaded
            if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent")] == []


# the seed's size: the same model should never need more code than it had
SEED_LINES = 2129


def test_package_is_no_larger_than_the_seed():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines <= SEED_LINES


def test_exports_are_the_readme_table():
    import sensim

    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    # rows of the `| Module | Names |` table, one module's names per row
    rows = [line.split("|")[1:3] for line in readme.splitlines() if line.startswith("| `")]
    documented = {name.strip(" `"): module.strip(" `")
                  for module, cell in rows for name in cell.split(",")}
    assert len(documented) == 24
    assert sensim.__all__ == sorted(documented)
    for name, module in documented.items():  # each resolves, on first read, to its own object
        assert getattr(sensim, name) is getattr(importlib.import_module(f"sensim.{module}"), name)
    exported = {name for name, value in vars(sensim).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(documented)
    with pytest.raises(AttributeError, match="no attribute 'ConfigError'"):
        sensim.ConfigError  # noqa: B018


def _sensim_modules_after(code: str) -> set[str]:
    """The sensim submodules a fresh interpreter (-S: no site hooks) has
    loaded once it has run `code`."""
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {m.split(".")[1] for m in json.loads(out.splitlines()[-1]) if m.startswith("sensim.")}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # without a bytecode cache each module loaded is also compiled, on every command
    trace, config = str(tmp_path / "c.trace"), str(tmp_path / "c.cfg")
    assert _sensim_modules_after("import sensim") == set()
    assert _sensim_modules_after("from sensim import write_trace") == {"trace"}
    main = "from sensim.cli import main; "
    gen = _sensim_modules_after(main + f"main(['gen-kernel', 'chain', '--out', {trace!r}])")
    assert gen >= {"cli", "corpus", "machine", "trace"}
    assert gen.isdisjoint({"engine", "report", "sensitivity", "caches", "branch"})
    sim = _sensim_modules_after(main + f"main(['simulate', {trace!r}, '--config', {config!r}])")
    assert sim >= {"engine", "report"} and sim.isdisjoint({"sensitivity", "corpus"})
    sens = _sensim_modules_after(main + f"main(['sensitivity', {trace!r}, '--config', {config!r}])")
    assert "sensitivity" in sens and "corpus" not in sens  # only gen-kernel checks kernel names
