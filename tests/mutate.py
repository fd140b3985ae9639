"""Mutation testing with the standard library's `ast`: which small faults in a
module do its tests miss?

    python tests/mutate.py src/sensim/branch.py tests/test_branch.py \
        tests/test_acceptance.py::test_criterion_8_branch_warmup_and_disabled_identity

Each mutant changes one site of the module: a comparison flipped to its
negation, `+` and `-` swapped, an integer constant shifted by one (up, and down
unless it is 0), a simple statement dropped, or `and` and `or` swapped.  Every
mutant runs the given tests in a copy of the repository's `src`, `tests` and
README, made in a temporary directory (`TMPDIR` moves it), never in the
checkout; a mutant is killed when the tests fail or time out, or when the
process launched exits before its own test session ends (a mutant can send it
down a forked child's path to `os._exit(0)`, while its forked copy runs the
session on).
Each run has its own process group, killed once the run ends, so no copy
outlives it.  A survivor that no test can kill
is listed in EQUIVALENT with its reason; the script prints the killed/total
count and exits 1 if any other mutant survives.  The tests are not part of the
tier-1 suite, since the file is not named `test_*`.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # mutants tested at once, each in its own copy

_NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
            ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}
_SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return, ast.Delete,
           ast.Raise, ast.Assert, ast.Break, ast.Continue)

_ROOT_BIT = "bit 0, the root, is on every way's path, so each touch rewrites it"
_ABOVE_PARAMETERS = ("masks only gain bits above the parameters', and `avoided` reads only "
                     "the parameters' bits")
_BATCH_SIZE = ("the batch size sets only how far the parser runs ahead of the build, never "
               "what is built or which error is reported")
_WRITE_BLOCK = "the block size sets only how many writes carry the report's bytes"
# module -> {mutant id (as printed): why no test can tell it from the original}
EQUIVALENT: dict[str, dict[str, str]] = {
    "src/sensim/branch.py": {},
    "src/sensim/caches.py": {
        "__init__: `self.plru = [0] * self.n_sets` -> `self.plru = [1] * self.n_sets`":
            "ways fill in order, so every tree bit is rewritten before the first victim "
            "is picked",
        "__init__: `self.touch = [(plru_touch(-1, self.ways, w), plru_touch(0, self.ways, w))`"
        " -> `self.touch = [(plru_touch(-2, self.ways, w), plru_touch(0, self.ways, w))`":
            _ROOT_BIT,
        "__init__: `self.touch = [(plru_touch(-1, self.ways, w), plru_touch(0, self.ways, w))`"
        " -> `self.touch = [(plru_touch(-1, self.ways, w), plru_touch(1, self.ways, w))`":
            _ROOT_BIT,
    },
    "src/sensim/cli.py": {
        "<module>: `_BATCH = 256  # records parsed before the run binds them: alternating per "
        "record costs more` -> `_BATCH = 257  # records parsed before the run binds them: "
        "alternating per record costs more`": _BATCH_SIZE,
        "<module>: `_BATCH = 256  # records parsed before the run binds them: alternating per "
        "record costs more` -> `_BATCH = 255  # records parsed before the run binds them: "
        "alternating per record costs more`": _BATCH_SIZE,
        "_load_inputs: `read, at = [0], [0]` -> `read, at = [1], [0]`":
            "`read` is set by the first line parse_trace pulls, before any event is tagged",
        "_load_inputs: `read, at = [0], [0]` -> `read, at = [0], [1]`":
            "`at` is set before the first event is yielded, and only a built event can fail "
            "to bind",
        "_cmd_simulate: `sys.stdout.writelines(iter(lambda: \"\".join(islice(pieces, 512)), "
        "\"\"))` -> `sys.stdout.writelines(iter(lambda: \"\".join(islice(pieces, 513)), \"\"))`":
            _WRITE_BLOCK,
        "_cmd_simulate: `sys.stdout.writelines(iter(lambda: \"\".join(islice(pieces, 512)), "
        "\"\"))` -> `sys.stdout.writelines(iter(lambda: \"\".join(islice(pieces, 511)), \"\"))`":
            _WRITE_BLOCK,
    },
    "src/sensim/engine.py": {
        "access_plan: `cuts.update(lines[1:], (addr, addr + size))`"
        " -> `cuts.update(lines[0:], (addr, addr + size))`":
            "the first line's start lies inside an access only where the access crosses "
            "it or starts there, and either already makes it a cut",
        "build_schedule: `entry = pcs[pc] = (label, own, names, [0] * (len(columns) + 1))`"
        " -> `entry = pcs[pc] = (label, own, names, [0] * (len(columns) + 2))`":
            "the extra slot stays 0 and lies past every column, so zip drops it and the "
            "row's key only gains a constant 0",
        "run_schedule: `every = ((1 << len(params)) - 1) & ~(1 << n_res)`"
        " -> `every = ((2 << len(params)) - 1) & ~(1 << n_res)`": _ABOVE_PARAMETERS,
        "run_schedule: `every = ((1 << len(params)) - 1) & ~(1 << n_res)`"
        " -> `every = ((0 << len(params)) - 1) & ~(1 << n_res)`": _ABOVE_PARAMETERS,
    },
    "src/sensim/report.py": {
        "<module>: `Row = tuple[PcStats, dict[str, float]]  # a pc's stats and its share of each "
        "column, in %` -> `pass  # a pc's stats and its share of each column, in %`":
            "`Row` appears only in annotations, which `from __future__ import annotations` "
            "never evaluates",
        "<module>: `+ [f\"#{255 - round(255 * i / 8):02x}0000\" for i in range(1, 9)])`"
        " -> `+ [f\"#{255 - round(255 * i / 8):02x}0000\" for i in range(1, 10)])`":
            "a cell's level is at most 15, so a 17th color is never read",
    },
    "src/sensim/sensitivity.py": {
        "_run_points: `totals = memoryview(mmap.mmap(-1, 8 * (len(configs) or 1))).cast(\"d\")`"
        " -> `totals = memoryview(mmap.mmap(-1, 8 * (len(configs) or 2))).cast(\"d\")`":
            "with no point to run, the map is only sliced to an empty list, so any size "
            "that mmap accepts does",
        "_run_points: `os._exit(1)` -> `os._exit(2)`":
            "the parent reruns the share of any child whose status is not 0",
    },
    "src/sensim/trace.py": {},
}


def _mutations(node: ast.AST):
    """The replacement node of each mutation of `node` itself."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        yield ast.Compare(node.left, [_NEGATED[type(node.ops[0])]()], node.comparators)
    elif isinstance(node, ast.BinOp) and type(node.op) in _SWAPPED:
        yield ast.BinOp(node.left, _SWAPPED[type(node.op)](), node.right)
    elif isinstance(node, ast.BoolOp):
        yield ast.BoolOp(_SWAPPED[type(node.op)](), node.values)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)
        if node.value:
            yield ast.Constant(node.value - 1)
    elif isinstance(node, _SIMPLE) and not _is_docstring(node):
        yield ast.Pass()


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _sites(tree: ast.Module):
    """(enclosing function, parent, field, index in the field's list or None,
    node) of every node, in source order.  Annotations are skipped: mutating
    one changes no behaviour."""
    def walk(node, function):
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            children = value if isinstance(value, list) else [value]
            for index, child in enumerate(children):
                if isinstance(child, ast.AST):
                    yield function, node, field, index if isinstance(value, list) else None, child
                    named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
                    yield from walk(child, child.name if named else function)
    yield from walk(tree, "<module>")


def mutants(source: str):
    """(id, mutated source) for every mutant of a module's source."""
    tree = ast.parse(source)
    lines = source.encode("utf-8").splitlines()
    seen: dict[str, int] = {}
    for position, (function, parent, field, index, node) in enumerate(_sites(tree)):
        for replacement in _mutations(node):
            after = ast.unparse(ast.fix_missing_locations(replacement))
            if node.lineno == node.end_lineno:  # the line, with the mutation in place
                line = lines[node.lineno - 1]
                before = line.decode("utf-8").strip()
                after = (line[:node.col_offset].decode("utf-8") + after
                         + line[node.end_col_offset:].decode("utf-8")).strip()
            else:
                before = " ".join(ast.get_source_segment(source, node).split())
            key = f"{function}: `{before}` -> `{after}`"
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key += f" (#{seen[key]})"
            mutated = copy.deepcopy(tree)
            _replace(mutated, position, replacement)
            yield key, ast.unparse(ast.fix_missing_locations(mutated))


def _replace(tree: ast.Module, position: int, replacement: ast.AST) -> None:
    for at, (_, parent, field, index, _node) in enumerate(_sites(tree)):
        if at == position:
            if index is None:
                setattr(parent, field, replacement)
            else:
                getattr(parent, field)[index] = replacement
            return


def _copy_repository(workdir: Path) -> Path:
    copy_root = Path(tempfile.mkdtemp(prefix="mutant-", dir=workdir))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy_root / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    for name in ("pyproject.toml", "README.md"):  # test_layers reads the README's table
        shutil.copy(ROOT / name, copy_root)
    return copy_root


def pytest_sessionfinish(session, exitstatus):
    """Run by each test run, which loads this file as its plugin `mutate`:
    a process whose session passed appends its pid to `MUTATE_PASSED`."""
    if exitstatus == 0:
        with open(os.environ["MUTATE_PASSED"], "a", encoding="utf-8") as passed:
            passed.write(f"{os.getpid()}\n")


def _run_tests(copy_root: Path, tests: list[str], timeout: float) -> bool:
    """True if the tests pass in the copy, in the process launched; a timeout
    counts as a failure."""
    passed = copy_root / "passed"
    passed.unlink(missing_ok=True)
    # no bytecode cache: two mutants of one size written within the same second
    # would otherwise reuse the first one's cached module
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", MUTATE_PASSED=str(passed),
               PYTHONPATH=os.pathsep.join([str(copy_root / "src"), str(copy_root / "tests")]))
    run = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                            "-p", "mutate", *tests],
                           cwd=copy_root, env=env, start_new_session=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        returncode = run.wait(timeout)
    except subprocess.TimeoutExpired:
        return False
    finally:
        try:  # the run's group: it and any forked copy of it still running
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
    return (returncode == 0 and passed.exists()
            and str(run.pid) in passed.read_text(encoding="utf-8").split())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module's path in the repository, "
                                           "e.g. src/sensim/branch.py")
    parser.add_argument("tests", nargs="+",
                        help="test files or node ids, relative to the repository")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text(encoding="utf-8")
    equivalent = EQUIVALENT.get(args.module, {})
    workdir = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        free: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for _ in range(JOBS):
            free.put(_copy_repository(workdir))
        baseline = free.get()
        # the baseline runs the module as the mutants print it, comments gone
        (baseline / args.module).write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        started = time.perf_counter()
        if not _run_tests(baseline, args.tests, timeout=600):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - started) + 10
        free.put(baseline)

        def run(item):
            key, mutated = item
            copy_root = free.get()
            try:
                (copy_root / args.module).write_text(mutated, encoding="utf-8")
                return key, not _run_tests(copy_root, args.tests, timeout)
            finally:
                free.put(copy_root)

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(run, list(mutants(source))))
    finally:
        shutil.rmtree(workdir)

    survivors = [key for key, killed in results if not killed]
    unexplained = [key for key in survivors if key not in equivalent]
    for key in survivors:
        note = equivalent.get(key)
        print(f"survived: {key}" + (f"  [equivalent: {note}]" if note else ""))
    for key in set(equivalent) - set(survivors):
        print(f"listed as equivalent but killed or gone: {key}")
    print(f"{args.module}: {len(results) - len(survivors)}/{len(results)} killed, "
          f"{len(survivors) - len(unexplained)} equivalent, {len(unexplained)} unexplained")
    return 1 if unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
