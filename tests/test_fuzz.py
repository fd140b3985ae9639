"""Fuzz the command line's input boundary: a valid config and a short trace,
mutated with JSON-like values, may only make a command exit 0, or exit 1 with
a `sensim: error:` line.  Any other exception escaping `main` fails the test,
and so does a JSON report holding NaN or Infinity, or a mutated config that
loads but does not load equal from what `dump_config` writes of it.

The strategies draw small integers plus fixed extremes, all of which are
either small or over a config limit, so no example builds a large cache or
branch table.  Runs are derandomized, so the suite is reproducible.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensim.cli import main
from sensim.machine import ConfigError, dump_config, load_config

CONFIG = {
    "resources": [{"name": "FE", "gap": 0.25}, {"name": "p0", "gap": 1.0},
                  {"name": "p1", "gap": 0.5}],
    "frontend": "FE",
    "window": 4,
    "kinds": {"alu": {"resources": ["p0"], "latency": 1},
              "ld": {"resources": ["p1", "p1"], "latency": 4}},
    "caches": [{"name": "L1", "size": 256, "assoc": 2, "line": 64, "gap": 1.0},
               {"name": "L2", "size": 1024, "assoc": 4, "line": 64, "gap": 2.0},
               {"name": "MEM", "gap": 4.0}],
    "branch": {"enabled": True, "btb_sets": 4, "btb_ways": 2, "tage_tables": 2,
               "tage_entries_log2": 4, "history_lengths": [2, 8],
               "misprediction_penalty": 5.0},
}

TRACE = [
    {"pc": 0, "kind": "ld", "reg_reads": [1], "reg_writes": [2],
     "mem_reads": [{"addr": 4096, "size": 8}]},
    {"pc": 4, "kind": "alu", "reg_reads": [2], "reg_writes": [2]},
    {"pc": 8, "resources": ["p0", "p1"], "latency": 2, "reg_reads": [2],
     "mem_writes": [{"addr": 8192, "size": 16}]},
    {"pc": 12, "kind": "alu", "branch": {"kind": "conditional", "taken": True, "target": 0}},
    {"pc": 0, "kind": "ld", "mem_reads": [{"addr": 4100, "size": 4}], "seq": 7},
    {"pc": 16, "kind": "alu", "branch": {"kind": "indirect", "taken": True, "target": 64}},
]

EXTREMES = [-1, 0, 1, 63, 64, 4097, 2**16 + 1, 2**31, 2**53, 2**62, 2**63, 2**64,
            2**70, 10**400, -(10**400)]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 12), st.sampled_from(EXTREMES),
    st.floats(), st.sampled_from(["", " ", "p0", "L1", "alu", "INST_LAT", "a,b", "x"]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "gap", "size", "addr", "kind", "x"]),
                      inner, max_size=3),
    max_leaves=6)
# stands for 100,000 nested arrays, deeper than json.dumps can write
DEEP = "<deep>"
# stands for a 5,000-digit integer, over the digit limit of int() and json
HUGE = "<huge>"


def _paths(doc, prefix=()):
    """The path of every value in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _edits(doc):
    """Up to three (path, operation, value) edits of `doc`."""
    return st.lists(st.tuples(st.sampled_from(list(_paths(doc))),
                              st.sampled_from(["set", "delete", "add"]), VALUES),
                    min_size=1, max_size=3)


def _mutated(doc, edits):
    """A copy of `doc` with each edit applied; an edit whose path an earlier
    edit removed is skipped."""
    doc = copy.deepcopy(doc)
    for path, op, value in edits:
        if not path:
            doc = value
            continue
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            target = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if op == "set":
            parent[path[-1]] = value
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(target, dict):
            target["extra"] = value
        elif isinstance(target, list):
            target.append(value)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _dumps(value):
    return (json.dumps(value).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)
            .replace(json.dumps(HUGE), "9" * 5000))


def _reject_constant(name):
    raise AssertionError(f"report holds the non-finite number {name}")


def _check_commands(workdir, config, trace):
    cfg = workdir / "m.cfg"
    cfg.write_text(_dumps(config))
    lines = trace if isinstance(trace, list) else [trace]
    path = workdir / "m.trace"
    path.write_text("".join(_dumps(record) + "\n" for record in lines))
    for command in (["simulate", "--per-instruction"],
                    ["simulate", "--report", "json", "--per-instruction"],
                    ["sensitivity", "--workers", "1"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([command[0], str(path), "--config", str(cfg), *command[1:]])
        assert (rc, err.getvalue()[:15]) in ((0, ""), (1, "sensim: error: ")), err.getvalue()
        if rc == 0 and "json" in command:
            json.loads(out.getvalue(), parse_constant=_reject_constant)


FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@FUZZ
@given(edits=_edits(CONFIG))
@example(edits=[(("branch", "tage_entries_log2"), "set", 63)])
@example(edits=[(("branch", "history_lengths", 1), "set", 2**70)])
@example(edits=[(("window",), "set", 10**400)])
@example(edits=[(("caches", 1), "set", DEEP)])
@example(edits=[(("resources", 1, "gap"), "set", HUGE)])
@example(edits=[(("branch",), "add", 30)])
def test_mutated_config_exits_zero_or_one(workdir, edits):
    _check_commands(workdir, _mutated(CONFIG, edits), TRACE)
    # a config that loads is written back as one that loads equal
    try:
        config = load_config((workdir / "m.cfg").read_text())
    except ConfigError:
        return
    assert load_config(dump_config(config)) == config


@FUZZ
@given(edits=_edits(TRACE))
@example(edits=[((0, "mem_reads", 0, "size"), "set", 2**62)])
@example(edits=[((3, "kind"), "set", "nosuch")])
@example(edits=[((2, "resources", 1), "set", "p9")])
@example(edits=[((1,), "set", DEEP)])
@example(edits=[((1, "pc"), "set", HUGE)])
def test_mutated_trace_exits_zero_or_one(workdir, edits):
    _check_commands(workdir, CONFIG, _mutated(TRACE, edits))
