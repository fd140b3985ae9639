import gc
import io
import json
import math
import os
import subprocess
import sys

import pytest

from sensim import corpus
from sensim.cli import _BATCH, _default_workers, main
from sensim.engine import build_schedule, simulate
from sensim.machine import accelerable_parameters, load_config
from sensim.report import render_instruction_table, run_report_json
from sensim.trace import parse_trace


@pytest.fixture()
def port_block_files(tmp_path):
    rc = main(["gen-kernel", "portblock", "--out", str(tmp_path / "block.trace")])
    assert rc == 0
    return str(tmp_path / "block.trace"), str(tmp_path / "block.cfg")


def test_gen_kernel_writes_trace_and_config(tmp_path, capsys):
    rc = main(["gen-kernel", "chain", "--iters", "5",
               "--out", str(tmp_path / "c.trace")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "5 events" in out
    assert (tmp_path / "c.trace").exists()
    assert (tmp_path / "c.cfg").exists()


def test_simulate_json_report(port_block_files, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    rc = main(["simulate", trace, "--config", cfg, "--report", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_cycles"] == 4.0
    assert doc["format_version"] == 1


class _CountedWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_streamed_json_report_is_the_joined_report(tmp_path, monkeypatch):
    # 3,000 pcs give two rows each, too many pieces for one block
    assert main(["gen-kernel", "chain", "--iters", "3000", "--out",
                 str(tmp_path / "c.trace")]) == 0
    monkeypatch.setattr(sys, "stdout", _CountedWrites())
    assert main(["simulate", str(tmp_path / "c.trace"), "--config", str(tmp_path / "c.cfg"),
                 "--report", "json", "--per-instruction"]) == 0
    result = simulate(*corpus.generate("chain", iters=3000))
    assert sys.stdout.getvalue() == run_report_json(result, render_instruction_table(result))
    assert sys.stdout.writes > 1


def test_signed_zero_latencies_keep_their_signs(tmp_path, capsys):
    # the two records bind alike, and -0.0 == 0.0, yet json.dumps tells them apart
    trace, cfg = _files_with(tmp_path, record='{"pc":0,"resources":["p0"],"latency":-0.0}\n'
                                              '{"pc":4,"resources":["p0"],"latency":0.0}')
    capsys.readouterr()
    assert main(["simulate", trace, "--config", cfg, "--report", "json",
                 "--per-instruction"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines() if '"latency"' in line] == [
        "-0.0,", "0.0,", "-0.0,", "0.0,"]  # table rows, then per_pc entries
    doc = json.loads(out)
    assert [row["pc"] for row in doc["instruction_table"]] == ["0x0", "0x4"]
    assert list(doc["per_pc"]) == ["0x0", "0x4"]


def test_simulate_table_with_per_instruction(port_block_files, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    rc = main(["simulate", trace, "--config", cfg, "--per-instruction"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total cycles   4" in out
    assert "PC" in out and "LAT/RES" in out


def test_sensitivity_flags_p1(port_block_files, tmp_path, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    heatmap = tmp_path / "grid.csv"
    rc = main(["sensitivity", trace, "--config", cfg,
               "--resources", "p0,p1,p2,p3,p5,p6",
               "--weights", "2", "--heatmap", str(heatmap), "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.endswith("yes")]
    assert len(lines) == 1 and lines[0].startswith("p1")
    body = heatmap.read_text().splitlines()
    assert body[0] == "parameter,weight,time,speedup"
    assert "p1,2,3.5,0.1428571428571428" in body


def test_sensitivity_svg_and_subsets(port_block_files, tmp_path, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    heatmap = tmp_path / "grid.svg"
    rc = main(["sensitivity", trace, "--config", cfg, "--weights", "2",
               "--subsets", "p0,p2,p3,p5;p1", "--heatmap", str(heatmap),
               "--workers", "1"])
    assert rc == 0
    svg = heatmap.read_text()
    assert svg.startswith("<svg")
    out = capsys.readouterr().out
    assert "p0+p2+p3+p5" in out


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


def test_unwritable_heatmap_exits_one_before_the_sweep(port_block_files, tmp_path,
                                                       monkeypatch, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    monkeypatch.setattr("sensim.sensitivity.sweep_single", _no_sweep)
    for path in (tmp_path / "missing" / "grid.csv", tmp_path):
        assert main(["sensitivity", trace, "--config", cfg, "--workers", "1",
                     "--heatmap", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sensim: error: ")
    assert not (tmp_path / "missing").exists()


def _failed_sweep(*args, **kwargs):
    raise ValueError("the sweep failed")


def test_failed_sweep_removes_the_heatmap_it_created(port_block_files, tmp_path,
                                                    monkeypatch, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    monkeypatch.setattr("sensim.sensitivity.sweep_single", _failed_sweep)
    heatmap = tmp_path / "grid.csv"
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1",
                 "--heatmap", str(heatmap)]) == 1
    assert capsys.readouterr().err == "sensim: error: the sweep failed\n"
    assert not heatmap.exists()


def test_failed_sweep_keeps_an_existing_heatmap(port_block_files, tmp_path,
                                               monkeypatch, capsys):
    trace, cfg = port_block_files
    heatmap = tmp_path / "grid.csv"
    heatmap.write_text("an earlier grid\n")
    monkeypatch.setattr("sensim.sensitivity.sweep_single", _failed_sweep)
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1",
                 "--heatmap", str(heatmap)]) == 1
    assert heatmap.read_text() == "an earlier grid\n"
    monkeypatch.undo()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1", "--weights", "2",
                 "--resources", "p1", "--heatmap", str(heatmap)]) == 0
    assert heatmap.read_text() == "parameter,weight,time,speedup\np1,2,3.5,0.1428571428571428\n"


@pytest.mark.parametrize("which", ["trace", "config"])
def test_heatmap_may_not_name_an_input(port_block_files, tmp_path, monkeypatch, capsys, which):
    trace, cfg = port_block_files
    capsys.readouterr()
    monkeypatch.setattr("sensim.sensitivity.sweep_single", _no_sweep)
    inputs = {path: open(path, "rb").read() for path in (trace, cfg)}
    # the config is named by another spelling of its path
    heatmap = {"trace": trace, "config": tmp_path / ".." / tmp_path.name / "block.cfg"}[which]
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1",
                 "--heatmap", str(heatmap)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sensim: error: cannot write ")
    assert {path: open(path, "rb").read() for path in inputs} == inputs


def test_gen_kernel_puts_the_config_beside_the_trace(tmp_path, monkeypatch, capsys):
    # the dot in the directory name is not the trace's suffix
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.d").mkdir()
    assert main(["gen-kernel", "chain", "--iters", "3", "--out", "run.d/chain"]) == 0
    assert capsys.readouterr().out == ("wrote 3 events to run.d/chain and the machine "
                                       "to run.d/chain.cfg\n")
    assert sorted(path.name for path in (tmp_path / "run.d").iterdir()) == ["chain", "chain.cfg"]
    assert not (tmp_path / "run.cfg").exists()


@pytest.mark.parametrize("existing", [None, "an earlier file\n"])
def test_gen_kernel_rejects_one_path_for_trace_and_config(tmp_path, capsys, existing):
    same = tmp_path / "same.cfg"
    if existing is not None:
        same.write_text(existing)
    assert main(["gen-kernel", "chain", "--iters", "3", "--out", str(same)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sensim: error: cannot write ")
    assert (same.read_text() if same.exists() else None) == existing
    assert sorted(path.name for path in tmp_path.iterdir()) == (["same.cfg"] if existing else [])


@pytest.mark.parametrize("existing", [None, "an earlier trace\n"])
def test_gen_kernel_failure_leaves_no_new_trace(tmp_path, capsys, existing):
    # the config cannot be opened, so neither file is written
    (tmp_path / "x.cfg").mkdir()
    trace = tmp_path / "x.trace"
    if existing is not None:
        trace.write_text(existing)
    assert main(["gen-kernel", "chain", "--iters", "3", "--out", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("sensim: error: ")
    assert (trace.read_text() if trace.exists() else None) == existing


def test_heatmap_to_the_null_device_exits_zero(port_block_files, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1", "--resources", "p1",
                 "--weights", "2", "--heatmap", os.devnull]) == 0
    assert f"heatmap written to {os.devnull}" in capsys.readouterr().out


def test_gen_kernel_writes_through_a_symlink_to_the_null_device(tmp_path, capsys):
    out = tmp_path / "t.trace"
    out.symlink_to(os.devnull)
    assert main(["gen-kernel", "chain", "--iters", "3", "--out", str(out)]) == 0
    assert main(["gen-kernel", "chain", "--iters", "3", "--out", str(tmp_path / "r.trace")]) == 0
    assert out.is_symlink()
    assert (tmp_path / "t.cfg").read_text() == (tmp_path / "r.cfg").read_text() != ""


def test_missing_trace_exits_one(port_block_files, capsys):
    _, cfg = port_block_files
    rc = main(["simulate", "missing.trace", "--config", cfg])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.fixture()
def collector():
    """Leaves the cyclic collector as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def test_command_runs_with_the_collector_off_and_leaves_it_as_found(
        port_block_files, monkeypatch, capsys, collector):
    trace, cfg = port_block_files
    seen = []
    monkeypatch.setattr("sensim.cli.load_config",
                        lambda text: (seen.append(gc.isenabled()), load_config(text))[1])
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        for path, rc in ((trace, 0), ("missing.trace", 1)):
            assert main(["simulate", path, "--config", cfg]) == rc
            assert gc.isenabled() is enabled
    assert seen == [False] * 4


def test_cyclic_garbage_of_a_command_does_not_grow_with_the_trace(tmp_path, capsys, collector):
    gc.disable()
    found = []
    for iters in (20, 200):
        out = str(tmp_path / f"j{iters}.trace")
        assert main(["gen-kernel", "jacobi", "--iters", str(iters), "--out", out]) == 0
        gc.collect()
        assert main(["simulate", out, "--config", str(tmp_path / f"j{iters}.cfg")]) == 0
        found.append(gc.collect())
    assert found[0] == found[1]


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(port_block_files, capsys):
    trace, cfg = port_block_files
    assert main(["simulate", trace, "--config", cfg, "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert err.endswith("\nsensim: error: unrecognized arguments: --bogus\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sensim ")


def test_the_module_runs_as_the_command(port_block_files):
    # `python -m sensim.cli` is how the benchmark runs it
    trace, cfg = port_block_files
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corpus.__file__)))
    done = subprocess.run([sys.executable, "-m", "sensim.cli", "simulate", trace + ".missing",
                           "--config", cfg], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("sensim: error: [Errno 2] ")


def test_bad_weight_exits_one(port_block_files, capsys):
    trace, cfg = port_block_files
    rc = main(["sensitivity", trace, "--config", cfg, "--weights", "0.5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_malformed_trace_names_line(tmp_path, port_block_files, capsys):
    _, cfg = port_block_files
    bad = tmp_path / "bad.trace"
    bad.write_text('{"pc":0,"resources":["p1"],"latency":1}\n{"pc":}\n')
    rc = main(["simulate", str(bad), "--config", cfg])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate", "--per-instruction"],
                                     ["sensitivity", "--workers", "2"]])
def test_malformed_last_line_exits_one(tmp_path, capsys, command):
    # the trace is streamed into the run, which fails only on reaching it
    trace, cfg = _files_with(tmp_path)
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write('{"pc":4,"latency":1}\n')
    capsys.readouterr()
    assert main([command[0], trace, "--config", cfg, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sensim: error: line 6: ")
    assert captured.out == ""


def test_config_error_is_reported_before_trace_error(tmp_path, capsys):
    trace, cfg = _files_with(tmp_path, edit_config=lambda d: d.update(window=0),
                             record='{"pc":}')
    capsys.readouterr()
    assert main(["simulate", trace, "--config", cfg]) == 1
    assert capsys.readouterr().err == "sensim: error: window capacity must be >= 1\n"


def test_unknown_kind_exits_one(tmp_path, port_block_files, capsys):
    _, cfg = port_block_files
    bad = tmp_path / "bad.trace"
    bad.write_text('{"pc":0,"kind":"nosuch"}\n')
    assert main(["simulate", str(bad), "--config", cfg]) == 1
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("record,command,message", [
    ('{"pc":8,"kind":"nosuch"}', ["simulate"], "unknown instruction kind: 'nosuch'"),
    ('{"pc":8,"kind":"nosuch"}', ["sensitivity", "--workers", "1"],
     "unknown instruction kind: 'nosuch'"),
    ('{"pc":8,"resources":["p9"],"latency":1}', ["simulate", "--report", "json"],
     "unknown resource: 'p9'"),
], ids=["kind-simulate", "kind-sensitivity", "inline-resource"])
def test_bind_error_names_line(tmp_path, port_block_files, capsys, record, command, message):
    # line 2 is blank, and the record after the bad one is never reached
    _, cfg = port_block_files
    bad = tmp_path / "bad.trace"
    bad.write_text('{"pc":0,"resources":["p1"],"latency":1}\n\n%s\n{"pc":}\n' % record)
    capsys.readouterr()
    assert main([command[0], str(bad), "--config", cfg, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sensim: error: line 3: {message}\n"
    assert captured.out == ""


_RECORD = '{"pc":%d,"resources":["p1"],"latency":1}'
_COMMANDS = pytest.mark.parametrize("command", [["simulate"], ["sensitivity", "--workers", "1"]],
                                    ids=["simulate", "sensitivity"])


def _error_of(tmp_path, cfg, command, lines, capsys):
    """The stderr of a command that must fail on a trace of `lines`; a lone
    surrogate in a line stands for the byte that errors="surrogateescape"
    reads as it."""
    trace = tmp_path / "t.trace"
    trace.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert main([command[0], str(trace), "--config", cfg, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@_COMMANDS
@pytest.mark.parametrize("bad", [_BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_a_bind_error_comes_before_a_malformed_record_after_it_in_any_batch(
        tmp_path, port_block_files, capsys, command, bad):
    # on the last line of a batch the malformed record opens the next one;
    # on a batch's first line both records are in it
    lines = [_RECORD % (4 * i) for i in range(3 * _BATCH)]
    lines[bad - 1:bad + 1] = ['{"pc":8,"kind":"nosuch"}', '{"pc":}']
    assert _error_of(tmp_path, port_block_files[1], command, lines, capsys) == (
        f"sensim: error: line {bad}: unknown instruction kind: 'nosuch'\n")


@_COMMANDS
@pytest.mark.parametrize("before,message", [
    (_RECORD % 1020, f"line {_BATCH + 1}: seq 0 does not increase"),
    ('{"pc":1020,"kind":"nosuch"}', f"line {_BATCH}: unknown instruction kind: 'nosuch'"),
], ids=["seq", "bind-error-first"])
def test_a_seq_that_does_not_increase_just_after_a_batch(tmp_path, port_block_files, capsys,
                                                       command, before, message):
    lines = [_RECORD % (4 * i) for i in range(_BATCH - 1)]
    lines += [before, '{"pc":0,"resources":["p1"],"latency":1,"seq":0}', _RECORD % 0]
    assert _error_of(tmp_path, port_block_files[1], command, lines, capsys) == (
        f"sensim: error: {message}\n")


@_COMMANDS
def test_a_bind_error_names_its_own_line_not_the_last_one_read(tmp_path, port_block_files,
                                                             capsys, command):
    # the batch that holds line 1,000 reads on past it; blank lines take no event
    lines = [_RECORD % (4 * i) for i in range(4 * _BATCH + 100)]
    lines[10] = lines[20] = ""
    lines[999] = '{"pc":8,"resources":["p9"],"latency":1}'
    assert _error_of(tmp_path, port_block_files[1], command, lines, capsys) == (
        "sensim: error: line 1000: unknown resource: 'p9'\n")


@_COMMANDS
@pytest.mark.parametrize("lines,message", [
    ([_RECORD % 0, '{"pc":2,"kind":"nosuch"}', '{"pc":3,"kind":"\udcff"}'],
     "line 2: unknown instruction kind: 'nosuch'"),
    ([_RECORD % 0, '{"pc":2,"kind":"\udcff"}', '{"pc":3,"kind":"nosuch"}'],
     "line 2: invalid record: not UTF-8"),
    ([_RECORD % 0, '{"pc":2,"kind":"\udcc3"}'], "line 2: invalid record: not UTF-8"),
    ([_RECORD % (4 * i) for i in range(600)] + ['{"pc":4,"kind":"x"}\udc80'],
     "line 601: invalid record: not UTF-8"),
], ids=["bind-error-first", "bad-byte-first", "cut-sequence", "past-the-first-chunk"])
def test_a_byte_not_in_utf8_makes_its_record_malformed(tmp_path, port_block_files, capsys,
                                                       command, lines, message):
    assert _error_of(tmp_path, port_block_files[1], command, lines, capsys) == (
        f"sensim: error: {message}\n")


def test_a_record_may_hold_any_utf8_text(tmp_path, port_block_files, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text('{"pc":0,"kind":"\u00e9\u4e2d","resources":["p1"],"latency":1}\n',
                     encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", str(trace), "--config", port_block_files[1],
                 "--per-instruction"]) == 0
    assert "0x0  \u00e9\u4e2d" in capsys.readouterr().out


@_COMMANDS
def test_the_parser_runs_at_most_one_batch_ahead_of_the_build(tmp_path, port_block_files,
                                                             monkeypatch, capsys, command):
    # the event list is never held in full: when the build takes event i, the
    # parser has read the lines of i's batch and no more
    n = 3 * _BATCH + 7
    trace = tmp_path / "t.trace"
    trace.write_text("".join(_RECORD % (4 * i) + "\n" for i in range(n)))
    read, seen = [0], []

    def counted(lines):
        for read[0], line in enumerate(lines, 1):
            yield line

    def build(events, config):
        return build_schedule((seen.append(read[0]) or event for event in events), config)
    monkeypatch.setattr("sensim.cli.parse_trace", lambda lines: parse_trace(counted(lines)))
    monkeypatch.setattr("sensim.engine.build_schedule", build)
    monkeypatch.setattr("sensim.sensitivity.build_schedule", build)
    assert main([command[0], str(trace), "--config", port_block_files[1], *command[1:]]) == 0
    assert seen == [min(n, (i // _BATCH + 1) * _BATCH) for i in range(n)]


def _files_with(tmp_path, edit_config=None, record=None):
    """The chain kernel's trace and config, with the config edited in place
    or the trace replaced by one record."""
    trace = tmp_path / "c.trace"
    assert main(["gen-kernel", "chain", "--iters", "5", "--out", str(trace)]) == 0
    cfg = tmp_path / "c.cfg"
    if edit_config is not None:
        doc = json.loads(cfg.read_text())
        edit_config(doc)
        cfg.write_text(json.dumps(doc))  # writes nan/inf as NaN/Infinity
    if record is not None:
        trace.write_text(record + "\n")
    return str(trace), str(cfg)


@pytest.mark.parametrize("edit", [
    lambda d: d["resources"][1].update(gap=float("inf")),
    lambda d: d["resources"][1].update(gap=float("nan")),
    lambda d: d["caches"][1].update(gap=float("inf")),
    lambda d: d.update(kinds={"k": {"resources": ["p0"], "latency": float("nan")}}),
    lambda d: d["branch"].update(misprediction_penalty=float("inf")),
    lambda d: d["caches"][0].update(size="x"),
    lambda d: d["caches"][0].update(assoc=8.0),
    lambda d: d["caches"][0].update(line=True),
    lambda d: d["branch"].update(enabled="no"),
    lambda d: d["branch"].update(btb_sets=64.0),
    lambda d: d["branch"].update(btb_ways="4"),
    lambda d: d["branch"].update(tage_entries_log2=None),
    lambda d: d["branch"].update(tage_tables=4.5),
    lambda d: d["branch"].update(history_lengths=[4, 8, 16, "32"]),
    lambda d: d.update(kinds=[]),
    lambda d: d["resources"][1].update(gap=10**400),
    lambda d: d["branch"].update(history_lengths=[], tage_tables=0),
    lambda d: d["branch"].update(history_lengths=[-1, 4, 8, 16]),
    lambda d: d.update(shadow_granularity="byte"),
    lambda d: d["resources"].append({"name": "a,b", "gap": 1.0}),
    lambda d: d["caches"][1].update(name='L"2'),
    lambda d: d["resources"].append({"name": "", "gap": 1.0}),
    lambda d: d["resources"].append({"name": " a", "gap": 1.0}),
    lambda d: d["caches"][1].update(name="L2 "),
    lambda d: d["branch"].update(tage_entries_log2=63),
    lambda d: d["branch"].update(history_lengths=[4, 8, 16, 2**70]),
    lambda d: d["resources"][1].update(gapp=2.0),
    lambda d: d.update(kinds={"k": {"resources": ["p0"], "latency": 1, "latncy": 2}}),
    lambda d: d["caches"][0].update(lien=128),
    lambda d: d["branch"].update(misprediction_penalti=30),
], ids=["resource-gap-inf", "resource-gap-nan", "cache-gap-inf", "kind-latency-nan",
        "penalty-inf", "size-str", "assoc-float", "line-bool", "enabled-str",
        "btb-sets-float", "btb-ways-str", "entries-null", "tables-float",
        "history-str", "kinds-array", "gap-huge-int", "history-empty",
        "history-negative", "shadow-granularity", "resource-name-comma",
        "cache-name-quote", "resource-name-empty", "resource-name-padded",
        "cache-name-padded", "entries-log2-63", "history-2**70", "resource-misspelled-key",
        "kind-misspelled-key", "cache-misspelled-key", "branch-misspelled-key"])
def test_bad_config_value_exits_one(tmp_path, capsys, edit):
    trace, cfg = _files_with(tmp_path, edit_config=edit)
    capsys.readouterr()
    assert main(["simulate", trace, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("sensim: error: ")


@pytest.mark.parametrize("record", [
    '{"pc":0,"resources":["p0"],"latency":NaN}',
    '{"pc":0,"resources":["p0"],"latency":Infinity}',
    '{"pc":0,"resources":["p0"],"latency":1%s}' % ("0" * 400),
    '{"pc":0,"kind":"k","branch":{"kind":"conditional","taken":"no","target":4}}',
    '{"pc":0,"kind":"k","branch":{"kind":"conditional","taken":true,"target":"x"}}',
    '{"pc":0,"kind":"k","branch":{"kind":1,"taken":true,"target":4}}',
    '{"pc":0,"resources":["p0"],"latency":1,"mem_reads":[{"addr":0,"size":4097}]}',
    '{"pc":0,"resources":["p0"],"latency":1,"mem_writes":[{"addr":0,"size":%d}]}' % 2**62,
], ids=["latency-nan", "latency-inf", "latency-huge-int", "taken-str", "target-str", "kind-int",
        "access-4097", "access-2**62"])
def test_bad_trace_value_exits_one(tmp_path, capsys, record):
    trace, cfg = _files_with(tmp_path, record=record)
    capsys.readouterr()
    assert main(["simulate", trace, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("sensim: error: line 1: ")


@pytest.mark.parametrize("flags", [
    ["--weights", "nan"],
    ["--weights", "1.05,inf"],
    ["--threshold", "nan"],
    ["--threshold", "inf"],
    ["--subsets", "p1", "--weights", "2,nan"],
], ids=["weights-nan", "weights-inf", "threshold-nan", "threshold-inf", "subsets-weights-nan"])
def test_non_finite_sensitivity_flag_exits_one(port_block_files, capsys, flags):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--resources", "p1",
                 "--workers", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sensim: error: ")
    assert "bottleneck" not in captured.out


def test_huge_window_weight_equals_a_large_one(tmp_path, capsys):
    # independent events that a window of one serializes
    trace = tmp_path / "w.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":10}\n' * 4)
    cfg = tmp_path / "w.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1}], "window": 1}')
    heatmap = tmp_path / "w.csv"
    assert main(["sensitivity", str(trace), "--config", str(cfg), "--resources", "INST_WINDOW",
                 "--weights", "1e6,1e308", "--workers", "1", "--heatmap", str(heatmap)]) == 0
    rows = [line.split(",") for line in heatmap.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["1000000", str(int(1e308))]
    assert rows[0][2:] == rows[1][2:] == ["13", "2.076923076923077"]


@pytest.mark.parametrize("footprint", ["0", "-64", "4", "100"])
def test_gen_stream_bad_footprint_exits_one(tmp_path, capsys, footprint):
    rc = main(["gen-kernel", "stream", "--iters", "5", "--footprint", footprint,
               "--out", str(tmp_path / "s.trace")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("sensim: error: ")
    assert not (tmp_path / "s.trace").exists()


@pytest.mark.parametrize("kernel", ["jacobi", "chain", "stream"])
def test_gen_kernel_names_the_iters_flag_it_rejects(tmp_path, capsys, kernel):
    assert main(["gen-kernel", kernel, "--iters", "0", "--out", str(tmp_path / "k.trace")]) == 1
    assert capsys.readouterr().err == "sensim: error: iters must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["portblock", "--iters", "5"],
    ["portblock", "--footprint", "64"],
    ["jacobi", "--footprint", "64"],
    ["chain", "--footprint", "4"],
], ids=["portblock-iters", "portblock-footprint", "jacobi-footprint", "chain-footprint"])
def test_gen_kernel_unused_override_exits_one(tmp_path, capsys, args):
    rc = main(["gen-kernel", *args, "--out", str(tmp_path / "k.trace")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("sensim: error: kernel ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--subsets", "auto:0"],
    ["--subsets", "auto:-1"],
    ["--subsets", "auto:"],
    ["--subsets", ";"],
    ["--resources", ""],
    ["--resources", " , "],
    ["--resources", "", "--subsets", "auto"],
    ["--subsets", ""],
    ["--weights", " , "],
], ids=["auto-0", "auto-neg", "auto-no-size", "no-groups", "resources-empty",
        "resources-blank", "auto-of-nothing", "subsets-empty", "weights-blank"])
def test_empty_sweep_exits_one(port_block_files, capsys, flags):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sensim: error: ")
    assert "base time" not in captured.out


# an empty path is an input error, like an unwritable one, not the default path
@pytest.mark.parametrize("command", [
    ["sensitivity", "block.trace", "--config", "block.cfg", "--resources", "p1",
     "--workers", "1", "--heatmap", ""],
    ["gen-kernel", "chain", "--iters", "5", "--out", ""],
], ids=["heatmap", "gen-kernel-out"])
def test_empty_path_exits_one(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-kernel", "portblock", "--out", "block.trace"]) == 0
    capsys.readouterr()
    assert main(command) == 1
    assert capsys.readouterr().err.startswith("sensim: error: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["block.cfg", "block.trace"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exits_one(port_block_files, capsys, workers):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", workers]) == 1
    captured = capsys.readouterr()
    # the library checks `workers`; the command only reports its one-line error
    assert captured.err == f"sensim: error: workers must be >= 1, got {workers}\n"
    assert captured.out == ""


def test_subsets_over_the_cap_exit_one(tmp_path, capsys):
    # jacobi's 15 parameters make 1,940 sets up to size 4
    trace = str(tmp_path / "jacobi.trace")
    assert main(["gen-kernel", "jacobi", "--iters", "10", "--out", trace]) == 0
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", str(tmp_path / "jacobi.cfg"),
                 "--subsets", "auto:4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("sensim: error: subset sweep would need more than 1000 "
                            "parameter sets; give explicit subsets instead\n")
    assert captured.out == ""


@pytest.mark.parametrize("options,message", [
    (["--resources", "p0,p0", "--weights", "1.5"], "p0 at weight 1.5 is swept twice"),
    (["--resources", "p0", "--weights", "1.5,1.5"], "p0 at weight 1.5 is swept twice"),
    (["--subsets", "p0,p0"], "p0+p0 at weight 1.15 names a parameter twice"),
    (["--subsets", "p0,INST_LAT;INST_LAT,p0"], "INST_LAT+p0 at weight 1.15 is swept twice"),
], ids=["resource-twice", "weight-twice", "group-names-p0-twice", "one-set-twice"])
def test_a_repeated_sweep_point_exits_one_and_removes_its_heatmap(tmp_path, capsys, options,
                                                                  message):
    trace = tmp_path / "c.trace"
    assert main(["gen-kernel", "chain", "--iters", "5", "--out", str(trace)]) == 0
    # a bad last record shows that the points are checked before the trace is read
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write("not a record\n")
    capsys.readouterr()
    heatmap = tmp_path / "d.csv"
    assert main(["sensitivity", str(trace), "--config", str(tmp_path / "c.cfg"),
                 "--heatmap", str(heatmap), *options]) == 1
    assert capsys.readouterr() == ("", f"sensim: error: {message}\n")
    assert not heatmap.exists()


def _zero_gains(out: str, parameters: list[str]) -> None:
    """`out` is a sensitivity report of base time 0 where each parameter gains 0.00 %."""
    head, table = out.split("\n\n")
    assert head == "base time 0"
    assert table.splitlines()[1:] == [f"{p:<20} {0:>11.2f}%  no" for p in sorted(parameters)]


def test_sensitivity_of_empty_trace_gains_nothing(tmp_path, port_block_files, capsys):
    # every point of an empty trace ends at the base time, 0 cycles, and gains nothing
    _, cfg = port_block_files
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    capsys.readouterr()
    for workers in ("1", "2"):
        assert main(["sensitivity", str(empty), "--config", cfg,
                     "--workers", workers]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _zero_gains(captured.out, accelerable_parameters(corpus.generate("portblock")[1]))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sensitivity_of_a_zero_cycle_run_gains_nothing(tmp_path, capsys, workers):
    # simulate reports a run of 0 cycles, and so does sensitivity: each point,
    # rerun (INST_LAT) or settled, ends at the base time
    trace = tmp_path / "z.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":0}\n')
    cfg = tmp_path / "z.cfg"
    cfg.write_text('{"resources":[{"name":"r","gap":1}],"window":4}')
    heatmap = tmp_path / "z.csv"
    assert main(["simulate", str(trace), "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["sensitivity", str(trace), "--config", str(cfg), "--workers", workers,
                 "--heatmap", str(heatmap)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _zero_gains(captured.out.removesuffix(f"heatmap written to {heatmap}\n"),
                ["INST_LAT", "INST_WINDOW", "r"])
    assert heatmap.read_text().splitlines()[1:] == [
        f"{p},{w},0,0" for p in ("INST_LAT", "INST_WINDOW", "r")
        for w in ("1.01", "1.05", "1.1", "1.15")]


def _overflow_files(tmp_path):
    """Two dependent records whose finite latencies sum past the largest float."""
    trace = tmp_path / "o.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":1e308,"reg_writes":[1]}\n'
                     '{"pc":4,"resources":["r"],"latency":1e308,"reg_reads":[1]}\n')
    cfg = tmp_path / "o.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1}], "window": 4}')
    return str(trace), str(cfg)


@pytest.mark.parametrize("args", [
    ["simulate"],
    ["simulate", "--per-instruction"],
    ["simulate", "--report", "json"],
    ["simulate", "--report", "json", "--per-instruction"],
    ["sensitivity", "--workers", "1"],
    ["sensitivity", "--workers", "2"],
], ids=["simulate-table", "simulate-table-per-pc", "simulate-json",
        "simulate-json-per-pc", "sensitivity", "sensitivity-pool"])
def test_overflowed_total_exits_one(tmp_path, capsys, args):
    trace, cfg = _overflow_files(tmp_path)
    assert main([args[0], trace, "--config", cfg, *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == "sensim: error: simulated time overflowed\n"
    assert captured.out == ""


def _busy_overflow_files(tmp_path):
    """The total, about 1e308, is finite; two uses at gap 1e308 are not."""
    trace = tmp_path / "b.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":1}\n' * 2)
    cfg = tmp_path / "b.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1e308}], "window": 4}')
    return str(trace), str(cfg)


@pytest.mark.parametrize("flags", [[], ["--report", "json"]], ids=["table", "json"])
def test_overflowed_busy_time_exits_one(tmp_path, capsys, flags):
    trace, cfg = _busy_overflow_files(tmp_path)
    assert main(["simulate", trace, "--config", cfg, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == "sensim: error: simulated time overflowed\n"
    assert captured.out == ""


def test_a_sweep_prints_no_busy_time_so_its_overflow_is_no_error(tmp_path, capsys):
    trace, cfg = _busy_overflow_files(tmp_path)
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    numbers = []
    for token in captured.out.split():
        try:
            numbers.append(float(token.rstrip("%")))
        except ValueError:
            pass
    assert numbers and all(math.isfinite(n) for n in numbers)
    with open(trace) as fh, open(cfg) as config:
        total = simulate(parse_trace(fh), load_config(config.read())).total_cycles
    assert captured.out.startswith("base time ")
    assert float(captured.out.split()[2]) == total


def _reject_constant(name):
    raise ValueError(f"report holds the non-finite number {name}")


def test_huge_gap_share_is_finite(tmp_path, capsys):
    # each pc's one use x gap 1e307 is the whole total, 1e307; 100 x 1e307
    # alone would overflow
    trace = tmp_path / "s.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":1}\n'
                     '{"pc":4,"resources":["r"],"latency":1}\n')
    cfg = tmp_path / "s.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1e307}], "window": 4}')
    assert main(["simulate", str(trace), "--config", str(cfg), "--per-instruction"]) == 0
    text = capsys.readouterr().out
    assert "inf" not in text
    assert [line.split()[2] for line in text.splitlines()[-2:]] == ["100.0%", "100.0%"]
    assert main(["simulate", str(trace), "--config", str(cfg), "--report", "json",
                 "--per-instruction"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert [row["shares"] for row in doc["instruction_table"]] == [{"r": 100.0}] * 2
    assert doc["resources"]["r"]["occupancy"] == 2.0


@pytest.mark.parametrize("record,gap", [
    ('{"pc":0,"resources":["r","r","r"],"latency":1e-300}', "1e300"),
    ('{"pc":0,"resources":[],"latency":1e-320}', "1"),
], ids=["occupancy", "ipc"])
@pytest.mark.parametrize("flags", [[], ["--per-instruction"], ["--report", "json"],
                                   ["--report", "json", "--per-instruction"]],
                         ids=["table", "table-per-pc", "json", "json-per-pc"])
def test_overflowed_ratio_exits_one(tmp_path, capsys, record, gap, flags):
    # every time is finite, but busy time / total or instructions / total is not
    trace = tmp_path / "r.trace"
    trace.write_text(record + "\n")
    cfg = tmp_path / "r.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": %s}], "window": 4}' % gap)
    assert main(["simulate", str(trace), "--config", str(cfg), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == "sensim: error: simulated time overflowed\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags,message", [
    (["--resources", "nosuch"], "unknown accelerable parameter: 'nosuch'"),
    (["--subsets", "p0;nosuch"], "unknown accelerable parameter: 'nosuch'"),
    (["--subsets", "auto2"], "unknown accelerable parameter: 'auto2'"),
    (["--subsets", "automatic"], "unknown accelerable parameter: 'automatic'"),
    (["--subsets", "auto:x"], "--subsets auto:x needs an integer size >= 1"),
    (["--subsets", "auto:0"], "--subsets auto:0 needs an integer size >= 1"),
    (["--threshold", "-1"], "threshold must be a finite number >= 0"),
    (["--resources", "p0", "--weights", "0.5"], "weight for 'p0' must be a finite number >= 1"),
], ids=["resources", "subsets", "subsets-auto-typo", "subsets-automatic", "subsets-auto-size",
        "subsets-auto-0", "threshold", "weights"])
def test_bad_flag_reported_before_bad_record(tmp_path, port_block_files, capsys, flags, message):
    _, cfg = port_block_files
    bad = tmp_path / "bad.trace"
    bad.write_text('{"pc":0,"resources":["p1"],"latency":1}\n{"pc":2,"bogus":1}\n')
    capsys.readouterr()
    assert main(["sensitivity", str(bad), "--config", cfg, "--workers", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"sensim: error: {message}")
    assert captured.out == ""


def test_weight_that_divides_a_gap_to_zero_blames_the_weight(tmp_path, capsys):
    trace = tmp_path / "u.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":1}\n')
    cfg = tmp_path / "u.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1e-320}], "window": 4}')
    assert main(["sensitivity", str(trace), "--config", str(cfg), "--resources", "r",
                 "--weights", "1e10", "--workers", "1"]) == 1
    assert capsys.readouterr().err == \
        "sensim: error: weight 10000000000.0 for 'r' divides its gap to 0\n"


def test_overflowed_speedup_percentage_exits_one(tmp_path, capsys):
    # a speedup of about 1e308 is finite, but not as a percentage
    trace = tmp_path / "p.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":1}\n')
    cfg = tmp_path / "p.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1}], "window": 4}')
    assert main(["sensitivity", str(trace), "--config", str(cfg), "--resources", "INST_LAT",
                 "--weights", "1e308", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "sensim: error: simulated time overflowed\n"
    assert captured.out == ""


def test_subsets_of_one_parameter_each(port_block_files, capsys):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1", "--weights", "2",
                 "--subsets", "auto:1"]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    with open(cfg, encoding="utf-8") as fh:
        parameters = accelerable_parameters(load_config(fh.read()))
    assert sorted(row.split()[0] for row in rows) == sorted(parameters)


def test_default_workers_reads_this_process_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0, 1, 2} if pid == 0 else set(range(64)), raising=False)
    assert _default_workers() == 3


def test_default_workers_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _default_workers() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert _default_workers() == 1
