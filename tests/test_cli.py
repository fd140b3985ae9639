import json

import pytest

from sensim.cli import main


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


def test_missing_trace_exits_one(port_block_files, capsys):
    _, cfg = port_block_files
    rc = main(["simulate", "missing.trace", "--config", cfg])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(port_block_files, capsys):
    trace, cfg = port_block_files
    assert main(["simulate", trace, "--config", cfg, "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_bad_weight_exits_one(port_block_files, capsys):
    trace, cfg = port_block_files
    rc = main(["sensitivity", trace, "--config", cfg, "--weights", "0.5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_malformed_trace_names_line(tmp_path, port_block_files, capsys):
    _, cfg = port_block_files
    bad = tmp_path / "bad.trace"
    bad.write_text('{"pc":0,"kind":"x"}\n{"pc":}\n')
    rc = main(["simulate", str(bad), "--config", cfg])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_unknown_kind_exits_one(tmp_path, port_block_files, capsys):
    _, cfg = port_block_files
    bad = tmp_path / "bad.trace"
    bad.write_text('{"pc":0,"kind":"nosuch"}\n')
    assert main(["simulate", str(bad), "--config", cfg]) == 1
    assert "nosuch" in capsys.readouterr().err


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
], ids=["resource-gap-inf", "resource-gap-nan", "cache-gap-inf", "kind-latency-nan",
        "penalty-inf", "size-str", "assoc-float", "line-bool", "enabled-str",
        "btb-sets-float", "btb-ways-str", "entries-null", "tables-float",
        "history-str", "kinds-array", "gap-huge-int", "history-empty",
        "history-negative", "shadow-granularity"])
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
], ids=["latency-nan", "latency-inf", "latency-huge-int", "taken-str", "target-str", "kind-int"])
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
], ids=["weights-nan", "weights-inf", "threshold-nan", "threshold-inf"])
def test_non_finite_sensitivity_flag_exits_one(port_block_files, capsys, flags):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--resources", "p1",
                 "--workers", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sensim: error: ")
    assert "bottleneck" not in captured.out


@pytest.mark.parametrize("footprint", ["0", "-64", "4", "100"])
def test_gen_stream_bad_footprint_exits_one(tmp_path, capsys, footprint):
    rc = main(["gen-kernel", "stream", "--iters", "5", "--footprint", footprint,
               "--out", str(tmp_path / "s.trace")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("sensim: error: ")
    assert not (tmp_path / "s.trace").exists()


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
    ["--subsets", ";"],
    ["--resources", ""],
    ["--resources", " , "],
    ["--resources", "", "--subsets", "auto"],
    ["--subsets", ""],
], ids=["auto-0", "auto-neg", "no-groups", "resources-empty", "resources-blank",
        "auto-of-nothing", "subsets-empty"])
def test_empty_sweep_exits_one(port_block_files, capsys, flags):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sensim: error: ")
    assert "base time" not in captured.out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exits_one(port_block_files, capsys, workers):
    trace, cfg = port_block_files
    capsys.readouterr()
    assert main(["sensitivity", trace, "--config", cfg, "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sensim: error: --workers")
    assert captured.out == ""


def test_sensitivity_of_empty_trace_exits_one(tmp_path, port_block_files, capsys):
    # every point of an empty trace is settled at the base time without a
    # rerun, and each still goes through speedup(), which rejects a zero time
    _, cfg = port_block_files
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    capsys.readouterr()
    for workers in ("1", "2"):
        assert main(["sensitivity", str(empty), "--config", cfg,
                     "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.err == "sensim: error: speedup needs positive times\n"
        assert captured.out == ""


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


def test_overflowed_busy_time_exits_one(tmp_path, capsys):
    # the total, about 1e308, is finite; two uses at gap 1e308 are not
    trace = tmp_path / "b.trace"
    trace.write_text('{"pc":0,"resources":["r"],"latency":1}\n' * 2)
    cfg = tmp_path / "b.cfg"
    cfg.write_text('{"resources": [{"name": "r", "gap": 1e308}], "window": 4}')
    assert main(["simulate", str(trace), "--config", str(cfg), "--report", "json"]) == 1
    assert capsys.readouterr().err == "sensim: error: simulated time overflowed\n"
