import json
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensim.corpus import gen_jacobi_like, gen_latency_chain, gen_port_block
from sensim.engine import PcStats, SimResult, simulate
from sensim.machine import MachineConfig, Resource
from sensim.report import (emit_heatmap, format_instruction_table, format_run_report,
                           render_instruction_table, run_report, run_report_json,
                           run_report_pieces, table_columns)
from sensim.sensitivity import SensitivityPoint, SensitivityReport, sweep_single
from sensim.trace import InstructionEvent


def _single_event_result():
    config = MachineConfig(resources=(Resource("r", 1.0), Resource("idle", 1.0)),
                           window_capacity=4)
    events = [InstructionEvent(seq=0, pc=0x40, resources=("r",), latency=1.0)]
    return simulate(events, config)


def test_single_instruction_full_share():
    rows = render_instruction_table(_single_event_result())
    assert len(rows) == 1
    assert rows[0][1] == {"r": 100.0}


def test_unused_resource_column_omitted():
    rows = render_instruction_table(_single_event_result())
    assert table_columns(rows) == ["r"]


def test_zero_time_trace_has_no_rows():
    config = MachineConfig(resources=(Resource("r", 1.0),), window_capacity=4)
    assert render_instruction_table(simulate([], config)) == []


def test_shares_recompute_from_counts():
    trace, config = gen_port_block()
    result = simulate(trace, config)
    rows = render_instruction_table(result)
    gaps = {r.name: r.gap for r in config.resources}
    for stats, shares in rows:
        assert stats is result.per_pc[stats.pc]
        for name, share in shares.items():
            expected = stats.resource_uses[name] * gaps[name] / result.total_cycles * 100.0
            assert share == expected


def test_column_share_sums_match_busy_fractions():
    trace, config = gen_jacobi_like(500)
    result = simulate(trace, config)
    rows = render_instruction_table(result)
    busy = {name: r["busy"] for name, r in run_report(result)["resources"].items()}
    for name in ("p23", "p4", "FRONTEND"):
        total_share = sum(shares.get(name, 0.0) for _, shares in rows)
        busy_fraction = 100.0 * busy[name] / result.total_cycles
        assert total_share == pytest.approx(busy_fraction, rel=1e-9)
        assert total_share <= 100.0 + 1e-6


def test_jacobi_like_table_matches_expected_cells():
    trace, config = gen_jacobi_like(2000)
    rows = render_instruction_table(simulate(trace, config))
    by_pc = {stats.pc: shares for stats, shares in rows}
    assert len(rows) == 17
    loads = [pc for pc, shares in by_pc.items() if "p23" in shares and shares["p23"] > 0]
    assert len(loads) == 10
    for pc in loads:
        assert by_pc[pc]["p23"] == pytest.approx(10.0, abs=2.0)
    stores = [stats.pc for stats, _ in rows if stats.label == "vmovsd-store"]
    for pc in stores:
        assert by_pc[pc]["p4"] == pytest.approx(20.0, abs=2.0)
    for _, shares in rows:
        assert shares["FRONTEND"] == pytest.approx(5.0, abs=2.0)


def test_instruction_table_text_renders_one_decimal():
    trace, config = gen_jacobi_like(2000)
    text = format_instruction_table(render_instruction_table(simulate(trace, config)))
    lines = text.splitlines()
    assert lines[0].startswith("PC")
    assert len(lines) == 18
    assert "10.0%" in text
    assert "4/p016 p01 p015 p0156 p23" in text



def _padded_table(rows):
    """The text table rendered cell by cell with `ljust`, then each line
    right-stripped: the rendering the row template must reproduce."""
    columns = table_columns(rows)
    header = ["PC", "KIND"] + columns + ["LAT/RES"]
    body = [[f"0x{stats.pc:x}", stats.label or "-"]
            + [f"{shares.get(c, 0.0):.1f}%" for c in columns]
            + [f"{stats.latency:g}/" + " ".join(stats.resources)] for stats, shares in rows]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in [header] + body) + "\n"


def test_instruction_table_template_matches_cell_padding():
    wide = "port_with_a_name_wider_than_any_cell_" * 3
    rows = [
        (PcStats(0x10, "", 1, 0.0, (), {}), {}),
        (PcStats(0xFFFFFFFFFFFF, "kind %s with %% and a long name " * 4, 2, 1e16,
                 ("p0", wide), {"p0": 2, wide: 2}), {"p0": 12.345, wide: 100.0}),
        (PcStats(0x20, "", 3, 1.5, (wide, "  "), {wide: 3}), {wide: 0.05}),
        (PcStats(0x30, "é\tx ", 1, 5e-324, ("p0",), {"p0": 1}), {"p0": 0.0}),
    ]
    for table in (rows, rows[:1], rows[2:], []):
        assert format_instruction_table(table) == _padded_table(table)
    trace, config = gen_jacobi_like(50)
    rows = render_instruction_table(simulate(trace, config))
    assert format_instruction_table(rows) == _padded_table(rows)


def test_run_report_fields():
    trace, config = gen_port_block()
    doc = run_report(simulate(trace, config))
    assert doc["format_version"] == 1
    assert doc["total_cycles"] == 4.0
    assert doc["instructions"] == 12
    assert doc["resources"]["p6"]["uses"] == 3
    assert doc["branch"] == {"predicted": 0, "mispredicted": 0}


def test_run_report_json_byte_stable():
    trace, config = gen_jacobi_like(100)
    result = simulate(trace, config)
    assert run_report_json(result) == run_report_json(simulate(trace, config))
    # cache counters appear under their level names
    assert '"caches"' in run_report_json(result)
    assert run_report_json(result).endswith("\n")


def _reference_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def test_run_report_json_equals_json_dumps():
    # string-sorted pc keys put 0x10 before 0x9; table rows stay in pc order
    config = MachineConfig(resources=(Resource("r", 1.0),), window_capacity=4)
    events = [InstructionEvent(seq=i, pc=pc, kind="\u00e9\u0001", resources=("r",),
                               latency=1.5)
              for i, pc in enumerate([0x9, 0x10, 0x9])]
    result = simulate(events, config)
    text = run_report_json(result, render_instruction_table(result))
    doc = json.loads(text)
    assert text == _reference_json(doc) + "\n"
    assert list(doc["per_pc"]) == ["0x10", "0x9"]
    assert [row["pc"] for row in doc["instruction_table"]] == ["0x9", "0x10"]
    assert doc["instruction_table"][0]["kind"] == "\u00e9\u0001"
    assert '"kind": "\\u00e9\\u0001"' in text


def _pre_change_document(result, rows):
    """The whole run report as a document for json.dumps: run_report plus the
    per_pc entries and the instruction_table rows, built as plain dicts."""
    doc = run_report(result)
    doc["per_pc"] = {
        f"0x{pc:x}": {"kind": s.label, "count": s.count, "latency": s.latency,
                      "resources": list(s.resources),
                      "uses": {k: v for k, v in sorted(s.resource_uses.items())}}
        for pc, s in sorted(result.per_pc.items())}
    if rows is not None:
        doc["instruction_table"] = [
            {"pc": f"0x{s.pc:x}", "kind": s.label, "count": s.count,
             "latency": s.latency, "resources": list(s.resources),
             "shares": {k: round(v, 1) for k, v in sorted(shares.items())}}
            for s, shares in rows]
    return doc


_COLUMNS = ["p0", "p1", 'q"\\', "\u00e9\u0007", "L1"]


def _result(total_cycles, per_pc):
    uses = {name: sum(s.resource_uses.get(name, 0) for s in per_pc.values())
            for name in _COLUMNS}
    count = sum(s.count for s in per_pc.values())
    return SimResult(
        total_cycles=total_cycles, instruction_count=count,
        ipc=count / total_cycles if total_cycles else 0.0, resource_uses=uses,
        per_pc=per_pc, cache_stats={}, branch_predicted=0, branch_mispredicted=0,
        gaps=dict(zip(_COLUMNS, [0.25, 1.0, 3.0, 0.5, 2.0])))


_ONE_PC = {0x9: PcStats(0x9, 'a"\\', 2, 1.5, ("p0",), {"p0": 2})}
# equal latencies that print differently, in both orders
_SIGNED_ZEROS = {pc: PcStats(pc, "", 1, latency, ("p0",), {"p0": 1})
                 for pc, latency in ((0x1, -0.0), (0x2, 0.0), (0x3, -0.0))}


@st.composite
def _results(draw):
    pcs = draw(st.lists(st.sampled_from([0x0, 0x9, 0x10, 0xff, 0x100])
                        | st.integers(0, 2**48), unique=True, max_size=8))
    per_pc = {pc: PcStats(
        pc=pc, label=draw(st.sampled_from(["", "vaddsd-load", 'a"b', "c\\d", "\x00\x1f",
                                          "\u00e9\u2028\U0001f600"]) | st.text(max_size=3)),
        count=draw(st.integers(1, 10**6)),
        latency=draw(st.sampled_from([0.0, -0.0, 5e-324, 1.5, 1e16])),
        resources=tuple(draw(st.lists(st.sampled_from(_COLUMNS), max_size=3))),
        resource_uses=draw(st.dictionaries(st.sampled_from(_COLUMNS), st.integers(1, 10**6),
                                           max_size=4)))
        for pc in pcs}
    return _result(draw(st.sampled_from([0.0, 1.0, 7.5, 3e6])), per_pc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_results())
@example(_result(0.0, {}))
@example(_result(0.0, _ONE_PC))
@example(_result(4.0, {}))
@example(_result(4.0, _SIGNED_ZEROS))
def test_row_writer_matches_json_dumps(result):
    rows = render_instruction_table(result)
    assert (rows == []) == (result.total_cycles == 0 or not result.per_pc)
    for given_rows in (rows, None):
        ref = _pre_change_document(result, given_rows)
        assert run_report_json(result, given_rows) == json.dumps(
            ref, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


def test_streamed_report_holds_a_fraction_of_itself():
    # 10,000 pcs: each per_pc entry and table row is rendered when it is reached
    result = simulate(*gen_latency_chain(10_000))
    assert len(result.per_pc) == 10_000
    rows = render_instruction_table(result)
    for given_rows in (rows, None):
        assert "".join(run_report_pieces(result, given_rows)) == run_report_json(
            result, given_rows) == _reference_json(_pre_change_document(result, given_rows)) + "\n"
    length = len(run_report_json(result, rows))
    tracemalloc.start()
    try:
        for _ in run_report_pieces(result, rows):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 2


@pytest.mark.parametrize("events, config", [gen_latency_chain(50), gen_jacobi_like(20),
                                            gen_port_block()], ids=["chain", "jacobi", "portblock"])
def test_rows_with_equal_uses_share_one_shares_dict(events, config):
    rows = render_instruction_table(simulate(events, config))
    for a, a_shares in rows:
        for b, b_shares in rows:
            assert (a_shares is b_shares) == (a.resource_uses == b.resource_uses)


def test_shares_follow_the_uses_dict_a_row_holds():
    # by identity: equal dicts that are not one object get their own shares
    shared, equal = {"p0": 2}, {"p0": 2}
    per_pc = {pc: PcStats(pc, "", 2, 1.0, ("p0",), uses)
              for pc, uses in ((0x1, shared), (0x2, equal), (0x3, shared))}
    (_, first), (_, second), (_, third) = render_instruction_table(_result(8.0, per_pc))
    assert first is third and first is not second
    assert first == second == {"p0": 6.25}


def test_chain_build_rows_and_report_peak_stay_small():
    # 10,000 pcs of equal counts and 10,000 equal steps: one uses dict, one
    # shares dict and one step tuple serve them all (6.8 MB with one of each per pc)
    events, config = gen_latency_chain(10000)
    tracemalloc.start()
    try:
        result = simulate(events, config)
        for _ in run_report_pieces(result, render_instruction_table(result)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def test_format_run_report_smoke():
    trace, config = gen_jacobi_like(100)
    text = format_run_report(simulate(trace, config))
    assert "total cycles" in text
    assert "cache level" in text


def test_format_run_report_counts_branches_when_the_unit_ran():
    result = _result(4.0, _ONE_PC)
    assert "branches" not in format_run_report(result)
    text = format_run_report(result._replace(branch_predicted=3, branch_mispredicted=1))
    assert text.endswith("\n\nbranches predicted 3, mispredicted 1\n")


def _port_block_report():
    trace, config = gen_port_block()
    return sweep_single(trace, config, ["p0", "p1", "p2", "p3", "p5", "p6"], [2.0])


def test_heatmap_csv_golden_rows():
    csv = emit_heatmap(_port_block_report(), "csv")
    lines = csv.splitlines()
    assert lines[0] == "parameter,weight,time,speedup"
    assert "p1,2,3.5,0.1428571428571428" in lines
    assert "p6,2,4,0" in lines


def test_heatmap_csv_sorted_and_stable():
    report = _port_block_report()
    csv = emit_heatmap(report, "csv")
    body = csv.splitlines()[1:]
    assert body == sorted(body, key=lambda l: (l.split(",")[0], float(l.split(",")[1])))
    assert csv == emit_heatmap(_port_block_report(), "csv")


def test_heatmap_csv_empty_points():
    report = SensitivityReport(base_time=4.0, points=[])
    assert emit_heatmap(report, "csv") == "parameter,weight,time,speedup\n"


def test_heatmap_svg_valid_xml_with_one_bar_per_parameter():
    svg = emit_heatmap(_port_block_report(), "svg")
    root = ET.fromstring(svg)
    bars = [el for el in root.iter("{http://www.w3.org/2000/svg}g")
            if el.get("class") == "bar"]
    assert len(bars) == 6


def test_heatmap_svg_intensity_tracks_speedup():
    report = SensitivityReport(base_time=4.0, points=[
        SensitivityPoint(("a",), 2.0, 2.0, 1.0),
        SensitivityPoint(("b",), 2.0, 4.0, 0.0),
    ])
    svg = emit_heatmap(report, "svg")
    root = ET.fromstring(svg)
    fills = {}
    for bar in root.iter("{http://www.w3.org/2000/svg}g"):
        rects = list(bar.iter("{http://www.w3.org/2000/svg}rect"))
        fills[bar.get("id")] = rects[0].get("fill")
    assert fills["bar-b"] == "#ffffff"   # zero speedup stays white
    assert fills["bar-a"] == "#000000"   # the peak is fully saturated


def test_heatmap_svg_of_no_gain_stays_white():
    # no speedup to scale by: every cell gets the ramp's first color
    report = SensitivityReport(base_time=4.0, points=[
        SensitivityPoint(("a",), 2.0, 4.0, 0.0), SensitivityPoint(("b",), 1.5, 4.0, 0.0)])
    root = ET.fromstring(emit_heatmap(report, "svg"))
    fills = [rect.get("fill") for rect in root.iter("{http://www.w3.org/2000/svg}rect")]
    assert fills == ["#ffffff"] * 2


@pytest.mark.parametrize("points", [[], [SensitivityPoint(("a",), 2.0, 3.0, 1 / 3)]],
                         ids=["no point", "one point"])
def test_heatmap_svg_canvas_holds_at_least_one_cell(points):
    root = ET.fromstring(emit_heatmap(SensitivityReport(base_time=4.0, points=points), "svg"))
    assert (root.get("width"), root.get("height")) == ("166", "102")  # margins + 56 x 22


def test_heatmap_svg_leaves_a_missing_cell_empty():
    # each parameter was swept at one of the two weights only
    report = SensitivityReport(base_time=4.0, points=[
        SensitivityPoint(("a",), 1.5, 3.0, 1 / 3),
        SensitivityPoint(("b",), 2.0, 2.0, 1.0),
    ])
    root = ET.fromstring(emit_heatmap(report, "svg"))
    svg = "{http://www.w3.org/2000/svg}"
    cells = {bar.get("id"): [rect.get("y") for rect in bar.iter(svg + "rect")]
             for bar in root.iter(svg + "g")}
    assert cells == {"bar-a": ["52"], "bar-b": ["30"]}  # the larger weight is drawn higher


def test_heatmap_svg_escapes_parameter_names():
    names = ['a"b', "c&d", "e<f", "g>h"]
    report = SensitivityReport(base_time=4.0, points=[
        SensitivityPoint((name,), 2.0, 3.0, 1 / 3) for name in names])
    root = ET.fromstring(emit_heatmap(report, "svg"))
    ids = [bar.get("id") for bar in root.iter("{http://www.w3.org/2000/svg}g")]
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert sorted(ids) == sorted(f"bar-{name}" for name in names)
    assert set(names) <= set(labels)


def test_heatmap_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_heatmap(_port_block_report(), "png")
