import json
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensim.corpus import gen_jacobi_like, gen_port_block
from sensim.engine import ZeroTimeTrace, simulate
from sensim.machine import MachineConfig, Resource
from sensim.report import (_dumps, emit_heatmap, format_instruction_table,
                           format_run_report, render_instruction_table, run_report,
                           run_report_json, table_columns)
from sensim.sensitivity import SensitivityPoint, SensitivityReport, sweep_single
from sensim.trace import InstructionEvent


def _single_event_result():
    config = MachineConfig(resources=(Resource(0, "r", 1.0), Resource(1, "idle", 1.0)),
                           window_capacity=4)
    events = [InstructionEvent(seq=0, pc=0x40, resources=("r",), latency=1.0)]
    return simulate(events, config)


def test_single_instruction_full_share():
    rows = render_instruction_table(_single_event_result())
    assert len(rows) == 1
    assert rows[0].shares == {"r": 100.0}


def test_unused_resource_column_omitted():
    rows = render_instruction_table(_single_event_result())
    assert table_columns(rows) == ["r"]


def test_zero_time_trace_rejected():
    config = MachineConfig(resources=(Resource(0, "r", 1.0),), window_capacity=4)
    with pytest.raises(ZeroTimeTrace):
        render_instruction_table(simulate([], config))


def test_shares_recompute_from_counts():
    trace, config = gen_port_block()
    result = simulate(trace, config)
    rows = render_instruction_table(result)
    gaps = {r.name: r.gap for r in config.resources}
    for row in rows:
        stats = result.per_pc[row.pc]
        for name, share in row.shares.items():
            expected = 100.0 * stats.resource_uses[name] * gaps[name] / result.total_cycles
            assert share == expected


def test_column_share_sums_match_busy_fractions():
    trace, config = gen_jacobi_like(500)
    result = simulate(trace, config)
    rows = render_instruction_table(result)
    for name in ("p23", "p4", "FRONTEND"):
        total_share = sum(row.shares.get(name, 0.0) for row in rows)
        busy_fraction = 100.0 * result.resource_busy[name] / result.total_cycles
        assert total_share == pytest.approx(busy_fraction, rel=1e-9)
        assert total_share <= 100.0 + 1e-6


def test_jacobi_like_table_matches_expected_cells():
    trace, config = gen_jacobi_like(2000)
    rows = render_instruction_table(simulate(trace, config))
    by_pc = {row.pc: row for row in rows}
    assert len(rows) == 17
    loads = [pc for pc, row in by_pc.items() if "p23" in row.shares and row.shares["p23"] > 0]
    assert len(loads) == 10
    for pc in loads:
        assert by_pc[pc].shares["p23"] == pytest.approx(10.0, abs=2.0)
    stores = [pc for pc, row in by_pc.items() if row.label == "vmovsd-store"]
    for pc in stores:
        assert by_pc[pc].shares["p4"] == pytest.approx(20.0, abs=2.0)
    for row in rows:
        assert row.shares["FRONTEND"] == pytest.approx(5.0, abs=2.0)


def test_instruction_table_text_renders_one_decimal():
    trace, config = gen_jacobi_like(2000)
    text = format_instruction_table(render_instruction_table(simulate(trace, config)))
    lines = text.splitlines()
    assert lines[0].startswith("PC")
    assert len(lines) == 18
    assert "10.0%" in text
    assert "4/p016 p01 p015 p0156 p23" in text


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


_LEAVES = st.one_of(
    st.text(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-2**64),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.none(),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40)


@settings(deadline=None)
@given(_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert _dumps(doc, "\n") == _reference_json(doc)


@pytest.mark.parametrize("value", [object(), {1: 2}, [b"x"], {"a": {1.5}}])
def test_json_writer_rejects_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        _dumps(value, "\n")


def test_run_report_json_equals_json_dumps():
    # string-sorted pc keys put 0x10 before 0x9; table rows stay in pc order
    config = MachineConfig(resources=(Resource(0, "r", 1.0),), window_capacity=4)
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


def test_format_run_report_smoke():
    trace, config = gen_jacobi_like(100)
    text = format_run_report(simulate(trace, config))
    assert "total cycles" in text
    assert "cache level" in text


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
