"""Report rendering: machine-readable run reports, per-instruction resource
usage tables, and sensitivity heatmaps as CSV or SVG.

Renderers are pure over immutable results and add no information: busy
time, occupancy and every share derive here, and only here, from the counts
and gaps in a SimResult, and all output is byte-stable across runs and
concurrency levels.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from math import inf

from .engine import PcStats, SimResult
# sensitivity.SensitivityReport is named only in annotations: simulate loads no sweep code

FORMAT_VERSION = 1
Row = tuple[PcStats, dict[str, float]]  # a pc's stats and its share of each column, in %


def _finite(value: float, scale: float = 1.0) -> float:
    """value x scale, for a report to print; one that overflowed is an error."""
    scaled = value * scale
    if scaled == inf:
        raise ValueError("simulated time overflowed")
    return scaled


def _busy(result: SimResult, name: str, uses: int) -> tuple[float, float]:
    """Busy time (uses x gap) of a resource or cache level, and its fraction
    of the total cycles (the occupancy), 0.0 on a zero-cycle run."""
    busy = _finite(uses, result.gaps[name])
    return busy, _finite(busy / result.total_cycles if result.total_cycles > 0 else 0.0)


def render_instruction_table(result: SimResult) -> list[Row]:
    """(stats, shares) per pc, in pc order; a zero-cycle run has no rows, and
    rows whose stats share a uses dict share one read-only shares dict.

    share(pc, r) = uses(pc, r) x gap(r) / total_cycles, as a percentage.
    Cache levels appear as columns too, weighted by their per-transfer gap.
    """
    if result.total_cycles <= 0:
        return []
    shares = _per_dict(lambda uses: {name: _finite(_busy(result, name, n)[1], 100.0)
                                     for name, n in uses.items()})
    return [(stats, shares(stats.resource_uses)) for _, stats in sorted(result.per_pc.items())]


def _per_dict(render: Callable) -> Callable:
    """`render`, run once per dict object: keyed by id, so the caller keeps each dict alive."""
    done = {}
    return lambda d: done[id(d)] if id(d) in done else done.setdefault(id(d), render(d))


def table_columns(rows: list[Row]) -> list[str]:
    """Columns with a nonzero share in at least one row, first-seen order."""
    return list(dict.fromkeys(name for _, shares in rows
                              for name, share in shares.items() if share > 0))


def format_instruction_table(rows: list[Row]) -> str:
    """Fixed-width text rendering; percentages use one decimal, half-even."""
    columns = table_columns(rows)
    header = ("PC", "KIND", *columns, "LAT/RES")
    percent = cache("{:.1f}%".format)  # shares take few distinct values, none -0.0
    body = [(f"0x{stats.pc:x}", stats.label or "-",
             *[percent(shares.get(c, 0.0)) for c in columns],
             f"{stats.latency:g}/" + " ".join(stats.resources))
            for stats, shares in rows]
    widths = [max(map(len, cells)) for cells in zip(header, *body)]
    row = "  ".join(f"%-{w}s" for w in widths)  # each cell left-justified to its width
    return "".join((row % line).rstrip() + "\n" for line in [header, *body])


def run_report(result: SimResult) -> dict:
    """The run report's fixed-size sections as a plain document (stable keys)."""
    resources = {}
    for name, uses in sorted(result.resource_uses.items()):
        busy, occ = _busy(result, name, uses)
        resources[name] = {"uses": uses, "busy": busy, "occupancy": occ}
    return {
        "format_version": FORMAT_VERSION,
        "total_cycles": result.total_cycles,
        "instructions": result.instruction_count,
        "ipc": _finite(result.ipc),
        "resources": resources,
        "caches": {name: c._asdict() for name, c in result.cache_stats.items()},
        "branch": {"predicted": result.branch_predicted,
                   "mispredicted": result.branch_mispredicted},
    }


# a per_pc entry and an instruction_table row at their indent in the document
_PC_ROW = ('"%s": {\n   "count": %d,\n   "kind": %s,\n   "latency": %s,\n'
           '   "resources": %s,\n   "uses": %s\n  }')
_TABLE_ROW = ('{\n   "count": %d,\n   "kind": %s,\n   "latency": %s,\n   "pc": "0x%x",\n'
              '   "resources": %s,\n   "shares": %s\n  }')


def run_report_json(result: SimResult, instruction_rows: list[Row] | None = None) -> str:
    """The run report, its `per_pc` rows and any instruction rows, as json.dumps(
    sort_keys=True, indent=1, separators=(",", ": ")) writes them."""
    return "".join(run_report_pieces(result, instruction_rows))


def run_report_pieces(result: SimResult, rows: list[Row] | None = None) -> Iterator[str]:
    """run_report_json's text in order, each `per_pc` entry and instruction row
    rendered when the consumer reaches it; every check that can fail runs in
    this call.  A row's label and resources are rendered once per distinct
    value, and its uses and shares once per dict, which the result and the rows
    hold.  Latencies are not cached: records and kinds accept -0.0, which a cache
    would merge with 0.0, and reject non-finite ones, so float.__repr__ is
    json.dumps's text for them."""
    def dumps(value, indent: str = "   ") -> str:  # JSON text holds no raw newline
        return json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + indent)

    sections = {key: (f'"{key}": ' + dumps(value, " "),)
                for key, value in run_report(result).items()}
    text = cache(dumps)  # a label, or a resources tuple as an array
    uses = _per_dict(dumps)
    sections["per_pc"] = _container('"per_pc": {', (
        (_PC_ROW % (key, s.count, text(s.label), float.__repr__(s.latency),
                    text(s.resources), uses(s.resource_uses)),)
        for key, s in sorted((f"0x{pc:x}", s) for pc, s in result.per_pc.items())), "}", "\n ")
    if rows is not None:
        shares = _per_dict(lambda d: dumps({k: round(v, 1) for k, v in d.items()}))
        sections["instruction_table"] = _container('"instruction_table": [', (
            (_TABLE_ROW % (s.count, text(s.label), float.__repr__(s.latency), s.pc,
                           text(s.resources), shares(row_shares)),)
            for s, row_shares in rows), "]", "\n ")
    return _container("{", (pieces for _, pieces in sorted(sections.items())), "}\n", "\n")


def _container(opening: str, item_pieces: Iterable, closing: str, newline: str) -> Iterator[str]:
    """A list or object in pieces; `newline` is a line break and its own indent."""
    separator = opening + newline + " "
    for pieces in item_pieces:
        yield separator
        yield from pieces
        separator = "," + newline + " "
    yield newline + closing if separator[0] == "," else opening + closing


def format_run_report(result: SimResult) -> str:
    """The run report's fixed-size sections as text."""
    doc = run_report(result)
    lines = [f"total cycles   {_fmt(doc['total_cycles'])}", f"instructions   {doc['instructions']}",
             f"ipc            {doc['ipc']:.3f}", "", "resource        uses      busy  occupancy"]
    for name, r in doc["resources"].items():
        lines.append(f"{name:<12} {r['uses']:>8} {r['busy']:>9.2f} "
                     f"{_finite(r['occupancy'], 100):>9.1f}%")
    if doc["caches"]:
        lines += ["", "cache level     hits    misses  transfers"]
        for name, c in doc["caches"].items():
            lines.append(f"{name:<12} {c['hits']:>8} {c['misses']:>9} {c['transfers']:>10}")
    if doc["branch"]["predicted"]:
        lines += ["", "branches predicted {predicted}, mispredicted {mispredicted}"
                      .format_map(doc["branch"])]
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _escape(text: str) -> str:
    """Text safe in SVG character data and in a double-quoted attribute."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _param_key(parameters: tuple[str, ...]) -> str:
    return "+".join(parameters)


def heatmap_csv(report: SensitivityReport) -> str:
    """CSV rows parameter,weight,time,speedup sorted by (parameter, weight)."""
    lines = ["parameter,weight,time,speedup"]
    for p in sorted(report.points, key=lambda p: (_param_key(p.parameters), p.weight)):
        lines.append(f"{_param_key(p.parameters)},{_fmt(p.weight)},"
                     f"{_fmt(p.time)},{_fmt(p.speedup)}")
    return "\n".join(lines) + "\n"


# 16-step ramp, white through red to black
_RAMP = ([f"#ff{c:02x}{c:02x}" for c in (255 - round(255 * i / 7) for i in range(8))]
         + [f"#{255 - round(255 * i / 8):02x}0000" for i in range(1, 9)])


def heatmap_svg(report: SensitivityReport) -> str:
    """One bar per swept parameter set; each weight step is one cell whose
    color intensity is proportional to the speedup at that weight."""
    keys = sorted({_param_key(p.parameters) for p in report.points})
    weights = sorted({p.weight for p in report.points})
    by_cell = {(_param_key(p.parameters), p.weight): p.speedup for p in report.points}
    peak = max((p.speedup for p in report.points), default=0.0)

    cell_w, cell_h, left, top = 56, 22, 90, 30
    width = left + cell_w * max(1, len(keys)) + 20
    height = top + cell_h * max(1, len(weights)) + 50
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{left}" y="18" font-family="monospace" font-size="13">'
             "speedup by accelerated resource</text>"]
    for wi, w in enumerate(weights):
        y = top + cell_h * (len(weights) - 1 - wi) + cell_h // 2 + 4
        parts.append(f'<text x="8" y="{y}" font-family="monospace" font-size="11">'
                     f"w={_fmt(w)}</text>")
    for ki, key in enumerate(keys):
        x = left + ki * cell_w
        parts.append(f'<g class="bar" id="bar-{_escape(key)}">')
        for wi, w in enumerate(weights):
            s = by_cell.get((key, w))
            if s is None:
                continue
            level = 0 if peak <= 0 else round(15 * max(0.0, min(1.0, s / peak)))
            y = top + cell_h * (len(weights) - 1 - wi)
            parts.append(f'<rect x="{x}" y="{y}" width="{cell_w - 4}" '
                         f'height="{cell_h - 2}" fill="{_RAMP[level]}" '
                         'stroke="#999" stroke-width="0.5"/>')
        parts += ["</g>", f'<text x="{x}" y="{top + cell_h * len(weights) + 16}" '
                  f'font-family="monospace" font-size="11" '
                  f'transform="rotate(35 {x} {top + cell_h * len(weights) + 16})">'
                  f"{_escape(key)}</text>"]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_heatmap(report: SensitivityReport, format: str = "csv") -> str:
    if format == "csv":
        return heatmap_csv(report)
    if format == "svg":
        return heatmap_svg(report)
    raise ValueError(f"unknown heatmap format {format!r}")


def format_sensitivity(report: SensitivityReport) -> str:
    lines = [f"base time {_fmt(report.base_time)}", ""]
    if report.verdicts:
        lines.append("parameters           best speedup  bottleneck")
        for v in report.verdicts:
            lines.append(f"{_param_key(v.parameters):<20} {_finite(v.speedup, 100):>11.2f}%  "
                         f"{'yes' if v.is_bottleneck else 'no'}")
    return "\n".join(lines) + "\n"
