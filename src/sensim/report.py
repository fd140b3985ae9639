"""Report rendering: machine-readable run reports, per-instruction resource
usage tables, and sensitivity heatmaps as CSV or SVG.

Renderers are pure over immutable results and add no information: every
share recomputes exactly from the counts in a SimResult, and all output is
byte-stable across runs and concurrency levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .engine import SimResult, ZeroTimeTrace, occupancy_report
from .sensitivity import SensitivityReport

FORMAT_VERSION = 1


@dataclass(frozen=True)
class InstructionRow:
    """One static pc: its usage share of each resource, in percent."""

    pc: int
    label: str
    count: int
    latency: float
    resources: tuple[str, ...]
    shares: dict[str, float]


def _gap_table(result: SimResult) -> dict[str, float]:
    """Per-unit cost of each column: gap recovered from busy/uses totals."""
    gaps = {}
    for name, uses in result.resource_uses.items():
        if uses:
            gaps[name] = result.resource_busy[name] / uses
    for name, counters in result.cache_stats.items():
        if counters.transfers:
            gaps[name] = result.cache_busy[name] / counters.transfers
    return gaps


def render_instruction_table(result: SimResult) -> list[InstructionRow]:
    """Per-pc share rows; resources with zero share everywhere are omitted.

    share(pc, r) = uses(pc, r) x gap(r) / total_cycles, as a percentage.
    Cache levels appear as columns too, weighted by their per-transfer gap.
    """
    if result.total_cycles <= 0:
        raise ZeroTimeTrace("per-instruction shares need a positive total")
    gaps = _gap_table(result)
    rows = []
    for pc in sorted(result.per_pc):
        stats = result.per_pc[pc]
        shares = {}
        for name, uses in stats.resource_uses.items():
            gap = gaps.get(name, 0.0)
            shares[name] = 100.0 * uses * gap / result.total_cycles
        rows.append(InstructionRow(
            pc=pc, label=stats.label, count=stats.count, latency=stats.latency,
            resources=stats.resources, shares=shares))
    return rows


def table_columns(rows: list[InstructionRow]) -> list[str]:
    """Columns with a nonzero share in at least one row, first-seen order."""
    columns: list[str] = []
    for row in rows:
        for name, share in row.shares.items():
            if share > 0 and name not in columns:
                columns.append(name)
    return columns


def format_instruction_table(rows: list[InstructionRow]) -> str:
    """Fixed-width text rendering; percentages use one decimal, half-even."""
    columns = table_columns(rows)
    header = ["PC", "KIND"] + columns + ["LAT/RES"]
    body = []
    for row in rows:
        tail = f"{row.latency:g}/" + " ".join(row.resources)
        body.append([f"0x{row.pc:x}", row.label or "-"]
                    + [f"{row.shares.get(c, 0.0):.1f}%" for c in columns]
                    + [tail])
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in [header] + body]
    return "\n".join(lines) + "\n"


def run_report(result: SimResult) -> dict:
    """The run report as a plain document (stable keys, JSON-serializable)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "total_cycles": result.total_cycles,
        "instructions": result.instruction_count,
        "ipc": result.ipc,
        "resources": {
            name: {
                "uses": result.resource_uses[name],
                "busy": result.resource_busy[name],
                "occupancy": (result.resource_busy[name] / result.total_cycles
                              if result.total_cycles > 0 else 0.0),
            }
            for name in sorted(result.resource_uses)},
        "per_pc": {
            f"0x{pc:x}": {
                "kind": stats.label,
                "count": stats.count,
                "latency": stats.latency,
                "resources": list(stats.resources),
                "uses": {k: v for k, v in sorted(stats.resource_uses.items())},
            }
            for pc, stats in sorted(result.per_pc.items())},
        "caches": {
            name: {"hits": c.hits, "misses": c.misses, "transfers": c.transfers}
            for name, c in result.cache_stats.items()},
        "branch": {
            "predicted": result.branch_predicted,
            "mispredicted": result.branch_mispredicted,
        },
    }
    return doc


def run_report_json(result: SimResult, instruction_rows: list[InstructionRow] | None = None) -> str:
    doc = run_report(result)
    if instruction_rows is not None:
        doc["instruction_table"] = [
            {"pc": f"0x{r.pc:x}", "kind": r.label, "count": r.count,
             "latency": r.latency, "resources": list(r.resources),
             "shares": {k: round(v, 1) for k, v in sorted(r.shares.items())}}
            for r in instruction_rows]
    return _dumps(doc, "\n") + "\n"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_str(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# keyed by exact type, so True is not written as an int
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _dumps(value, newline: str) -> str:
    """`value` exactly as json.dumps(value, sort_keys=True, separators=(",",
    ": "), indent=1) writes it; `newline` is a line break plus the indent of
    the value's own line.  Dict keys must be strings.

    Given an indent, json.dumps runs its pure-Python generator encoder and
    yields one chunk per token; this builds each container with one join.
    """
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def format_run_report(result: SimResult) -> str:
    lines = [
        f"total cycles   {_fmt(result.total_cycles)}",
        f"instructions   {result.instruction_count}",
        f"ipc            {result.ipc:.3f}",
        "",
        "resource        uses      busy  occupancy",
    ]
    occupancy = (occupancy_report(result) if result.total_cycles > 0
                 else {name: 0.0 for name in result.resource_uses})
    for name in sorted(result.resource_uses):
        lines.append(f"{name:<12} {result.resource_uses[name]:>8} "
                     f"{result.resource_busy[name]:>9.2f} {100 * occupancy[name]:>9.1f}%")
    if result.cache_stats:
        lines.append("")
        lines.append("cache level     hits    misses  transfers")
        for name, c in result.cache_stats.items():
            lines.append(f"{name:<12} {c.hits:>8} {c.misses:>9} {c.transfers:>10}")
    if result.branch_predicted:
        lines.append("")
        lines.append(f"branches predicted {result.branch_predicted}, "
                     f"mispredicted {result.branch_mispredicted}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape(text: str) -> str:
    """Text safe in SVG character data and in a double-quoted attribute."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _param_key(parameters: tuple[str, ...]) -> str:
    return "+".join(parameters)


def heatmap_csv(report: SensitivityReport) -> str:
    """CSV rows parameter,weight,time,speedup sorted by (parameter, weight)."""
    lines = ["parameter,weight,time,speedup"]
    points = sorted(report.points, key=lambda p: (_param_key(p.parameters), p.weight))
    for p in points:
        lines.append(f"{_param_key(p.parameters)},{_fmt(p.weight)},"
                     f"{_fmt(p.time)},{_fmt(p.speedup)}")
    return "\n".join(lines) + "\n"


# 16-step ramp, white through red to black
def _ramp() -> list[str]:
    colors = []
    for i in range(8):
        c = 255 - round(255 * i / 7)
        colors.append(f"#ff{c:02x}{c:02x}")
    for i in range(8):
        r = 255 - round(255 * (i + 1) / 8)
        colors.append(f"#{r:02x}0000")
    return colors


_RAMP = _ramp()


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
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{left}" y="18" font-family="monospace" font-size="13">'
        "speedup by accelerated resource</text>",
    ]
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
        parts.append("</g>")
        parts.append(f'<text x="{x}" y="{top + cell_h * len(weights) + 16}" '
                     f'font-family="monospace" font-size="11" '
                     f'transform="rotate(35 {x} {top + cell_h * len(weights) + 16})">'
                     f"{_escape(key)}</text>")
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
            lines.append(f"{_param_key(v.parameters):<20} {100 * v.speedup:>11.2f}%  "
                         f"{'yes' if v.is_bottleneck else 'no'}")
    return "\n".join(lines) + "\n"
