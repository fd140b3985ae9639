"""Instruction-event stream: record types and the newline-delimited file format.

Each record carries observed truth for one dynamic instruction (actual branch
outcome, actual addresses); the simulator never re-derives control flow or
aliasing.  A record names its execution semantics by a `kind` or by inline
`resources` + `latency`; `engine.bind_semantics` resolves them against a
machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Iterator

ADDRESS_BITS = 64
_ADDRESS_LIMIT = 1 << ADDRESS_BITS
# shadow memory has a key per byte; a longer range is split over list entries
MAX_ACCESS_BYTES = 4096

BRANCH_KINDS = ("none", "conditional", "direct", "indirect")


class TraceError(ValueError):
    """A record that is malformed or that the machine cannot run; `line`
    is its line in the trace file, when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MemAccess:
    """One byte range touched by an instruction."""

    addr: int
    size: int


@dataclass(frozen=True)
class BranchInfo:
    kind: str = "none"
    taken: bool = False
    target: int = 0


NO_BRANCH = BranchInfo()


@dataclass(frozen=True)
class InstructionEvent:
    """One dynamic instruction occurrence.

    Construction checks the record's structural invariants and raises a
    TraceError naming the first one that fails.
    """

    seq: int
    pc: int
    kind: str | None = None
    resources: tuple[str, ...] | None = None
    latency: float | None = None
    reg_reads: tuple[int, ...] = ()
    reg_writes: tuple[int, ...] = ()
    mem_reads: tuple[MemAccess, ...] = ()
    mem_writes: tuple[MemAccess, ...] = ()
    branch: BranchInfo = NO_BRANCH

    def __post_init__(self):
        if self.pc < 0:
            raise TraceError("pc must be >= 0")
        has_inline = self.resources is not None or self.latency is not None
        if has_inline and (self.resources is None or self.latency is None):
            raise TraceError("resources and latency must be given together")
        if self.kind is None and not has_inline:
            raise TraceError("record needs a kind or inline resources+latency")
        if self.latency is not None:
            if not isfinite(self.latency):
                raise TraceError(f"latency {self.latency} is not a finite number")
            if self.latency < 0:
                raise TraceError(f"latency {self.latency} is negative")
        for acc in (*self.mem_reads, *self.mem_writes):
            if acc.size < 1:
                raise TraceError("memory access size must be >= 1")
            if acc.size > MAX_ACCESS_BYTES:
                raise TraceError(f"memory access size {acc.size} is over {MAX_ACCESS_BYTES} bytes")
            if acc.addr < 0 or acc.addr + acc.size > _ADDRESS_LIMIT:
                raise TraceError(
                    f"access [{acc.addr}, +{acc.size}) leaves the {ADDRESS_BITS}-bit "
                    "address space")
        b = self.branch
        if b.kind not in BRANCH_KINDS:
            raise TraceError(f"unknown branch kind {b.kind!r}")
        if b.kind == "none" and (b.taken or b.target != 0):
            raise TraceError("non-branch records cannot be taken or have a target")
        if b.kind == "direct" and not b.taken:
            raise TraceError("direct branches are always taken")


_RECORD_FIELDS = {"pc", "kind", "resources", "latency", "reg_reads", "reg_writes",
                  "mem_reads", "mem_writes", "branch", "seq"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(raw, name: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(_is_int(v) for v in raw):
        raise TraceError(f"{name} must be an array of integers")
    return tuple(raw)


def _accesses(raw, name: str) -> tuple[MemAccess, ...]:
    if not isinstance(raw, list):
        raise TraceError(f"{name} must be an array")
    out = []
    for entry in raw:
        if (not isinstance(entry, dict) or set(entry) != {"addr", "size"}
                or not all(_is_int(entry[k]) for k in ("addr", "size"))):
            raise TraceError(f'{name} entries must be {{"addr":int,"size":int}}')
        out.append(MemAccess(addr=entry["addr"], size=entry["size"]))
    return tuple(out)


def _parse_record(raw_line: str, position: int) -> InstructionEvent:
    """One record's event; `position` is its seq unless the record gives one."""
    try:
        raw = json.loads(raw_line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid record: {exc.msg}") from None
    except RecursionError:
        raise TraceError("invalid record: nested too deeply") from None
    if not isinstance(raw, dict):
        raise TraceError("record must be an object")
    unknown = set(raw) - _RECORD_FIELDS
    if unknown:
        raise TraceError(f"unknown field {sorted(unknown)[0]!r}")
    if not _is_int(raw.get("pc")):
        raise TraceError("pc is required and must be an integer")

    kind = raw.get("kind")
    if kind is not None and not isinstance(kind, str):
        raise TraceError("kind must be a string")
    resources = raw.get("resources")
    if resources is not None:
        if not isinstance(resources, list) or not all(
                isinstance(r, str) for r in resources):
            raise TraceError("resources must be an array of strings")
        resources = tuple(resources)
    latency = raw.get("latency")
    if latency is not None:
        if isinstance(latency, bool) or not isinstance(latency, (int, float)):
            raise TraceError("latency must be a number")
        try:
            latency = float(latency)
        except OverflowError:
            raise TraceError("latency is out of range") from None

    branch = NO_BRANCH
    if "branch" in raw:
        b = raw["branch"]
        if not isinstance(b, dict) or not set(b) <= {"kind", "taken", "target"}:
            raise TraceError("branch must be {kind, taken, target}")
        branch = BranchInfo(kind=b.get("kind", "none"), taken=b.get("taken", False),
                            target=b.get("target", 0))
        if not (isinstance(branch.kind, str) and isinstance(branch.taken, bool)
                and _is_int(branch.target)):
            raise TraceError("branch kind must be a string, taken a boolean "
                                  "and target an integer")

    seq = raw.get("seq", position)
    if not _is_int(seq):
        raise TraceError("seq must be an integer")
    return InstructionEvent(
        seq=seq,
        pc=raw["pc"],
        kind=kind,
        resources=resources,
        latency=latency,
        reg_reads=_int_list(raw.get("reg_reads", []), "reg_reads"),
        reg_writes=_int_list(raw.get("reg_writes", []), "reg_writes"),
        mem_reads=_accesses(raw.get("mem_reads", []), "mem_reads"),
        mem_writes=_accesses(raw.get("mem_writes", []), "mem_writes"),
        branch=branch)


def parse_trace(lines: Iterable[str]) -> Iterator[InstructionEvent]:
    """Lazily parse newline-delimited records into validated events.

    `seq` defaults to the record's position; an explicit seq must keep the
    stream strictly increasing.  Any violation aborts the stream with a
    diagnostic naming the offending line.
    """
    last_seq = -1
    position = 0
    for lineno, raw_line in enumerate(lines, 1):
        if not raw_line.strip():
            continue
        try:
            event = _parse_record(raw_line, position)
            if event.seq <= last_seq:
                raise TraceError(f"seq {event.seq} does not increase")
        except TraceError as exc:
            raise TraceError(str(exc), lineno) from None
        last_seq = event.seq
        position = max(position, event.seq) + 1
        yield event


def write_trace(events: Iterable[InstructionEvent]) -> str:
    """Serialize events to the record-per-line text form; inverse of parse_trace."""
    out = []
    for position, event in enumerate(events):
        record: dict = {"pc": event.pc}
        if event.kind is not None:
            record["kind"] = event.kind
        if event.resources is not None:
            record["resources"] = list(event.resources)
        if event.latency is not None:
            record["latency"] = event.latency
        if event.reg_reads:
            record["reg_reads"] = list(event.reg_reads)
        if event.reg_writes:
            record["reg_writes"] = list(event.reg_writes)
        if event.mem_reads:
            record["mem_reads"] = [{"addr": a.addr, "size": a.size} for a in event.mem_reads]
        if event.mem_writes:
            record["mem_writes"] = [{"addr": a.addr, "size": a.size} for a in event.mem_writes]
        if event.branch.kind != "none":
            record["branch"] = {"kind": event.branch.kind, "taken": event.branch.taken,
                                "target": event.branch.target}
        if event.seq != position:
            record["seq"] = event.seq
        out.append(json.dumps(record, separators=(",", ":")))
    return "".join(line + "\n" for line in out)

