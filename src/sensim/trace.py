"""Instruction-event stream: record types and the newline-delimited file format.

Each record carries observed truth for one dynamic instruction (actual branch
outcome, actual addresses); the simulator never re-derives control flow or
aliasing.  A record names its execution semantics by a `kind` or by inline
`resources` + `latency`; `engine.bind_semantics` resolves them against a
machine.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from math import isfinite
from typing import Iterable, Iterator

ADDRESS_BITS = 64
_ADDRESS_LIMIT = 1 << ADDRESS_BITS
# bounds a record's line lookups, fold lists and shadow keys; a longer range is
# split over list entries
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


class _Record(tuple):
    """Base of the record types: the call, `_make` (namedtuple's own skips
    `__new__`), `_replace`, copy and pickle all run the checking `__new__`.
    Only `parse_trace`'s pc template skips it, joining checked parts."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class MemAccess(_Record, namedtuple("MemAccess", "addr size")):
    """One byte range touched by an instruction."""

    __slots__ = ()

    def __new__(cls, addr: int, size: int):
        if type(addr) is not int or type(size) is not int:
            raise TraceError("memory access addr and size must be integers")
        if size < 1:
            raise TraceError("memory access size must be >= 1")
        if size > MAX_ACCESS_BYTES:
            raise TraceError(f"memory access size {size} is over {MAX_ACCESS_BYTES} bytes")
        if addr < 0 or addr + size > _ADDRESS_LIMIT:
            raise TraceError(
                f"access [{addr}, +{size}) leaves the {ADDRESS_BITS}-bit address space")
        return tuple.__new__(cls, (addr, size))


class BranchInfo(_Record, namedtuple("BranchInfo", "kind taken target")):
    """A record's actual branch outcome; kind "none" for a non-branch."""

    __slots__ = ()

    def __new__(cls, kind: str = "none", taken: bool = False, target: int = 0):
        if type(kind) is not str or type(taken) is not bool or type(target) is not int:
            raise TraceError("branch kind must be a string, taken a boolean and target an integer")
        if kind not in BRANCH_KINDS:
            raise TraceError(f"unknown branch kind {kind!r}")
        if kind == "none" and (taken or target != 0):
            raise TraceError("non-branch records cannot be taken or have a target")
        if kind == "direct" and not taken:
            raise TraceError("direct branches are always taken")
        return tuple.__new__(cls, (kind, taken, target))


class InstructionEvent(_Record, namedtuple(
        "InstructionEvent", "pc kind resources latency reg_reads reg_writes mem_reads "
                            "mem_writes branch")):
    """One dynamic instruction occurrence.

    Construction checks every field's type and value, from a file or from
    Python, and raises a TraceError naming the first check that fails.  An
    integer latency is stored as a float.  `seq`, a record's position in a
    trace file, is keyword-only, checked when given and then dropped: events
    that differ only in position are equal, and `event.seq` is None."""

    __slots__ = ()
    seq = None

    def __new__(cls, pc: int, kind: str | None = None,
                resources: tuple[str, ...] | None = None, latency: float | None = None,
                reg_reads: tuple[int, ...] = (), reg_writes: tuple[int, ...] = (),
                mem_reads: tuple[MemAccess, ...] = (), mem_writes: tuple[MemAccess, ...] = (),
                branch: BranchInfo = BranchInfo(), *, seq: int | None = None):
        if seq is not None and (type(seq) is not int or seq < 0):
            raise TraceError("seq must be an integer >= 0")
        if type(pc) is not int:
            raise TraceError("pc is required and must be an integer")
        if pc < 0:
            raise TraceError("pc must be >= 0")
        if kind is not None and type(kind) is not str:
            raise TraceError("kind must be a string")
        if resources is not None:
            _check_entries(resources, str, "resources")
        _check_entries(reg_reads, int, "reg_reads")
        _check_entries(reg_writes, int, "reg_writes")
        _check_entries(mem_reads, MemAccess, "mem_reads")
        _check_entries(mem_writes, MemAccess, "mem_writes")
        if type(branch) is not BranchInfo:
            raise TraceError("branch must be a BranchInfo")
        if (resources is None) != (latency is None):
            raise TraceError("resources and latency must be given together")
        if latency is None:
            if kind is None:
                raise TraceError("record needs a kind or inline resources+latency")
        else:
            if type(latency) is not float:
                if type(latency) is not int:
                    raise TraceError("latency must be a number")
                try:
                    latency = float(latency)
                except OverflowError:
                    raise TraceError("latency is out of range") from None
            if not isfinite(latency):
                raise TraceError(f"latency {latency} is not a finite number")
            if latency < 0:
                raise TraceError(f"latency {latency} is negative")
        return tuple.__new__(cls, (pc, kind, resources, latency, reg_reads, reg_writes,
                                   mem_reads, mem_writes, branch))


def _check_entries(values, entry_type: type, name: str) -> None:
    if type(values) is not tuple:
        raise TraceError(f"{name} must be a tuple")
    for value in values:
        if type(value) is not entry_type:
            raise TraceError(f"{name} entries must be {entry_type.__name__} values")


_ARRAY_FIELDS = ("resources", "reg_reads", "reg_writes", "mem_reads", "mem_writes")
_RECORD_FIELDS = {*InstructionEvent._fields, "seq"}
_MEMO_LINES = 4096  # lines parse_trace's memo keeps; a loop body of up to 4,096 parses twice
_LEADING_PC = re.compile(r'\{"pc":([1-9][0-9]{0,17})').match  # canonical, under 19 digits
_MEMO_EVENTS = 1 << 16  # lines _trace_lines keeps; a corpus jacobi trace reuses 5,780 events
_encode_record = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps makes one per call
_scan = json.JSONDecoder().scan_once  # json.loads's scanner, without its checks around the value


def _parse_record(raw_line: str) -> tuple[InstructionEvent, int | None]:
    """One record's event and its explicit seq, if any.  Decodes only: the
    record types check every field."""
    if not raw_line.isascii() and re.search("[\ud800-\udfff]", raw_line):
        raise TraceError("invalid record: not UTF-8")  # as errors="surrogateescape" reads it
    try:
        try:
            raw, end = _scan(raw_line, 0)
        except StopIteration:  # leading whitespace, a BOM or a missing value: json.loads decides
            end = 0
        if not end or raw_line[end:].strip(" \t\n\r"):
            raw = json.loads(raw_line)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over the digit limit
        raise TraceError(f"invalid record: {getattr(exc, 'msg', exc)}") from None
    except RecursionError:
        raise TraceError("invalid record: nested too deeply") from None
    if not isinstance(raw, dict):
        raise TraceError("record must be an object")
    if not _RECORD_FIELDS.issuperset(raw):
        raise TraceError(f"unknown field {sorted(set(raw) - _RECORD_FIELDS)[0]!r}")
    for name in _ARRAY_FIELDS:
        values = raw.get(name)
        if values is None:
            continue
        if type(values) is not list:
            raise TraceError(f"{name} must be an array")
        if name.startswith("mem_"):
            try:
                values = [MemAccess(**entry) for entry in values]
            except TypeError:
                raise TraceError(f'{name} entries must be {{"addr":int,"size":int}}') from None
        raw[name] = tuple(values)
    if "branch" in raw:
        try:
            raw["branch"] = BranchInfo(**raw["branch"])
        except TypeError:
            raise TraceError("branch must be {kind, taken, target}") from None
    raw.setdefault("pc", None)
    return InstructionEvent(**raw), raw.get("seq")


def parse_trace(lines: Iterable[str]) -> Iterator[InstructionEvent]:
    """Lazily parse newline-delimited records into validated events.

    A record's position is its seq; an explicit seq must keep the stream
    strictly increasing, and a violation aborts it naming the offending line.
    A bounded memo keeps the event of each line seen twice, so a line is parsed
    at most twice while it stays there and its repeats yield one event.  Once
    two lines parsed in a row differ only in canonical leading pcs that they
    yield, a later line that differs only there is that event with its own pc.
    """
    memo: dict[str, InstructionEvent | tuple[()]] = {}
    position = 0
    template, rest, prev = None, None, ("", None)  # event[1:], remainder; last (line, pc)
    for lineno, raw_line in enumerate(lines, 1):
        event = memo.get(raw_line)
        if not event:
            if not raw_line.strip():
                continue
            seen = event is not None
            try:
                if rest and (lead := _LEADING_PC(raw_line)) and raw_line[lead.end():] == rest:
                    event, seq = tuple.__new__(InstructionEvent, (int(lead[1]), *template)), None
                else:
                    event, seq = _parse_record(raw_line)
                    if len(raw_line) == len(prev[0]) and prev[1] != event.pc:  # cheap tests first
                        head = f'{{"pc":{event.pc}'
                        tail = raw_line[len(head):]  # a seq in it repeats, failing its check
                        if raw_line.startswith(head) and prev[0] == f'{{"pc":{prev[1]}{tail}':
                            template, rest = event[1:], tail
                    prev = raw_line, event.pc
            except TraceError as exc:
                raise TraceError(str(exc), lineno) from None
            if seq is not None:
                # not kept: a repeat of this line could only fail this check
                if seq < position:
                    raise TraceError(f"seq {seq} does not increase", lineno)
                position = seq
            else:
                if not seen and len(memo) == _MEMO_LINES:  # only a new key adds one
                    memo.clear()
                memo[raw_line] = event if seen else ()  # a first sighting keeps no event
        position += 1
        yield event


def _trace_lines(events: Iterable[InstructionEvent]) -> Iterator[str]:
    """Each event's record line, newline included.  A bounded memo keyed by
    identity serializes an event object that recurs (the corpus reuses them)
    once; it holds the event, so no other object can take its id."""
    memo: dict[int, tuple[InstructionEvent, str]] = {}
    for event in events:
        known = memo.get(id(event))
        if known is None:
            pc, kind, resources, latency, reg_reads, reg_writes, loads, stores, branch = event
            record: dict = {"pc": pc}
            if kind is not None:
                record["kind"] = kind
            if resources is not None:
                record["resources"] = resources
            if latency is not None:
                record["latency"] = latency
            if reg_reads:
                record["reg_reads"] = reg_reads
            if reg_writes:
                record["reg_writes"] = reg_writes
            if loads:
                record["mem_reads"] = [{"addr": a, "size": s} for a, s in loads]
            if stores:
                record["mem_writes"] = [{"addr": a, "size": s} for a, s in stores]
            if branch.kind != "none":
                record["branch"] = dict(zip(branch._fields, branch))
            if len(memo) == _MEMO_EVENTS:
                memo.clear()
            known = memo[id(event)] = event, _encode_record(record) + "\n"
        yield known[1]


def write_trace(events: Iterable[InstructionEvent]) -> str:
    """Serialize events to the record-per-line text form; inverse of parse_trace."""
    return "".join(_trace_lines(events))
