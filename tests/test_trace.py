import copy
import json
import pickle
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensim.trace
from sensim.corpus import KERNELS, generate
from sensim.trace import (_MEMO_LINES, BRANCH_KINDS, BranchInfo, InstructionEvent, MemAccess,
                          TraceError, parse_trace, write_trace)


def parse(text):
    return list(parse_trace(text.splitlines()))


def test_minimal_record():
    events = parse('{"pc":16,"kind":"mul"}')
    assert len(events) == 1
    ev = events[0]
    assert ev.pc == 16 and ev.kind == "mul"
    assert ev.reg_reads == () and ev.mem_reads == ()
    # the same record at another position, implied or explicit, is equal
    assert parse('{"pc":0,"kind":"a"}\n{"pc":16,"kind":"mul"}')[1] == ev
    assert parse('{"pc":16,"kind":"mul","seq":7}') == [ev]
    assert ev == InstructionEvent(pc=16, kind="mul", seq=3)


def test_inline_resources_without_kind():
    events = parse('{"pc":0,"resources":["p1"],"latency":1}')
    assert events[0].resources == ("p1",)
    assert events[0].latency == 1.0
    assert events[0].kind is None


def test_negative_latency_rejected():
    with pytest.raises(TraceError, match="latency -1.0 is negative") as err:
        parse('{"pc":0,"resources":["p1"],"latency":-1}')
    assert "line 1" in str(err.value)


def test_overflowing_access_rejected():
    rec = '{"pc":0,"kind":"x","mem_reads":[{"addr":%d,"size":16}]}' % (2**64 - 8)
    with pytest.raises(TraceError, match="leaves the 64-bit address space"):
        parse(rec)


def test_access_size_limit():
    rec = '{"pc":0,"kind":"x","mem_writes":[{"addr":0,"size":4096}]}'
    assert parse(rec)[0].mem_writes == (MemAccess(0, 4096),)
    for size in (4097, 2**30, 2**62):
        rec = '{"pc":0,"kind":"x","mem_reads":[{"addr":0,"size":%d}]}' % size
        with pytest.raises(TraceError, match=f"line 2: memory access size {size} is over 4096"):
            parse('{"pc":0,"kind":"x"}\n' + rec)


@pytest.mark.parametrize("record", [
    "not json",
    '{"pc":"zero","kind":"x"}',
    '{"kind":"x"}',
    '{"pc":0}',
    '{"pc":0,"resources":["p1"]}',
    '{"pc":0,"latency":3}',
    '{"pc":0,"kind":"x","bogus":1}',
    '{"pc":0,"kind":"x","mem_reads":[{"addr":0}]}',
    '{"pc":0,"kind":"x","mem_reads":[{"addr":0,"size":0}]}',
    '{"pc":0,"kind":"x","branch":{"kind":"direct","taken":false,"target":4}}',
    '{"pc":0,"kind":"x","branch":{"kind":"none","taken":true,"target":0}}',
    '{"pc":0,"resources":["p1"],"latency":NaN}',
    '{"pc":0,"resources":["p1"],"latency":Infinity}',
    '{"pc":0,"resources":["p1"],"latency":-Infinity}',
    '{"pc":0,"kind":"x","branch":{"kind":"conditional","taken":"no","target":4}}',
    '{"pc":0,"kind":"x","branch":{"kind":"conditional","taken":1,"target":4}}',
    '{"pc":0,"kind":"x","branch":{"kind":"indirect","taken":true,"target":"x"}}',
    '{"pc":0,"kind":"x","branch":{"kind":7,"taken":true,"target":4}}',
    '{"pc":0,"kind":"x","mem_reads":[{"addr":true,"size":8}]}',
    '{"pc":0,"kind":"x","reg_reads":5}',
    '{"pc":0,"kind":"x","branch":{"kind":"direct","taken":true,"target":4,"x":1}}',
    '{"pc":0,"kind":"x","branch":5}',
])
def test_malformed_records(record):
    with pytest.raises(TraceError):
        parse(record)


# each row is a function giving the fields, so that a MemAccess or BranchInfo
# that rejects itself does so inside the test
@pytest.mark.parametrize("fields,message", [
    (lambda: {"pc": -1, "kind": "x"}, "pc must be >= 0"),
    (lambda: {"pc": 0}, "record needs a kind"),
    (lambda: {"pc": 0, "resources": ("p0",)}, "resources and latency must be given together"),
    (lambda: {"pc": 0, "resources": ("p0",), "latency": -1.0}, "latency -1.0 is negative"),
    (lambda: {"pc": 0, "resources": ("p0",), "latency": float("nan")},
     "latency nan is not a finite"),
    (lambda: {"pc": 0, "kind": "x", "mem_reads": (MemAccess(0, 0),)},
     "access size must be >= 1"),
    (lambda: {"pc": 0, "kind": "x", "mem_writes": (MemAccess(2**64 - 4, 8),)},
     "leaves the 64-bit"),
    (lambda: {"pc": 0, "kind": "x", "branch": BranchInfo(kind="direct")}, "always taken"),
    (lambda: {"pc": "16", "kind": "x"}, "pc is required and must be an integer"),
    (lambda: {"pc": 0, "resources": ["p1"], "latency": 1.0}, "resources must be a tuple"),
    (lambda: {"pc": 0, "resources": "p1", "latency": 1.0}, "resources must be a tuple"),
    (lambda: {"pc": 0, "resources": ("p1",), "latency": "1"}, "latency must be a number"),
    (lambda: {"pc": 0, "resources": ("p1",), "latency": 10**400}, "latency is out of range"),
    (lambda: {"pc": 0, "kind": "x", "reg_reads": (1.5,)}, "reg_reads entries must be int"),
    (lambda: {"pc": 0, "kind": "x", "mem_reads": (MemAccess("0", 8),)},
     "addr and size must be integers"),
    (lambda: {"pc": 0, "kind": "x", "branch": BranchInfo("conditional", 1, 4)},
     "taken a boolean"),
    (lambda: {"pc": 0, "kind": "x", "branch": BranchInfo("jump", True, 4)},
     "unknown branch kind 'jump'"),
], ids=[  # each of the first eight keeps its id from when trace errors had three subclasses
    "fields0-MalformedRecord", "fields1-MalformedRecord", "fields2-MalformedRecord",
    "fields3-NegativeLatency", "fields4-MalformedRecord", "fields5-MalformedRecord",
    "fields6-OverflowingAccess", "fields7-MalformedRecord",
    "pc-string", "resources-list", "resources-string", "latency-string", "latency-huge-int",
    "reg-reads-float", "access-addr-string", "branch-taken-int", "branch-kind-unknown"])
def test_event_built_in_python_is_validated(fields, message):
    with pytest.raises(TraceError, match=message) as err:
        InstructionEvent(seq=0, **fields())
    assert err.value.line is None


# Unchecked instances, forged past the checks with tuple.__new__, and the message
# of the first check each fails: every way to build a record from one must raise.
_FORGED = [
    (MemAccess, (0, 0), "memory access size must be >= 1"),
    (MemAccess, (2**64 - 4, 8), "leaves the 64-bit address space"),
    (BranchInfo, ("direct", False, 4), "direct branches are always taken"),
    (BranchInfo, ("none", 1, 0), "taken a boolean"),
    (InstructionEvent, (-1, "x", None, None, (), (), (), (), BranchInfo()), "pc must be >= 0"),
    (InstructionEvent, (0, "x", None, None, [1], (), (), (), BranchInfo()),
     "reg_reads must be a tuple"),
    (InstructionEvent, (0, None, ("p0",), float("inf"), (), (), (), (), BranchInfo()),
     "latency inf is not a finite number"),
    (InstructionEvent, (0, "x", None, None, (), (), ((0, 8),), (), BranchInfo()),
     "mem_reads entries must be MemAccess values"),
    (InstructionEvent, (0, "x", None, None, (), (), (), (), ("none", False, 0)),
     "branch must be a BranchInfo"),
]
_VALID = {MemAccess: MemAccess(0, 8), BranchInfo: BranchInfo(),
          InstructionEvent: InstructionEvent(pc=0, kind="x")}
_PATHS = {
    "call": lambda cls, forged: cls(*forged),
    "make": lambda cls, forged: cls._make(forged),
    "replace": lambda cls, forged: _VALID[cls]._replace(**forged._asdict()),
    "copy": lambda cls, forged: copy.copy(forged),
    "deepcopy": lambda cls, forged: copy.deepcopy(forged),
    **{f"pickle{protocol}": lambda cls, forged, protocol=protocol:
       pickle.loads(pickle.dumps(forged, protocol))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("path", _PATHS)
@pytest.mark.parametrize("cls,fields,message", _FORGED)
def test_every_construction_path_checks_the_fields(cls, fields, message, path):
    forged = tuple.__new__(cls, fields)
    with pytest.raises(TraceError, match=message):
        _PATHS[path](cls, forged)


@pytest.mark.parametrize("path", _PATHS)
def test_every_construction_path_keeps_a_valid_record(path):
    for cls, record in _VALID.items():
        rebuilt = _PATHS[path](cls, record)
        assert type(rebuilt) is cls and rebuilt == record


@pytest.mark.parametrize("record", _VALID.values(), ids=lambda record: type(record).__name__)
def test_records_are_immutable_tuples_without_a_dict(record):
    assert not hasattr(record, "__dict__")
    assert record == tuple(record)  # equal to a plain tuple of the same fields
    for name in (*record._fields, "seq", "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_seq_is_checked_but_not_stored():
    with pytest.raises(TraceError, match="seq must be an integer >= 0"):
        InstructionEvent(seq=-1, pc=0, kind="x")
    event = InstructionEvent(seq=7, pc=0, kind="x")
    assert event.seq is None and "seq" not in event._fields and len(event) == 9
    assert event == InstructionEvent(pc=0, kind="x")
    with pytest.raises(TypeError):  # keyword-only
        InstructionEvent(0, "x", None, None, (), (), (), (), BranchInfo(), 7)


def test_int_latency_is_stored_as_a_float():
    event = InstructionEvent(seq=0, pc=0, resources=("p0",), latency=3)
    assert type(event.latency) is float and event.latency == 3.0


def test_error_names_offending_line():
    text = '{"pc":0,"kind":"a"}\n{"pc":1,"kind":"b"}\nnot json\n'
    with pytest.raises(TraceError, match="invalid record") as err:
        parse(text)
    assert err.value.line == 3


def test_deeply_nested_record_names_its_line():
    text = '{"pc":0,"kind":"a"}\n' + "[" * 100_000 + "]" * 100_000 + "\n"
    with pytest.raises(TraceError, match="invalid record: nested too deeply") as err:
        parse(text)
    assert err.value.line == 2


def test_seq_assigned_from_line_order_and_blank_lines_skipped():
    events = parse('{"pc":0,"kind":"a"}\n\n{"pc":4,"kind":"b"}\n')
    assert events == parse('\n{"pc":0,"kind":"a","seq":5}\n{"pc":4,"kind":"b","seq":9}')
    assert events == [InstructionEvent(pc=0, kind="a"), InstructionEvent(pc=4, kind="b")]
    # the blank line takes no position: the second record's is 1
    parse('{"pc":0,"kind":"a"}\n\n{"pc":4,"kind":"b","seq":1}\n')
    with pytest.raises(TraceError, match="seq 0 does not increase") as err:
        parse('{"pc":0,"kind":"a"}\n\n{"pc":4,"kind":"b","seq":0}\n')
    assert err.value.line == 3


def test_explicit_seq_must_increase():
    parse('{"pc":0,"kind":"a","seq":3}\n{"pc":1,"kind":"b"}')
    with pytest.raises(TraceError, match="seq 3 does not increase"):
        parse('{"pc":0,"kind":"a","seq":3}\n{"pc":1,"kind":"b","seq":3}')
    # a repeated line fails on the repeat
    with pytest.raises(TraceError, match="line 2: seq 3 does not increase"):
        parse('{"pc":0,"kind":"a","seq":3}\n' * 2)


@pytest.mark.parametrize("seq", [-1, "0", True])
def test_bad_seq_rejected(seq):
    with pytest.raises(TraceError, match="seq must be an integer >= 0"):
        InstructionEvent(pc=0, kind="a", seq=seq)


def test_identical_lines_yield_one_event():
    # a line's first sighting keeps no event; its second is kept for later repeats
    first, second, third, fourth = parse('{"pc":0,"kind":"a"}\n' * 4)
    assert first == second and first is not second
    assert second is third is fourth


def test_repeats_across_a_memo_clear_are_equal():
    lines = [f'{{"pc":{pc},"kind":"a","reg_reads":[{pc % 7}]}}' for pc in range(_MEMO_LINES + 10)]
    events = parse("\n".join(lines + lines))
    assert len(events) == 2 * len(lines)
    assert events[:len(lines)] == events[len(lines):]
    assert events[:len(lines)] == [InstructionEvent(pc=pc, kind="a", reg_reads=(pc % 7,))
                                   for pc in range(len(lines))]


def test_bad_line_after_repeats_names_its_line():
    text = '{"pc":0,"kind":"a"}\n' * 5000 + '{"pc":0,"kind":"a"\n' + '{"pc":0,"kind":"a"}\n'
    with pytest.raises(TraceError, match="line 5001: invalid record") as err:
        parse(text)
    assert err.value.line == 5001


def test_integer_over_the_digit_limit_names_its_line():
    text = '{"pc":0,"kind":"a"}\n{"pc":%s,"kind":"a"}\n' % ("9" * 5000)
    with pytest.raises(TraceError, match="line 2: invalid record") as err:
        parse(text)
    assert err.value.line == 2


def _reference_parse(lines):
    """parse_trace without its memo or pc template: `_parse_record` on every
    line that is not blank, and an explicit seq that may not fall below the
    position.  The events before the first error, and that error's message
    and line (None for none)."""
    events, position = [], 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            event, seq = sensim.trace._parse_record(line)
        except TraceError as exc:
            return events, f"line {lineno}: {exc}", lineno
        if seq is not None:
            if seq < position:
                return events, f"line {lineno}: seq {seq} does not increase", lineno
            position = seq
        position += 1
        events.append(event)
    return events, None, None


def _typed(value):
    """A value with the type of it and of every item inside it: a plain tuple
    compares equal to an event, and True to 1."""
    if isinstance(value, (tuple, list)):
        return type(value), [_typed(item) for item in value]
    return type(value), value


def _parse_collecting(lines):
    events = []
    try:
        events.extend(parse_trace(lines))
    except TraceError as exc:
        return events, str(exc), exc.line
    return events, None, None


# Lines shaped like a template's: a leading pc as the text of any number, or
# not a number at all, then one of a few remainders, some of which carry a
# second pc, a seq, a number's continuation, a space or trailing text.
_PC_TEXTS = (st.integers(0, 2**70).map(str)
             | st.sampled_from(["1", "2", "01", "-0", "1e3", "1.0", " 5", "0", "\u0663",
                                "9" * 18, "9" * 19, "9" * 25, "9" * 5000, "1_0"]))
_REMAINDERS = st.sampled_from([
    ',"kind":"a"}', ',"kind":"b","reg_reads":[1]}', ',"resources":["p0"],"latency":4}',
    ',"pc":0,"kind":"a"}', ',"\\u0070c":3,"kind":"a"}', ',"kind":"a","pc":7}',
    ',"kind":"a","seq":3}', ',"kind":"a","seq":0}', ' ,"kind":"a"}', '}', ',"kind":"a"} x',
    '0,"kind":"a"}', '.5,"kind":"a"}', 'e1,"kind":"a"}', ',"kind":"a",}', ',"kind":7}'])
_LINES = st.lists(
    st.tuples(_PC_TEXTS, _REMAINDERS, st.sampled_from(["", "\n", "\r\n"])).map(
        lambda parts: '{"pc":' + "".join(parts))
    | st.sampled_from(["", "\n", "\r\n", " \t\n"]),
    max_size=12)


def _pcs(shape, *pcs):
    return [shape % pc for pc in pcs]


# two lines that admit a pc template for the remainder ',"kind":"a"}'
_ADMIT = _pcs('{"pc":%s,"kind":"a"}', 1, 2)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_LINES)
@example(_pcs('{"pc":%s,"pc":0,"kind":"a"}', 5, 6, 7))
@example(_ADMIT + _pcs('{"pc":%s,"pc":0,"kind":"a"}', 5, 6, 7) + ['{"pc":8,"kind":"a"}'])
@example(_pcs('{"pc":%s,"\\u0070c":0,"kind":"a"}', 5, 6, 7))
@example(_pcs('{"pc":%s,"pc":5,"kind":"a"}', 5, 6, 7))
@example(_pcs('{"pc":%s,"pc":5,"kind":"a"}', 6, 5, 7))
@example(_pcs('{"pc":%s,"pc":5,"kind":"a"}', 5, 5, 7))
@example(['{"pc":2,"kind":"abcdefgh"}', *_pcs('{"pc":%s,"pc":5,"kind":"a"}', 5, 7)])  # one length
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "01", 3))
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "-0", 3))
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "1e3", 3))
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "1.0", 3))
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "1\u0663", 3))
@example(_ADMIT + ['{"pc": 5,"kind":"a"}', '{"pc":3,"kind":"a"}'])
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "9" * 25, 3))
@example(_ADMIT + _pcs('{"pc":%s,"kind":"a"}', "9" * 5000, 3))
@example(_pcs('{"pc":%s5,"kind":"a"}', "1" * 18, "2" * 18, "3" * 18))  # a 19th digit
@example(_ADMIT + ['{"pc":3,"kind":"a","seq":9}', '{"pc":4,"kind":"a"}'])
@example(_ADMIT + ['{"pc":3,"kind":"a","seq":1}', '{"pc":4,"kind":"a"}'])
@example(_pcs('{"pc":%s,"kind":"a","seq":4}', 1, 2, 3))
@example(['{"pc":1,"kind":"a"}\r\n', '\r\n', '{"pc":2,"kind":"a"}\r\n', ' \t\n',
          '{"pc":3,"kind":"a"}\r\n', '\n', '{"pc":4,"kind":"a"}\n'])
@example(['\ufeff{"pc":1,"kind":"a"}', *_pcs('{"pc":%s,"kind":"a"}', 2, 3)])
def test_parse_trace_matches_a_reference_without_memo_or_template(lines):
    """Memo and template change only how often a line is parsed: the events,
    and a failure's message and line, are those of parsing every line."""
    assert _typed(_parse_collecting(lines)) == _typed(_reference_parse(lines))


@pytest.fixture
def parsed(monkeypatch):
    """The lines that parse_trace parses in full, in order."""
    lines = []
    monkeypatch.setattr(sensim.trace, "_parse_record",
                        lambda line, parse=sensim.trace._parse_record:
                        lines.append(line) or parse(line))
    return lines


def test_a_pc_template_and_the_memo_bound_the_full_parses(parsed):
    # chain: 10,000 lines that differ only in their pc; the first two admit the template
    chain = write_trace(generate("chain", iters=10_000)[0]).splitlines(keepends=True)
    events = list(parse_trace(chain))
    assert parsed == chain[:2]
    assert [event.pc for event in events] == [16384 + 4 * i for i in range(10_000)]
    assert _typed(events) == _typed(_reference_parse(chain)[0])
    assert all(type(e) is InstructionEvent and InstructionEvent(*e) == e for e in events)
    # jacobi: 2,730 distinct lines, each parsed at most twice, as without a template
    parsed.clear()
    jacobi = write_trace(generate("jacobi", iters=1000)[0]).splitlines(keepends=True)
    assert len(list(parse_trace(jacobi))) == 17_000
    assert len(set(jacobi)) == 2730 and len(parsed) == 5459


def test_template_events_share_the_fields_of_the_event_they_come_from():
    first, second, third = parse('{"pc":1,"kind":"a","reg_reads":[1]}\n'
                                 '{"pc":2,"kind":"a","reg_reads":[1]}\n'
                                 '{"pc":3,"kind":"a","reg_reads":[1]}')
    assert third == InstructionEvent(pc=3, kind="a", reg_reads=(1,))
    assert third.reg_reads is second.reg_reads and first.reg_reads is not second.reg_reads


def test_a_template_is_admitted_only_after_two_pcs(parsed):
    # the same pc twice proves nothing about a second "pc" key; pcs 4 and 8 do
    lines = ['{"pc":4,"kind":"a"}', '{"pc":4,"kind":"a"}', '{"pc":8,"kind":"a"}',
             '{"pc":9,"kind":"a"}', '{"pc":10,"kind":"a"}']
    assert [event.pc for event in parse_trace(lines)] == [4, 4, 8, 9, 10]
    assert parsed == lines[:3]
    # lines are compared only when they have one length: 9 and 10 are not, 10 and 11 are
    parsed.clear()
    lines = _pcs('{"pc":%s,"kind":"a"}', 9, 10, 11, 12)
    assert [event.pc for event in parse_trace(lines)] == [9, 10, 11, 12]
    assert parsed == lines[:3]
    # a seq in the remainder, or two remainders that differ, admit nothing
    parsed.clear()
    lines = ['{"pc":1,"kind":"a","seq":3}', '{"pc":2,"kind":"a","seq":4}',
             '{"pc":3,"kind":"a"}', '{"pc":4,"kind":"b"}', '{"pc":5,"kind":"a"}']
    assert len(list(parse_trace(lines))) == 5 and parsed == lines


# Texts around a record that the scanner alone would read otherwise than json.loads
@pytest.mark.parametrize("line", [
    ' {"pc":1,"kind":"a"}', '\t{"pc":1,"kind":"a"}\r\n', '{"pc":1,"kind":"a"} \t\r\n',
    '{"pc":1,"kind":"a"}\n\n', '{"pc":1,"kind":"a"} x', '{"pc":1,"kind":"a"}}',
    '{"pc":1,"kind":"a"}\x0c', '\ufeff{"pc":1,"kind":"a"}', '\x0c{"pc":1,"kind":"a"}',
    '{"pc":1,"kind":}', '{"pc":1,"kind":[1,]}', '{"pc":1', '[1]', '7', '"pc"', 'nul', 'x',
    '', ' \r\n',
    '{"pc":1,"kind":"a","reg_reads":[%s]}' % ("9" * 5000), "[" * 100_000,
])
def test_a_record_decodes_as_json_loads_decodes_it(line, monkeypatch):
    def outcome():
        try:
            return sensim.trace._parse_record(line)
        except TraceError as exc:
            return str(exc)

    def no_value(text, index):
        raise StopIteration(index)

    direct = outcome()
    monkeypatch.setattr(sensim.trace, "_scan", no_value)  # every line takes json.loads
    assert outcome() == direct
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        assert direct == f"invalid record: {exc.msg}"
    except (ValueError, RecursionError):
        assert direct.startswith("invalid record: ")


def test_a_record_followed_by_a_line_end_is_decoded_without_json_loads(monkeypatch):
    loaded = []
    monkeypatch.setattr(json, "loads", lambda text, loads=json.loads: loaded.append(text)
                        or loads(text))
    lines = ['{"pc":1,"kind":"a"}', '{"pc":2,"kind":"b","seq":5}\n', '{"pc":3,"kind":"c"}\r\n',
             '{"pc":4,"kind":"d"} \t\r\n']
    assert len(list(parse_trace(lines))) == 4 and loaded == []
    # json.loads reads what precedes the value; [1, 2] is scanned, and is not a record
    lines = [' {"pc":1,"kind":"a"}', '\t{"pc":2,"kind":"b"}\n', '[1, 2]\n']
    with pytest.raises(TraceError, match="line 3: record must be an object"):
        list(parse_trace(lines))
    assert loaded == lines[:2]


@pytest.mark.parametrize("record,message", [
    ('[1]', "record must be an object"),
    ('{"pc":0,"kind":"x","mem_reads":[{"addr":0}]}',
     'mem_reads entries must be {"addr":int,"size":int}'),
    ('{"pc":0,"kind":"x","mem_writes":[{"addr":0,"size":8,"x":1}]}',
     'mem_writes entries must be {"addr":int,"size":int}'),
    ('{"pc":0,"kind":"x","branch":{"kind":"direct","taken":true,"target":4,"x":1}}',
     "branch must be {kind, taken, target}"),
    ('{"pc":0,"kind":"x","bogus":1,"alpha":2}', "unknown field 'alpha'"),
    # null reads as absent in every field but pc, and never makes a key known
    ('{"pc":null,"kind":"x"}', "pc is required and must be an integer"),
    ('{"pc":0,"kind":"x","bogus":null}', "unknown field 'bogus'"),
    ('{"pc":0,"kind":"x","reg_reads":5}', "reg_reads must be an array"),
    # a byte not in UTF-8, read with errors="surrogateescape", and any other lone surrogate
    ('{"pc":0,"kind":"\udcff"}', "invalid record: not UTF-8"),
    ('{"pc":0,"kind":"x"}\udc80', "invalid record: not UTF-8"),
    ('{"pc":0,"kind":"\u00e9\ud800"}', "invalid record: not UTF-8"),
])
def test_malformed_record_messages(record, message):
    with pytest.raises(TraceError) as err:
        parse(record)
    assert str(err.value) == f"line 1: {message}"


def test_a_null_array_or_branch_is_absent():
    record = {"pc": 4, "kind": "x", "reg_reads": [1], "reg_writes": [2],
              "mem_reads": [{"addr": 0, "size": 8}], "mem_writes": [{"addr": 8, "size": 8}],
              "branch": {"kind": "direct", "taken": True, "target": 64}}
    for field in ("reg_reads", "reg_writes", "mem_reads", "mem_writes", "branch"):
        without = {k: v for k, v in record.items() if k != field}
        assert parse(json.dumps({**without, field: None})) == parse(json.dumps(without)), field


def test_non_ascii_text_and_escaped_surrogates_are_records():
    # an escape is ASCII text, so no byte of the file was outside UTF-8
    assert [e.kind for e in parse('{"pc":0,"kind":"\u00e9"}\n{"pc":1,"kind":"\\udcff"}')] == [
        "\u00e9", "\udcff"]


def test_a_loop_body_of_4096_lines_is_parsed_twice_and_a_longer_one_every_time(parsed):
    for body, parses in ((4096, 2 * 4096), (4097, 3 * 4097)):
        lines = [f'{{"pc":0,"kind":"a","reg_reads":[{i}]}}' for i in range(body)]
        parsed.clear()
        assert len(list(parse_trace(lines * 3))) == 3 * body
        assert len(parsed) == parses


def test_write_trace_memo_keeps_65536_events(monkeypatch):
    encoded = []
    monkeypatch.setattr(sensim.trace, "_encode_record",
                        lambda record, encode=sensim.trace._encode_record:
                        encoded.append(record["pc"]) or encode(record))
    # neighbours differ in kind, so no line is written from the pc template
    events = [InstructionEvent(pc=pc, kind="ab"[pc % 2]) for pc in range(65_537)]
    write_trace(events[:40_000] + events[:1])  # the first event is still kept
    assert len(encoded) == 40_000
    encoded.clear()
    write_trace(events + events[1:2])  # the 65,537th clears the memo
    assert len(encoded) == 65_538 and encoded[-2:] == [65_536, 1]


def test_round_trip_empty():
    assert write_trace([]) == ""
    assert parse("") == []


def test_round_trip_one_event():
    event = InstructionEvent(
        seq=0, pc=64, kind="store", resources=("p4",), latency=4.0,
        reg_reads=(1, 2), reg_writes=(3,),
        mem_reads=(MemAccess(100, 8),), mem_writes=(MemAccess(200, 4),),
        branch=BranchInfo(kind="conditional", taken=True, target=32))
    assert parse(write_trace([event])) == [event]


def test_write_trace_memo_starts_over_when_full(monkeypatch):
    # a full memo is cleared, so a recurring event is encoded again, to the same line
    a, b, c = (InstructionEvent(pc=pc, kind=kind) for pc, kind in ((0, "a"), (4, "b"), (8, "c")))
    encoded = []
    monkeypatch.setattr(sensim.trace, "_MEMO_EVENTS", 2)
    monkeypatch.setattr(sensim.trace, "_encode_record",
                        lambda record, encode=sensim.trace._encode_record:
                        encoded.append(record["pc"]) or encode(record))
    events = [a, b, a, c, a, b]
    assert write_trace(events) == "".join(f'{{"pc":{e.pc},"kind":"{e.kind}"}}\n' for e in events)
    assert encoded == [0, 4, 8, 0, 4]



def _reference_line(event):
    """An event's record line, encoded in full: the writer without its memo
    or its pc template."""
    record = {"pc": event.pc}
    record.update((name, getattr(event, name)) for name in ("kind", "resources", "latency")
                  if getattr(event, name) is not None)
    record.update((name, getattr(event, name)) for name in ("reg_reads", "reg_writes")
                  if getattr(event, name))
    record.update((name, [{"addr": a, "size": n} for a, n in getattr(event, name)])
                  for name in ("mem_reads", "mem_writes") if getattr(event, name))
    if event.branch.kind != "none":
        record["branch"] = event.branch._asdict()
    return json.dumps(record, separators=(",", ":")) + "\n"


_PCS = st.sampled_from([0, 1, 9, 10, 99, 2**63 - 1, 2**64, 10**40]) | st.integers(0, 2**200)
_LATENCIES = st.sampled_from([0.0, -0.0, 4.0]) | st.floats(0, 1e300)
_WRITTEN = st.builds(  # valid events, each field drawn from few values so that runs repeat them
    lambda semantics, pc, *rest: InstructionEvent(pc, **semantics, **dict(zip(
        ("reg_reads", "reg_writes", "mem_reads", "mem_writes", "branch"), rest))),
    st.fixed_dictionaries({"kind": st.sampled_from(["k", "ld", ""])})
    | st.fixed_dictionaries({"kind": st.none() | st.just("k"),
                             "resources": st.sampled_from([(), ("p0",), ("p0", "p1")]),
                             "latency": _LATENCIES}),
    _PCS, st.sampled_from([(), (1,), (1, 2)]), st.sampled_from([(), (0,)]),
    st.sampled_from([(), (MemAccess(64, 8),), (MemAccess(64, 8), MemAccess(0, 1))]),
    st.sampled_from([(), (MemAccess(128, 4),)]),
    st.sampled_from([BranchInfo(), BranchInfo("conditional", False, 0),
                     BranchInfo("direct", True, 64)]))
# one field other than pc, and values to put there: a near miss of a run
_NEAR_MISS = st.one_of(
    st.tuples(st.just("kind"), st.sampled_from([None, "k", "ld", "k2"])),
    st.tuples(st.just("resources"), st.sampled_from([(), ("p0",), ("p1",)])),
    st.tuples(st.just("latency"), _LATENCIES),
    st.tuples(st.just("reg_reads"), st.sampled_from([(), (1,), (2, 1)])),
    st.tuples(st.just("reg_writes"), st.sampled_from([(), (0,), (3,)])),
    st.tuples(st.just("mem_reads"), st.sampled_from([(), (MemAccess(64, 8),), (MemAccess(65, 8),)])),
    st.tuples(st.just("mem_writes"), st.sampled_from([(), (MemAccess(128, 4),)])),
    st.tuples(st.just("branch"), st.sampled_from([BranchInfo(), BranchInfo("indirect", True, 64),
                                                  BranchInfo("conditional", True, 0)])))


@st.composite
def _runs(draw):
    """Events in runs that differ only in pc, broken by near misses that differ
    in one other field, fresh events and recurring objects."""
    events = []
    for _ in range(draw(st.integers(1, 4))):
        event = draw(_WRITTEN)
        events.append(event)
        for step in draw(st.lists(_PCS | _NEAR_MISS | st.just("again"), max_size=8)):
            if step == "again":
                events.append(events[draw(st.integers(0, len(events) - 1))])
            elif type(step) is int:
                events.append(event._replace(pc=step))
            else:
                try:
                    events.append(event._replace(**dict([step])))
                except TraceError:  # resources and latency go together
                    pass
    return events


def _signed_zeros(*latencies):
    return [InstructionEvent(pc=pc, resources=("p0",), latency=latency)
            for pc, latency in enumerate(latencies)]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_runs(), st.sampled_from([2, 3, 1 << 16]))
@example(_signed_zeros(0.0, -0.0, 0.0), 1 << 16)
@example(_signed_zeros(-0.0, -0.0, 0.0, 0.0), 1 << 16)
@example([InstructionEvent(pc=0, kind="k"), InstructionEvent(pc=10**40, kind="k"),
          InstructionEvent(pc=7, kind="k", reg_reads=(1,)), InstructionEvent(pc=8, kind="k")],
         1 << 16)
def test_written_lines_match_a_full_encoding(events, memo_size):
    """The memo and the pc template change no byte: each line is the event's
    full encoding, and the trace parses back to the events."""
    with mock.patch.object(sensim.trace, "_MEMO_EVENTS", memo_size):
        lines = list(sensim.trace._trace_lines(events))
    assert lines == [_reference_line(event) for event in events]
    assert parse("".join(lines)) == events


@pytest.mark.parametrize("events,encoded", [
    (generate("chain", iters=1000)[0], 1),
    (_signed_zeros(*[0.0] * 5), 1),
    (_signed_zeros(*[-0.0] * 5), 1),
    (_signed_zeros(0.0, -0.0, 0.0, -0.0), 4),
    (_signed_zeros(1.0, 1.0, 0.0, 0.0, 1.0), 3),
    ([InstructionEvent(pc=pc, kind=kind) for pc, kind in enumerate("aabba")], 3),
], ids=["chain", "zeros", "negative-zeros", "alternating-zeros", "runs", "kinds"])
def test_only_lines_that_differ_beyond_the_pc_are_encoded(monkeypatch, events, encoded):
    pcs = []
    monkeypatch.setattr(sensim.trace, "_encode_record",
                        lambda record, encode=sensim.trace._encode_record:
                        pcs.append(record["pc"]) or encode(record))
    assert write_trace(events) == "".join(map(_reference_line, events))
    assert len(pcs) == encoded

def test_round_trip_port_block():
    from sensim.corpus import gen_port_block

    events, _ = gen_port_block()
    assert len(events) == 12
    assert parse(write_trace(events)) == events


def test_round_trip_random_events():
    rng = random.Random(7)
    kinds = [None, "alu", "mul"]
    events = []
    for seq in range(300):
        kind = rng.choice(kinds)
        inline = kind is None or rng.random() < 0.5
        events.append(InstructionEvent(
            seq=seq, pc=rng.randrange(2**40),
            kind=kind,
            resources=tuple(f"p{rng.randint(0, 7)}"
                            for _ in range(rng.randint(0, 3))) if inline else None,
            latency=float(rng.randint(0, 9)) if inline else None,
            reg_reads=tuple(sorted(rng.sample(range(16), rng.randint(0, 3)))),
            reg_writes=tuple(sorted(rng.sample(range(16), rng.randint(0, 2)))),
            mem_reads=tuple(MemAccess(rng.randrange(2**32), rng.randint(1, 64))
                            for _ in range(rng.randint(0, 2))),
            mem_writes=tuple(MemAccess(rng.randrange(2**32), rng.randint(1, 64))
                             for _ in range(rng.randint(0, 1))),
            branch=rng.choice((
                BranchInfo(),
                BranchInfo(kind="conditional", taken=bool(rng.getrandbits(1)), target=64),
                BranchInfo(kind="direct", taken=True, target=128),
                BranchInfo(kind="indirect", taken=True, target=256)))))
    assert parse(write_trace(events)) == events


def test_gapped_explicit_seq_parses_and_is_not_written_back():
    events = parse('{"pc":0,"kind":"a","seq":5}\n{"pc":4,"kind":"b","seq":9}')
    assert events == [InstructionEvent(pc=0, kind="a"), InstructionEvent(pc=4, kind="b")]
    assert write_trace(events) == '{"pc":0,"kind":"a"}\n{"pc":4,"kind":"b"}\n'
    assert write_trace([InstructionEvent(seq=5, pc=0, kind="a")]) == '{"pc":0,"kind":"a"}\n'


# Every field is drawn right most of the time, and otherwise as any JSON-like
# value, a list where a tuple belongs, or a MemAccess or BranchInfo built from
# such values.  Those are drawn as functions that build them, so that a record
# type that rejects itself does so inside the test.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2**65), st.floats(),
                     st.text(max_size=3))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.lists(inner, max_size=2).map(tuple)
    | st.dictionaries(st.sampled_from(["addr", "size", "kind"]), inner, max_size=2),
    max_leaves=4)
_INTS = st.integers(0, 2**64)


def _mostly(right, wrong):
    """Draws of `right` about fifteen times in sixteen, else of `wrong`."""
    return st.integers(0, 15).flatmap(lambda n: wrong if n == 0 else right)


def _tuples(entries):
    """Tuples of `entries`; else a list of them, or any JSON-like value."""
    return _mostly(st.lists(entries, max_size=3).map(tuple),
                   st.lists(entries, max_size=3) | _VALUES)


def _built(cls, *args):
    return st.builds(lambda *drawn: lambda: cls(*drawn), *args)


_ACCESS = st.builds(MemAccess, st.integers(0, 2**64 - 4096), st.integers(1, 4096))
_ANY_ACCESS = _built(MemAccess, st.integers(-1, 2**64) | _SCALARS,
                     st.integers(0, 4097) | _SCALARS)
_BRANCH = (st.just(BranchInfo())
           | st.builds(BranchInfo, st.just("conditional"), st.booleans(), _INTS)
           | st.builds(BranchInfo, st.sampled_from(["direct", "indirect"]), st.just(True), _INTS))
_ANY_BRANCH = _built(BranchInfo, st.sampled_from(BRANCH_KINDS + ("call",)) | _SCALARS,
                     st.booleans() | _SCALARS, _INTS | _SCALARS)
_TEXT = st.text(max_size=3)
_SEMANTICS = (st.fixed_dictionaries({"kind": _mostly(_TEXT, _VALUES)})
              | st.fixed_dictionaries({
                  "kind": _mostly(st.none() | _TEXT, _VALUES),
                  "resources": _tuples(_TEXT),
                  "latency": _mostly(st.floats() | st.integers(-1, 2**1030), _VALUES)}))
_FIELDS = st.tuples(_SEMANTICS, st.fixed_dictionaries({
    "seq": _mostly(_INTS, _VALUES),
    "pc": _mostly(_INTS, _VALUES),
    "reg_reads": _tuples(_INTS),
    "reg_writes": _tuples(_INTS),
    "mem_reads": _tuples(_mostly(_ACCESS, _ANY_ACCESS)),
    "mem_writes": _tuples(_mostly(_ACCESS, _ANY_ACCESS)),
    "branch": _mostly(_BRANCH, _ANY_BRANCH | _VALUES),
})).map(lambda parts: {**parts[0], **parts[1]})


def _build(value):
    if callable(value):
        return value()
    if type(value) in (list, tuple):  # not a MemAccess or BranchInfo, also tuples
        return type(value)(_build(v) for v in value)
    return value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FIELDS)
def test_every_valid_event_round_trips(fields):
    """An event that builds is written as a record that parses back to it."""
    try:
        event = InstructionEvent(**{k: _build(v) for k, v in fields.items()})
    except TraceError as exc:
        assert exc.line is None
        return
    assert parse(write_trace([event])) == [event]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_corpus_kernels_round_trip(name):
    events, _ = generate(name, **({"iters": 3} if "iters" in KERNELS[name][1] else {}))
    assert parse(write_trace(events)) == events
