"""Command-line entry points: simulate, sensitivity, gen-kernel.  Each imports only
the modules it runs, so none compiles the whole package."""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from itertools import islice

from .machine import accelerable_parameters, apply_weights, dump_config, load_config
from .trace import TraceError, _trace_lines, parse_trace

_BATCH = 256  # records parsed before the run binds them: alternating per record costs more


class _Parser(argparse.ArgumentParser):
    # input mistakes exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sensim",
                     description="Abstract out-of-order CPU model with "
                                 "sensitivity-based bottleneck analysis.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="estimate one trace on one machine")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("trace", help="trace file (one record per line)")
    sim.add_argument("--config", required=True, help="machine configuration file")
    sim.add_argument("--report", choices=("json", "table"), default="table")
    sim.add_argument("--per-instruction", action="store_true",
                     help="include the per-pc resource usage table")

    sens = sub.add_parser("sensitivity", help="sweep accelerations to find bottlenecks")
    sens.set_defaults(run=_cmd_sensitivity)
    sens.add_argument("trace")
    sens.add_argument("--config", required=True)
    sens.add_argument("--weights", help="comma-separated acceleration weights (all >= 1)")
    sens.add_argument("--resources", default="all",
                      help="'all' or a comma-separated parameter list")
    sens.add_argument("--subsets", default=None,
                      help="semicolon-separated groups (a,b;c,d), or 'auto' or "
                           "'auto:<k>' for the power set up to size k (default "
                           "3); swept at the largest weight")
    sens.add_argument("--threshold", type=float)  # both default to sensitivity's
    sens.add_argument("--heatmap", default=None, metavar="OUT.csv|OUT.svg",
                      help="write the (parameter, weight) grid to a file")
    sens.add_argument("--workers", type=int, default=1,
                      help="processes that run the sweep's points, the parent "
                           "included (>= 1; default 1)")

    gen = sub.add_parser("gen-kernel", help="write a built-in kernel trace + config")
    gen.set_defaults(run=_cmd_gen_kernel)
    gen.add_argument("name", help="a built-in kernel; an unknown name lists them")
    gen.add_argument("--iters", type=int, default=None)
    gen.add_argument("--footprint", type=int, default=None,
                     help="buffer bytes for the stream kernel")
    gen.add_argument("--out", default=None,
                     help="trace file path (default <name>.trace); the config "
                          "goes next to it with a .cfg suffix")
    return parser


@contextmanager
def _load_inputs(args):
    """The config, then the trace's events, parsed from the open file in
    batches of _BATCH records that the run binds in turn: a parse error waits
    until the events before it are built, and a TraceError without a line (a
    record the config cannot bind) gets that record's.  A byte not in UTF-8 is
    read as a lone surrogate, which makes its record malformed."""
    with open(args.config, "r", encoding="utf-8") as fh:
        config = load_config(fh.read())
    with open(args.trace, "r", encoding="utf-8", errors="surrogateescape") as fh:
        read, at = [0], [0]
        events = parse_trace(line for read[0], line in enumerate(fh, 1))

        def batched():
            while True:
                batch = []
                try:  # extend keeps what it appended before an error
                    batch.extend((read[0], event) for event in islice(events, _BATCH))
                finally:  # so an error is raised once the events before it are built
                    for at[0], event in batch:
                        yield event
                if len(batch) < _BATCH:
                    return
        try:
            yield batched(), config
        except TraceError as exc:
            if exc.line is not None:
                raise
            raise TraceError(str(exc), at[0]) from None


@contextmanager
def _output_file(path: str, others: tuple[str, ...] = ()):
    """An output file, opened before anything is written and removed if it is
    new and the command fails.  Yields a function that starts the writing and
    returns the file; only then is a regular file truncated (a device or a pipe
    cannot be).  It may not name any of `others`."""
    for other in others:
        try:
            same = os.path.samefile(path, other)
        except OSError:  # one of them does not exist (yet)
            same = os.path.realpath(path) == os.path.realpath(other)
        if same:
            raise ValueError(f"cannot write {path}: it names the same file as {other}")
    try:
        fh, created = open(path, "x", encoding="utf-8"), True
    except FileExistsError:
        fh, created = open(path, "a", encoding="utf-8"), False

    def start():
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        return fh
    try:
        with fh:
            yield start
    except BaseException:
        if created:
            os.remove(path)
        raise


def _cmd_simulate(args) -> int:
    from .engine import simulate
    from .report import (format_instruction_table, format_run_report, render_instruction_table,
                         run_report_pieces)
    with _load_inputs(args) as (trace, config):
        result = simulate(trace, config)
    rows = render_instruction_table(result) if args.per_instruction else None
    if args.report == "json":  # in blocks of pieces: one write per piece costs more
        pieces = run_report_pieces(result, rows)
        sys.stdout.writelines(iter(lambda: "".join(islice(pieces, 512)), ""))
    else:
        sys.stdout.write(format_run_report(result))
        if rows:
            sys.stdout.writelines(("\n", format_instruction_table(rows)))
    return 0


def _parse_subsets(raw: str, parameters: list[str]) -> list[tuple[str, ...]]:
    if raw == "auto" or raw.startswith("auto:"):
        k = "3" if raw == "auto" else raw[len("auto:"):]
        if not k.isdecimal() or int(k) < 1:
            raise ValueError(f"--subsets auto:{k} needs an integer size >= 1")
        from .sensitivity import power_subsets
        return power_subsets(parameters, max_size=int(k))
    groups = [tuple(p.strip() for p in group.split(",") if p.strip()) for group in raw.split(";")]
    return [g for g in groups if g]


def _cmd_sensitivity(args) -> int:
    from .report import emit_heatmap, format_sensitivity
    from .sensitivity import (DEFAULT_THRESHOLD, DEFAULT_WEIGHTS, SensitivityReport, classify,
                              sweep_single, sweep_subsets)
    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    # report a bad threshold, like a bad name or weight, before reading the trace
    classify(SensitivityReport(base_time=0.0, points=[]), threshold)
    heatmap_file = (nullcontext() if args.heatmap is None
                    else _output_file(args.heatmap, (args.trace, args.config)))
    with heatmap_file as heatmap, _load_inputs(args) as (trace, config):
        weights = (DEFAULT_WEIGHTS if args.weights is None else
                   [float(w) for w in args.weights.split(",") if w.strip()])
        if not weights:
            raise ValueError("--weights names no weight")
        parameters = (accelerable_parameters(config) if args.resources == "all" else
                      [p.strip() for p in args.resources.split(",") if p.strip()])

        if args.subsets is not None:
            subsets = _parse_subsets(args.subsets, parameters)
            if not subsets:
                raise ValueError("--subsets names no parameter set to sweep")
            for w in weights:  # only the largest is swept, but each must be valid
                apply_weights(config, dict.fromkeys(subsets[0], w))
            report = sweep_subsets(trace, config, subsets, max(weights), workers=args.workers)
        else:
            if not parameters:
                raise ValueError("--resources names no parameter to sweep")
            report = sweep_single(trace, config, parameters, weights, workers=args.workers)
        report.verdicts = classify(report, threshold)
        text = format_sensitivity(report)
        if heatmap is not None:  # written over only now, once the sweep has succeeded
            svg = args.heatmap.lower().endswith(".svg")  # the suffix in any case
            heatmap().write(emit_heatmap(report, "svg" if svg else "csv"))
    sys.stdout.write(text)
    if args.heatmap is not None:
        print(f"heatmap written to {args.heatmap}")
    return 0


def _cmd_gen_kernel(args) -> int:
    from . import corpus
    trace, config = corpus.generate(args.name, iters=args.iters, footprint=args.footprint)
    out = f"{args.name}.trace" if args.out is None else args.out
    cfg_path = os.path.splitext(out)[0] + ".cfg"
    with _output_file(out) as trace_out, _output_file(cfg_path, (out,)) as cfg_out:
        trace_out().writelines(_trace_lines(trace))
        cfg_out().write(dump_config(config))
    print(f"wrote {len(trace)} events to {out} and the machine to {cfg_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a command's objects live until it ends and its cycles are few and fixed in
    # number, so collecting frees nothing early; forked sweep workers inherit this
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"sensim: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
