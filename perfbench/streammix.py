"""Seeded `stream-mix` workload: a streaming loop with a hard-to-predict branch.

Each iteration is five records on the built-in `skylake-like` machine with
its branch unit switched on:

    load   -> ALU op -> store      (a dependency chain through one register)
    cmp    -> conditional branch   (back to the loop head)

The load and the store stream through two buffers that each span twice the
last cache level (L3, 2 MiB).  The stride is a whole number of lines chosen so
that the buffers keep that span at any iteration count, and every access
touches a line never touched before, so every access misses every cache
level.  Branch outcomes alternate, in blocks of 64 iterations, between a
periodic pattern the tagged predictor can learn and seeded coin flips it
cannot.  The seed picks the period, the coin's bias and the flips.

Run as a script it writes the trace and the config through sensim's own
serialisers (`write_trace`, `dump_config`):

    PYTHONPATH=src python3 perfbench/streammix.py --seed 3 --iters 5000 \
        --out stream-mix.trace          # also writes stream-mix.cfg
"""

from __future__ import annotations

import argparse
import random
from dataclasses import replace

from sensim import (BranchInfo, InstructionEvent, MachineConfig, MemAccess,
                    builtin_config, dump_config, load_config, write_trace)

LINE = 64
SPAN = 4 * 1024 * 1024  # bytes per buffer: twice skylake-like's 2 MiB L3
SRC_BASE = 0x1000_0000
DST_BASE = SRC_BASE + 2 * SPAN
BLOCK = 64  # iterations per branch-pattern block
LOOP_PC = 0x6000

_RAX, _RCX, _RSI, _RDI, _XMM0, _XMM1, _FLAGS = range(7)


def stride_for(iters: int) -> int:
    """Bytes between consecutive accesses: whole lines, spanning >= SPAN."""
    lines = -(-SPAN // (iters * LINE))
    return LINE * max(1, lines)


def generate(seed: int, iters: int) -> tuple[list[InstructionEvent], MachineConfig]:
    """The trace and machine for one seed; the same seed gives the same pair."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = random.Random(seed)
    period = rng.randrange(3, 9)
    bias = rng.uniform(0.3, 0.7)
    stride = stride_for(iters)
    target = LOOP_PC
    events: list[InstructionEvent] = []
    for i in range(iters):
        if (i // BLOCK) % 2 == 0:
            taken = i % period != period - 1
        else:
            taken = rng.random() < bias
        offset = i * stride
        seq = 5 * i
        events += [
            InstructionEvent(seq=seq, pc=LOOP_PC, kind="vmovsd-load",
                             reg_reads=(_RSI, _RAX), reg_writes=(_XMM0,),
                             mem_reads=(MemAccess(SRC_BASE + offset, 8),)),
            InstructionEvent(seq=seq + 1, pc=LOOP_PC + 5, kind="vaddsd",
                             reg_reads=(_XMM0, _XMM1), reg_writes=(_XMM0,)),
            InstructionEvent(seq=seq + 2, pc=LOOP_PC + 9, kind="vmovsd-store",
                             reg_reads=(_RDI, _RAX, _XMM0),
                             mem_writes=(MemAccess(DST_BASE + offset, 8),)),
            InstructionEvent(seq=seq + 3, pc=LOOP_PC + 14, kind="cmp",
                             reg_reads=(_RAX, _RCX), reg_writes=(_FLAGS,)),
            InstructionEvent(seq=seq + 4, pc=LOOP_PC + 17, kind="jne",
                             reg_reads=(_FLAGS,),
                             branch=BranchInfo(kind="conditional", taken=taken,
                                               target=target)),
        ]
    config = load_config(builtin_config("skylake-like"))
    config = replace(config, branch=replace(config.branch, enabled=True))
    return events, config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iters", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="trace path; the config goes beside it as .cfg")
    args = parser.parse_args()
    events, config = generate(args.seed, args.iters)
    stem, dot, _ = args.out.rpartition(".")
    cfg_path = (stem if dot else args.out) + ".cfg"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_trace(events))
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(config))
    print(f"wrote {len(events)} events to {args.out} and the machine to {cfg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
