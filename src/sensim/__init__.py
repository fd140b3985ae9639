"""sensim: a trace-driven abstract out-of-order CPU performance model.

Instructions consume throughput-limited abstract resources inside a bounded
instruction window, with dependencies tracked through a shadow register file
and shadow memory, cache bandwidth through a set-associative PLRU hierarchy,
and optional branch prediction.  Rerunning the model with resources
accelerated by a weight yields per-resource speedups: the resources whose
acceleration actually helps are the program's bottlenecks.

The top level exports only what the README's library example and the
benchmark use; everything else is imported from its submodule.
"""

from .branch import PredictorState, misprediction_delay
from .caches import CacheHierarchy, line_accesses
from .corpus import gen_jacobi_like
from .engine import build_schedule, run_schedule, simulate
from .machine import (MachineConfig, accelerable_parameters, apply_weights,
                      builtin_config, dump_config, load_config)
from .report import emit_heatmap, render_instruction_table, run_report_json
from .sensitivity import classify, sweep_single
from .trace import BranchInfo, InstructionEvent, MemAccess, parse_trace, write_trace

__version__ = "0.1.0"
