"""sensim: a trace-driven abstract out-of-order CPU performance model.

Instructions consume throughput-limited abstract resources inside a bounded
instruction window, with dependencies tracked through a shadow register file
and shadow memory, cache bandwidth through a set-associative PLRU hierarchy,
and optional branch prediction.  Rerunning the model with resources
accelerated by a weight yields per-resource speedups: the resources whose
acceleration actually helps are the program's bottlenecks.

The top level exports only what the README's library example and the
benchmark use, each loaded on first read; anything else comes from its submodule.
"""

__version__ = "0.1.0"
_EXPORTS = {name: module for module, names in {
    "branch": "PredictorState misprediction_delay", "caches": "CacheHierarchy line_accesses",
    "corpus": "gen_jacobi_like", "engine": "build_schedule run_schedule simulate",
    "machine": "MachineConfig accelerable_parameters apply_weights builtin_config dump_config "
               "load_config",
    "report": "emit_heatmap render_instruction_table run_report_json",
    "sensitivity": "classify sweep_single",
    "trace": "BranchInfo InstructionEvent MemAccess parse_trace write_trace"}.items()
    for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):  # PEP 562: read for a name not yet bound, so `import sensim` loads none
    if name not in _EXPORTS:  # then `from sensim import engine` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    globals()[name] = value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
