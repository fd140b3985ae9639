"""Built-in synthetic kernels: deterministic trace+config generators for the
archetypal bottleneck classes (port pressure, dependency latency, memory
bandwidth) used by tests, demos and the gen-kernel CLI subcommand.
"""

from __future__ import annotations

from .machine import (CacheLevelConfig, MachineConfig, Resource, builtin_config,
                      load_config)
from .trace import BranchInfo, InstructionEvent, MemAccess

_REG_RAX, _REG_RCX, _REG_XMM0, _REG_XMM1, _REG_FLAGS, _REG_RDX = range(6)


def gen_port_block() -> tuple[list[InstructionEvent], MachineConfig]:
    """Twelve single-resource instructions through a 4-slot window.

    Every port has gap 1 and every instruction latency 1.  The p1 conflict
    between the first and fourth instructions delays window turnover enough
    to set the critical path, so accelerating p1 alone shortens the run even
    though busier-looking ports do nothing: the canonical demo that
    saturation does not equal bottleneck.
    """
    ports = ["p1", "p0", "p6", "p1", "p0", "p2", "p3", "p6", "p2", "p0", "p6", "p5"]
    events = [
        InstructionEvent(pc=0x1000 + 4 * i, resources=(port,), latency=1.0)
        for i, port in enumerate(ports)]
    config = MachineConfig(
        resources=tuple(Resource(name, 1.0) for name in ("p0", "p1", "p2", "p3", "p5", "p6")),
        window_capacity=4)
    return events, config


def gen_jacobi_like(iters: int) -> tuple[list[InstructionEvent], MachineConfig]:
    """A 17-instruction stencil loop body iterated `iters` times.

    Two L1-resident arrays are read/written through combined load ports (p23)
    heavily enough that p23 is the steady-state bottleneck; stores go through
    p4 and every instruction costs one frontend slot.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    config = load_config(builtin_config("skylake-like"))
    stack_a, stack_b = 0x7000, 0x7000 + 8
    base_a, base_b = 0x10000, 0x20000
    footprint = 8192  # per array; both stay L1-resident
    wrap = (footprint - 32) // 24

    events: list[InstructionEvent] = []

    def emit(pc, kind, reg_reads=(), reg_writes=(), mem_reads=(), mem_writes=(),
             branch=BranchInfo()):
        events.append(InstructionEvent(
            pc=pc, kind=kind, reg_reads=tuple(reg_reads), reg_writes=tuple(reg_writes),
            mem_reads=tuple(MemAccess(a, s) for a, s in mem_reads),
            mem_writes=tuple(MemAccess(a, s) for a, s in mem_writes),
            branch=branch))

    for i in range(iters):
        if wrap <= i < iters - 1:  # i % wrap alone shapes each body but the last
            events += events[17 * (i % wrap):17 * (i % wrap + 1)]
            continue
        rax = 24 * (i % wrap) + 8
        a = base_a + rax
        b = base_b + rax
        emit(0x12BB, "mov-load", mem_reads=[(stack_a, 8)], reg_writes=[_REG_RDX])
        emit(0x12C0, "vmovsd-load", reg_reads=[_REG_RDX, _REG_RAX],
             mem_reads=[(a, 8)], reg_writes=[_REG_XMM0])
        emit(0x12C5, "vaddsd-load", reg_reads=[_REG_XMM0, _REG_RDX, _REG_RAX],
             mem_reads=[(a + 8, 8)], reg_writes=[_REG_XMM0])
        emit(0x12CB, "vaddsd-load", reg_reads=[_REG_XMM0, _REG_RDX, _REG_RAX],
             mem_reads=[(a + 16, 8)], reg_writes=[_REG_XMM0])
        emit(0x12D1, "vmulsd", reg_reads=[_REG_XMM0, _REG_XMM1], reg_writes=[_REG_XMM0])
        emit(0x12D5, "mov-load", mem_reads=[(stack_b, 8)], reg_writes=[_REG_RDX])
        emit(0x12DA, "vmovsd-store", reg_reads=[_REG_RDX, _REG_RAX, _REG_XMM0],
             mem_writes=[(b + 8, 8)])
        emit(0x12E0, "mov-load", mem_reads=[(stack_b, 8)], reg_writes=[_REG_RDX])
        emit(0x12E5, "vmovsd-load", reg_reads=[_REG_RDX, _REG_RAX],
             mem_reads=[(b - 8, 8)], reg_writes=[_REG_XMM0])
        emit(0x12EB, "vaddsd-load", reg_reads=[_REG_XMM0, _REG_RDX, _REG_RAX],
             mem_reads=[(b, 8)], reg_writes=[_REG_XMM0])
        emit(0x12F0, "vaddsd-load", reg_reads=[_REG_XMM0, _REG_RDX, _REG_RAX],
             mem_reads=[(b + 8, 8)], reg_writes=[_REG_XMM0])
        emit(0x12F6, "vmulsd", reg_reads=[_REG_XMM0, _REG_XMM1], reg_writes=[_REG_XMM0])
        emit(0x12FA, "mov-load", mem_reads=[(stack_a, 8)], reg_writes=[_REG_RDX])
        emit(0x12FF, "vmovsd-store", reg_reads=[_REG_RDX, _REG_RAX, _REG_XMM0],
             mem_writes=[(a, 8)])
        emit(0x1304, "add", reg_reads=[_REG_RAX], reg_writes=[_REG_RAX])
        emit(0x1308, "cmp", reg_reads=[_REG_RAX, _REG_RCX], reg_writes=[_REG_FLAGS])
        emit(0x130B, "jne", reg_reads=[_REG_FLAGS],
             branch=BranchInfo(kind="conditional", taken=i < iters - 1, target=0x12BB))
    return events, config


def gen_latency_chain(iters: int) -> tuple[list[InstructionEvent], MachineConfig]:
    """`iters` instructions each reading the register the previous one wrote.

    Latency 4 with a non-binding port and frontend, so the dependency chain
    alone sets the total: exactly 4 * iters cycles, and only accelerating
    latencies (INST_LAT) can help.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    events = [
        InstructionEvent(pc=0x4000 + 4 * k, resources=("p0",), latency=4.0,
                         reg_reads=(0,), reg_writes=(0,))
        for k in range(iters)]
    return events, _small_machine(Resource("p0", 1.0))


def gen_stream(iters: int, footprint: int = 4 * 1024 * 1024) -> tuple[list[InstructionEvent], MachineConfig]:
    """`iters` loads striding one cache line over a `footprint`-byte buffer.

    With the default footprint far beyond the last cache level every access
    walks the whole hierarchy, so memory bandwidth (MEM_THR) dominates.
    Shrinking the footprint below L1 leaves only compulsory misses.  The
    footprint must be a positive multiple of the 64-byte stride.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if footprint < 64 or footprint % 64:
        raise ValueError(
            f"footprint must be a positive multiple of 64 bytes, got {footprint}")
    base = 0x100000
    events = [
        InstructionEvent(pc=0x5000, resources=("p23",), latency=4.0,
                         mem_reads=(MemAccess(base + (64 * k) % footprint, 8),),
                         reg_writes=(0,))
        for k in range(iters)]
    return events, _small_machine(Resource("p23", 0.5))


def _small_machine(port: Resource) -> MachineConfig:
    """A frontend and one port over a three-level hierarchy and memory."""
    return MachineConfig(
        resources=(Resource("FRONTEND", 0.25), port), window_capacity=64,
        frontend_resource="FRONTEND", cache_levels=(
            CacheLevelConfig("L1", gap=1.0, total_size=32768, associativity=8, line_size=64),
            CacheLevelConfig("L2", gap=1.0, total_size=262144, associativity=8, line_size=64),
            CacheLevelConfig("L3", gap=2.0, total_size=524288, associativity=8, line_size=64),
            CacheLevelConfig("MEM", gap=4.0)))


# name -> (generator, the overrides it takes in argument order, with defaults)
KERNELS = {
    "portblock": (gen_port_block, {}),
    "jacobi": (gen_jacobi_like, {"iters": 1000}),
    "chain": (gen_latency_chain, {"iters": 1000}),
    "stream": (gen_stream, {"iters": 10000, "footprint": 4 * 1024 * 1024}),
}


def generate(name: str, iters: int | None = None,
             footprint: int | None = None) -> tuple[list[InstructionEvent], MachineConfig]:
    """Look up and run a named kernel generator with optional overrides; an
    override the kernel does not take is an error."""
    try:
        gen, defaults = KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; choose from "
                         f"{', '.join(sorted(KERNELS))}") from None
    args = dict(defaults)
    for key, value in (("iters", iters), ("footprint", footprint)):
        if value is not None:
            if key not in args:
                raise ValueError(f"kernel {name!r} takes no {key} override")
            args[key] = value
    return gen(*args.values())
