import hashlib

import pytest

from sensim.corpus import (gen_jacobi_like, gen_latency_chain,
                           gen_port_block, gen_stream, generate)
from sensim.engine import simulate
from sensim.machine import accelerable_parameters, dump_config
from sensim.sensitivity import classify, sweep_single
from sensim.trace import parse_trace, write_trace


@pytest.mark.parametrize("make", [
    lambda: gen_port_block(),
    lambda: gen_jacobi_like(50),
    lambda: gen_latency_chain(50),
    lambda: gen_stream(200, footprint=4096),
])
def test_generators_deterministic_and_serializable(make):
    trace_a, config_a = make()
    trace_b, config_b = make()
    assert trace_a == trace_b
    assert config_a == config_b
    assert list(parse_trace(write_trace(trace_a).splitlines())) == trace_a


def test_port_block_shape():
    trace, config = gen_port_block()
    assert len(trace) == 12
    assert config.window_capacity == 4
    assert config.frontend_resource is None
    assert config.cache_levels == ()
    assert not config.branch.enabled


def test_chain_total_is_four_n():
    for n in (1, 17, 250):
        trace, config = gen_latency_chain(n)
        assert simulate(trace, config).total_cycles == 4.0 * n


def test_chain_latency_is_the_only_bottleneck():
    trace, config = gen_latency_chain(400)
    params = accelerable_parameters(config)
    report = sweep_single(trace, config, params, [1.25])
    by_param = {p.parameters[0]: p.speedup for p in report.points}
    assert by_param["INST_LAT"] == pytest.approx(0.25, abs=0.01)
    for name in params:
        if name != "INST_LAT":
            assert by_param[name] == 0.0


def test_stream_memory_bound():
    trace, config = gen_stream(5000)
    report = sweep_single(trace, config, accelerable_parameters(config), [1.15])
    verdicts = classify(report, 0.01)
    assert verdicts[0].parameters == ("MEM_THR",)
    assert verdicts[0].is_bottleneck
    assert verdicts[0].speedup == pytest.approx(0.15, abs=0.01)


def test_stream_l1_resident_has_no_bandwidth_bottleneck():
    trace, config = gen_stream(40_000, footprint=8192)
    params = ["L2_THR", "L3_THR", "MEM_THR"]
    report = sweep_single(trace, config, params, [1.15])
    assert not any(v.is_bottleneck for v in classify(report, 0.01))


def test_stream_first_pass_compulsory_misses():
    footprint = 8192
    lines = footprint // 64
    trace, config = gen_stream(2 * lines, footprint=footprint)
    result = simulate(trace, config)
    for name in ("L1", "L2", "L3"):
        assert result.cache_stats[name].misses == lines
    assert result.cache_stats["L1"].hits == lines  # second pass is resident
    assert result.cache_stats["MEM"].hits == lines


def test_jacobi_like_p23_bound():
    trace, config = gen_jacobi_like(800)
    report = sweep_single(trace, config, accelerable_parameters(config), [1.05])
    verdicts = classify(report, 0.01)
    assert verdicts[0].parameters == ("p23",)


def test_jacobi_events_resolve_and_wrap():
    trace, config = gen_jacobi_like(1000)
    assert len(trace) == 17_000
    assert trace[-1].branch.taken is False
    assert trace[16].branch.taken is True
    footprint = 8192
    for ev in trace:
        for acc in ev.mem_reads + ev.mem_writes:
            assert acc.addr < 0x20000 + footprint


def test_jacobi_bytes_past_two_wraps_are_pinned():
    # 700 iterations pass the address wrap at 340 twice; the golden traces
    # stop at 50
    text = write_trace(gen_jacobi_like(700)[0])
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "05a6cf924c217c53642eec844ffad27cbe2835066c22744dc5acb251b87af009")


def test_generate_by_name():
    trace, config = generate("chain", iters=10)
    assert len(trace) == 10
    assert (trace, config) == gen_latency_chain(10)
    assert generate("stream", iters=30, footprint=4096) == gen_stream(30, footprint=4096)
    with pytest.raises(ValueError):
        generate("nosuch")


@pytest.mark.parametrize("bad", [0, -3])
def test_generators_reject_bad_sizes(bad):
    with pytest.raises(ValueError):
        gen_latency_chain(bad)
    with pytest.raises(ValueError):
        gen_jacobi_like(bad)
    with pytest.raises(ValueError):
        gen_stream(bad)


# sha256 of write_trace(trace) + dump_config(config) for each kernel at its defaults
KERNEL_BYTES = {
    "chain": "9abac9781888abab2cb60ab66e4b3bd75843732580faeb1397e3b453a4f38989",
    "jacobi": "61a1062a12356a08c03bc860317157b895d16a99365fa5b5ba3b51113c350f4f",
    "portblock": "d5aed2dc3a464dd35db1655ab5eb87607b9c411fff2b7ae13cd56ab6f2818287",
    "stream": "0a523cbc836b752154d58560afe48f764640f3c0a604348cb23571269830daf7",
}


@pytest.mark.parametrize("name", sorted(KERNEL_BYTES))
def test_default_kernel_bytes_are_pinned(name):
    # the golden CLI digests pass sizes and never print an address, so the
    # defaults, the addresses and the machines are pinned here
    trace, config = generate(name)
    text = write_trace(trace) + dump_config(config)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == KERNEL_BYTES[name]


def test_stream_footprint_defaults_to_four_mib():
    # the default 10,000 loads stay below 1 MiB, so the wrap needs more
    trace, _ = gen_stream(65537)
    assert generate("stream", iters=65537)[0] == trace
    base = trace[0].mem_reads[0].addr
    assert trace[-2].mem_reads[0].addr == base + 4 * 1024 * 1024 - 64
    assert trace[-1].mem_reads == trace[0].mem_reads


def test_smallest_sizes_generate():
    for make in (gen_jacobi_like, gen_latency_chain, gen_stream):
        assert make(1)[0]
    trace, _ = gen_stream(3, footprint=64)
    assert len({event.mem_reads for event in trace}) == 1
    for footprint in (0, 32, 96, 4095):
        with pytest.raises(ValueError, match="footprint must be a positive multiple of 64 "
                                             f"bytes, got {footprint}"):
            gen_stream(3, footprint=footprint)


@pytest.mark.parametrize("name,overrides,message", [
    ("nosuch", {}, "unknown kernel 'nosuch'; choose from chain, jacobi, portblock, stream"),
    ("portblock", {"iters": 5}, "kernel 'portblock' takes no iters override"),
    ("chain", {"footprint": 64}, "kernel 'chain' takes no footprint override"),
])
def test_generate_names_what_it_rejects(name, overrides, message):
    with pytest.raises(ValueError) as err:
        generate(name, **overrides)
    assert str(err.value) == message


def test_jacobi_branch_falls_through_only_on_the_last_body():
    # the kernel's machine has the branch unit off, so no timing shows this
    for iters in (1, 2, 3, 700):
        trace, _ = gen_jacobi_like(iters)
        assert [e.branch.taken for e in trace[16::17]] == [True] * (iters - 1) + [False]


def test_jacobi_repeats_its_bodies_as_the_same_objects():
    # bodies past the address wrap at 340 reuse the objects of the body they
    # repeat, all but the last: the writer encodes each distinct object once
    trace, _ = gen_jacobi_like(700)
    assert len({id(event) for event in trace}) == 17 * 341
    assert all(trace[17 * i + j] is trace[17 * (i % 340) + j]
               for i in range(340, 699) for j in range(17))
