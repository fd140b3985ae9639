"""The benchmark's own tests, so the script cannot rot.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import replay  # noqa: E402
import run  # noqa: E402
import streammix  # noqa: E402


def _run(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def test_smoke_passes_the_gate_on_every_workload():
    proc = _run("--smoke", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in rows] == list(run.WORKLOADS)
    assert all(r["failed"] == 0 and r["attempted"] == 4 for r in rows)


def test_every_variant_has_pinned_digests():
    pins = run.load_pins()
    for w in run.WORKLOADS.values():
        for iters in (w.iters, w.smoke_iters):
            for variant in {w.variant(seed) for seed in range(2 * run.SEED_VARIANTS)}:
                entry = pins[f"{w.name}/{iters}/{variant}"]
                assert set(entry) == {"trace", "config", "simulate", "sensitivity",
                                      "heatmap"}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_exactly_the_declared_metrics(trace, kind):
    proc = _run("--workload", "chain", "--seed", "0", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = _run("--workload", "jacobi", "--seed", "1", "--seconds", "1", "--trace", "0",
                root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stream_mix_is_seeded_and_misses_every_cache():
    a, config = streammix.generate(3, 200)
    b, _ = streammix.generate(3, 200)
    c, _ = streammix.generate(4, 200)
    assert a == b and a != c
    assert config.branch.enabled
    lookups, levels = replay.replay_caches(a, config)
    assert lookups == 400
    assert {name: hits for name, hits, _ in levels} == {"L1": 0, "L2": 0, "L3": 0,
                                                        "MEM": 400}
    span = 200 * streammix.stride_for(200)
    assert span >= streammix.SPAN


@pytest.mark.parametrize("n, value, pct", [(5, 5.0, 100.0), (60, 50.0, 100 * 50 / 60)])
def test_tail_leaves_ten_samples_beyond(n, value, pct):
    assert replay.tail([float(i + 1) for i in range(n)]) == (value, pct)
