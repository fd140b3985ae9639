#!/usr/bin/env python3
"""sensim's benchmark: host time and memory of `simulate` and `sensitivity`.

One client in this process runs the sensim CLI as a closed loop, one
command at a time: set-up, `simulate`, `sensitivity`, again and again until
the measuring time is up.  A host-speed probe runs between commands, and each
command's wall time is also reported scaled to the reference host.  Every
command's stdout and heatmap is hashed and checked against a digest pinned
per workload and input variant.  With `--trace 1` a traced in-process replay
(replay.py) follows the untraced loop and gives the per-layer numbers.  See
README.md in this directory for the workloads and for which layer metric
should move which end-to-end metric.

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke      # every workload, tiny, gate on
    python3 perfbench/run.py --pin        # rewrite digests.json

Run it from the root of a source checkout; it imports sensim from `src/` and
writes only to a scratch directory it makes there and removes on exit.  The
last line of stdout is the result object; the lines before it carry the
run's provenance and raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

SEED_VARIANTS = 16  # stream-mix inputs per seed class; each has pinned digests
CHILD_TIMEOUT_S = 150
HEATMAP = "heatmap.csv"
# HostProbe's time on the reference host: a 2-vCPU Intel Xeon VM, Python 3.11.7.
PROBE_REF_S = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    iters: int
    smoke_iters: int
    seeded: bool  # False: a corpus kernel, which takes no seed

    def variant(self, seed: int) -> int:
        return seed % SEED_VARIANTS if self.seeded else 0

    def setup_cmd(self, iters: int, variant: int) -> list[str]:
        out = f"{self.name}.trace"
        if self.seeded:
            return [sys.executable, str(BENCH_DIR / "streammix.py"),
                    "--seed", str(variant), "--iters", str(iters), "--out", out]
        return [sys.executable, "-m", "sensim.cli", "gen-kernel", self.name,
                "--iters", str(iters), "--out", out]


# Sizes give each command about 0.4-2.5 s on a 2-vCPU host, so a 40 s window
# holds 6-10 rounds; at 10k-100k iterations one round would outlast it.
WORKLOADS = {w.name: w for w in (
    Workload("jacobi", iters=1000, smoke_iters=20, seeded=False),
    Workload("chain", iters=10000, smoke_iters=200, seeded=False),
    Workload("stream-mix", iters=2500, smoke_iters=100, seeded=True),
)}


class HostProbe:
    """A fixed piece of pure-Python work that times the host's current speed.

    On a shared host the same command can take twice as long from one minute
    to the next.  The probe resembles sensim's own work (JSON records parsed
    into dicts, then indexed into tuples), so its time moves with the host
    the way sensim's does, and it runs no sensim code, so a change to sensim
    cannot move it.
    """

    def __init__(self):
        rng = random.Random(0)
        self.lines = [json.dumps({
            "pc": rng.randrange(1 << 16), "kind": "vaddsd-load",
            "reg_reads": [rng.randrange(16) for _ in range(3)],
            "reg_writes": [rng.randrange(16)],
            "mem_reads": [{"addr": rng.randrange(1 << 30), "size": 8}]})
            for _ in range(8000)]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        records = [json.loads(line) for line in self.lines]
        index = {(r["pc"], i): (tuple(r["reg_reads"]), r["mem_reads"][0]["addr"] >> 6)
                 for i, r in enumerate(records)}
        json.dumps({f"0x{pc:x}.{i}": v for (pc, i), v in index.items()},
                   sort_keys=True, indent=1)
        return time.perf_counter() - t0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    run: int = 0  # 1-based index among the runs a Bench attempted


class Launcher:
    """launcher.py in a process of its own, which runs every measured command.

    Peak RSS is read from `wait4` in that small process, because a command
    spawned from this one would inherit this process's high-water mark.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], cwd: Path) -> Child:
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        self.proc.stdin.write(json.dumps({
            "cmd": cmd, "cwd": str(cwd), "stdout": str(out_path),
            "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the launcher process died")
        r = json.loads(reply)
        return Child(wall_s=r["wall_s"], peak_rss_mb=r["maxrss_kb"] / 1024,
                     returncode=r["returncode"], stdout=out_path.read_bytes(),
                     stderr=err_path.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


def base_time(sensitivity_stdout: bytes) -> float | None:
    first = sensitivity_stdout.split(b"\n", 1)[0].decode("utf-8", "replace")
    prefix = "base time "
    return float(first[len(prefix):]) if first.startswith(prefix) else None


class Bench:
    """One workload at one size and input variant, in a scratch directory."""

    def __init__(self, launcher: Launcher, probe: HostProbe, workload: Workload,
                 iters: int, variant: int, workdir: Path, pinned: dict | None,
                 record: bool = False):
        self.launcher = launcher
        self.probe = probe
        self.workload = workload
        self.iters = iters
        self.variant = variant
        self.dir = workdir
        self.key = f"{workload.name}/{iters}/{variant}"
        self.pinned = {} if record else pinned
        self.record = record
        self.workers = len(os.sched_getaffinity(0))
        self.trace = f"{workload.name}.trace"
        self.config = f"{workload.name}.cfg"
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_runs: set[int] = set()
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("setup_s", "setup_wall_s", "simulate_s", "simulate_wall_s",
                            "simulate_rss_mb", "sensitivity_s", "sensitivity_wall_s",
                            "sensitivity_rss_mb", "probe_s")}
        self.first_simulate: bytes = b""
        self.last_probe: float | None = None

    def fail(self, message: str, run: int) -> None:
        self.problems.append(message)
        self.failed_runs.add(run)
        print(f"perfbench: {self.key}: {message}", file=sys.stderr)

    def expect(self, what: str, got: str, run: int) -> None:
        if self.record:
            self.pinned[what] = got
            return
        want = (self.pinned or {}).get(what)
        if want is None:
            self.fail(f"no pinned digest for {what} (run --pin)", run)
        elif got != want:
            self.fail(f"{what} digest {got[:12]} differs from pinned {want[:12]}", run)

    def command(self, cmd: list[str], label: str) -> Child:
        """Run one command; a non-zero exit counts as a failed run."""
        self.attempted += 1
        child = self.launcher.run(cmd, self.dir)
        child.run = self.attempted
        if child.returncode != 0:
            tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            self.fail(f"{label} exited {child.returncode}: {' '.join(tail)}", child.run)
        return child

    def timed(self, cmd: list[str], label: str) -> Child:
        """A command between two host probes; records its wall time and its
        time scaled to the reference host, wall x PROBE_REF_S / mean probe."""
        before = self.last_probe if self.last_probe is not None else self.probe()
        child = self.command(cmd, label)
        self.last_probe = after = self.probe()
        self.samples["probe_s"].append(after)
        self.samples[f"{label}_wall_s"].append(child.wall_s)
        self.samples[f"{label}_s"].append(child.wall_s * PROBE_REF_S * 2 / (before + after))
        return child

    def setup(self) -> None:
        """Write the inputs through sensim, timed; they must match the pins."""
        child = self.timed(self.workload.setup_cmd(self.iters, self.variant), "setup")
        if child.returncode:
            raise SystemExit(1)  # without inputs nothing else can run
        self.expect("trace", self.file_digest(self.trace), child.run)
        self.expect("config", self.file_digest(self.config), child.run)

    def events(self) -> int:
        with open(self.dir / self.trace, "rb") as fh:
            return sum(1 for line in fh if line.strip())

    def file_digest(self, name: str) -> str:
        return sha256((self.dir / name).read_bytes())

    def pair(self) -> None:
        """One `simulate` then one `sensitivity`, timed and checked."""
        sim = self.timed([sys.executable, "-m", "sensim.cli", "simulate", self.trace,
                          "--config", self.config, "--report", "json",
                          "--per-instruction"], "simulate")
        heatmap = self.dir / HEATMAP
        heatmap.unlink(missing_ok=True)
        sens = self.timed([sys.executable, "-m", "sensim.cli", "sensitivity",
                           self.trace, "--config", self.config, "--resources", "all",
                           "--heatmap", HEATMAP, "--workers", str(self.workers)],
                          "sensitivity")
        self.samples["simulate_rss_mb"].append(sim.peak_rss_mb)
        self.samples["sensitivity_rss_mb"].append(sens.peak_rss_mb)
        if sim.returncode == 0:
            self.expect("simulate", sha256(sim.stdout), sim.run)
            self.first_simulate = self.first_simulate or sim.stdout
        if sens.returncode == 0:
            self.expect("sensitivity", sha256(sens.stdout), sens.run)
            self.expect("heatmap", sha256(heatmap.read_bytes()) if heatmap.exists() else "",
                        sens.run)
        if sim.returncode == 0 and sens.returncode == 0:
            total = json.loads(sim.stdout)["total_cycles"]
            if base_time(sens.stdout) != total:
                self.fail(f"sensitivity base time {base_time(sens.stdout)} "
                          f"!= simulate total {total}", sens.run)

    def loop(self, seconds: float) -> None:
        """Closed loop of set-up, `simulate`, `sensitivity`.  The next round
        starts only when the last has finished, and only if it should end
        inside the measuring window.  Set-up runs in every round so that its
        samples see the same host conditions as the commands."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.setup()
            self.pair()
            now = time.perf_counter()
            if now + (now - t0) - start > seconds:
                break

    def points(self) -> int:
        from sensim import accelerable_parameters, load_config
        from sensim.sensitivity import DEFAULT_WEIGHTS
        config = load_config((self.dir / self.config).read_text(encoding="utf-8"))
        return len(accelerable_parameters(config)) * len(DEFAULT_WEIGHTS)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        s = self.samples
        events = self.events()
        runs = events * (self.points() + 1)
        return {
            "setup_s": (statistics.median(s["setup_s"]), "s"),
            "simulate_events_per_s": (
                statistics.median(events / t for t in s["simulate_s"]), "1/s"),
            "simulate_peak_rss_mb": (statistics.median(s["simulate_rss_mb"]), "MB"),
            "sensitivity_events_per_s": (
                statistics.median(runs / t for t in s["sensitivity_s"]), "1/s"),
            "sensitivity_peak_rss_mb": (statistics.median(s["sensitivity_rss_mb"]), "MB"),
        }

    def replay(self, seed: int) -> dict:
        """The traced in-process run, in a fresh process of its own."""
        child = self.command([sys.executable, str(BENCH_DIR / "replay.py"),
                              "--trace", self.trace, "--config", self.config,
                              "--workers", str(self.workers),
                              "--generator", self.workload.name,
                              "--iters", str(self.iters), "--seed", str(seed)],
                             "replay")
        if child.returncode:
            raise SystemExit(1)
        out = json.loads(child.stdout)
        for name, ok in out["checks"].items():
            if not ok:
                self.fail(f"replay check failed: {name}", child.run)
        for what, digest in out["digests"].items():
            self.expect(what, digest, child.run)
        return out

    def provenance(self, seed: int) -> dict:
        import sensim
        doc = json.loads(self.first_simulate) if self.first_simulate else {}
        branch = doc.get("branch", {})
        predicted = branch.get("predicted", 0)
        return {
            "workload": self.workload.name, "seed": seed, "variant": self.variant,
            "iters": self.iters, "events": self.events(), "workers": self.workers,
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_sha": git_sha(),
            "source_sha256": source_digest(), "sensim_version": sensim.__version__,
            "trace_sha256": self.file_digest(self.trace),
            "config_sha256": self.file_digest(self.config),
            "descriptors": {
                "total_cycles": doc.get("total_cycles"), "ipc": doc.get("ipc"),
                "misses": {k: v["misses"] for k, v in doc.get("caches", {}).items()},
                "misprediction_ratio": (branch.get("mispredicted", 0) / predicted
                                        if predicted else 0.0),
            },
        }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sensim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def declared_metrics() -> dict[str, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}


def load_pins() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def emit(metrics: dict[str, tuple[float, str]], names: list[str], bench: Bench) -> None:
    if set(metrics) != set(names):
        missing, extra = set(names) - set(metrics), set(metrics) - set(names)
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(missing)}, extra {sorted(extra)}")
    print(json.dumps({
        "correct": not bench.problems, "attempted": bench.attempted,
        "failed": len(bench.failed_runs),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))


@contextmanager
def bench_in_scratch(launcher: Launcher, probe: HostProbe, workload: Workload,
                     iters: int, variant: int, pins: dict | None):
    """A Bench in a scratch directory of the checkout, removed afterwards.

    `pins` None records digests instead of checking them."""
    key = f"{workload.name}/{iters}/{variant}"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        yield Bench(launcher, probe, workload, iters, variant, Path(tmp),
                    None if pins is None else pins.get(key), record=pins is None)


def measure(launcher: Launcher, workload: Workload, seed: int, seconds: float,
            trace: bool) -> None:
    names = declared_metrics()
    variant = workload.variant(seed)
    with bench_in_scratch(launcher, HostProbe(), workload, workload.iters, variant,
                          load_pins()) as bench:
        bench.loop(seconds)
        e2e = bench.end_to_end()
        details = {"samples": bench.samples, "problems": bench.problems}
        if trace:
            out = bench.replay(variant)
            untraced = (statistics.median(bench.samples["simulate_wall_s"])
                        + statistics.median(bench.samples["sensitivity_wall_s"]))
            metrics = {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}
            metrics["cli.tracing_overhead_s"] = (out["traced_cli_s"] - untraced, "s")
            details.update(spans=out["spans"], checks=out["checks"],
                           cache_counts=out["cache_counts"],
                           branch_counts=out["branch_counts"])
        print(json.dumps({"provenance": bench.provenance(seed)}))
        print(json.dumps({"details": details}))
        if trace:
            emit(metrics, names["per_layer"], bench)
        else:
            emit(e2e, names["end_to_end"], bench)


def smoke(launcher: Launcher, seed: int) -> int:
    """Every workload at a tiny size: one round, the replay, the gate."""
    pins, probe = load_pins(), HostProbe()
    failed = 0
    for workload in WORKLOADS.values():
        variant = workload.variant(seed)
        with bench_in_scratch(launcher, probe, workload, workload.smoke_iters, variant,
                              pins) as bench:
            bench.loop(0)
            bench.end_to_end()  # unused here; computed so that its code runs too
            bench.replay(variant)
            failed += len(bench.problems)
            print(json.dumps({"workload": workload.name, "attempted": bench.attempted,
                              "failed": len(bench.failed_runs)}))
    return 1 if failed else 0


def pin(launcher: Launcher) -> int:
    """Record the digests of every workload's outputs at both sizes."""
    pins, probe = {}, HostProbe()
    for workload in WORKLOADS.values():
        for iters in (workload.smoke_iters, workload.iters):
            for variant in range(SEED_VARIANTS if workload.seeded else 1):
                with bench_in_scratch(launcher, probe, workload, iters, variant,
                                      None) as bench:
                    bench.setup()
                    bench.pair()
                    if bench.problems:
                        return 1
                    pins[bench.key] = bench.pinned
                    print(f"pinned {bench.key}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="run every workload at a tiny size with the gate on")
    mode.add_argument("--pin", action="store_true",
                      help="rewrite digests.json from the current sources")
    args = parser.parse_args()
    if not (SRC / "sensim" / "cli.py").is_file():
        print(f"perfbench: no sensim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (args.smoke or args.pin or args.workload):
        parser.error("--workload is required unless --smoke or --pin is given")
    sys.path.insert(0, str(SRC))
    launcher = Launcher()
    try:
        if args.smoke:
            return smoke(launcher, args.seed)
        if args.pin:
            return pin(launcher)
        measure(launcher, WORKLOADS[args.workload], args.seed, args.seconds,
                bool(args.trace))
        return 0
    finally:
        launcher.close()


if __name__ == "__main__":
    raise SystemExit(main())
