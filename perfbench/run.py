"""The cycle-census benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and README.md): `sweep`, `m23`, `density`.
Every sample is a fresh interpreter running worker.py with one worker
process, called in a closed loop, one after the other.

With --trace 0 the run makes SETUP_SAMPLES set-up-only processes and then
seconds // ITERATION_S[workload] (at least one) measured iterations,
and reports the end-to-end metrics as medians.  With --trace 1 it makes one
untraced and one traced iteration and reports the per-layer metrics, plus
the tracing overhead as traced minus untraced wall time.  Every output is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run records, and the spans of a
traced run, go to perfbench/results/.  --smoke swaps in tiny inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "m23", "density")

# The cost of one untraced iteration on the slowest state seen of a 2-CPU
# Xeon host with Python 3.11.7 (on a quiet host: 15, 40 and 6.5 s).  A run
# makes seconds // ITERATION_S iterations, at least one, so that all of a
# workload's runs fit the time the benchmark is given even on a slow host.
ITERATION_S = {"sweep": 25.0, "m23": 70.0, "density": 10.0}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cycle_census").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _loadavg() -> str | None:
    text = _read(Path("/proc/loadavg"))
    return text.strip() if text else None


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"), "sympy": _version("sympy"),
        "commit": _commit(), "source_sha256": _source_digest(),
        "loadavg_start": _loadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def spawn(args, mode: str, iteration: int, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--iteration", str(iteration), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next sample")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} sample {iteration} passed the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample {iteration} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def iterations(args) -> int:
    return max(1, int(args.seconds // ITERATION_S[args.workload]))


def measure(args, deadline: float) -> tuple[dict, list[dict], list[dict]]:
    """End-to-end metrics: set-up medians over set-up-only and measured
    processes, the rest medians over the measured iterations."""
    setups = [spawn(args, "setup", 0, deadline) for _ in range(SETUP_SAMPLES)]
    runs = [spawn(args, "run", i, deadline) for i in range(iterations(args))]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups + runs), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] for r in runs) / 1024, "MiB"),
    }
    return metrics, setups, runs


def census_latency(runs: list[dict]) -> list[str]:
    """Per-census latency lines for `sweep`: printed, but not bounded, because
    on a shared 2-CPU host they spread wider across runs than any bound allows."""
    censuses = [t for r in runs for t in r.get("census_s", [])]
    if not censuses:
        return []
    return [f"census_{name}_ms {_percentile(censuses, q) * 1000:.6g} ms "
            f"({len(censuses)} catalog censuses)" for name, q in (("p50", 50), ("p90", 90))]


def trace(args, deadline: float) -> tuple[dict, list[dict], list[dict]]:
    plain = spawn(args, "run", 0, deadline)
    traced = spawn(args, "trace", 0, deadline)
    metrics = {key: (value, _unit(key)) for key, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics, [], [plain, traced]


def _unit(key: str) -> str:
    if key.endswith("_s") and not key.endswith("per_s"):
        return "s"
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that finish in seconds")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cycle_census" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'cycle_census'}",
              file=sys.stderr)
        return 2
    record = run_record(args)
    print("run-record " + json.dumps(record, sort_keys=True), flush=True)
    try:
        metrics, setups, runs = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    absent = sorted({name for r in runs for name in r.get("absent", [])})
    if absent:
        print("absent: " + ", ".join(absent))
    for key, (value, unit) in metrics.items():
        shown = int(value) if float(value).is_integer() else f"{value:.6g}"
        print(f"{key} {shown} {unit}")
    for line in census_latency(runs):
        print(line)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(out, "w") as fh:
        json.dump({"record": record, "metrics": metrics, "attempted": attempted,
                   "failed": failed, "setups": setups, "runs": runs}, fh)
    print(f"record written to {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
