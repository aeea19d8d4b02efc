"""One measured process: set up a workload, run it once, check it, report.

run.py starts this script in a fresh interpreter for every sample, so each
sample pays interpreter start, import and set-up, and has its own peak RSS.

    python3 perfbench/worker.py --workload sweep --seed 1 --iteration 0 \
        --mode run [--smoke]

Modes: `setup` stops once the inputs are built; `run` also calls the entry
point once, untraced, and checks the output; `trace` does the same with
spans recorded around every layer boundary.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))   # the library from this checkout's source tree

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def time_censuses(census, sink: list[float]) -> bool:
    """Time every per-instance census call, the one run_sweep makes per row."""
    original = getattr(census, "_verdict_full", None)
    if original is None:
        return False

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)
    census._verdict_full = timed
    return True


def peak_rss_kib() -> int:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    name = args.workload
    params = (workloads.SMOKE if args.smoke else workloads.FULL)[name]

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        setup_span = tracer.open(tracing.SETUP)
    inputs = workloads.setup(name, params)
    out = {"ready": time.monotonic()}
    if tracer is not None:
        tracer.close(setup_span)

    import cycle_census
    from cycle_census import census
    if not Path(cycle_census.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {cycle_census.__file__}, not the library under {SRC}",
              file=sys.stderr)
        return 1
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    seed = (workloads.sweep_seed(args.seed, args.iteration)
            if name == "sweep" else args.seed)
    latencies: list[float] = []
    if args.mode == "run" and name == "sweep" and not time_censuses(census, latencies):
        out["absent"] = ["cycle_census.census._verdict_full"]
    if tracer is not None:
        run_span = tracer.open(tracing.RUN)
    start = time.perf_counter()
    try:
        result, error = workloads.run(name, params, inputs, seed), None
    except Exception as exc:   # a failed operation is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close(run_span)
        tracer.restore()
    out["wall_s"] = wall
    out["peak_rss_kib"] = peak_rss_kib()

    tally = workloads.Tally()
    if error is not None:
        tally.op(error)
    else:
        expected = workloads.load_expected()
        workloads.check(name, params, inputs, result, seed, expected, tally)
        if name == "density" and args.iteration == 0:
            workloads.check_density_sample(params, inputs, args.seed, tally)
    out.update(attempted=tally.attempted, failed=tally.failed,
               problems=tally.problems)

    if latencies and error is None:
        # catalog rows come first and are the same on every seed
        catalog_censuses = sum(1 for r in result
                               if r.report is not None and not r.name.startswith("rand"))
        out["census_s"] = latencies[:catalog_censuses]
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["absent"] = tracer.absent
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
