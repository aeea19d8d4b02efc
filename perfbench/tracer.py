"""Spans around the library's layer boundaries, recorded from outside it.

Each boundary is a module-level function.  install() replaces it, in the
module that calls it, with a wrapper that records a span: name, parent,
start and end.  Spans stay in memory; the worker hands them to run.py,
which writes them out when the run ends.  No library file changes.  A
boundary that no longer exists is listed in Tracer.absent, and its layer
reports zeros, instead of crashing the run.

A layer's self time is the summed duration of its spans minus the part
their child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

# layer -> counters it reports besides self_s, in metric order
LAYERS = {
    "permutations.chain_build": ("calls",),
    "census.collect": ("elements", "n_cycles", "elements_per_s"),
    "census.classes": ("n_cycles_in", "classes"),
    "census.tower": ("calls",),
    "blocks.minimal_systems": ("calls",),
    "blocks.constituent": ("calls", "elements"),
    "blocks.derived_series": ("calls",),
    "census.random_phase": ("attempts", "accepted", "accept_ratio"),
    "catalog.standard_instances": (),
    "density.sieve": ("primes",),
    "density.resultant": (),
    "density.xpow": ("rows", "mul_ops"),
    "density.compose": ("calls",),
    "density.gcd": ("calls", "survivor_ratio"),
}

SETUP = "bench.setup"
RUN = "bench.run"
SWEEP = "census.sweep"
VERDICT = "census.verdict"
RANDOM_PHASE = "census.random_phase"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.survivor_primes: set[int] = set()
        self.absent: list[str] = []
        self._originals: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(self, module, attr: str, name: str, count=None, when=None) -> None:
        """Record a span named `name` around every call of module.attr.

        count(args, result) updates the counters after a call; when() can
        decline to record a call, which then runs unwrapped.
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                if when is not None and not when():
                    return fn(*args, **kwargs)
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if count is not None:
                    count(args, result)
                return result
            return wrapper
        self.patch(module, attr, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def install(t: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from cycle_census import blocks, catalog, census, density
    c = t.counts

    for module in (census, blocks, catalog):
        t.span(module, "group_from_generators", "permutations.chain_build")
    t.span(catalog, "standard_instances", "catalog.standard_instances")
    t.span(census, "_verdict_full", VERDICT)

    def collected(args, result):
        c["census.collect.elements"] += args[0].order
        c["census.collect.n_cycles"] += len(result)
    t.span(census, "_collect_n_cycles", "census.collect", collected)

    def classified(args, result):
        c["census.classes.n_cycles_in"] += len(args[1])
        c["census.classes.classes"] += len(result)
    t.span(census, "_conjugacy_orbits", "census.classes", classified)

    t.span(census, "_structure_tower", "census.tower")
    t.span(census, "all_minimal_block_systems", "blocks.minimal_systems")

    def constituent(args, result):
        c["blocks.constituent.elements"] += args[0].order
    t.span(census, "block_constituent", "blocks.constituent", constituent)
    t.span(census, "derived_series", "blocks.derived_series")

    # The random phase of run_sweep is a loop, not a function: its span opens
    # at the loop's first random_element call and closes when run_sweep returns.
    def sweep(fn):
        def wrapper(*args, **kwargs):
            index = t.open(SWEEP)
            try:
                return fn(*args, **kwargs)
            finally:
                if t.current() == RANDOM_PHASE:
                    t.close(t.stack[-1])
                t.close(index)
        return wrapper
    t.patch(census, "run_sweep", sweep)

    def random_element(fn):
        def wrapper(*args, **kwargs):
            if t.current() == SWEEP:
                t.open(RANDOM_PHASE)
            return fn(*args, **kwargs)
        return wrapper
    t.patch(census, "random_element", random_element)

    def sieved(args, result):
        c["density.sieve.primes"] += len(result)
    t.span(density, "sieve_primes", "density.sieve", sieved)
    t.span(density, "_separability_resultant", "density.resultant")

    def batch(args, result):
        coeffs, ps = args
        if len(ps):
            n = len(coeffs) - 1
            c["density.xpow.rows"] += len(ps)
            c["density.xpow.mul_ops"] += len(ps) * int(ps.max()).bit_length() * n * n
    t.span(density, "_batch_irreducible", "density.xpow", batch)
    t.span(density, "_vec_compose_mod", "density.compose")

    def gcd(args, result):
        t.survivor_primes.add(args[2])
    t.span(density, "_pgcd", "density.gcd", gcd,
           when=lambda: t.current() == "density.xpow")


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end) in enumerate(spans)]


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced process."""
    spans = t.spans
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, _, _, _), s in zip(spans, own):
        self_s[name] += s
        calls[name] += 1

    attempts = accepted = 0
    for name, parent, _, _ in spans:
        if parent >= 0 and spans[parent][0] == RANDOM_PHASE:
            attempts += name == "permutations.chain_build"
            accepted += name == VERDICT

    run = next((i for i, sp in enumerate(spans) if sp[0] == RUN), None)
    wall = spans[run][3] - spans[run][2] if run is not None else 0.0
    in_run = 0.0
    if run is not None:
        _, _, start, end = spans[run]
        in_run = sum(s for (name, _, s0, e0), s in zip(spans, own)
                     if name in LAYERS and s0 >= start and e0 <= end)

    c = t.counts
    derived = {
        "census.collect.elements_per_s":
            c["census.collect.elements"] / self_s["census.collect"]
            if self_s["census.collect"] else 0.0,
        "census.random_phase.attempts": attempts,
        "census.random_phase.accepted": accepted,
        "census.random_phase.accept_ratio": accepted / attempts if attempts else 0.0,
        "density.gcd.survivor_ratio":
            len(t.survivor_primes) / c["density.xpow.rows"]
            if c["density.xpow.rows"] else 0.0,
    }
    out: dict[str, float] = {}
    for layer, counters in LAYERS.items():
        for counter in counters:
            key = f"{layer}.{counter}"
            if counter == "calls":
                out[key] = calls[layer]
            elif key in derived:
                out[key] = derived[key]
            else:
                out[key] = c[key]
        out[f"{layer}.self_s"] = self_s[layer]
    out["trace.wall_s"] = wall
    out["trace.layer_share"] = in_run / wall if wall else 0.0
    out["trace.absent_layers"] = len(t.absent)
    return out
