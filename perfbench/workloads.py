"""The benchmark's workloads: their inputs, the entry-point call and the checks.

Each workload calls the library entry point that the matching CLI command
calls, with the CLI's defaults, in one process with one worker:

* sweep   -- census.run_sweep(seed=...), which is `verify --suite feit-jones`;
* m23     -- theorem_verdict(catalog.load_named("m23")), a `census` of M23;
* density -- density_report(x^6+x^3+1, bound=2*10^6, predicted=<c6 fraction>),
             which is `density --poly x^6+x^3+1 --bound 2000000 --predict c6`.

SMOKE holds tiny sizes of the same calls, for the benchmark's own tests.
Outputs are checked against expected.json, which pin.py writes from the
library at the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

FULL = {
    "sweep": {"instance_cap": 200_000, "subgroup_count": 200,
              "subgroup_order_cap": 100_000},
    "m23": {"group": "m23"},
    "density": {"poly": "x^6+x^3+1", "bound": 2_000_000, "predict": "c6"},
}
SMOKE = {
    "sweep": {"instance_cap": 2_000, "subgroup_count": 10,
              "subgroup_order_cap": 2_000},
    "m23": {"group": "m11"},
    "density": {"poly": "x^6+x^3+1", "bound": 10_000, "predict": "c6"},
}
WORKLOADS = tuple(FULL)

# the sweep seed whose random-subgroup rows expected.json pins (the CLI default)
PINNED_SWEEP_SEED = 20240809
# consecutive primes re-classified by the scalar path after a density run
DENSITY_SAMPLE = 300


def sweep_seed(seed: int, iteration: int) -> int:
    """The run_sweep seed of one iteration: every iteration draws new subgroups."""
    return seed + iteration


def setup(name: str, params: dict) -> dict:
    """Import the package and build the inputs that live outside the entry point."""
    from cycle_census import catalog, density
    if name == "m23":
        return {"group": catalog.load_named(params["group"])}
    if name == "density":
        predict = catalog.family_instance(params["predict"])
        return {"coeffs": density.parse_polynomial(params["poly"]),
                "predicted": density.predicted_density(predict)}
    return {}


def run(name: str, params: dict, inputs: dict, seed: int):
    """One call of the workload's entry point."""
    from cycle_census import census, density
    if name == "sweep":
        return census.run_sweep(instance_cap=params["instance_cap"],
                                subgroup_count=params["subgroup_count"],
                                subgroup_order_cap=params["subgroup_order_cap"],
                                seed=seed)
    if name == "m23":
        return census.theorem_verdict(inputs["group"])
    return density.density_report(inputs["coeffs"], bound=params["bound"],
                                  predicted=inputs["predicted"])


def row_json(row) -> dict:
    """A sweep row as `verify --format json` prints it."""
    return {"name": row.name, "degree": row.degree, "order": row.order,
            "status": row.status, "detail": row.detail,
            "report": row.report.to_json_dict() if row.report else None}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def _row_key(row: dict | None):
    if row is None:
        return None
    return (row["name"], row["degree"], row["order"], row["status"], row["report"])


def _is_random(name: str) -> bool:
    return name.startswith("rand")


def _random_row_problem(row, index: int) -> str | None:
    from cycle_census.census import validate_report
    if not row.name.startswith(f"rand{index + 1:03d}<"):
        return f"random row {index}: unexpected name {row.name!r}"
    if row.status != "ok" or row.report is None:
        return f"{row.name}: status {row.status} ({row.detail})"
    rep = row.report
    if (rep.degree, rep.order) != (row.degree, row.order):
        return f"{row.name}: row and report disagree on degree or order"
    if rep.n_cycle_count * rep.degree != rep.class_count * rep.order:
        return f"{row.name}: class-size identity fails"
    problems = validate_report(rep)
    if problems:
        return f"{row.name}: " + "; ".join(problems)
    return None


def check_sweep(rows, params: dict, seed: int, expected: dict,
                tally: Tally) -> None:
    """Catalog rows must match the pinned ones on every seed; the random rows
    are pinned at the pinned seed and full size, and checked for the exact
    identities otherwise.  A row the reference censused but the run refused
    counts as failed."""
    ref = expected["sweep"]["rows"]
    cap = params["instance_cap"]
    ref_catalog = []
    for r in ref:
        if _is_random(r["name"]):
            continue
        if r["order"] > cap:
            r = dict(r, status="skipped", report=None)
        ref_catalog.append(r)
    got_catalog = [r for r in rows if not _is_random(r.name)]
    for i in range(max(len(ref_catalog), len(got_catalog))):
        want = _row_key(ref_catalog[i]) if i < len(ref_catalog) else None
        have = _row_key(row_json(got_catalog[i])) if i < len(got_catalog) else None
        if want is not None and want[3] == "skipped" and have == want:
            continue                      # a refusal the reference made too
        tally.op(None if have == want else
                 f"catalog row {i}: got {have and have[:4]}, want {want and want[:4]}")

    got_random = [r for r in rows if _is_random(r.name)]
    pinned = None
    if params == FULL["sweep"] and seed == expected["sweep"]["seed"]:
        pinned = [r for r in ref if _is_random(r["name"])]
    for i in range(max(params["subgroup_count"], len(got_random))):
        if i >= len(got_random):
            tally.op(f"random row {i} missing")
        elif i >= params["subgroup_count"]:
            tally.op(f"unexpected row {got_random[i].name}: {got_random[i].detail}")
        elif pinned is not None:
            have = _row_key(row_json(got_random[i]))
            tally.op(None if have == _row_key(pinned[i]) else
                     f"random row {i}: {have[:4]} differs from the pinned row")
        else:
            tally.op(_random_row_problem(got_random[i], i))


def check_verdict(report, params: dict, expected: dict, tally: Tally) -> None:
    from cycle_census.census import validate_report
    want = expected["verdicts"][params["group"]]
    have = report.to_json_dict()
    if have != want:
        tally.op(f"{params['group']} report {have} differs from the pinned {want}")
    else:
        problems = validate_report(report)
        tally.op("; ".join(problems) if problems else None)


def check_density(report, params: dict, expected: dict, tally: Tally) -> None:
    want = expected["density"][str(params["bound"])]
    have = report.to_json_dict()
    tally.op(None if have == want else
             f"density report {have} differs from the pinned {want}")


def check_density_sample(params: dict, inputs: dict, seed: int,
                         tally: Tally) -> None:
    """Re-classify a seeded run of consecutive primes with the scalar path
    and compare with the report the vector path gives for the same window."""
    from cycle_census.density import (BadReduction, density_report,
                                      is_irreducible_mod_p, reduce_mod_p,
                                      sieve_primes)
    coeffs = inputs["coeffs"]
    primes = sieve_primes(params["bound"])
    start = random.Random(seed).randrange(max(1, len(primes) - DENSITY_SAMPLE))
    window = primes[start:start + DENSITY_SAMPLE]
    skipped = inert = 0
    for p in window:
        fp = reduce_mod_p(coeffs, p)
        if isinstance(fp, BadReduction):
            skipped += 1
        elif is_irreducible_mod_p(fp):
            inert += 1
    scalar = (len(window) - skipped, skipped, inert)
    rep = density_report(coeffs, bound=window[-1], floor=window[0] - 1)
    vector = (rep.primes_tested, rep.primes_skipped, rep.inert_count)
    tally.op(None if scalar == vector else
             f"primes {window[0]}..{window[-1]}: scalar (tested, skipped, inert) "
             f"{scalar} != vector {vector}")


def check(name: str, params: dict, inputs: dict, result, seed: int,
          expected: dict, tally: Tally) -> None:
    if name == "sweep":
        check_sweep(result, params, seed, expected, tally)
    elif name == "m23":
        check_verdict(result, params, expected, tally)
    else:
        check_density(result, params, expected, tally)
