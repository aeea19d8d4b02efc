"""Write expected.json: the outputs the benchmark's checks compare against.

Run it from the repository root, at the commit whose outputs are the
reference (about a minute, most of it the M23 census):

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path first)


def main() -> int:
    from cycle_census import census, catalog, density

    sweep = workloads.FULL["sweep"]
    rows = census.run_sweep(instance_cap=sweep["instance_cap"],
                            subgroup_count=sweep["subgroup_count"],
                            subgroup_order_cap=sweep["subgroup_order_cap"],
                            seed=workloads.PINNED_SWEEP_SEED)
    verdicts = {}
    for params in (workloads.FULL["m23"], workloads.SMOKE["m23"]):
        group = catalog.load_named(params["group"])
        verdicts[params["group"]] = census.theorem_verdict(group).to_json_dict()
    reports = {}
    for params in (workloads.FULL["density"], workloads.SMOKE["density"]):
        inputs = workloads.setup("density", params)
        report = density.density_report(inputs["coeffs"], bound=params["bound"],
                                        predicted=inputs["predicted"])
        reports[str(params["bound"])] = report.to_json_dict()

    expected = {
        "sweep": {"seed": workloads.PINNED_SWEEP_SEED,
                  "rows": [workloads.row_json(r) for r in rows]},
        "verdicts": verdicts,
        "density": reports,
    }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}: {len(rows)} sweep rows, "
          f"verdicts for {sorted(verdicts)}, density at bounds {sorted(reports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
