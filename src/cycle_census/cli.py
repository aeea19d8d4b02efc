"""Command-line interface: census, catalog, verify, density, export-spec.

Exit codes: 0 success, 1 usage or data errors (including a refused
census), 2 a violated census identity, which would mean either a
bug or a counterexample and is treated as a build-breaking event.

FAMILIES is the one list of group families: each entry names the builder,
its flags and the catalog listing's text.  The text reports print the
fields of a report's JSON dict in declaration order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog, census, density
from .permutations import (DEFAULT_ELEMENT_CAP, CapExceeded,
                           NotTransitiveError, _decimal)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _wreath(inner: str, outer: str):
    return catalog.wreath_imprimitive(catalog.family_instance(inner),
                                      catalog.family_instance(outer))


# name -> (builder, flags in argument order, usage, description); --family's
# choices, build_group and the catalog listing all read it, in this order.
FAMILIES = {
    "cyclic": (catalog.cyclic_regular, ("n",), "--n N",
               "regular cyclic group on N points"),
    "holomorph": (catalog.holomorph_cyclic, ("m",), "--m M",
                  "all maps i -> u*i + t on Z/M"),
    "sym": (catalog.symmetric, ("n",), "--n N", "symmetric group"),
    "alt": (catalog.alternating, ("n",), "--n N", "alternating group, N >= 3"),
    "wreath": (_wreath, ("inner", "outer"), "--inner C --outer C",
               "imprimitive wreath product; codes c<N>, s<N>, a<N>, hol<N>, "
               "sharp<K>"),
    "pgl": (catalog.pgl, ("d", "q"), "--d D --q Q",
            "projective linear group on (Q^D-1)/(Q-1) points"),
    "pgammal": (catalog.pgammal, ("d", "q"), "--d D --q Q",
                "pgl extended by field automorphisms"),
    "duality": (catalog.duality_extension, ("d", "q"), "--d 3 --q 2|3",
                "pgl(3,q) extended by point-hyperplane duality"),
    "sharpness": (catalog.sharpness_group, ("k",), "--k K",
                  "degree 2*3^K group attaining the subgroup bound"),
    "spec": (catalog.load_group_spec, ("spec_file",), "--spec-file F",
             "group loaded from a .grp file"),
}


def build_group(args):
    """Resolve the group source flags into (name, PermGroup)."""
    builder, flags, _, _ = FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise ValueError(f"--family {args.family} requires "
                             f"--{flag.replace('_', '-')}")
    name = (args.spec_file if args.family == "spec"
            else f"{args.family}({','.join(map(str, values))})")
    return name, builder(*values)


def _fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _print_report_text(name: str, report, out):
    print(f"group: {name}", file=out)
    d = report.to_json_dict()
    d["bound"] = _fmt_fraction(report.bound)
    d["tower"] = ("none" if report.tower is None   # (): degree 1, as in format_cycles
                  else "*".join(str(p) for p in report.tower) or "()")
    for key, value in d.items():
        print(f"  {key}: {value}", file=out)


def cmd_census(args, out) -> int:
    name, group = build_group(args)
    report = census.theorem_verdict(group, cap=args.cap)
    if args.format == "json":
        payload = {"name": name, **report.to_json_dict()}
        print(json.dumps(payload, indent=2), file=out)
    else:
        _print_report_text(name, report, out)
    return EXIT_OK


def cmd_catalog(args, out) -> int:
    print("constructible families (flags in parentheses):", file=out)
    for family, (_, _, usage, about) in FAMILIES.items():
        print(f"  {family:<9}  {'(' + usage + ')':<16}  {about}", file=out)
    data = catalog.data_dir()
    print(f"data directory: {data}", file=out)
    for path in sorted(data.glob("*.grp")) if data.is_dir() else []:
        print(f"  {path.name}", file=out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.suite != "feit-jones":
        raise ValueError(f"unknown suite {args.suite!r} (available: feit-jones)")
    rows = census.run_sweep(instance_cap=args.instance_cap,
                            subgroup_count=args.random_subgroups,
                            subgroup_order_cap=args.subgroup_order_cap,
                            seed=args.seed, include_m23=args.include_m23)
    violations = [r for r in rows if r.status == "violation"]
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in rows], indent=2),
              file=out)
    else:
        header = (f"{'name':<24} {'deg':>4} {'order':>10} {'#ncyc':>7} "
                  f"{'cls':>4} {'phi':>4} {'subs':>6} {'bound':>8} eq struct")
        print(header, file=out)
        for r in rows:
            if r.report is None:
                print(f"{r.name:<24} {r.degree:>4} {r.order:>10} "
                      f"{r.status.upper()}: {r.detail}", file=out)
                continue
            rep = r.report
            print(f"{r.name:<24} {r.degree:>4} {r.order:>10} "
                  f"{rep.n_cycle_count:>7} {rep.class_count:>4} {rep.phi_n:>4} "
                  f"{rep.cyclic_transitive_count:>6} {_fmt_fraction(rep.bound):>8} "
                  f"{'=' if rep.equality else '<'}  {rep.structure_verdict}",
                  file=out)
        censused = sum(1 for r in rows if r.status == "ok")
        skipped = sum(1 for r in rows if r.status == "skipped")
        print(f"censused {censused}, skipped {skipped}, "
              f"violations {len(violations)}", file=out)
    if violations:
        for r in violations:
            print(f"BOUND VIOLATION in {r.name}: {r.detail}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_density(args, out) -> int:
    coeffs = density.parse_polynomial(args.poly)
    predicted = None
    if args.predict is not None:
        group = catalog.family_instance(args.predict)
        if group.degree != len(coeffs) - 1:
            raise ValueError(f"--predict {args.predict} has degree {group.degree}"
                             f", the polynomial degree {len(coeffs) - 1}")
        predicted = density.predicted_density(group, cap=args.cap)
    report = density.density_report(coeffs, bound=args.bound, floor=args.floor,
                                    predicted=predicted, workers=args.workers)
    d = report.to_json_dict()
    if args.format == "json":
        print(json.dumps(d, indent=2), file=out)
    else:
        d["empirical_density"] = (_fmt_fraction(report.empirical_density)
                                  + f" ~ {float(report.empirical_density):.6f}")
        d["ceiling"] = (_fmt_fraction(report.ceiling)
                        + f" ~ {float(report.ceiling):.6f}")
        d["predicted"] = ("none" if report.predicted is None   # as a census's missing tower
                          else _fmt_fraction(report.predicted))
        for key, value in d.items():
            print(f"  {key}: {value}", file=out)
    return EXIT_OK


def cmd_export_spec(args, out) -> int:
    name, group = build_group(args)
    text = catalog.write_group_spec(group, comment=name)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=out)
    else:
        print(text, end="", file=out)
    return EXIT_OK


class _NumberTooLong(Exception):
    """An integer flag's digits run past the int() conversion limit.  Not a
    ValueError, so argparse lets it through instead of printing a usage
    error that quotes every digit; main prints it on one line."""


def _add_int(parser: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add an integer flag, read by int(text) but refusing a number too long
    to convert with a _NumberTooLong that names the flag; every other bad
    value fails as int() does."""
    def convert(text: str) -> int:
        digits = text.strip().lstrip("+-").replace("_", "")
        if digits.isdecimal():
            _decimal(digits, lambda why: _NumberTooLong(f"argument {flag}: {why}"))
        return int(text)
    convert.__name__ = "int"   # argparse names the type in "invalid int value"
    parser.add_argument(flag, type=convert, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycle-census",
        description="census of n-cycles and cyclic transitive subgroups, "
                    "and prime-density experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_flags(p):
        p.add_argument("--family", required=True, choices=FAMILIES)
        _add_int(p, "--n")
        _add_int(p, "--m")
        _add_int(p, "--d")
        _add_int(p, "--q")
        _add_int(p, "--k")
        p.add_argument("--inner")
        p.add_argument("--outer")
        p.add_argument("--spec-file")

    def add_common(p, default_format="text"):
        _add_int(p, "--cap", default=DEFAULT_ELEMENT_CAP,
                 help="largest group order a census accepts")
        p.add_argument("--format", choices=("text", "json"),
                       default=default_format)

    p = sub.add_parser("census", help="census one group")
    add_group_flags(p)
    add_common(p, default_format="json")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("catalog", help="list constructible families")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("--suite", default="feit-jones")
    _add_int(p, "--instance-cap", default=DEFAULT_ELEMENT_CAP)
    _add_int(p, "--random-subgroups", default=200)
    _add_int(p, "--subgroup-order-cap", default=100_000)
    _add_int(p, "--seed", default=20240809)
    p.add_argument("--include-m23", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="prime-density experiment for a polynomial")
    p.add_argument("--poly", required=True,
                   help="integer or rational polynomial, e.g. x^6+x^3+1")
    _add_int(p, "--bound", required=True)
    _add_int(p, "--floor", default=0,
             help="ignore primes at or below this value")
    p.add_argument("--predict",
                   help="family code whose n-cycle fraction to attach "
                        "(c<N>, s<N>, a<N>, hol<N>, sharp<K>)")
    _add_int(p, "--workers", default=1,
             help="processes to split the prime range over (at most the CPUs)")
    add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("export-spec", help="write a catalog group as a .grp file")
    add_group_flags(p)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_export_spec)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    except _NumberTooLong as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args, out)
    except CapExceeded as exc:
        print(f"error: {exc}; raise --cap to census it anyway", file=sys.stderr)
        return EXIT_ERROR
    except census.CensusInvariantError as exc:
        print(f"CENSUS INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, NotTransitiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
