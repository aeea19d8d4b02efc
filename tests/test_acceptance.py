"""Acceptance suite: one test per criterion, exact values, stated tolerances.

Each test prints a PASS line on success (visible with pytest -s); the
test name identifies the criterion.  Expected runtime of the whole
module is a couple of minutes, dominated by the catalog sweep and the
2-million-prime density run.
"""

import contextlib
import io
import math
import time
from fractions import Fraction
from pathlib import Path

from cycle_census import catalog, census, density
from cycle_census.census import (are_conjugate_n_cycles, n_cycle_classes,
                                 normalizer_order_of_cycle, theorem_verdict,
                                 validate_report)
from cycle_census.density import density_report, parse_polynomial, predicted_density
from cycle_census.ntheory import euler_phi
from cycle_census.permutations import iterate_elements

from helpers import (catalog_instances, minimal_invariant_partitions,
                     naive_closure, naive_irreducible)


def report_pass(label, detail=""):
    print(f"PASS {label}" + (f": {detail}" if detail else ""))


def test_criterion_1_pgammal_2_8():
    """PGammaL(2,8): order 1512, exactly 3 classes of 9-cycles, 3 < phi(9)."""
    start = time.time()
    G = catalog.pgammal(2, 8)
    assert G.order == 1512
    class_count, _ = n_cycle_classes(G)
    assert class_count == 3
    assert class_count < euler_phi(9) == 6
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass("criterion 1", f"pgammal(2,8) order 1512, 3 classes ({elapsed:.2f}s)")


def test_criterion_2_c3_wreath_c3():
    """C3 wr C3: order 81, 6 cyclic transitive subgroups, 36 nine-cycles,
    4 classes, 6 < bound 9, and 6 does not divide 81."""
    start = time.time()
    G = catalog.wreath_imprimitive(catalog.cyclic_regular(3),
                                   catalog.cyclic_regular(3))
    report = theorem_verdict(G)
    assert report.order == 81
    assert report.cyclic_transitive_count == 6
    assert report.n_cycle_count == 36
    assert report.class_count == 4
    assert report.bound == 9 and not report.equality
    assert report.count_divides_order is False
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass("criterion 2", f"C3 wr C3 censused ({elapsed:.2f}s)")


def test_criterion_3_sharpness_family():
    """sharpness(1) and sharpness(2): the bound is attained with the
    expected class counts, solvability, towers, and a full normalizer."""
    start = time.time()
    G1 = catalog.sharpness_group(1)
    r1 = theorem_verdict(G1)
    assert (r1.degree, r1.order) == (6, 36)
    assert r1.cyclic_transitive_count == 6 and r1.bound == 6 and r1.equality
    assert r1.class_count == euler_phi(6) == 2
    assert r1.solvable and r1.structure_verdict == "pass"
    assert r1.tower == (3, 2)
    sixes = [p for p in iterate_elements(G1, 100) if p.is_n_cycle()]
    assert any(normalizer_order_of_cycle(G1, s) == 12 for s in sixes)

    G2 = catalog.sharpness_group(2)
    r2 = theorem_verdict(G2)
    assert (r2.degree, r2.order) == (18, 972)
    assert r2.equality and r2.solvable and r2.structure_verdict == "pass"
    assert r2.class_count == euler_phi(18) == 6
    eighteens = [p for p in iterate_elements(G2, 1000) if p.is_n_cycle()]
    assert any(normalizer_order_of_cycle(G2, s) == 18 * euler_phi(18)
               for s in eighteens)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report_pass("criterion 3", f"sharpness k=1,2 ({elapsed:.2f}s)")


def test_criterion_4_pgl_3_2_singer():
    """PGL(3,2): Singer normalizer 21 = n*d, phi(7)/3 = 2 classes, and
    every 7-cycle generates a conjugate of the Singer subgroup."""
    start = time.time()
    G = catalog.pgl(3, 2)
    sigma = catalog.singer_cycle(3, 2)
    assert normalizer_order_of_cycle(G, sigma) == 21
    class_count, _ = n_cycle_classes(G)
    assert class_count == euler_phi(7) // 3 == 2
    units = [k for k in range(1, 7) if math.gcd(k, 7) == 1]
    singer_gens = [sigma ** k for k in units]
    for tau in (p for p in iterate_elements(G, 10 ** 4) if p.is_n_cycle()):
        assert any(are_conjugate_n_cycles(G, s, tau) for s in singer_gens)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass("criterion 4", f"pgl(3,2) Singer structure ({elapsed:.2f}s)")


def test_criterion_5_duality_extension():
    """duality(3,2): degree 14, order 336, transitive, no 14-cycle; Singer
    powers Y^2, Y^4 conjugate to Y, while Y^3, Y^5, Y^6 are not."""
    start = time.time()
    from cycle_census.permutations import is_transitive
    D = catalog.duality_extension(3, 2)
    assert D.degree == 14 and D.order == 336
    assert is_transitive(D)
    assert census.count_n_cycles(D) == 0

    G = catalog.pgl(3, 2)
    Y = catalog.singer_cycle(3, 2)
    for k in (2, 4):
        assert are_conjugate_n_cycles(G, Y, Y ** k)
    for k in (3, 5, 6):
        assert not are_conjugate_n_cycles(G, Y, Y ** k)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass("criterion 5", f"duality extension and Singer powers ({elapsed:.2f}s)")


def test_criterion_6_theorem_sweep():
    """Catalog sweep plus 200 random transitive subgroups: zero violations."""
    start = time.time()
    rows = census.run_sweep(instance_cap=200_000, subgroup_count=200,
                            subgroup_order_cap=100_000, seed=20240809)
    violations = [r for r in rows if r.status == "violation"]
    assert violations == [], [(r.name, r.detail) for r in violations]
    censused = [r for r in rows if r.status == "ok"]
    random_rows = [r for r in censused if r.name.startswith("rand")]
    assert len(random_rows) == 200
    for row in censused:
        report = row.report
        assert validate_report(report) == []
        assert report.class_count <= report.phi_n
        assert report.n_cycle_count == report.phi_n * report.cyclic_transitive_count
        if report.equality:
            assert report.solvable
    # the dispatcher must never see exit code 2 on this sweep
    import io
    from cycle_census import cli
    code = cli.main(["verify", "--suite", "feit-jones",
                     "--random-subgroups", "0"], out=io.StringIO())
    assert code == 0
    elapsed = time.time() - start
    assert elapsed < 180.0
    report_pass("criterion 6",
                f"{len(censused)} groups censused, 0 violations ({elapsed:.1f}s)")


def test_criterion_7_m11(m11):
    """M11: 1440 eleven-cycles, 2 classes, 144 subgroups, bound 720."""
    start = time.time()
    report = theorem_verdict(m11)
    assert report.n_cycle_count == 1440
    assert report.class_count == 2
    assert report.cyclic_transitive_count == 144
    assert report.cyclic_transitive_count <= report.bound == 720
    assert report.n_cycle_count == 2 * 7920 // 11   # class size identity
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass("criterion 7", f"M11 censused ({elapsed:.2f}s)")


def test_criterion_8_density_controls():
    """Density runs: the 9th cyclotomic to 2e6 lands within 0.01 of 1/3 and
    the cyclic prediction; x^4+1 is never inert; x^2+1 lands near 1/2.
    Every report respects the ceiling up to 3 sigma."""
    start = time.time()
    from cycle_census.density import sieve_primes
    from cycle_census.ntheory import multiplicative_order

    r9 = density_report(parse_polynomial("x^6+x^3+1"), bound=2_000_000)
    predicted = predicted_density(catalog.cyclic_regular(6))
    assert predicted == Fraction(1, 3) == r9.ceiling
    assert abs(float(r9.empirical_density) - float(predicted)) <= 0.01
    # independent oracle: inert exactly when p generates the units of Z/9
    oracle9 = sum(1 for p in sieve_primes(2_000_000)
                  if p % 3 and multiplicative_order(p % 9, 9) == 6)
    assert r9.inert_count == oracle9

    r4 = density_report(parse_polynomial("x^4+1"), bound=100_000)
    assert r4.inert_count == 0

    r2 = density_report(parse_polynomial("x^2+1"), bound=1_000_000)
    assert abs(float(r2.empirical_density) - 0.5) <= 0.01
    # independent oracle: inert exactly at the primes congruent to 3 mod 4
    oracle2 = sum(1 for p in sieve_primes(1_000_000) if p % 4 == 3)
    assert r2.inert_count == oracle2

    for report in (r9, r4, r2):
        ceiling = float(report.ceiling)
        slack = 3 * math.sqrt(ceiling / report.primes_tested)
        assert float(report.empirical_density) <= ceiling + slack

    elapsed = time.time() - start
    assert elapsed < 60.0
    report_pass("criterion 8",
                f"densities {float(r9.empirical_density):.4f}, 0, "
                f"{float(r2.empirical_density):.4f} ({elapsed:.1f}s)")


def test_criterion_9_oracle_equivalences(m11, psl2_11):
    """Stabilizer-chain orders = naive closures (catalog, order <= 1e4);
    distinct-degree irreducibility = naive factor search on the full
    (p, degree) grid; block systems at degree <= 9 = exhaustive search."""
    start = time.time()

    mismatches = 0
    checked_orders = 0
    for name, G in catalog_instances():
        if G.order > 10 ** 4:
            continue
        checked_orders += 1
        closure = naive_closure(G.degree, [g.images for g in G.generators])
        if G.order != len(closure):
            mismatches += 1
    assert mismatches == 0 and checked_orders > 100

    import itertools
    import random as rnd
    rng = rnd.Random(42)
    checked_polys = 0
    for p in (2, 3, 5, 7, 11, 13):
        for deg in range(1, 7):
            space = p ** deg
            if space <= 400:
                polys = [tuple(t) + (1,)
                         for t in itertools.product(range(p), repeat=deg)]
            else:
                polys = [tuple(rng.randrange(p) for _ in range(deg)) + (1,)
                         for _ in range(60)]
            for coeffs in polys:
                got = density.is_irreducible_mod_p(density.PolyModP(p, coeffs))
                assert got == naive_irreducible(coeffs, p), (p, coeffs)
                checked_polys += 1
    assert checked_polys > 1500

    from cycle_census.blocks import all_minimal_block_systems
    checked_blocks = 0
    for name, G in catalog_instances():
        if G.degree > 9 or G.order > 10 ** 4:
            continue
        checked_blocks += 1
        got = {frozenset(frozenset(b) for b in s.blocks)
               for s in all_minimal_block_systems(G)}
        expected = set(minimal_invariant_partitions(
            G.degree, [g.images for g in G.generators]))
        assert got == expected, name
    assert checked_blocks > 50

    elapsed = time.time() - start
    report_pass("criterion 9",
                f"{checked_orders} closures, {checked_polys} polynomials, "
                f"{checked_blocks} block lattices ({elapsed:.1f}s)")


def test_readme_library_example():
    """The README's "Library use" block runs as written and prints what its
    comments promise, so a change of the API breaks this test, not the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == ["6 9 False", "27", "39322 78497 1/2"]
    report_pass("README library example")
