import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cycle_census import catalog, density
from cycle_census.density import (BadReduction, DensityReport, PolyModP,
                                  PolynomialParseError, _batch_irreducible,
                                  density_report, is_irreducible_mod_p,
                                  parse_polynomial, predicted_density,
                                  reduce_mod_p, sieve_primes)
from cycle_census.ntheory import is_prime

from helpers import naive_irreducible

# discriminant prime factors of the suite polynomials, precomputed: the
# only primes that may ever be skipped for good reduction reasons
SUITE_POLYS = {
    (1, 0, 1): {2},                    # x^2+1, disc -4
    (1, 0, 0, 0, 1): {2},              # x^4+1, disc 256
    (1, 0, 0, 1, 0, 0, 1): {3},        # x^6+x^3+1, disc -19683
}


class TestSieve:
    def test_ten(self):
        assert sieve_primes(10) == [2, 3, 5, 7]

    def test_two(self):
        assert sieve_primes(2) == [2]

    def test_count_100_vs_trial_division(self):
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert len(sieve_primes(100)) == 25
        assert sieve_primes(1000) == [n for n in range(2, 1001) if is_prime(n)]


class TestReduction:
    def test_x2_plus_1_mod_3(self):
        fp = reduce_mod_p((1, 0, 1), 3)
        assert isinstance(fp, PolyModP) and fp.coeffs == (1, 0, 1)

    def test_degree_drop(self):
        out = reduce_mod_p((0, 1, 0, 6), 3)   # 6x^3 + x
        assert isinstance(out, BadReduction)

    def test_repeated_factor(self):
        out = reduce_mod_p((0, 0, 1), 5)      # x^2
        assert isinstance(out, BadReduction)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            reduce_mod_p((0, 0), 5)


class TestIrreducibility:
    def test_x2_plus_1_mod_3(self):
        assert is_irreducible_mod_p(PolyModP(3, (1, 0, 1)))

    def test_x2_plus_1_mod_5(self):
        assert not is_irreducible_mod_p(PolyModP(5, (1, 0, 1)))

    def test_x6_x3_1_mod_2(self):
        assert is_irreducible_mod_p(PolyModP(2, (1, 0, 0, 1, 0, 0, 1)))
        assert naive_irreducible((1, 0, 0, 1, 0, 0, 1), 2)

    def test_linear_always_irreducible(self):
        assert is_irreducible_mod_p(PolyModP(7, (3, 2)))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_naive_factor_search(self, p):
        """Exhaustive for small coefficient spaces, sampled above that."""
        rng = random.Random(p)
        for deg in range(1, 7):
            space = p ** deg
            if space <= 600:
                tails = itertools.product(range(p), repeat=deg)
                polys = [tuple(t) + (1,) for t in tails]
            else:
                polys = [tuple(rng.randrange(p) for _ in range(deg)) + (1,)
                         for _ in range(120)]
            for coeffs in polys:
                got = is_irreducible_mod_p(PolyModP(p, coeffs))
                assert got == naive_irreducible(coeffs, p), (p, coeffs)

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_non_monic(self, p):
        rng = random.Random(p + 100)
        for _ in range(60):
            deg = rng.randrange(2, 6)
            coeffs = tuple(rng.randrange(p) for _ in range(deg)) + \
                (rng.randrange(1, p),)
            got = is_irreducible_mod_p(PolyModP(p, coeffs))
            assert got == naive_irreducible(coeffs, p)


class TestBatchAgainstScalar:
    @pytest.mark.parametrize("coeffs", sorted(SUITE_POLYS) + [
        (2, 3, 0, 5), (1, 1, 1, 1, 1, 1, 1), (-4, 0, 1, 0, 2)])
    def test_batch_equals_scalar(self, coeffs):
        primes = sieve_primes(2000)
        scalar = []
        good = []
        for p in primes:
            fp = reduce_mod_p(coeffs, p)
            if isinstance(fp, BadReduction):
                continue
            good.append(p)
            scalar.append(is_irreducible_mod_p(fp))
        batch = _batch_irreducible(tuple(coeffs),
                                   np.array(good, dtype=np.int64))
        assert list(batch) == scalar

    def test_batch_equals_scalar_just_below_int64_limit(self):
        """The 50 largest primes that density_report admits for a sextic:
        6 * (p - 1)^2 <= 2^63 - 1."""
        coeffs = (1, 0, 0, 1, 0, 0, 1)
        p = 1 + math.isqrt((2 ** 63 - 1) // 6)
        assert 6 * (p - 1) ** 2 <= 2 ** 63 - 1 < 6 * p ** 2
        primes = []
        while len(primes) < 50:
            if is_prime(p):
                primes.append(p)
            p -= 1
        scalar = [is_irreducible_mod_p(reduce_mod_p(coeffs, p)) for p in primes]
        batch = _batch_irreducible(coeffs, np.array(primes, dtype=np.int64))
        assert list(batch) == scalar and 0 < sum(scalar) < 50

    @pytest.mark.parametrize("coeffs", [
        (1, 0, 10 ** 20), (2 ** 64, 0, 1), (-(2 ** 63 + 1), 3, 0, 1),
        (-(2 ** 63), 1, 1), (3 ** 90, -(7 ** 50), 5, 2 ** 70)])
    def test_coefficients_past_int64(self, coeffs):
        """|c| >= 2^63 is reduced exactly: residues, the bad-prime screen
        and each good reduction's irreducibility match the scalar route."""
        primes = sieve_primes(10_000)
        ps = np.array(primes, dtype=np.int64)
        assert density._residues(coeffs, ps).T.tolist() == \
            [[c % p for c in coeffs] for p in primes]
        scalar = [reduce_mod_p(coeffs, p) for p in primes]
        assert list(density._bad_primes(coeffs, ps)) == \
            [isinstance(r, BadReduction) for r in scalar]
        good = [r for r in scalar if isinstance(r, PolyModP)]
        batch = _batch_irreducible(coeffs,
                                   np.array([r.p for r in good], dtype=np.int64))
        assert list(batch) == [is_irreducible_mod_p(r) for r in good]
        report = density_report(coeffs, bound=10_000)
        assert report.primes_skipped == len(primes) - len(good)
        assert report.inert_count == sum(is_irreducible_mod_p(r) for r in good)

    def test_big_coefficient_residues_at_the_largest_primes(self):
        """Limb reduction at the 20 largest primes of the degree-1 limit,
        where r * 2^31 + limb comes closest to 2^63."""
        p = 1 + math.isqrt(2 ** 63 - 1)
        primes = []
        while len(primes) < 20:
            if is_prime(p):
                primes.append(p)
            p -= 1
        coeffs = (-(10 ** 40 + 7), 2 ** 127 - 1, -(2 ** 63))
        assert density._residues(coeffs, np.array(primes, dtype=np.int64)
                                 ).T.tolist() == [[c % p for c in coeffs]
                                                  for p in primes]

    def test_refuses_bound_past_int64_limit(self, monkeypatch):
        """Refused before the sieve, which would need gigabytes here."""
        monkeypatch.setattr(density, "sieve_primes", None)
        with pytest.raises(ValueError, match="fits in int64"):
            density_report((1, 0, 0, 1, 0, 0, 1), bound=3 * 10 ** 9)
        with pytest.raises(ValueError, match="fits in int64"):
            density_report((1, 0, 0, 1, 0, 0, 1), bound=1_239_850_264)

    @pytest.mark.parametrize("degree", range(2, 9))
    def test_batch_equals_scalar_random(self, degree):
        """Seeded random f of each degree, monic and not, over the good
        primes <= 3000; degree 7 is prime and 8 = 2^3."""
        rng = random.Random(degree)
        primes = sieve_primes(3000)
        for lead in (1, rng.choice([2, 3, 6, 10, -7])):
            coeffs = tuple(rng.randrange(-99, 100) for _ in range(degree))
            coeffs += (lead,)
            good = [p for p in primes
                    if not isinstance(reduce_mod_p(coeffs, p), BadReduction)]
            scalar = [is_irreducible_mod_p(reduce_mod_p(coeffs, p))
                      for p in good]
            batch = _batch_irreducible(coeffs, np.array(good, dtype=np.int64))
            assert list(batch) == scalar, coeffs

    def test_blocks_do_not_change_reports(self, monkeypatch):
        """Reports are identical in many small blocks, and when two worker
        processes share those blocks."""
        polys = [(1, 0, 0, 1, 0, 0, 1), (2, 3, 0, 5), (-4, 0, 1, 0, 2)]
        whole = [density_report(c, bound=5000) for c in polys]
        monkeypatch.setattr(density, "_BLOCK_CELLS", 300)
        assert [density_report(c, bound=5000) for c in polys] == whole
        assert [density_report(c, bound=5000, workers=2)
                for c in polys] == whole

    def test_skip_classification_matches_scalar(self):
        """Batched gcd screen = per-prime scalar gcd test, checked to 10^4.

        x^5+x+3 has f' = 1 mod 5 (degree drop, p = 5 is good); x^3+2 has
        f' = 0 mod 3 (p = 3 is bad)."""
        assert isinstance(reduce_mod_p((3, 1, 0, 0, 0, 1), 5), PolyModP)
        assert isinstance(reduce_mod_p((2, 0, 0, 1), 3), BadReduction)
        primes = sieve_primes(10_000)
        for coeffs in sorted(SUITE_POLYS) + [(6, 1, 0, 3), (0, 2, 0, 0, 1),
                                             (3, 1, 0, 0, 0, 1), (2, 0, 0, 1),
                                             (1, 0, 1, 0, 0, 1)]:
            report = density_report(coeffs, bound=10_000)
            scalar_bad = [isinstance(reduce_mod_p(coeffs, p), BadReduction)
                          for p in primes]
            batch_bad = density._bad_primes(coeffs,
                                            np.array(primes, dtype=np.int64))
            assert list(batch_bad) == scalar_bad, coeffs
            assert report.primes_skipped == sum(scalar_bad)
            assert report.primes_tested + report.primes_skipped == len(primes)


def _columns(polys, slots):
    out = np.zeros((slots, len(polys)), dtype=np.int64)
    for j, c in enumerate(polys):
        out[:len(c), j] = c
    return out


class TestBatchedEuclid:
    def test_matches_scalar_pgcd(self):
        """Each column's gcd, made monic, equals the scalar _pgcd."""
        rng = random.Random(2024)
        cases = []
        for p in (2, 3, 7, 101, 1_000_000_007, 2_147_483_647):
            def poly(deg):
                c = [rng.randrange(p) for _ in range(deg)]
                return c + [rng.randrange(1, p)]
            for _ in range(10):
                cases.append((poly(rng.randrange(9)), poly(rng.randrange(9)), p))
            cases.append((poly(5), [], p))                       # b = 0
            cases.append(([], poly(4), p))                       # a = 0
            cases.append(([], [], p))
            cases.append((poly(6), poly(0), p))                  # constant b
            cases.append((poly(4), poly(4), p))                  # equal degrees
            h = poly(rng.randrange(1, 4))                        # common factor
            cases.append((density._pmul(h, poly(4), p),
                          density._pmul(h, poly(5), p), p))
        a = _columns([c[0] for c in cases], 9)
        b = _columns([c[1] for c in cases], 9)
        ps = np.array([c[2] for c in cases], dtype=np.int64)
        got = density._gcd(a, b, ps)
        for j, (fa, fb, p) in enumerate(cases):
            g = density._trim(got[:, j].tolist())
            if g:
                inv = pow(g[-1], -1, p)
                g = [c * inv % p for c in g]
            assert g == density._pgcd(fa, fb, p), (fa, fb, p)


class TestReports:
    def test_x2_plus_1_density(self):
        report = density_report((1, 0, 1), bound=50_000)
        assert abs(float(report.empirical_density) - 0.5) < 0.01
        assert report.ceiling == Fraction(1, 2)
        # inert primes for x^2+1 are exactly those congruent to 3 mod 4
        primes = [p for p in sieve_primes(50_000) if p % 4 == 3]
        assert report.inert_count == len(primes)

    def test_x4_plus_1_never_inert(self):
        report = density_report((1, 0, 0, 0, 1), bound=20_000)
        assert report.inert_count == 0

    def test_ninth_cyclotomic_small(self):
        coeffs = parse_polynomial("x^6+x^3+1")
        report = density_report(coeffs, bound=100_000)
        # independent oracle: inert iff p generates the units of Z/9
        from cycle_census.ntheory import multiplicative_order
        oracle = sum(1 for p in sieve_primes(100_000)
                     if p % 3 and multiplicative_order(p % 9, 9) == 6)
        assert report.inert_count == oracle
        assert abs(float(report.empirical_density) - 1 / 3) < 0.01

    def test_counts_add_up(self):
        report = density_report((1, 0, 1), bound=10_000, floor=100)
        total = len([p for p in sieve_primes(10_000) if p > 100])
        assert report.primes_tested + report.primes_skipped == total

    def test_floor_excludes_small_primes(self):
        low = density_report((1, 0, 1), bound=1000)
        floored = density_report((1, 0, 1), bound=1000, floor=10)
        assert floored.primes_skipped == 0
        assert low.primes_tested + low.primes_skipped == \
            floored.primes_tested + 4

    def test_empty_window(self):
        report = density_report((1, 0, 1), bound=10, floor=10)
        counts = (report.primes_tested, report.primes_skipped,
                  report.inert_count)
        assert counts == (0, 0, 0) and {type(c) for c in counts} == {int}
        assert report.empirical_density == 0

    def test_no_skips_above_discriminant_primes(self):
        for coeffs, disc_primes in SUITE_POLYS.items():
            report = density_report(coeffs, bound=50_000,
                                    floor=max(disc_primes))
            assert report.primes_skipped == 0

    def test_statistical_slack_inequality(self):
        for coeffs in SUITE_POLYS:
            report = density_report(coeffs, bound=50_000)
            ceiling = float(report.ceiling)
            slack = 3 * math.sqrt(ceiling / report.primes_tested)
            assert float(report.empirical_density) <= ceiling + slack

    def test_deterministic_and_worker_independent(self):
        one = density_report((1, 0, 0, 1, 0, 0, 1), bound=30_000, workers=1)
        two = density_report((1, 0, 0, 1, 0, 0, 1), bound=30_000, workers=3)
        assert one == two

    def test_json_roundtrip(self):
        report = density_report((1, 0, 1), bound=5000,
                                predicted=Fraction(1, 2))
        import json
        blob = json.dumps(report.to_json_dict())
        assert DensityReport.from_json_dict(json.loads(blob)) == report


class TestPredictedDensity:
    def test_sym4(self):
        assert predicted_density(catalog.symmetric(4)) == Fraction(1, 4)

    def test_sharpness1_maximal(self, sharp1):
        value = predicted_density(sharp1)
        assert value == Fraction(12, 36) == Fraction(1, 3)
        assert value == Fraction(euler_phi_of(6), 6)

    def test_cyclic6(self):
        assert predicted_density(catalog.cyclic_regular(6)) == Fraction(1, 3)

    def test_never_exceeds_ceiling(self):
        for G in (catalog.symmetric(5), catalog.pgammal(2, 8),
                  catalog.holomorph_cyclic(12)):
            value = predicted_density(G)
            assert value <= Fraction(euler_phi_of(G.degree), G.degree)


def euler_phi_of(n):
    from cycle_census.ntheory import euler_phi
    return euler_phi(n)


class TestPolynomialParsing:
    def test_basic(self):
        assert parse_polynomial("x^6+x^3+1") == (1, 0, 0, 1, 0, 0, 1)

    def test_spaces_and_signs(self):
        assert parse_polynomial(" - x^2 + 3x - 4 ") == (-4, 3, -1)

    def test_rational_coefficients_cleared(self):
        assert parse_polynomial("1/2x^2 + 1/3") == (2, 0, 3)

    def test_explicit_star(self):
        assert parse_polynomial("2*x^3+1") == (1, 0, 0, 2)

    def test_bare_x(self):
        assert parse_polynomial("x") == (0, 1)

    def test_collects_like_terms(self):
        assert parse_polynomial("x+x+1") == (1, 2)

    def test_rejects_garbage(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x^")
        with pytest.raises(PolynomialParseError):
            parse_polynomial("")
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x y")
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x^2 x")

    def test_rejects_zero(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x - x")
