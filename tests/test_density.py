import itertools
import json
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
from cycle_census.ntheory import is_prime, multiplicative_order

from helpers import naive_irreducible, poly_mul, sylvester_resultant

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

    @pytest.mark.parametrize("call, message", [
        (lambda: PolyModP(5, ()), "^leading coefficient must be nonzero mod p$"),
        (lambda: PolyModP(5, (1, 10)), "^leading coefficient must be nonzero mod p$"),
        (lambda: PolyModP(5, (7, 1)), "^coefficients must be reduced mod p$"),
        (lambda: PolyModP(5, (-1, 1)), "^coefficients must be reduced mod p$"),
        (lambda: is_irreducible_mod_p(PolyModP(5, (3,))),
         "^irreducibility needs degree at least 1$"),
        (lambda: density_report((5,), bound=100),
         "^the polynomial must have degree at least 1$"),
        (lambda: density_report((3, 0, 0), bound=100),
         "^the polynomial must have degree at least 1$")])
    def test_refusals(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

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


def _int64_limit(n):
    """The largest bound density_report accepts at degree n."""
    return 1 + math.isqrt((2 ** 63 - 1) // n)


def _largest_primes(p, count):
    """The count largest primes <= p, descending, found by is_prime."""
    primes = []
    while len(primes) < count:
        if is_prime(p):
            primes.append(p)
        p -= 1
    return primes


def _assert_batch_equals_scalar(coeffs, primes):
    reductions = [reduce_mod_p(coeffs, p) for p in primes]
    good = [r for r in reductions if isinstance(r, PolyModP)]
    batch = _batch_irreducible(coeffs, np.array([r.p for r in good],
                                                dtype=np.int64))
    scalar = [is_irreducible_mod_p(r) for r in good]
    assert list(batch) == scalar, coeffs
    return scalar


class TestBatchAgainstScalar:
    @pytest.mark.parametrize("coeffs", sorted(SUITE_POLYS) + [
        (2, 3, 0, 5), (1, 1, 1, 1, 1, 1, 1), (-4, 0, 1, 0, 2)])
    def test_batch_equals_scalar(self, coeffs):
        _assert_batch_equals_scalar(coeffs, sieve_primes(2000))

    def test_batch_equals_scalar_just_below_int64_limit(self):
        """The 50 largest primes that density_report admits for a sextic:
        6 * (p - 1)^2 <= 2^63 - 1.  3x^6 + 2x^5 + 7 is sparse and not monic;
        its x^5 term reaches the top slot of the fused X^p step."""
        p = _int64_limit(6)
        assert 6 * (p - 1) ** 2 <= 2 ** 63 - 1 < 6 * p ** 2
        primes = _largest_primes(p, 50)
        for coeffs in [(1, 0, 0, 1, 0, 0, 1), (7, 0, 0, 0, 0, 2, 3)]:
            scalar = [is_irreducible_mod_p(reduce_mod_p(coeffs, p))
                      for p in primes]
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
        resultant = density._separability_resultant(coeffs)
        assert list(density._bad_primes(resultant, ps)) == \
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
        primes = _largest_primes(_int64_limit(1), 20)
        coeffs = (-(10 ** 40 + 7), 2 ** 127 - 1, -(2 ** 63))
        assert density._residues(coeffs, np.array(primes, dtype=np.int64)
                                 ).T.tolist() == [[c % p for c in coeffs]
                                                  for p in primes]

    def test_refuses_degree_above_64(self, monkeypatch):
        """Refused before the resultant, whose cost grows steeply with n."""
        monkeypatch.setattr(density, "_separability_resultant", None)
        with pytest.raises(ValueError, match="degree 65 exceeds supported maximum 64"):
            density_report((1,) + (0,) * 64 + (1,), bound=100)

    def test_refuses_bound_past_int64_limit(self, monkeypatch):
        """Refused before the sieve, which would need gigabytes here."""
        monkeypatch.setattr(density, "_sieve", None)
        with pytest.raises(ValueError, match="fits in int64"):
            density_report((1, 0, 0, 1, 0, 0, 1), bound=3 * 10 ** 9)
        with pytest.raises(ValueError, match="fits in int64"):
            density_report((1, 0, 0, 1, 0, 0, 1), bound=1_239_850_264)

    @pytest.mark.parametrize("bound", [-5_000_000_000, -1, 0, 1])
    def test_refuses_bound_below_two(self, bound):
        """A bound below 2 reaches the sieve's refusal, however negative:
        n (bound - 1)^2 of a large negative bound passes 2^63 - 1 too, but
        it is no bound past the int64 limit."""
        with pytest.raises(ValueError, match="bound must be at least 2"):
            density_report((1, 0, 1), bound=bound)

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

    @pytest.mark.parametrize("degree, lead, bound", [
        (32, 1, 300), (32, -7, 300), (64, 1, 250),
        pytest.param(64, 2 ** 67 - 25, 250, id="64-67bit-250")])
    def test_batch_equals_scalar_past_degree_18(self, degree, lead, bound):
        """Seeded dense f of degree 32, monic and not, and of degree 64, the
        largest accepted, over the good primes <= bound: fewer primes than
        the random test above takes, and each case has inert primes.  The
        coefficients lie below max(100, |lead|) in size: the 67-bit f is not
        monic, and its kernel folds residues, c_j mod p scaled by a power of
        lc mod p."""
        rng = random.Random(degree)
        size = max(100, abs(lead))
        coeffs = tuple(rng.randrange(1 - size, size)
                       for _ in range(degree)) + (lead,)
        assert any(_assert_batch_equals_scalar(coeffs, sieve_primes(bound)))

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
            batch_bad = density._bad_primes(
                density._separability_resultant(coeffs),
                np.array(primes, dtype=np.int64))
            assert list(batch_bad) == scalar_bad, coeffs
            assert report.primes_skipped == sum(scalar_bad)
            assert report.primes_tested + report.primes_skipped == len(primes)


# x^6+x^3+1, x^6-x+1, 2x^5-3x+7, x^18-2x^9-2 and x^6+10^6x+1, whose integer
# fold would overflow at every prime the tests below take, so a missing
# bound check shows in its comparison with the scalar route
FOLD_POLYS = [(1, 0, 0, 1, 0, 0, 1), (1, -1, 0, 0, 0, 0, 1), (7, -3, 0, 0, 0, 2),
              (-2,) + (0,) * 8 + (-2,) + (0,) * 8 + (1,),
              (1, 10 ** 6, 0, 0, 0, 0, 1)]


class TestFoldChoice:
    """_reduce folds with f's own integer coefficients when _fold_fits
    bounds every slot of the unreduced fold below 2^63, and otherwise with
    f's residues, reducing each slot before it is folded."""

    def test_residue_fold_at_the_int64_limit(self):
        """The 30 largest primes density_report accepts for each degree,
        where no integer fold fits."""
        for coeffs in FOLD_POLYS:
            primes = _largest_primes(_int64_limit(len(coeffs) - 1), 30)
            assert not density._fold_fits(coeffs, primes[0])
            _assert_batch_equals_scalar(coeffs, primes)

    def test_integer_fold_where_it_fits(self):
        """The 30 largest primes below 5 * 10^8: x^6+x^3+1 and x^6-x+1 fold
        their integers, the others their residues; below a third of its
        limit x^18-2x^9-2 folds its integers too."""
        below = _largest_primes(5 * 10 ** 8, 30)
        for coeffs, fits in zip(FOLD_POLYS, (True, True, False, False, False)):
            assert density._fold_fits(coeffs, below[0]) == fits
            _assert_batch_equals_scalar(coeffs, below)
        primes = _largest_primes(_int64_limit(18) // 3, 30)
        assert density._fold_fits(FOLD_POLYS[3], primes[0])
        _assert_batch_equals_scalar(FOLD_POLYS[3], primes)

    def test_the_simulated_bound_decides(self):
        """x^6+x^3+1's slots reach 4 n (p - 1)^2, so its integer fold runs
        to 2 * 10^6 and stops at the last p with 24 (p - 1)^2 <= 2^63 - 1,
        far below its limit; x^6+10^6x+1's does not reach 2 * 10^6."""
        sextic, wide = FOLD_POLYS[0], FOLD_POLYS[4]
        edge = 1 + math.isqrt((2 ** 63 - 1) // 24)
        assert density._fold_fits(sextic, 2_000_000)
        assert density._fold_fits(sextic, edge)
        assert not density._fold_fits(sextic, edge + 1)
        assert not density._fold_fits(sextic, _int64_limit(6))
        primes = _largest_primes(2_000_000, 30)
        assert not density._fold_fits(wide, primes[0])
        _assert_batch_equals_scalar(wide, primes)

    def test_the_kernel_folds_as_decided(self, monkeypatch):
        """_batch_irreducible hands every _reduce call the decision of
        _fold_fits for its block, taken on f's monic form: 2x^5-3x+7 folds
        as x^5-24x+112, whose integers fit at 999 983; at the largest prime
        of each degree's limit the residue fold runs.  Every fold agrees
        with the scalar route."""
        wraps = []
        reduce = density._reduce

        def recording(acc, f, support, ps, wrap):
            wraps.append(wrap)
            return reduce(acc, f, support, ps, wrap)
        monkeypatch.setattr(density, "_reduce", recording)
        for coeffs, p, wrap in [
                (FOLD_POLYS[0], 1_999_993, False),
                (FOLD_POLYS[0], _largest_primes(_int64_limit(6), 1)[0], True),
                (FOLD_POLYS[2], 999_983, False),
                (FOLD_POLYS[2], _largest_primes(_int64_limit(5), 1)[0], True)]:
            wraps.clear()
            _assert_batch_equals_scalar(coeffs, [p])
            assert wraps and set(wraps) == {wrap}


def _substitute(coeffs, s, a):
    """f(s x + a), ascending, by Horner in Python ints."""
    out = (coeffs[-1],)
    for c in reversed(coeffs[:-1]):
        out = _int_mul(out, (a, s))
        out = (out[0] + c,) + out[1:]
    return out


def _counts(report):
    return report.primes_tested, report.primes_skipped, report.inert_count


class TestRingAutomorphisms:
    """f(-x) and f(x + a) keep f's degree, its leading coefficient up to
    sign and its discriminant, and reduce mod p to the same substitution in
    f mod p, an automorphism of GF(p)[x]: every prime keeps its class,
    skipped, inert or split.  Under x + 12345 the coefficients reach 21 to
    74 digits and the residue fold runs, where the monic f itself folds its
    integers: each such relation checks one fold against the other, past
    the scalar route's reach."""

    @pytest.mark.parametrize("coeffs", [
        FOLD_POLYS[0], FOLD_POLYS[2], FOLD_POLYS[3], (1, 1) + (0,) * 10 + (1,)])
    def test_substitutions_keep_every_class(self, coeffs):
        want = _counts(density_report(coeffs, bound=10 ** 5))
        for s, a in [(-1, 0), (1, 1), (1, -3), (1, 12345)]:
            g = _substitute(coeffs, s, a)
            assert _counts(density_report(g, bound=10 ** 5)) == want, (s, a)
        assert not density._fold_fits(g, 2)   # so at no prime

    def test_shift_of_x6_x3_1_to_two_million(self):
        sextic = FOLD_POLYS[0]
        shifted = _substitute(sextic, 1, 12345)
        assert max(len(str(c)) for c in shifted) == 25
        assert density._fold_fits(sextic, 2_000_000)
        assert _counts(density_report(shifted, bound=2_000_000)) == \
            _counts(density_report(sextic, bound=2_000_000)) == (148932, 1, 49707)


def _sparse_polys():
    """Per degree 2..12: x^n + a, b x^n + a and a trinomial (monic at even n,
    not at odd n), seeded; then x^7 + 2x and 3x^5 - x, without a constant
    term, so the reduction never subtracts at slot 0."""
    rng = random.Random(2026)

    def coefficient():
        return rng.choice([-1, 1]) * rng.randrange(1, 30)
    polys = []
    for n in range(2, 13):
        trinomial = [coefficient()] + [0] * (n - 1) + [1 if n % 2 == 0 else
                                                      -rng.randrange(2, 9)]
        trinomial[rng.randrange(1, n)] = coefficient()
        polys += [(coefficient(),) + (0,) * (n - 1) + (1,),
                  (coefficient(),) + (0,) * (n - 1) + (rng.randrange(2, 9),),
                  tuple(trinomial)]
    return polys + [(0, 2, 0, 0, 0, 0, 0, 1), (0, -1, 0, 0, 0, 3)]


class TestSparseReduction:
    """_reduce subtracts only where the integer f is nonzero; binomials,
    trinomials and sparse non-monic f check that against the scalar route
    over the good primes <= 3000."""

    @pytest.mark.parametrize("coeffs", _sparse_polys())
    def test_batch_equals_scalar(self, coeffs):
        _assert_batch_equals_scalar(coeffs, sieve_primes(3000))


class TestSurvivorProduct:
    @pytest.mark.parametrize("degrees", [(2, 2, 6, 10, 10), (5, 10, 15),
                                         (3, 6, 6, 15)])
    def test_every_factor_counts(self, degrees):
        """Degree 30 = 2 * 3 * 5 mod 7: f is a product of distinct monic
        irreducible factors of these degrees, so X^(p^30) = X while no
        X^(p^m) = X for m = 15, 10, 6, and each pattern escapes one of the
        three gcd(X^(p^m) - X, f) taken alone."""
        p, rng = 7, random.Random(sum(degrees))
        f, factors = [1], set()
        for d in degrees:
            while True:
                g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
                if g not in factors and is_irreducible_mod_p(PolyModP(p, g)):
                    break
            factors.add(g)
            f = poly_mul(f, g, p)
        assert not is_irreducible_mod_p(PolyModP(p, tuple(f)))
        assert not _batch_irreducible(tuple(f), np.array([p]))[0]


class TestCyclotomicBeyondDegree8:
    @pytest.mark.parametrize("m", [m for m in range(2, 62) if is_prime(m)])
    def test_inert_iff_p_generates_the_units_mod_m(self, m):
        """Phi_m = 1 + x + ... + x^(m-1) for every prime m <= 61 and each
        prime p <= 3000 other than m: irreducible mod p iff p has order
        m - 1 mod m.  Degree 60 gives the rank test its largest matrices,
        in blocks of _BLOCK_CELLS // 61^2 = 70 primes.  The factors of
        Phi_m mod p share one degree, so only irreducible reductions pass
        the screen: this checks that the rank test refuses none of them."""
        ps = np.array([p for p in sieve_primes(3000) if p != m])
        step = density._BLOCK_CELLS // m ** 2
        got = np.concatenate([_batch_irreducible((1,) * m, ps[i:i + step])
                              for i in range(0, len(ps), step)])
        assert list(got) == [multiplicative_order(int(p), m) == m - 1
                             for p in ps]


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _screen_polys():
    """Seeded random f of degree 1..12, monic and not; f with a planted
    square factor; x^5+x+3 (p = 5 divides n), x^3+2 (f' = 0 mod 3), 3x+5
    and 10^20 x^2 + 1."""
    rng = random.Random(1729)
    polys = [(3, 1, 0, 0, 0, 1), (2, 0, 0, 1), (5, 3), (1, 0, 10 ** 20)]
    for degree in range(1, 13):
        for lead in (1, rng.choice([2, 3, -4, 6, 10, -12])):
            polys.append(tuple(rng.randrange(-99, 100) for _ in range(degree))
                         + (lead,))
    for _ in range(3):
        g = (rng.randrange(-9, 10), rng.randrange(1, 4))
        h = [rng.randrange(-9, 10) for _ in range(3)] + [rng.randrange(1, 6)]
        polys.append(_int_mul(_int_mul(g, g), h))
    return polys


class TestSeparabilityScreen:
    @pytest.mark.parametrize("coeffs", _screen_polys())
    def test_divides_resultant_iff_bad_reduction(self, coeffs):
        """For every p <= 10^4: p | Res(f, f') iff reduce_mod_p(f, p) is a
        BadReduction; _bad_primes marks the same primes."""
        primes = sieve_primes(10_000)
        resultant = density._separability_resultant(coeffs)
        scalar_bad = [isinstance(reduce_mod_p(coeffs, p), BadReduction)
                      for p in primes]
        assert [resultant % p == 0 for p in primes] == scalar_bad
        assert list(density._bad_primes(
            resultant, np.array(primes, dtype=np.int64))) == scalar_bad

    def test_square_factor_gives_zero(self):
        squares = _screen_polys()[-3:]
        assert [density._separability_resultant(c) for c in squares] == [0] * 3

    def test_suite_resultants(self):
        """|Res(f, f')| = |lc(f) disc(f)|: 4, 256 and 3^9 = 19683."""
        assert {c: density._separability_resultant(c) for c in SUITE_POLYS} == {
            (1, 0, 1): 4, (1, 0, 0, 0, 1): 256, (1, 0, 0, 1, 0, 0, 1): 19683}

    def test_equals_the_sylvester_determinant(self):
        """The Bezout determinant divided by |lc(f)| is |Res(f, f')| as the
        Sylvester determinant gives it, on 200 seeded f of degree 1 to 12,
        monic and not, some with f(0) = 0 or a repeated factor, and on four
        of degree 20 with 40-bit coefficients."""
        rng = random.Random(47)
        polys = []
        for k in range(200):
            n = rng.randrange(1, 13)
            c = [rng.randrange(-50, 51) for _ in range(n)]
            c.append(1 if k % 2 else rng.choice([-7, -2, 3, 12]))
            if k % 5 == 0:
                c[0] = 0
            polys.append(tuple(c))
        polys += _screen_polys()[-3:]
        polys += [tuple(rng.randrange(-2 ** 40, 2 ** 40) for _ in range(20))
                  + (rng.choice([1, 5]),) for _ in range(4)]
        found = [density._separability_resultant(c) for c in polys]
        assert found == [sylvester_resultant(c) for c in polys]
        assert found.count(0) >= 3 and min(found[-4:]) > 0

    def test_closed_forms_in_degree_1_to_3(self):
        """Res(bx + a, b) = b; Res(f, f') = -c disc(f) for the quadratic
        cx^2 + bx + a and = -d disc(f) for the cubic dx^3 + cx^2 + bx + a."""
        rng = random.Random(31)
        for _ in range(50):
            a, b, c, d = (rng.randrange(-10 ** 6, 10 ** 6) for _ in range(4))
            c, d = c or 1, d or 1
            assert density._separability_resultant((a, b or 1)) == abs(b or 1)
            assert density._separability_resultant((a, b, c)) == \
                abs(c * (b * b - 4 * a * c))
            disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                    - 27 * a * a * d * d + 18 * a * b * c * d)
            assert density._separability_resultant((a, b, c, d)) == abs(d * disc)


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

    def test_pool_is_bounded_by_the_cpus(self, monkeypatch):
        """The pool takes the least of the workers asked for, the blocks and
        the CPUs; one process runs no pool.  A fake context records each
        pool's size and starts no process."""
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(density, "get_context",
                            lambda method: type("Fake", (), {"Pool": FakePool}))
        monkeypatch.setattr(density, "_BLOCK_CELLS", 300)   # 112 blocks
        coeffs = (1, 0, 0, 1, 0, 0, 1)
        whole = density_report(coeffs, bound=5000)
        for cpus, workers in ((3, 5000), (None, 5000), (8, 2), (1, 2)):
            monkeypatch.setattr(density.os, "cpu_count", lambda: cpus)
            assert density_report(coeffs, bound=5000, workers=workers) == whole
        assert sizes == [3, 2]

    def test_numpy_integers_are_read_exactly(self):
        """int64 coefficients, bound and floor give the tuple's report, in
        Python ints; a float coefficient or bound is refused."""
        coeffs = (3, 10 ** 12, 0, 7 * 10 ** 11)
        want = density_report(coeffs, bound=5000, floor=7)
        have = density_report(np.array(coeffs), bound=np.int64(5000),
                              floor=np.int64(7))
        assert have == want and json.dumps(have.to_json_dict())
        assert {type(c) for c in have.polynomial} == {int}
        with pytest.raises(TypeError):
            density_report((1.0, 0, 1), bound=100)
        with pytest.raises(TypeError):
            density_report((1, 0, 1), bound=100.0)

    def test_json_roundtrip(self):
        import json
        for predicted in (None, Fraction(1, 2)):
            report = density_report((1, 0, 1), bound=5000, predicted=predicted)
            blob = json.dumps(report.to_json_dict())
            assert DensityReport.from_json_dict(json.loads(blob)) == report
            d = {**report.to_json_dict(), "name": "x^2+1"}
            assert DensityReport.from_json_dict(d) == report
            del d["predicted"]
            with pytest.raises(KeyError, match="predicted"):
                DensityReport.from_json_dict(d)


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
        # trailing blanks after a variable, which no term's pattern takes
        assert parse_polynomial("1 + x^2  ") == (1, 0, 1)

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

    @pytest.mark.parametrize("text, position", [("x^65+1", 2),
                                                ("1 + 2x^3000000", 7)])
    def test_rejects_an_exponent_above_64(self, text, position):
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial(text)
        assert info.value.position == position
        assert "exceeds supported maximum 64" in str(info.value)
        assert parse_polynomial("x^64+1") == (1,) + (0,) * 63 + (1,)

    @pytest.mark.parametrize("text, position", [
        ("x^" + "9" * 5000 + "+1", 2), ("9" * 5000 + "x+1", 0),
        ("x + 1/" + "7" * 5000, 6), ("x^2 - " + "1" * 4301, 6)])
    def test_rejects_a_number_longer_than_int_converts(self, text, position):
        """Exponent, coefficient and denominator: each digit run longer than
        int() converts is refused at its position, by its length."""
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial(text)
        assert info.value.position == position
        assert "digits exceeds the 4300-digit limit" in str(info.value)

    @pytest.mark.parametrize("text", ["9" * 4300 + "x+1/7",
                                      "x + " + "9" * 4300 + " + " + "9" * 4300])
    def test_rejects_a_combined_coefficient_longer_than_str_converts(self, text):
        """Summing terms or clearing denominators can lengthen a coefficient
        past what str() converts, which would break printing the report."""
        with pytest.raises(PolynomialParseError, match="more than 4300 digits"):
            parse_polynomial(text)
        coeffs = parse_polynomial("9" * 4300 + "x+1")
        assert json.loads(json.dumps(coeffs)) == list(coeffs)

    @pytest.mark.parametrize("text, position", [("1/0x+1", 2),
                                                ("x^2 + 3/00", 8)])
    def test_rejects_a_zero_denominator(self, text, position):
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial(text)
        assert info.value.position == position
        assert "is zero" in str(info.value)
