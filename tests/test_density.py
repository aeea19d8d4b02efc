import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cycle_census import catalog, density
from cycle_census.density import (BadReduction, DensityReport, PolyModP,
                                  PolynomialParseError, _batch_irreducible,
                                  density_report, is_irreducible_mod_p,
                                  parse_polynomial, predicted_density,
                                  reduce_mod_p, sieve_primes)
from cycle_census.ntheory import is_prime, multiplicative_order

from helpers import (discriminant, monic_powers, naive_irreducible,
                     poly_divmod, poly_mul, rank_mod_p, sylvester_resultant,
                     trace_of_power)

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


@functools.cache
def _largest_primes(p, count):
    """The count largest primes <= p, descending, found by is_prime; cached,
    as trial division near 3 * 10^9 is slow, so a tuple."""
    primes = []
    while len(primes) < count:
        if is_prime(p):
            primes.append(p)
        p -= 1
    return tuple(primes)


@functools.cache
def _scalar_verdict(coeffs, p):
    """None if f mod p is a BadReduction, else whether it is irreducible, by
    reduce_mod_p and is_irreducible_mod_p; cached, as several classes ask
    it of the same f and p."""
    reduction = reduce_mod_p(coeffs, p)
    if isinstance(reduction, BadReduction):
        return None
    return is_irreducible_mod_p(reduction)


# f's route, once per f: several tests ask it of the same f, and it costs a
# resultant
_route = functools.cache(density._route)


def _kernel(coeffs, ps, table=None):
    """_batch_irreducible on the primes ps as density_report runs it: with
    f's route, a workspace for ps and f's table, one column a prime unless
    given."""
    n, ps = len(coeffs) - 1, np.asarray(ps, dtype=np.int64)
    route = _route(coeffs)
    table = density._power_table(route.monic, len(ps)) if table is None else table
    return _batch_irreducible(coeffs, ps, route=route, table=table,
                              arena=np.empty((n + 3) ** 2 * len(ps), np.int64))


def _residues(coeffs, ps):
    """density._residues of the integers coeffs at the primes ps, into a new
    array."""
    return density._residues(coeffs, ps, np.empty((len(coeffs), len(ps)), np.int64))


def _assert_batch_equals_scalar(coeffs, primes):
    verdicts = [_scalar_verdict(coeffs, p) for p in primes]
    scalar = [v for v in verdicts if v is not None]
    batch = _kernel(coeffs, [p for p, v in zip(primes, verdicts) if v is not None])
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
            batch = _kernel(coeffs, primes)
            assert list(batch) == scalar and 0 < sum(scalar) < 50

    @pytest.mark.parametrize("coeffs", [
        (1, 0, 10 ** 20), (2 ** 64, 0, 1), (-(2 ** 63 + 1), 3, 0, 1),
        (-(2 ** 63), 1, 1), (3 ** 90, -(7 ** 50), 5, 2 ** 70)])
    def test_coefficients_past_int64(self, coeffs):
        """|c| >= 2^63 is reduced exactly: residues, the bad-prime screen
        and each good reduction's irreducibility match the scalar route."""
        primes = sieve_primes(10_000)
        ps = np.array(primes, dtype=np.int64)
        assert _residues(coeffs, ps).T.tolist() == \
            [[c % p for c in coeffs] for p in primes]
        scalar = [reduce_mod_p(coeffs, p) for p in primes]
        resultant = density._separability_resultant(coeffs)
        assert list(_residues((resultant,), ps)[0] == 0) == \
            [isinstance(r, BadReduction) for r in scalar]
        good = [r for r in scalar if isinstance(r, PolyModP)]
        batch = _kernel(coeffs, [r.p for r in good])
        assert list(batch) == [is_irreducible_mod_p(r) for r in good]
        report = density_report(coeffs, bound=10_000)
        assert report.primes_skipped == len(primes) - len(good)
        assert report.inert_count == sum(is_irreducible_mod_p(r) for r in good)

    def test_big_coefficient_residues_at_the_largest_primes(self):
        """Limb reduction at the 20 largest primes of the degree-1 limit,
        where r * 2^31 + limb comes closest to 2^63."""
        primes = _largest_primes(_int64_limit(1), 20)
        coeffs = (-(10 ** 40 + 7), 2 ** 127 - 1, -(2 ** 63))
        assert _residues(coeffs, np.array(primes, dtype=np.int64)
                         ).T.tolist() == [[c % p for c in coeffs] for p in primes]

    def test_refuses_degree_above_64(self, monkeypatch):
        """Refused before the resultant, whose cost grows steeply with n."""
        monkeypatch.setattr(density, "_separability_resultant", None)
        with pytest.raises(ValueError, match="degree 65 exceeds supported maximum 64"):
            density_report((1,) + (0,) * 64 + (1,), bound=100)

    def test_refuses_bound_past_int64_limit(self, monkeypatch):
        """Refused before any sieving: the first sieve call, for the base
        primes up to sqrt(bound), is never reached."""
        monkeypatch.setattr(density, "_base_primes", None)
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
            batch = _kernel(coeffs, good)
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
        processes share those blocks' segments."""
        polys = [(1, 0, 0, 1, 0, 0, 1), (2, 3, 0, 5), (-4, 0, 1, 0, 2)]
        whole = [density_report(c, bound=5000) for c in polys]
        monkeypatch.setattr(density, "_BLOCK_CELLS", 300)
        monkeypatch.setattr(density, "_SEGMENT", 300)   # 9 segments
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
            batch_bad = _residues((density._separability_resultant(coeffs),),
                                  np.array(primes, dtype=np.int64))[0] == 0
            assert list(batch_bad) == scalar_bad, coeffs
            assert report.primes_skipped == sum(scalar_bad)
            assert report.primes_tested + report.primes_skipped == len(primes)


# x^6+x^3+1, x^6-x+1, 2x^5-3x+7, x^18-2x^9-2 and x^6+10^6x+1, whose integer
# fold would overflow at every prime the tests below take, so a missing
# bound check shows in its comparison with the scalar route
FOLD_POLYS = [(1, 0, 0, 1, 0, 0, 1), (1, -1, 0, 0, 0, 0, 1), (7, -3, 0, 0, 0, 2),
              (-2,) + (0,) * 8 + (-2,) + (0,) * 8 + (1,),
              (1, 10 ** 6, 0, 0, 0, 0, 1)]


def _fold_limit(coeffs):
    return _route(coeffs).fold_limit


class TestFoldChoice:
    """_reduce folds with the integer coefficients of f's monic form up to
    the route's fold limit, which bounds every slot of the unreduced fold
    below 2^63, and above it with f's residues, reducing each slot before it
    is folded."""

    def test_residue_fold_at_the_int64_limit(self):
        """The 30 largest primes density_report accepts for each degree,
        where no integer fold fits."""
        for coeffs in FOLD_POLYS:
            primes = _largest_primes(_int64_limit(len(coeffs) - 1), 30)
            assert primes[0] > _fold_limit(coeffs)
            _assert_batch_equals_scalar(coeffs, primes)

    def test_integer_fold_where_it_fits(self):
        """The 30 largest primes below 5 * 10^8: x^6+x^3+1 and x^6-x+1 fold
        their integers, the others their residues; below a third of its
        limit x^18-2x^9-2 folds its integers too."""
        below = _largest_primes(5 * 10 ** 8, 30)
        for coeffs, fits in zip(FOLD_POLYS, (True, True, False, False, False)):
            assert (below[0] <= _fold_limit(coeffs)) == fits
            _assert_batch_equals_scalar(coeffs, below)
        primes = _largest_primes(_int64_limit(18) // 3, 30)
        assert primes[0] <= _fold_limit(FOLD_POLYS[3])
        _assert_batch_equals_scalar(FOLD_POLYS[3], primes)

    def test_the_simulated_bound_decides(self):
        """x^6+x^3+1's slots reach 4 n (p - 1)^2, so its integer fold runs
        to 2 * 10^6 and stops at the last p with 24 (p - 1)^2 <= 2^63 - 1,
        far below its limit; x^6+10^6x+1's does not reach 2 * 10^6."""
        sextic, wide = FOLD_POLYS[0], FOLD_POLYS[4]
        edge, limit = 1 + math.isqrt((2 ** 63 - 1) // 24), _fold_limit(sextic)
        assert 2_000_000 <= limit
        assert edge <= limit
        assert not edge + 1 <= limit
        assert not _int64_limit(6) <= limit
        primes = _largest_primes(2_000_000, 30)
        assert not primes[0] <= _fold_limit(wide)
        _assert_batch_equals_scalar(wide, primes)

    def test_the_kernel_folds_as_decided(self, monkeypatch):
        """_batch_irreducible hands every _reduce call its block's side of
        the fold limit, read off f's monic form: 2x^5-3x+7 folds
        as x^5-24x+112, whose integers fit at 999 983; at the largest prime
        of each degree's limit the residue fold runs.  Every fold agrees
        with the scalar route."""
        wraps = []
        reduce = density._reduce

        def recording(acc, f, support, ps, wrap, *args, **kwargs):
            wraps.append(wrap)
            return reduce(acc, f, support, ps, wrap, *args, **kwargs)
        monkeypatch.setattr(density, "_reduce", recording)
        for coeffs, p, wrap in [
                (FOLD_POLYS[0], 1_999_993, False),
                (FOLD_POLYS[0], _largest_primes(_int64_limit(6), 1)[0], True),
                (FOLD_POLYS[2], 999_983, False),
                (FOLD_POLYS[2], _largest_primes(_int64_limit(5), 1)[0], True)]:
            wraps.clear()
            _assert_batch_equals_scalar(coeffs, [p])
            assert wraps and set(wraps) == {wrap}
            assert (p > _fold_limit(coeffs)) == wrap

    def test_reports_to_twice_the_limit(self):
        """x^3-200x^2-200x-200 and x^4-40x^3-40x^2-40x-40, each to twice its
        fold limit: an integer fold run past the limit, to twice it, changes
        both inert counts (to 32 495 and 33 927), which the corpus's reports
        cannot show."""
        for coeffs, limit, counts in [
                ((-200, -200, -200, 1), 615_305, (95_091, 3, 31_610)),
                ((-40, -40, -40, -40, 1), 903_332, (135_532, 3, 33_922))]:
            assert _fold_limit(coeffs) == limit
            assert _counts(density_report(coeffs, bound=2 * limit)) == counts


def _fold_stays_in_int64(coeffs, p):
    """Whether every slot of the unreduced integer fold stays within 2^63 - 1
    at the prime p, simulated slot by slot: each of 2n slots starts from
    n(p - 1)^2 and slot k, top first, adds its bound times |g_j| to slot
    k - n + j, g f's monic form."""
    n, lc = len(coeffs) - 1, coeffs[-1]
    bound = [n * (p - 1) ** 2] * (2 * n)
    for k in range(2 * n - 1, n - 1, -1):
        for j, c in enumerate(coeffs[:-1]):
            bound[k - n + j] += bound[k] * abs(c * lc ** (n - 1 - j))
    return max(bound) <= 2 ** 63 - 1


# CI's density loop: f, its fold limit, parity screen mode and decision mode
CI_ROUTES = [
    ("x^6+x^3+1", 619_925_132, "character", "minor"),
    ("2x^5-3x+7", 25_662_757, "character", "minor"),
    ("3x^6+2x^5+7", 3_787_432, "character", "minor"),
    ("x^18-2x^9-2", 238_609_295, "character", "screen, minor"),
    ("x^8-2", 619_925_132, "character", "screen"),
    ("x^16+x+1", 379_625_063, "character", "screen"),
    ("x^4+x+1", 759_250_125, "character", "minor"),
    ("x^6+x+1", 619_925_132, "character", "minor"),
    ("x^12+x+1", 438_353_265, "character", "screen, minor"),
    ("x^2+x+1", 1_073_741_824, "all", "minor"),
    ("x^3-3x+1", 468_619_351, "all", "minor"),
    ("x^4+1", 1_073_741_824, "2 only", "minor"),
    ("x^7-7x+3", 148_190_451, "all", "screen"),
    ("x^6+x^3+1 at x + 12345", 1, "character", "minor"),
    ("x^6+1000x+1", 1_239_230, "character", "minor"),
    ("x^30+x+1", 277_238_947, "character", "screen, minor")]

# the same polynomials' columns: at p = l | n, M drops column j = column[l]
CI_COLUMNS = {
    "x^6+x^3+1": {2: 3, 3: 0}, "2x^5-3x+7": {5: 4}, "3x^6+2x^5+7": {2: 0, 3: 1},
    "x^18-2x^9-2": {2: 0, 3: 0}, "x^8-2": {2: 0}, "x^16+x+1": {2: 15},
    "x^4+x+1": {2: 3}, "x^6+x+1": {2: 5, 3: 5}, "x^12+x+1": {2: 11, 3: 11},
    "x^2+x+1": {2: 1}, "x^3-3x+1": {3: 0}, "x^4+1": {2: 0}, "x^7-7x+3": {7: 0},
    "x^6+x^3+1 at x + 12345": {2: 3, 3: 0}, "x^6+1000x+1": {2: 0, 3: 5},
    "x^30+x+1": {2: 29, 3: 29, 5: 29}}

# the same polynomials' periods |D*| of the table of (B / p) at the loop's
# 9 592 primes, None where the screen exponentiates or runs no character
CI_PERIODS = {
    "x^6+x^3+1": 3, "2x^5-3x+7": None, "3x^6+2x^5+7": None, "x^18-2x^9-2": 12,
    "x^8-2": 8, "x^16+x+1": None, "x^4+x+1": 229, "x^6+x+1": None, "x^12+x+1": None,
    "x^2+x+1": None, "x^3-3x+1": None, "x^4+1": None, "x^7-7x+3": None,
    "x^6+x^3+1 at x + 12345": 3, "x^6+1000x+1": None, "x^30+x+1": None}


class TestRoute:
    """density_report decides f's route once: the largest prime at which the
    integer fold fits, the parity screen's mode, which of the power
    screen and the minor of Q - I decide, and the column M drops at each
    prime dividing n.  Each kernel call reads it."""

    @staticmethod
    def coeffs(text):
        if text.endswith(" at x + 12345"):
            return _substitute(parse_polynomial(text.split()[0]), 1, 12345)
        return parse_polynomial(text)

    @pytest.mark.parametrize("text, limit, parity, decide", CI_ROUTES)
    def test_ci_polynomials(self, text, limit, parity, decide):
        """The pinned route; the limit is the last p whose simulated fold
        stays within int64, and column[l] the least j with Tr X^j != 0 mod l,
        0 if none, by helpers.trace_of_power.  Only a bad l, dividing B, has
        none, but a bad l may have one: 3 divides 3x^6+2x^5+7's lc, so its
        monic form is X^5 (X + 2) mod 3, with Tr X = -2.  x^6+x+1 has no
        table: |D*| = 43 531 is above 2^12."""
        coeffs = self.coeffs(text)
        route = _route(coeffs, len(sieve_primes(100_000)))
        assert (route.fold_limit, route.parity, route.decide) == (limit, parity, decide)
        assert (len(route.kronecker) or None) == CI_PERIODS[text]
        assert _fold_stays_in_int64(coeffs, limit)
        assert not _fold_stays_in_int64(coeffs, limit + 1)
        n = len(coeffs) - 1
        assert list(route.column.items()) == sorted(CI_COLUMNS[text].items())
        for ell, j in route.column.items():
            traces = [trace_of_power(coeffs, i, ell) for i in range(n)]
            assert traces[:j] == [0] * j
            assert traces[j] != 0 if j else not any(traces)
        bad = {ell for ell in route.column if route.bezout % ell == 0}
        assert {ell for ell, j in route.column.items() if j == 0} == (
            bad - {3} if text == "3x^6+2x^5+7" else bad)

    def test_a_table_needs_32_primes_an_entry(self):
        """x^5-x-1 has B = 2869 = 19 * 151 = 1 mod 4, so |D*| = 2869 <= 2^12:
        a report of 3000 (430 primes) exponentiates, and its table comes at
        32 * 2869 primes, not one fewer."""
        coeffs = parse_polynomial("x^5-x-1")
        assert _route(coeffs, len(sieve_primes(3000))).kronecker == ()
        assert _route(coeffs, 32 * 2869 - 1).kronecker == ()
        assert len(_route(coeffs, 32 * 2869).kronecker) == 2869

    def test_fold_limit_of_seeded_polynomials(self):
        """f of degree 1 to 30 with coefficients up to 67 bits and of degree
        64 with 1- to 3-bit ones, monic and not: the fold fits at the limit
        and not one above it."""
        rng = random.Random(27)
        for _ in range(80):
            n = rng.choice([*range(1, 13), 18, 30, 64])
            bits = rng.choice([1, 3] if n == 64 else [1, 3, 20, 67])
            coeffs = tuple(rng.randrange(-2 ** bits, 2 ** bits + 1) for _ in range(n))
            coeffs += (rng.choice([1, -1, 3, rng.randrange(1, 2 ** bits + 1)]),)
            limit = _fold_limit(coeffs)
            assert _fold_stays_in_int64(coeffs, limit), coeffs
            assert not _fold_stays_in_int64(coeffs, limit + 1), coeffs

    def test_report_folds_on_both_sides(self, monkeypatch):
        """x^6+1000x+1 to 2 * 10^6 crosses its limit mid-report: of its 14
        kernel calls, the 8 whose largest prime is at most 1 239 230 fold
        integers and the other 6 residues."""
        calls = _record_kernel(monkeypatch)
        report = density_report((1, 1000, 0, 0, 0, 0, 1), bound=2_000_000)
        assert _counts(report) == (148928, 5, 24604)
        assert [max(ps) <= 1_239_230 for ps in calls] == [True] * 8 + [False] * 6


def _monic(coeffs):
    """g_0..g_(n-1) of f's monic form g = lc^(n-1) f(X / lc)."""
    return tuple(c * coeffs[-1] ** (len(coeffs) - 2 - j)
                 for j, c in enumerate(coeffs[:-1]))


def _in_int64(column):
    return all(-2 ** 63 <= c < 2 ** 63 for c in column)


class TestPowerTable:
    """Every X^p starts from the report's table of X^m mod g over the
    integers, g the monic form of f, checked against helpers.monic_powers."""

    @pytest.mark.parametrize("coeffs, columns", [
        ((1, 0, 0, 1, 0, 0, 1), 5461),   # X^9 = 1 mod x^6+x^3+1: the cap
        (FOLD_POLYS[3], 405), ((1, 1) + (0,) * 10 + (1,), 769),
        ((7, -3, 0, 0, 0, 2), 45), ((7, 0, 0, 0, 0, 2, 3), 34),
        (FOLD_POLYS[4], 21), ((2 ** 40 + 1, -(2 ** 39), 3, 2 ** 40 - 87), 3),
        (tuple(range(1, 65)) + (2 ** 67 - 25,), 64)])
    def test_columns_are_the_powers_of_x(self, coeffs, columns):
        """Column m is X^m mod g, the first n are the monomials, and the
        table stops at its cap of 2^15 // n columns or before the first
        power with a coefficient outside int64, whichever comes first."""
        n = len(coeffs) - 1
        cap = 2 ** 15 // n
        table = density._power_table(_monic(coeffs), 10 ** 6)
        assert table.shape == (n, columns) and table.flags.f_contiguous
        assert (table[:, :n] == np.eye(n, dtype=np.int64)).all()
        powers = monic_powers(coeffs, min(columns + 1, cap))
        assert table.T.tolist() == powers[:columns]
        assert columns == cap or not _in_int64(powers[columns])

    def test_stops_at_the_int64_edge(self):
        """3037000499^2 < 2^63 <= 3037000500^2, so X^2 - c keeps X^4 = c^2
        and X^5 = c^2 X for the first c only; in degree 1, X = -g_0 keeps
        -2^63 and not 2^63."""
        for c, columns in ((3037000499, 6), (3037000500, 4)):
            table = density._power_table((-c, 0), 100)
            assert table.T.tolist() == monic_powers((-c, 0, 1), columns)
        assert density._power_table((2 ** 63,), 100).tolist() == [[1, -2 ** 63]]
        assert density._power_table((-(2 ** 63),), 100).tolist() == [[1]]

    def test_a_short_report_builds_a_column_per_prime(self, monkeypatch):
        """10 primes to 30 give x^6+x^3+1 ten columns and x^16+x+1 its 16
        monomials; the 3 primes in (80, 100] give x^6+x^3+1 its 6, and x + 1,
        which needs no X^p, gets its one monomial."""
        shapes = []
        build = density._power_table

        def recording(g, primes):
            shapes.append(build(g, primes).shape)
            return build(g, primes)
        monkeypatch.setattr(density, "_power_table", recording)
        sextic, sixteen = (1, 0, 0, 1, 0, 0, 1), (1, 1) + (0,) * 14 + (1,)
        density_report(sextic, bound=30)
        density_report(sixteen, bound=30)
        density_report(sextic, bound=100, floor=80)
        density_report((1, 1), bound=10 ** 5)
        assert shapes == [(6, 10), (16, 16), (6, 6), (1, 1)]

    def test_x_to_the_p_starts_from_the_table(self, monkeypatch):
        """The 1229 primes to 10^4 give x^6+x^3+1 a table of 1229 columns,
        so X^p starts at p >> 4 < 1229 (9973 >> 3 = 1246): four reductions
        for X^p, against eleven from a monomial below X^6, then four for
        Q's rows X^(2p) to X^(5p)."""
        calls = []
        reduce = density._reduce

        def counting(*args):
            calls.append(1)
            return reduce(*args)
        monkeypatch.setattr(density, "_reduce", counting)
        _kernel((1, 0, 0, 1, 0, 0, 1), sieve_primes(10_000))
        assert len(calls) == 4 + 4

    @pytest.mark.parametrize("coeffs", FOLD_POLYS)
    def test_every_start_gives_the_same_verdicts(self, coeffs):
        """The monomial start (a table of n columns) and the full table
        classify the primes to 5000 alike."""
        n = len(coeffs) - 1
        ps = np.array([p for p in sieve_primes(5000) if isinstance(
            reduce_mod_p(coeffs, p), PolyModP)], dtype=np.int64)
        monomials = density._power_table(_monic(coeffs), n)
        assert monomials.shape == (n, n)
        assert (_kernel(coeffs, ps, table=monomials) == _kernel(coeffs, ps)).all()


def _scalar_counts(coeffs, bound, floor=0):
    """(tested, skipped, inert) of the primes in (floor, bound], prime by
    prime with reduce_mod_p and is_irreducible_mod_p."""
    verdicts = [_scalar_verdict(coeffs, p) for p in sieve_primes(bound) if p > floor]
    good = [v for v in verdicts if v is not None]
    return len(good), len(verdicts) - len(good), sum(good)


class TestReportAgainstScalar:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_reports(self, seed):
        """Seeded f of degree 2 to 12, monic, non-monic, and with 40-bit
        coefficients, whose kernel folds residues: each report counts what
        the scalar route counts."""
        rng = random.Random(4000 + seed)
        kind = ("monic", "non-monic", "wide")[seed % 3]
        n = rng.randrange(2, 13)
        size = 2 ** 40 if kind == "wide" else 10
        coeffs = tuple(rng.randrange(-size, size) for _ in range(n))
        leads = {"monic": 1, "non-monic": rng.choice([2, -3, 6, 10]),
                 "wide": 2 ** 40 - rng.randrange(1, 1000)}
        coeffs += (leads[kind],)
        bound, floor = 3000, rng.choice([0, 0, 500])
        if kind == "wide":
            assert 5 > _fold_limit(coeffs)
        report = density_report(coeffs, bound=bound, floor=floor)
        assert (report.primes_tested, report.primes_skipped,
                report.inert_count) == _scalar_counts(coeffs, bound, floor)


class TestPrimePowerDegree:
    """For n = l^k the distinct-degree screen decides alone on a squarefree
    reduction: a reducible f has factors of degree l^j, j < k, all dividing
    n / l, so X^(p^(n/l)) = X mod f.  The kernel eliminates no minor of
    Q - I there for n >= 8; for n <= 6 the minor decides in place of the
    screen."""

    @pytest.mark.parametrize("n", [2, 4, 8, 9, 16, 25, 27, 32, 64])
    def test_screen_equals_scalar(self, n, monkeypatch):
        """x^n - 2, the non-monic 3x^n + 5 and a seeded trinomial over the
        good primes to 300 (2000 for n <= 16)."""
        if n >= 8:   # the screen alone
            monkeypatch.setattr(density, "_minor_nonsingular", None)
        rng = random.Random(n)
        trinomial = [rng.choice([-3, -1, 1, 2])] + [0] * (n - 1) + [1]
        trinomial[rng.randrange(1, n)] = rng.choice([-2, 1, 5])
        primes = sieve_primes(2000 if n <= 16 else 300)
        verdicts = []
        for coeffs in ((-2,) + (0,) * (n - 1) + (1,),
                       (5,) + (0,) * (n - 1) + (3,), tuple(trinomial)):
            verdicts += _assert_batch_equals_scalar(coeffs, primes)
            assert _route(coeffs).decide == ("screen" if n >= 8 else "minor")
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 1, 0, 0, 1), FOLD_POLYS[3]])
    def test_other_degrees_run_the_rank_test(self, coeffs, monkeypatch):
        """Degrees 6 and 18 are no prime powers: the minor of Q - I decides,
        alone at degree 6 and on the screen's survivors at degree 18."""
        calls = []
        minor = density._minor_nonsingular

        def recording(m, ps, tmp):
            calls.append(len(ps))
            return minor(m, ps, tmp)
        monkeypatch.setattr(density, "_minor_nonsingular", recording)
        _assert_batch_equals_scalar(coeffs, sieve_primes(2000))
        assert calls and calls[0] > 0
        assert _route(coeffs).decide == (
            "minor" if len(coeffs) == 7 else "screen, minor")


def _fixed_pivot_stalls(coeffs, p):
    """Whether Gaussian elimination over GF(p) on the fixed diagonal pivots of
    the minor of Q - I without row 0 and column 0, Q[i] = X^(ip) mod f's
    monic form, meets a zero pivot above a nonzero entry: in Python ints,
    from helpers' polynomial arithmetic, sharing no code with the kernel."""
    n, lc = len(coeffs) - 1, coeffs[-1]
    g = [c * lc ** (n - 1 - j) % p for j, c in enumerate(coeffs[:-1])] + [1]
    xp = [1]
    for bit in bin(p)[2:]:
        xp = poly_divmod(poly_mul(xp, xp, p), g, p)[1]
        if bit == "1":
            xp = poly_divmod([0] + xp, g, p)[1]
    m, row = [], [1]
    for i in range(1, n):
        row = poly_divmod(poly_mul(row, xp, p), g, p)[1]
        m.append([(c - (i == j)) % p for j, c in enumerate(row + [0] * n)
                  if 0 < j < n])
    return _stalls(m, p)


def _stalls(rows, p):
    """Whether Gaussian elimination over GF(p) on the fixed diagonal pivots of
    the square integer matrix rows meets a zero pivot above a nonzero entry
    (a zero pivot over zeros leaves the minor singular, and no later pivot
    is read)."""
    m = [[x % p for x in row] for row in rows]
    for k, pivot in enumerate(m):
        if pivot[k] == 0:
            return any(r[k] for r in m[k + 1:])
        for r in m[k + 1:]:
            c = r[k] * pow(pivot[k], -1, p)
            r[:] = [(x - c * y) % p for x, y in zip(r, pivot)]
    return False


def _minor_polys():
    """Seeded f of degree 2..12 and 18, monic and not; x^4+x+1 and x^6+x+1;
    a sextic with 40-bit coefficients, which folds residues near 3000."""
    rng = random.Random(4343)
    polys = [(1, 1, 0, 0, 1), (1, 1, 0, 0, 0, 0, 1),
             tuple(rng.randrange(-2 ** 40, 2 ** 40) for _ in range(6))
             + (2 ** 40 - 87,)]
    for degree in [*range(2, 13), 18]:
        for lead in (1, rng.choice([2, 3, -5, 7])):
            polys.append(tuple(rng.randrange(-9, 10) for _ in range(degree))
                         + (lead,))
    return polys


class TestBerlekampMinor:
    """A squarefree f mod p is irreducible iff the minor M of Q - I without
    row 0 and column j is nonsingular, for any j with Tr X^j != 0 mod p:
    (Tr X^j)_j spans the right kernel of Q - I.  j = 0 for p not dividing n,
    as Tr 1 = n, and the route's column[p] for p | n.  The kernel eliminates
    M on fixed pivots, swapping up a lower row under a zero pivot, alone for
    n <= 6 and on the screen's survivors otherwise."""

    @pytest.mark.parametrize("coeffs", _minor_polys())
    def test_batch_equals_scalar(self, coeffs, monkeypatch):
        """Every good prime to 3000, the primes dividing n among them; M takes
        every good prime for n <= 6, none for a prime power n."""
        n, primes, minors = len(coeffs) - 1, sieve_primes(3000), []
        minor = density._minor_nonsingular

        def recording(m, ps, tmp):
            minors.extend(ps.tolist())
            return minor(m, ps, tmp)
        monkeypatch.setattr(density, "_minor_nonsingular", recording)
        _assert_batch_equals_scalar(coeffs, primes)
        good = [p for p in primes if _scalar_verdict(coeffs, p) is not None]
        decide = _route(coeffs).decide
        if n in (7, 8, 9, 11):   # a prime power: the screen decides alone
            assert minors == [] and decide == "screen"
        elif n <= 6:
            assert sorted(minors) == good and decide == "minor"
        else:   # the screen's survivors only
            assert set(minors) <= set(good) and decide == "screen, minor"

    def test_trace_columns_and_row_swaps(self):
        """The good primes to 3000 that fixed pivots on the column-0 minor
        leave open: x^4+x+1 is irreducible mod 2, which divides 4, so M drops
        column 3 there, and mod 7, where a zero pivot lies over a nonzero
        entry, so rows swap; x^6+x+1 is irreducible mod 2 and mod 13, one of
        each kind.  On these primes alone the kernel equals the scalar test,
        irreducible at some of either kind."""
        for coeffs, want, irreducible in [
                ((1, 1, 0, 0, 1), [2, 7, 157, 271], [2, 7, 157]),
                ((1, 1, 0, 0, 0, 0, 1), [2, 3, 5, 7, 11, 13, 47, 83, 163],
                 [2, 13, 47])]:
            n = len(coeffs) - 1
            good = [p for p in sieve_primes(3000)
                    if _scalar_verdict(coeffs, p) is not None]
            assert [p for p in good
                    if n % p == 0 or _fixed_pivot_stalls(coeffs, p)] == want
            verdicts = _assert_batch_equals_scalar(coeffs, want)
            assert [p for p, v in zip(want, verdicts) if v] == irreducible

    @pytest.mark.parametrize("coeffs", [(1, 1, 0, 0, 0, 0, 1), (1,) * 13])
    def test_a_block_of_primes_dividing_n_alone(self, coeffs):
        """Every prime of the block divides n (x^6+x+1 and Phi_13 mod 2 and
        3, the one irreducible and the other not), so each drops its own
        column of Q - I from M."""
        assert _assert_batch_equals_scalar(coeffs, [2, 3]) == [True, False]


class TestMinorElimination:
    """_minor_nonsingular against helpers.rank_mod_p on seeded k x k matrices
    mod small primes, entries in (-p, p), one a prime of the batch: blocks
    where every matrix meets a zero pivot over a nonzero entry, where none
    does, and where half do."""

    @staticmethod
    def matrix(rng, k, p, stall):
        """A matrix that stalls iff stall: then row i's first i + 1 entries
        are a combination of the rows above, so pivot i is 0; a fifth of
        them are singular, the last row a combination of the others."""
        while True:
            m = [[rng.randrange(1 - p, p) for _ in range(k)] for _ in range(k)]
            if stall:
                i = rng.randrange(k - 1)
                c = [rng.randrange(p) for _ in range(i)]
                m[i][:i + 1] = [sum(a * r[col] for a, r in zip(c, m)) % p
                                for col in range(i + 1)]
            if rng.random() < 0.2:
                c = [rng.randrange(p) for _ in range(k - 1)]
                m[-1] = [sum(a * r[col] for a, r in zip(c, m)) % p
                         for col in range(k)]
            if _stalls(m, p) == stall:
                return m

    @pytest.mark.parametrize("kind, seed", [("all", 1), ("none", 2), ("mixed", 3)])
    def test_against_rank(self, kind, seed):
        rng, verdicts = random.Random(seed), []
        for k in range(2, 10):
            ps = [rng.choice([2, 3, 5, 7, 11, 13]) for _ in range(40)]
            stall = [kind == "all" or kind == "mixed" and r % 2 == 0
                     for r in range(len(ps))]
            mats = [self.matrix(rng, k, p, s) for p, s in zip(ps, stall)]
            m = np.ascontiguousarray(np.array(mats, np.int64).transpose(1, 2, 0))
            have = density._minor_nonsingular(
                m, np.array(ps, np.int64), np.empty(m.size, np.int64))
            want = [rank_mod_p(a, p) == k for a, p in zip(mats, ps)]
            assert have.tolist() == want, (k, ps)
            verdicts += want
        assert any(verdicts) and not all(verdicts)


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
        assert 2 > _fold_limit(g)   # so at no prime

    def test_shift_of_x6_x3_1_to_two_million(self):
        sextic = FOLD_POLYS[0]
        shifted = _substitute(sextic, 1, 12345)
        assert max(len(str(c)) for c in shifted) == 25
        assert 2_000_000 <= _fold_limit(sextic)
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
        assert not _kernel(tuple(f), [p])[0]


class TestCyclotomicBeyondDegree8:
    @pytest.mark.parametrize("m", [m for m in range(2, 62) if is_prime(m)])
    def test_inert_iff_p_generates_the_units_mod_m(self, m):
        """Phi_m = 1 + x + ... + x^(m-1) for every prime m <= 61 and each
        prime p <= 3000 other than m: irreducible mod p iff p has order
        m - 1 mod m.  Degree 60 gives the minor of Q - I its largest
        matrices, in blocks of _BLOCK_CELLS // 61^2 = 70 primes.  The factors
        of Phi_m mod p share one degree, so only irreducible reductions pass
        the screen: this checks that the minor refuses none of them."""
        ps = np.array([p for p in sieve_primes(3000) if p != m])
        step = density._BLOCK_CELLS // m ** 2
        got = np.concatenate([_kernel((1,) * m, ps[i:i + step])
                              for i in range(0, len(ps), step)])
        assert list(got) == [multiplicative_order(int(p), m) == m - 1
                             for p in ps]


class TestWorkspaceReuse:
    """A worker runs its whole share of segments in one workspace, sized for
    a block of _BLOCK_CELLS // (n + 1)^2 primes.  In such blocks, each
    report's last block short, reports of mixed degrees run one after
    another give what each gives in a single block, and the scalar route's
    counts on their top primes, in one process and in two."""

    CELLS = 16_000   # blocks of 44, 326, 16, 4 and 4000 primes at n = 18, 6, 30, 60, 1
    SEGMENT = 256   # odd slots: two workers share the segments of all cases but the one to 110
    CASES = [(FOLD_POLYS[3], 3000), (FOLD_POLYS[0], 20_000),
             (tuple(random.Random(30).randrange(-9, 10) for _ in range(30))
              + (3,), 1000),
             ((1,) * 61, 110), ((5, 3), 50_000), (FOLD_POLYS[0], 7720)]

    def test_reports_of_many_blocks(self, monkeypatch):
        alone = [density_report(c, bound=b) for c, b in self.CASES]
        assert all(len(sieve_primes(b)) <= density._BLOCK_CELLS // len(c) ** 2
                   for c, b in self.CASES)
        assert [divmod(len(sieve_primes(b)), self.CELLS // len(c) ** 2)
                for c, b in self.CASES] == [(9, 34), (6, 306), (10, 8), (7, 1),
                                            (1, 1133), (3, 1)]   # full, last
        monkeypatch.setattr(density, "_BLOCK_CELLS", self.CELLS)
        monkeypatch.setattr(density, "_SEGMENT", self.SEGMENT)
        for workers in (1, 2):
            assert [density_report(c, bound=b, workers=workers)
                    for c, b in self.CASES] == alone, workers

    def test_top_primes_against_scalar(self, monkeypatch):
        """The top full block and the short last one of each report."""
        monkeypatch.setattr(density, "_BLOCK_CELLS", self.CELLS)
        monkeypatch.setattr(density, "_SEGMENT", self.SEGMENT)
        for coeffs, bound in self.CASES:
            primes, step = sieve_primes(bound), self.CELLS // len(coeffs) ** 2
            floor = ([0] + primes)[-(step + len(primes) % step) - 1]
            want = _scalar_counts(coeffs, bound, floor)
            for workers in (1, 2):
                assert _counts(density_report(coeffs, bound=bound, floor=floor,
                                              workers=workers)) == want

    @pytest.mark.parametrize("coeffs", [FOLD_POLYS[0], FOLD_POLYS[2]])
    def test_residue_fold_across_blocks(self, coeffs):
        """f's residues have their rows in the workspace too: the 30 largest
        primes of the degree's limit, where the kernel folds residues, in
        blocks of 12, 12, 5 and 1 through one workspace."""
        n = len(coeffs) - 1
        primes = np.array(_largest_primes(_int64_limit(n), 30), dtype=np.int64)
        blocks = [primes[:12], primes[12:24], primes[24:29], primes[29:]]
        route = _route(coeffs)
        table = density._power_table(route.monic, 30)
        skipped, tested, inert = density._classify_blocks(coeffs, route, table, 12, blocks)
        good = [r for r in (reduce_mod_p(coeffs, int(p)) for p in primes)
                if isinstance(r, PolyModP)]
        assert (tested, skipped) == (len(good), 30 - len(good))
        assert inert == sum(map(is_irreducible_mod_p, good))

    def test_survivors_refill_kernel_blocks(self, monkeypatch):
        """x^6+x+1 to 3000 in blocks of 40 primes, cut at the ends of
        segments of 100 odd slots: the screen keeps about half of each, so
        the survivors of several blocks fill one kernel block of 40 and the
        last leaves a short tail.  The report is the one of a single block
        and the scalar route's, for 1 and 2 workers."""
        coeffs = (1, 1, 0, 0, 0, 0, 1)
        alone, want = density_report(coeffs, bound=3000), _scalar_counts(coeffs, 3000)
        monkeypatch.setattr(density, "_BLOCK_CELLS", 40 * 49)
        monkeypatch.setattr(density, "_SEGMENT", 100)
        for workers in (2, 1):
            assert density_report(coeffs, bound=3000, workers=workers) == alone
        assert _counts(alone) == want
        calls = _record_kernel(monkeypatch)
        density_report(coeffs, bound=3000)
        assert len(sieve_primes(3000)) == 430   # 11 blocks of 40, the last 30
        assert [len(ps) for ps in calls] == [40] * 5 + [27]
        assert _route(coeffs).parity == "character"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's count of minor page faults")
    def test_a_report_does_not_fault_block_after_block(self):
        """x^6+x^3+1 to 2 * 10^6, 8 segments, in a fresh process: under 5000
        minor page faults around the call, where a kernel that allocates
        its temporaries anew for every block took about 36 000."""
        assert int(_in_fresh_process(
            "import resource\n"
            "from cycle_census.density import density_report\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "density_report((1, 0, 0, 1, 0, 0, 1), bound=2_000_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")) < 5000


def _in_fresh_process(code):
    """The standard output of code, run by a fresh interpreter that imports
    this checkout's package."""
    src = str(Path(density.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _window_primes(floor, bound):
    """The primes in (floor, bound], floor >= sqrt(bound), left when every
    multiple of a prime q <= sqrt(bound) (found by is_prime) is dropped:
    an oracle that shares no code with density's sieve."""
    ns = np.arange(floor + 1, bound + 1)
    for q in filter(is_prime, range(2, math.isqrt(bound) + 1)):
        ns = ns[ns % q != 0]
    return ns.tolist()


class TestSegmentedSieve:
    """density_report sieves (floor, bound] in segments of _SEGMENT odd
    slots from the window's first odd number above 1, patched small here:
    each report equals the scalar route's counts in one process and in two,
    wherever its window ends against a segment boundary."""

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_sieve_primes_joins_its_segments(self, size, monkeypatch):
        """Every bound to 120, in segments of 1, 3 and 8 odd slots."""
        monkeypatch.setattr(density, "_SEGMENT", size)
        want = [p for p in range(121) if is_prime(p)]
        for bound in range(2, 121):
            assert sieve_primes(bound) == [p for p in want if p <= bound], bound

    def test_windows_about_a_segment_boundary(self, monkeypatch):
        """Segments of 8 odd slots (16 integers).  Windows from floors 0, 16,
        17 and 10^6 end on the last odd number of segment 0 or 1, the even
        one after it, the first odd number of segment 1 or 2, or the even one
        after that; primes end segment 0 and start segment 1 of some."""
        coeffs, edges, windows = (1, 0, 0, 1, 0, 0, 1), [], []
        for floor in (0, 16, 17, 10 ** 6):
            first = 2 * max(1, (floor + 1) // 2) + 1   # segment 0 starts here
            edges += [first + 16, first + 32]   # segments 1 and 2 start here
            windows += [(floor, b) for edge in edges[-2:] for b in range(edge - 2, edge + 2)]
        assert edges[:2] == [19, 35] and is_prime(17) and is_prime(19)
        wants = [_scalar_counts(coeffs, bound, floor) for floor, bound in windows]
        monkeypatch.setattr(density, "_SEGMENT", 8)
        for (floor, bound), want in zip(windows, wants):
            for workers in (1, 2):
                assert _counts(density_report(coeffs, bound=bound, floor=floor,
                                              workers=workers)) == want, (floor, bound)

    def test_small_bounds_and_far_floors(self, monkeypatch):
        """bound 2, 3, 9 and 10 from floors 0, 1, 2, the bound and past it;
        x^2+1 to 100 from floors -10^30, 10^30 and 2^63, which no segment
        of int64 numbers can reach from 0 or 1."""
        cases = [(coeffs, bound, floor) for coeffs in [(1, 0, 1), (1, 0, 0, 1, 0, 0, 1)]
                 for bound in (2, 3, 9, 10) for floor in (0, 1, 2, bound, bound + 1)]
        far = [((1, 0, 1), 100, floor) for floor in (-10 ** 30, 10 ** 30, 2 ** 63)]
        wants = [_scalar_counts(*case) for case in cases + far]
        assert wants[-3:] == [(24, 1, 13), (0, 0, 0), (0, 0, 0)]
        monkeypatch.setattr(density, "_SEGMENT", 8)
        for (coeffs, bound, floor), want in zip(cases + far, wants):
            for workers in (1, 2):
                assert _counts(density_report(coeffs, bound=bound, floor=floor,
                                              workers=workers)) == want, (coeffs, bound, floor)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in KiB, as Linux gives it")
    def test_a_window_at_the_degree_6_limit(self):
        """x^6+x^3+1 on (L - 2 * 10^4, L], L = 1 239 850 263 the largest
        bound at degree 6, where the kernel folds residues: in a fresh
        process, the scalar route's counts, and peak RSS at most 10 MiB
        above the imported package's, where flags from 2 to L take 1.2 GB."""
        coeffs, bound = (1, 0, 0, 1, 0, 0, 1), _int64_limit(6)
        floor = bound - 2 * 10 ** 4
        assert bound == 1_239_850_263 and floor > _fold_limit(coeffs)
        *counts, grown = map(int, _in_fresh_process(
            "import resource\n"
            "from cycle_census.density import density_report\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            f"r = density_report({coeffs}, bound={bound}, floor={floor})\n"
            "print(r.primes_tested, r.primes_skipped, r.inert_count,\n"
            "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n").split())
        verdicts = [_scalar_verdict(coeffs, p) for p in _window_primes(floor, bound)]
        assert None not in verdicts and len(verdicts) > 900
        assert counts == [len(verdicts), 0, sum(verdicts)]
        assert grown <= 10 * 1024


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
    """_separability_resultant returns the signed Bezout determinant
    B = lc(f)^2 disc(f) = +-lc(f) Res(f, f'): p | B iff p | Res(f, f'), and
    |B| // |lc(f)| = |Res(f, f')|."""

    @pytest.mark.parametrize("coeffs", _screen_polys())
    def test_divides_resultant_iff_bad_reduction(self, coeffs):
        """For every p <= 10^4: p | B iff reduce_mod_p(f, p) is a
        BadReduction; B's residues vanish at the same primes."""
        primes = sieve_primes(10_000)
        resultant = density._separability_resultant(coeffs)
        scalar_bad = [isinstance(reduce_mod_p(coeffs, p), BadReduction)
                      for p in primes]
        assert [resultant % p == 0 for p in primes] == scalar_bad
        assert list(_residues(
            (resultant,), np.array(primes, dtype=np.int64))[0] == 0) == scalar_bad

    def test_square_factor_gives_zero(self):
        squares = _screen_polys()[-3:]
        assert [density._separability_resultant(c) for c in squares] == [0] * 3

    def test_suite_resultants(self):
        """|Res(f, f')| = |lc(f) disc(f)|: 4, 256 and 3^9 = 19683."""
        assert {c: abs(density._separability_resultant(c)) // abs(c[-1])
                for c in SUITE_POLYS} == {
            (1, 0, 1): 4, (1, 0, 0, 0, 1): 256, (1, 0, 0, 1, 0, 0, 1): 19683}

    def test_equals_the_sylvester_determinant(self):
        """|B| // |lc(f)| is |Res(f, f')| as the Sylvester determinant gives
        it, on 200 seeded f of degree 1 to 12, monic and not, some with
        f(0) = 0 or a repeated factor, and on four of degree 20 with 40-bit
        coefficients."""
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
        found = [abs(density._separability_resultant(c)) // abs(c[-1])
                 for c in polys]
        assert found == [sylvester_resultant(c) for c in polys]
        assert found.count(0) >= 3 and min(found[-4:]) > 0

    def test_closed_forms_in_degree_1_to_3(self):
        """B = b^2 for bx + a, B = c^2 disc(f) for the quadratic
        cx^2 + bx + a and B = d^2 disc(f) for the cubic dx^3 + cx^2 + bx + a,
        so |B| // |lc| is |Res(f, f')|, as before the sign was kept."""
        rng = random.Random(31)
        for _ in range(50):
            a, b, c, d = (rng.randrange(-10 ** 6, 10 ** 6) for _ in range(4))
            c, d = c or 1, d or 1
            assert density._separability_resultant((a, b or 1)) == (b or 1) ** 2
            assert density._separability_resultant((a, b, c)) == \
                c * c * (b * b - 4 * a * c)
            disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                    - 27 * a * a * d * d + 18 * a * b * c * d)
            assert density._separability_resultant((a, b, c, d)) == d * d * disc


def _record_kernel(monkeypatch):
    """Patch density._batch_irreducible to append the primes of each call to
    the returned list, in one process.  Its route, table and arena must come
    by keyword: perfbench's tracer reads a call's positional arguments as
    (coeffs, ps)."""
    calls, kernel = [], density._batch_irreducible

    def recording(coeffs, ps, *, route, table, arena):
        calls.append(ps.tolist())
        return kernel(coeffs, ps, route=route, table=table, arena=arena)
    monkeypatch.setattr(density, "_batch_irreducible", recording)
    return calls


# x^3-3x+1, x^4+1, x^4-10x^2+1, x^5-5x+12 and x^7-7x+3: disc 9^2, 16^2,
# 384^2, 8000^2 and 194481^2; and x^2+x-2 = (x + 2)(x - 1), disc 3^2
SQUARE_DISCS = [(1, -3, 0, 1), (1, 0, 0, 0, 1), (1, 0, -10, 0, 1),
                (12, -5, 0, 0, 0, 1), (3, -7, 0, 0, 0, 0, 0, 1), (-2, 1, 1)]


class TestQuadraticCharacterScreen:
    """Stickelberger: at an odd p dividing neither lc(f) nor disc(f),
    (disc(f) / p) = (-1)^(n - r), r the number of factors of f mod p.  The
    kernel takes p = 2 and the odd good p where (B / p) = (-1)^(n - 1),
    B = lc(f)^2 disc(f), for n > 2; a square B has (B / p) = 1, computed
    nowhere, and decides for n = 2 too."""

    def test_bezout_is_lc_squared_disc(self):
        """On TestSeparabilityScreen's polynomials, 200 seeded f of degree
        1 to 12, monic and not, 108 sparse l x^n + c x^k + c_0 of degree 4 to
        30 and two dense f of degree 20 and 24 with 40-bit coefficients,
        against the Sylvester oracle's discriminant.  The dense f take only
        normal remainder steps (deg a - deg b = 1, deg a deg b even); the
        sparse ones reach the abnormal steps and odd deg a deg b, which test
        the sign and the h^d scaling of the subresultant sequence."""
        rng = random.Random(48)
        polys = _screen_polys() + SQUARE_DISCS
        for _ in range(200):
            n = rng.randrange(1, 13)
            polys.append(tuple(rng.randrange(-30, 31) for _ in range(n))
                         + (rng.choice([1, 1, -1, 2, -5, 12]),))
        rng = random.Random(3)
        for n in range(4, 31):
            for k in (1, 2, n // 2, n - 3):
                c = [rng.choice([1, -2, 30030])] + [0] * n
                c[k], c[n] = rng.choice([-3, 5, 30030]), rng.choice([1, 2, 7])
                polys.append(tuple(c))
        for n in (20, 24):
            polys.append(tuple(rng.randrange(-2 ** 40, 2 ** 40) for _ in range(n))
                         + (rng.randrange(1, 2 ** 40),))
        for c in polys:
            assert density._separability_resultant(c) == \
                c[-1] ** 2 * discriminant(c), c

    @pytest.mark.parametrize("coeffs", _minor_polys()[:3] + SQUARE_DISCS)
    def test_character_equals_euler_criterion(self, coeffs):
        """Every good odd prime <= 3000: B^((p - 1) / 2) mod p."""
        bezout = density._separability_resultant(coeffs)
        ps = np.array([p for p in sieve_primes(3000)[1:] if bezout % p], np.int64)
        r = np.array([bezout % p for p in ps.tolist()], np.int64)
        chi = density._character(r, ps, np.empty((4, len(ps)), np.int64))
        assert chi.tolist() == [pow(bezout % p, p // 2, p) for p in ps.tolist()]

    def test_character_at_the_largest_primes(self):
        """The 20 largest primes of the degree-1 limit, where a square or a
        product comes closest to 2^63, against pow."""
        primes = _largest_primes(_int64_limit(1), 20)
        ps = np.array(primes, np.int64)
        r = np.array([(3 ** 70 + 7 * k) % p for k, p in enumerate(primes)])
        chi = density._character(r, ps, np.empty((4, 20), np.int64))
        want = [pow(int(x), p // 2, p) for x, p in zip(r, primes)]
        assert chi.tolist() == want
        assert {w == 1 for w in want} == {True, False}

    @pytest.mark.parametrize("coeffs", _minor_polys())
    def test_kernel_takes_the_screen_survivors(self, coeffs, monkeypatch):
        """The report equals the scalar counts on every good prime <= 3000,
        and the kernel is handed exactly p = 2 and the odd good p whose
        character is (-1)^(n - 1), from pow; at n = 2, every good p."""
        received = _record_kernel(monkeypatch)
        n, bezout = len(coeffs) - 1, density._separability_resultant(coeffs)
        assert _counts(density_report(coeffs, bound=3000)) == \
            _scalar_counts(coeffs, 3000)
        assert sorted(sum(received, [])) == [
            p for p in sieve_primes(3000) if bezout % p and (n == 2 or p == 2 or
                pow(bezout % p, p // 2, p) == (1 if n % 2 else p - 1))]
        assert n == 2 or len(sum(received, [])) < len(sieve_primes(3000)) * 0.6
        assert _route(coeffs).parity == ("all" if n == 2 else "character")

    @pytest.mark.parametrize("coeffs", SQUARE_DISCS)
    def test_square_discriminants(self, coeffs, monkeypatch):
        """No character is computed; the odd degrees hand the kernel every
        good prime, the even ones p = 2 alone if it is good: x^2+x-2 only 2,
        x^4+1 and x^4-10x^2+1 nothing (2 divides both discriminants)."""
        received = _record_kernel(monkeypatch)
        monkeypatch.setattr(density, "_character", None)
        n, bezout = len(coeffs) - 1, density._separability_resultant(coeffs)
        assert math.isqrt(bezout) ** 2 == bezout
        assert _counts(density_report(coeffs, bound=3000)) == \
            _scalar_counts(coeffs, 3000)
        good = [p for p in sieve_primes(3000) if bezout % p]
        assert sorted(sum(received, [])) == [p for p in good if n % 2 or p == 2]
        assert _route(coeffs).parity == ("all" if n % 2 else "2 only")


class TestKroneckerTable:
    """B = s^2 D, D squarefree, has (B / p) = (D* / p) at an odd good p, D* =
    D if D = 1 mod 4 else 4D: a Kronecker symbol, periodic in p with period
    |D*|.  The route tables it, and the screen reads K[p mod |D*|]."""

    @pytest.mark.parametrize("text, period", [
        ("x^6+x^3+1", 3),   # B = -3^9: D = -3 = 1 mod 4
        ("x^4+x+1", 229),   # B = 229 = 1 mod 4
        ("x^8-2", 8),   # B = -2^31: D = -2 = 2 mod 4
        ("x^18-2x^9-2", 12),   # D = 3 = 3 mod 4
        ("x^3-4099", 3)])   # B = -27 * 4099^2, 4099 above the stripped 2^12
    def test_table_equals_euler_criterion(self, text, period, monkeypatch):
        """At every good odd p <= 10^5 the table's value is B^((p - 1) / 2)
        mod p as +-1, and a report to 10^5 hands the kernel p = 2, when it is
        good, and the odd good p whose value is (-1)^(n - 1)."""
        coeffs, primes = parse_polynomial(text), sieve_primes(100_000)
        n, route = len(coeffs) - 1, _route(coeffs, len(primes))
        assert len(route.kronecker) == period
        good = [p for p in primes[1:] if route.bezout % p]
        euler = [1 if pow(route.bezout % p, p // 2, p) == 1 else -1 for p in good]
        assert [route.kronecker[p % period] for p in good] == euler
        received = []
        monkeypatch.setattr(density, "_batch_irreducible", lambda coeffs, ps, **_:
                            received.extend(ps.tolist()) or np.zeros(len(ps), bool))
        density_report(coeffs, bound=100_000)
        assert sorted(received) == [2] * (route.bezout % 2 != 0) + [
            p for p, e in zip(good, euler) if e == (-1) ** (n - 1)]


def _corpus():
    """(id, coeffs, bound, floor) of the identity corpus: per degree 1-18,
    24, 30, 48 and 64 one f with coefficients within +-2^3, one within
    +-2^40 and one within +-2^67, each with lead 1 or a drawn one, floor 0
    or bound // 3, drawn from random.Random(20261021); then named cases."""
    rng, cases = random.Random(20261021), []
    for n in [*range(1, 19), 24, 30, 48, 64]:
        bound = 50_000 if n <= 12 else 20_000 if n <= 18 else 10_000 if n <= 30 else 2_000
        for bits in (3, 40, 67):
            size = 2 ** bits
            coeffs = tuple(rng.randrange(-size, size + 1) for _ in range(n))
            lead = rng.choice([1, rng.choice([-1, 1]) * rng.randrange(2, size + 1)])
            cases.append((f"n{n}-{bits}bit", coeffs + (lead,), bound,
                          rng.choice([0, bound // 3])))
    names = ["x^3-3x+1", "x^4+1", "x^4-10x^2+1", "x^5-5x+12", "x^7-7x+3", "x^2+x-2"]
    cases += [(f"square-disc-{name}", c, 20_000, 0)
              for name, c in zip(names, SQUARE_DISCS)]
    return cases + [
        ("n2-x^2+x+1", (1, 1, 1), 20_000, 0), ("n2-3x^2-5x+7", (7, -5, 3), 20_000, 6_666),
        ("p|n-stalls-x^4+x+1", (1, 1, 0, 0, 1), 20_000, 0),
        ("p|n-stalls-x^6+x+1", (1, 1, 0, 0, 0, 0, 1), 20_000, 0),
        ("p|n-x^12+x+1", (1, 1) + (0,) * 10 + (1,), 20_000, 0),
        ("both-folds-x^6+1000x+1", (1, 1000, 0, 0, 0, 0, 1), 2_000_000, 0)]


CORPUS = _corpus()


@functools.cache
def _corpus_report(i):
    _, coeffs, bound, floor = CORPUS[i]
    return density_report(coeffs, bound=bound, floor=floor)


class TestDensityCorpus:
    """Reports that must not change: each one's (tested, skipped, inert) and
    one sha256 of all their JSON, in order, pinned from the reports of the
    code before the kernel's route became one record a report.  The named
    cases cover square discriminants, n = 2, primes dividing n with
    fixed-pivot stalls (x^4+x+1 at 7, x^6+x+1 at 13) and x^6+1000x+1 to
    2 * 10^6, whose kernel calls fold integers below its fold limit and
    residues above it, in the same report."""

    TRIPLES = [
        (3205, 0, 3205), (5133, 0, 5133), (3205, 0, 3205), (5132, 1, 0),
        (3205, 0, 1646), (5130, 3, 2559), (5131, 2, 1721), (3205, 0, 1081),
        (3205, 0, 1097), (5128, 5, 1307), (3205, 0, 774), (5129, 4, 1274),
        (5131, 2, 1059), (5126, 7, 1039), (5131, 2, 1030), (5131, 2, 872),
        (5129, 4, 899), (5130, 3, 853), (3205, 0, 457), (3203, 2, 459),
        (5132, 1, 687), (5130, 3, 638), (3205, 0, 421), (5131, 2, 663),
        (5132, 1, 0), (5131, 2, 545), (5129, 4, 562), (3205, 0, 298),
        (3205, 0, 284), (5132, 1, 518), (5128, 5, 487), (5127, 6, 476),
        (3205, 0, 304), (3205, 0, 268), (3205, 0, 264), (3204, 1, 269),
        (1403, 0, 0), (1403, 0, 110), (1403, 0, 113), (1403, 0, 94),
        (1403, 0, 94), (2260, 2, 168), (1403, 0, 0), (1403, 0, 101),
        (2261, 1, 140), (2260, 2, 144), (1403, 0, 83), (1403, 0, 95),
        (1403, 0, 78), (1403, 0, 67), (1403, 0, 70), (1403, 0, 80),
        (1403, 0, 76), (2258, 4, 137), (1227, 2, 0), (759, 0, 34),
        (758, 1, 41), (1226, 3, 34), (759, 0, 26), (759, 0, 29),
        (182, 0, 5), (182, 0, 3), (182, 0, 5), (300, 3, 6), (302, 1, 2),
        (181, 1, 0),
        (2261, 1, 1514), (2261, 1, 0), (2260, 2, 0), (2260, 2, 896),
        (2260, 2, 634), (2261, 1, 0), (2261, 1, 1137), (1403, 0, 706),
        (2261, 1, 572), (2260, 2, 383), (2260, 2, 202), (148928, 5, 24604)]
    DIGEST = "d27b5d3708315fedec83e85efe5ef18a04291b92e6644852eb215c77954b2829"

    @pytest.mark.parametrize("i", range(len(CORPUS)), ids=[c[0] for c in CORPUS])
    def test_counts(self, i):
        assert _counts(_corpus_report(i)) == self.TRIPLES[i]

    def test_digest(self):
        text = json.dumps([_corpus_report(i).to_json_dict()
                           for i in range(len(CORPUS))])
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST

    def test_two_workers(self, monkeypatch):
        """Every sixth report, degree 48 with 3-bit coefficients among them,
        in segments of 2^9 odd slots, so that two processes share each."""
        monkeypatch.setattr(density, "_SEGMENT", 1 << 9)
        for i in range(0, len(CORPUS), 6):
            _, coeffs, bound, floor = CORPUS[i]
            assert density_report(coeffs, bound=bound, floor=floor,
                                  workers=2) == _corpus_report(i), CORPUS[i][0]

    def test_small_blocks(self, monkeypatch):
        """Every sixth report of degree up to 18, from the fourth, and the
        named ones to 2 * 10^4, in blocks of 4000 // (n + 1)^2 primes (11 at degree 18)
        and segments of 2^12 odd slots, each over many blocks, segments, kernel
        calls and workers."""
        cases = [i for i, (_, coeffs, bound, _) in enumerate(CORPUS)
                 if len(coeffs) <= 19 and bound <= 50_000 and (
                     i % 6 == 3 or i >= 66)]   # 66: the named
        monkeypatch.setattr(density, "_BLOCK_CELLS", 4000)
        monkeypatch.setattr(density, "_SEGMENT", 1 << 12)
        for i, workers in zip(cases, itertools.cycle((1, 2))):
            _, coeffs, bound, floor = CORPUS[i]
            assert density_report(coeffs, bound=bound, floor=floor,
                                  workers=workers) == _corpus_report(i), CORPUS[i][0]


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

    def test_deterministic_and_worker_independent(self, monkeypatch):
        monkeypatch.setattr(density, "_SEGMENT", 1 << 12)   # 4 segments
        one = density_report((1, 0, 0, 1, 0, 0, 1), bound=30_000, workers=1)
        two = density_report((1, 0, 0, 1, 0, 0, 1), bound=30_000, workers=3)
        assert one == two

    def test_pool_is_bounded_by_the_cpus(self, monkeypatch):
        """The pool takes the least of the workers asked for, the segments
        and the CPUs; one process runs no pool.  A fake context records each
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
        monkeypatch.setattr(density, "_SEGMENT", 1000)   # 3 segments of 2 499 odd slots
        coeffs = (1, 0, 0, 1, 0, 0, 1)
        whole = density_report(coeffs, bound=5000)
        for cpus, workers in ((3, 5000), (None, 5000), (8, 2), (1, 2), (8, 5000)):
            monkeypatch.setattr(density.os, "cpu_count", lambda: cpus)
            assert density_report(coeffs, bound=5000, workers=workers) == whole
        assert sizes == [3, 2, 3]

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
