"""Prime-density experiments: how often does f stay irreducible mod p?

For an integer polynomial f of degree n, irreducible over the rationals,
the density of primes p with f irreducible mod p equals the fraction of
n-cycles in the Galois group, so it can never exceed phi(n)/n.  This
module runs the experiment: sieve the primes up to a bound, discard the
finitely many primes of bad reduction (leading coefficient vanishing or
repeated factors), test irreducibility of each good reduction, and report
the empirical density next to the phi(n)/n ceiling and an optional
group-predicted density.

Irreducibility over GF(p) uses the distinct-degree criterion: f of degree
n is irreducible iff X^(p^n) = X mod f and gcd(X^(p^(n/l)) - X, f) = 1
for every prime l dividing n.  The per-prime reference implementation is
scalar; density reports run it in numpy over all primes at once: X^p by
square-and-multiply, X^(p^k) as X^(p^(k-1)) times the Frobenius matrix of
rows X^(ip) mod f, and a batched division-free Euclid for the survivors'
gcds and the bad-prime screen.  The tests cross-check the two routes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from multiprocessing import get_context

import numpy as np

from .census import count_n_cycles
from .ntheory import euler_phi, prime_divisors
from .permutations import DEFAULT_ELEMENT_CAP, PermGroup


@dataclass(frozen=True)
class PolyModP:
    """A nonzero polynomial over GF(p); coeffs ascending, lead nonzero."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] % self.p == 0:
            raise ValueError("leading coefficient must be nonzero mod p")
        if any(not 0 <= c < self.p for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod p")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class BadReduction:
    """Reduction mod p is unusable: degree drop or repeated factors."""

    reason: str


@dataclass(frozen=True)
class DensityReport:
    polynomial: tuple[int, ...]
    degree: int
    bound: int
    floor: int
    primes_tested: int
    primes_skipped: int
    inert_count: int
    empirical_density: Fraction
    ceiling: Fraction
    predicted: Fraction | None

    def to_json_dict(self) -> dict:
        def frac(x):
            return {"num": x.numerator, "den": x.denominator}
        return {
            "polynomial": list(self.polynomial),
            "degree": self.degree,
            "bound": self.bound,
            "floor": self.floor,
            "primes_tested": self.primes_tested,
            "primes_skipped": self.primes_skipped,
            "inert_count": self.inert_count,
            "empirical_density": frac(self.empirical_density),
            "ceiling": frac(self.ceiling),
            "predicted": frac(self.predicted) if self.predicted is not None else None,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "DensityReport":
        def frac(x):
            return Fraction(x["num"], x["den"])
        return DensityReport(
            polynomial=tuple(d["polynomial"]),
            degree=d["degree"],
            bound=d["bound"],
            floor=d["floor"],
            primes_tested=d["primes_tested"],
            primes_skipped=d["primes_skipped"],
            inert_count=d["inert_count"],
            empirical_density=frac(d["empirical_density"]),
            ceiling=frac(d["ceiling"]),
            predicted=frac(d["predicted"]) if d["predicted"] is not None else None,
        )


# primes -------------------------------------------------------------------

def sieve_primes(bound: int) -> list[int]:
    """All primes <= bound, ascending (Eratosthenes on a numpy bool array)."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.nonzero(flags)[0].tolist()


# scalar polynomial arithmetic over GF(p) -----------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, m, p):
    a = list(a)
    inv_lead = pow(m[-1], -1, p)
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = (a[k] * inv_lead) % p
        if c:
            for j in range(len(m)):
                a[k - dm + j] = (a[k - dm + j] - c * m[j]) % p
    return _trim(a[:dm])


def _pgcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _pcompose_mod(g, h, m, p):
    """g(h) mod m, Horner from the top coefficient."""
    out: list[int] = []
    for c in reversed(g):
        out = _pmul(out, h, p) if out else []
        if not out:
            out = [0]
        out[0] = (out[0] + c) % p
        out = _pmod(_trim(out), m, p) if len(out) >= len(m) else _trim(out)
    return out


def _xpow_p_mod(m, p):
    """X^p mod m by square and multiply."""
    result = [1]
    square = [0, 1]
    k = p
    while k:
        if k & 1:
            result = _pmod(_pmul(result, square, p), m, p)
        k >>= 1
        if k:
            square = _pmod(_pmul(square, square, p), m, p)
    return result


def reduce_mod_p(coeffs, p: int) -> PolyModP | BadReduction:
    """Reduce an integer polynomial mod p, or explain why that is unusable.

    BadReduction when p divides the leading coefficient (degree drop) or
    when gcd(f, f') mod p is nonconstant (repeated factors).
    """
    coeffs = _trim(list(coeffs))
    if not coeffs:
        raise ValueError("the zero polynomial cannot be reduced")
    if coeffs[-1] % p == 0:
        return BadReduction("leading coefficient vanishes mod p")
    fbar = [c % p for c in coeffs]
    deriv = _trim([(i * c) % p for i, c in enumerate(fbar)][1:])
    g = _pgcd(fbar, deriv, p) if deriv else list(fbar)
    if len(g) - 1 >= 1:
        return BadReduction("repeated factors mod p")
    return PolyModP(p=p, coeffs=tuple(fbar))


def is_irreducible_mod_p(fp: PolyModP) -> bool:
    """Distinct-degree irreducibility test over GF(p)."""
    n = fp.degree
    if n < 1:
        raise ValueError("irreducibility needs degree at least 1")
    if n == 1:
        return True
    p = fp.p
    inv_lead = pow(fp.coeffs[-1], -1, p)
    m = [(c * inv_lead) % p for c in fp.coeffs]
    x = [0, 1]
    t = _xpow_p_mod(m, p)          # X^(p^1)
    powers = {1: t}
    cur = t
    for k in range(2, n + 1):
        cur = _pcompose_mod(cur, t, m, p)
        powers[k] = cur
    if _trim(list(powers[n])) != x:
        return False
    for ell in prime_divisors(n):
        g = list(powers[n // ell])
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _trim(g)
        if len(_pgcd(g, m, p)) - 1 >= 1:
            return False
    return True


# batched classification -----------------------------------------------------
#
# Polynomials are held coefficient-major, shape (slots, primes) int64: array
# row i is coefficient i, a contiguous vector over the primes (one column
# each).
# Residues lie in [0, p); each step states the largest magnitude it reaches,
# none above n * (p - 1)^2 (see _INT64_MAX).  density_report hands the
# kernel blocks of _BLOCK_CELLS // (n + 1)^2 primes, which bounds the
# n x n x rows Frobenius matrix and keeps a block's working set in cache.
_BLOCK_CELLS = 1 << 18


def _square_and_multiply(one, exponents, square, times_base):
    """base^e per column, scanning the bits of the exponents from the top."""
    out = one
    for k in range(int(exponents.max()).bit_length() - 1, -1, -1):
        out = square(out)
        out = np.where((exponents >> k) % 2 == 1, times_base(out), out)
    return out


def _reduce(acc, f, ps):
    """acc mod the monic f (its low n coefficients), one % p a slot, top
    first.  A slot starts as a sum of at most n products of residues and
    loses at most n - 1 more before its % p: within +-n(p-1)^2."""
    n = len(f)
    for k in range(len(acc) - 1, n - 1, -1):
        acc[k] %= ps
        acc[k - n:k] -= acc[k] * f
    return acc[:n] % ps


def _mulmod(a, b, f, ps):
    """a * b mod the monic f; slot k sums at most n products before _reduce."""
    n = len(a)
    acc = np.zeros((2 * n - 1, a.shape[1]), dtype=np.int64)
    if a is b:
        # the n(n+1)/2 distinct products: cross terms once, then doubled
        for i in range(n - 1):
            acc[2 * i + 1:i + n] += a[i] * a[i + 1:]
        acc *= 2
        acc[::2] += a * a
    else:
        for i in range(n):
            acc[i:i + n] += a[i] * b
    return _reduce(acc, f, ps)


def _degrees(a):
    """Degree of each column's polynomial, -1 for zero."""
    nonzero = a != 0
    return np.where(nonzero.any(axis=0),
                    len(a) - 1 - np.argmax(nonzero[::-1], axis=0), -1)


def _gcd(a, b, ps):
    """gcd(a, b) mod p per column, up to a unit, by division-free Euclid: a
    <- lc(b) a - lc(a) X^(deg a - deg b) b cancels lc(a) without an inverse
    (two products <= (p-1)^2), and a, b swap when a falls below b.  Columns
    with b = 0 are done; deg a + deg b drops on every other column."""
    cols = np.arange(a.shape[1])
    slots = np.arange(len(a))[:, None]
    da, db = _degrees(a), _degrees(b)
    while True:
        swap = da < db
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        live = db >= 0
        if not live.any():
            return a
        lca = np.where(live, a[da, cols], 0)
        lcb = np.where(live, b[db, cols], 1)
        src = slots - np.where(live, da - db, 0)
        shifted = np.where(src >= 0,
                           np.take_along_axis(b, np.maximum(src, 0), axis=0), 0)
        a = (lcb * a - lca * shifted) % ps
        da = _degrees(a)


def _residues(coeffs, ps):
    """The integer coefficients mod each p, shape (len(coeffs), len(ps)).

    |c| of any size is reduced by Horner over its 31-bit limbs, top first,
    with a % p after every step (c = 0 has no limbs): r < p, so
    r * 2^31 + limb < p * 2^31 + 2^31 < 2^63 for every bound that
    density_report accepts (p < 3.04 * 10^9, reached at degree 1)."""
    rows = []
    for c in coeffs:
        r = np.zeros_like(ps)
        for shift in range((abs(c).bit_length() - 1) // 31 * 31, -1, -31):
            r = (r * 2 ** 31 + (abs(c) >> shift & (2 ** 31 - 1))) % ps
        rows.append(r if c > 0 else -r % ps)
    return np.stack(rows)


def _bad_primes(coeffs, ps):
    """p divides lc(f), or gcd(f, f') mod p is nonconstant (also if f' = 0)."""
    f = _residues(coeffs, ps)
    deriv = np.zeros_like(f)
    deriv[:-1] = f[1:] * np.arange(1, len(f))[:, None] % ps   # i * f_i < n * p
    return (f[-1] == 0) | (_degrees(_gcd(f, deriv, ps)) >= 1)


def _batch_irreducible(coeffs: tuple[int, ...], ps: np.ndarray) -> np.ndarray:
    """Vectorized distinct-degree test for the (good) primes in ps; its
    memory grows as n^2 len(ps), so callers pass blocks of primes."""
    n = len(coeffs) - 1
    if n == 1 or len(ps) == 0:
        return np.full(len(ps), n == 1)   # linear f is always irreducible
    f = _residues(coeffs, ps)
    if coeffs[-1] != 1:   # Fermat: lc^(p-2) inverts lc; products <= (p-1)^2
        inv = _square_and_multiply(np.ones_like(ps), ps - 2,
                                   lambda a: a * a % ps,
                                   lambda a: a * f[-1] % ps)
        f = f * inv % ps
    f = f[:-1]
    one = np.zeros((n, len(ps)), dtype=np.int64)
    one[0] = 1
    x = np.roll(one, 1, axis=0)
    xp = _square_and_multiply(  # X * a is the shifted a, then _reduce
        one, ps, lambda a: _mulmod(a, a, f, ps),
        lambda a: _reduce(np.concatenate((np.zeros_like(a[:1]), a)), f, ps))

    # Frobenius matrix Q[i] = X^(ip) mod f.  Since h^p = h(X^p) over GF(p),
    # X^(p^k) = sum_i h_i Q[i] for h = X^(p^(k-1)): n products per slot.
    Q = [one, xp]
    while len(Q) < n:
        Q.append(_mulmod(Q[-1], xp, f, ps))
    Q = np.stack(Q)
    powers = {1: xp}
    for k in range(2, n + 1):
        powers[k] = np.einsum("ir,ijr->jr", powers[k - 1], Q) % ps

    subs = sorted({n // ell for ell in prime_divisors(n)})
    # X^(p^m) = X gives gcd = f; the rest need gcd(X^(p^m) - X, f) = 1
    irreducible = (powers[n] == x).all(axis=0) & ~np.any(
        [(powers[m] == x).all(axis=0) for m in subs], axis=0)
    for m in subs:
        cols = np.nonzero(irreducible)[0]
        pc = ps[cols]
        g = np.vstack([powers[m][:, cols], np.zeros_like(pc)])
        g[1] = (g[1] - 1) % pc
        gcd = _gcd(g, np.vstack([f[:, cols], np.ones_like(pc)]), pc)
        irreducible[cols] = _degrees(gcd) == 0
    return irreducible


def _classify_block(args):
    coeffs, ps = args
    good = ps[~_bad_primes(coeffs, ps)]
    inert = int(_batch_irreducible(coeffs, good).sum())
    return len(ps) - len(good), len(good), inert


# reports --------------------------------------------------------------------

# Every kernel intermediate is bounded by n * (p - 1)^2; past 2^63 - 1 it
# would wrap silently, so such bounds are refused (degree 6: ~1.24 * 10^9).
_INT64_MAX = 2 ** 63 - 1


def predicted_density(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> Fraction:
    """Fraction of n-cycles in G: the Chebotarev prediction for the density."""
    return Fraction(count_n_cycles(G, cap), G.order)


def density_report(coeffs, bound: int, floor: int = 0,
                   predicted: Fraction | None = None,
                   workers: int = 1) -> DensityReport:
    """Classify every prime in (floor, bound] as skipped, inert, or split.

    Callers are responsible for f being irreducible over the rationals;
    the report is purely an exact count of what happens mod each prime.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    coeffs = tuple(_trim(list(coeffs)))
    if len(coeffs) < 2:
        raise ValueError("the polynomial must have degree at least 1")
    n = len(coeffs) - 1
    if n * (bound - 1) ** 2 > _INT64_MAX:
        limit = 1 + isqrt(_INT64_MAX // n)
        raise ValueError(f"bound {bound} exceeds {limit}, the largest bound "
                         f"whose degree-{n} arithmetic fits in int64")
    primes = np.array(sieve_primes(bound), dtype=np.int64)
    primes = primes[np.searchsorted(primes, floor, side="right"):]

    step = max(1, _BLOCK_CELLS // len(coeffs) ** 2)
    blocks = [(coeffs, primes[i:i + step]) for i in range(0, len(primes), step)]
    if workers == 1 or len(blocks) <= 1:
        results = [_classify_block(b) for b in blocks]
    else:
        with get_context("fork").Pool(min(workers, len(blocks))) as pool:
            results = pool.map(_classify_block, blocks)

    skipped, tested, inert = (sum(r[i] for r in results) for i in range(3))
    density = Fraction(inert, tested) if tested else Fraction(0, 1)
    return DensityReport(
        polynomial=coeffs, degree=n, bound=bound, floor=floor,
        primes_tested=tested, primes_skipped=skipped, inert_count=inert,
        empirical_density=density, ceiling=Fraction(euler_phi(n), n),
        predicted=predicted)


# polynomial input -----------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?\s*"
    r"(?:\*\s*)?(?P<var>[xX](?:\^(?P<exp>\d+))?)?")


class PolynomialParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


def parse_polynomial(text: str) -> tuple[int, ...]:
    """Parse "x^6+x^3+1" style input into integer coefficients, ascending.

    Terms are [coefficient][x[^power]] joined by + or -; coefficients may
    be rationals like 3/2, in which case denominators are cleared (the
    density of inert primes is invariant under scaling).
    """
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    stripped = text.strip()
    if not stripped:
        raise PolynomialParseError("empty polynomial")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or (m.group("num") is None and m.group("var") is None):
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError("expected a term", pos)
        if not first and m.group("sign") is None:
            raise PolynomialParseError("expected '+' or '-'", pos)
        sign = -1 if m.group("sign") == "-" else 1
        num = m.group("num")
        den = m.group("den")
        coeff = Fraction(int(num), int(den or 1)) if num is not None else Fraction(1)
        if m.group("var") is not None:
            exp = int(m.group("exp") or 1)
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
        first = False
    if not coeffs:
        raise PolynomialParseError("empty polynomial")
    degree = max(coeffs)
    scale = lcm(*[c.denominator for c in coeffs.values()]) if coeffs else 1
    out = [int(coeffs.get(i, Fraction(0)) * scale) for i in range(degree + 1)]
    out = _trim(out)
    if not out:
        raise PolynomialParseError("the zero polynomial is not accepted")
    return tuple(out)
