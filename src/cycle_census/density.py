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
scalar; density reports run the same criterion vectorized across all
primes at once (numpy), with the two routes cross-checked in the tests.
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
    """All primes <= bound, ascending (Eratosthenes on a bytearray)."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= bound:
        if flags[p]:
            start = p * p
            flags[start::p] = bytearray(len(range(start, bound + 1, p)))
        p += 1
    return [i for i in range(2, bound + 1) if flags[i]]


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

def _separability_resultant(coeffs: tuple[int, ...]) -> int:
    """Res(f, f') over the integers; 0 iff f has repeated rational roots.

    For a prime p not dividing the leading coefficient, p divides this
    resultant exactly when gcd(f, f') mod p is nonconstant, which makes it
    a one-integer screen for the bad-reduction primes.
    """
    n = len(coeffs) - 1
    if n == 1:
        return 1
    from sympy import Poly, Symbol, resultant
    x = Symbol("x")
    f = Poly(list(reversed(coeffs)), x)
    return int(resultant(f, f.diff(x)))


def _vec_polymul_mod(a, b, ps):
    rows, n = a.shape
    nb = b.shape[1]
    out = np.zeros((rows, n + nb - 1), dtype=np.int64)
    for i in range(n):
        ai = a[:, i]
        for j in range(nb):
            out[:, i + j] += ai * b[:, j]
    return np.mod(out, ps[:, None])


def _vec_reduce_monic(acc, f, ps):
    """Reduce rows of acc by the monic rows of f (degree n), in place."""
    n = f.shape[1] - 1
    for k in range(acc.shape[1] - 1, n - 1, -1):
        c = acc[:, k].copy()
        if not c.any():
            continue
        acc[:, k - n:k] -= c[:, None] * f[:, :n]
        acc[:, k] = 0
        acc[:, k - n:k] %= ps[:, None]
    return acc[:, :n]


def _vec_mulx_mod(a, f, ps):
    rows, n = a.shape
    out = np.zeros((rows, n + 1), dtype=np.int64)
    out[:, 1:] = a
    return _vec_reduce_monic(out, f, ps)


def _vec_compose_mod(g, h, f, ps):
    rows, n = g.shape
    out = np.zeros((rows, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        if out.any():
            out = _vec_reduce_monic(_vec_polymul_mod(out, h, ps), f, ps)
        out[:, 0] = (out[:, 0] + g[:, i]) % ps
    return out


def _batch_irreducible(coeffs: tuple[int, ...], ps: np.ndarray) -> np.ndarray:
    """Vectorized distinct-degree test for the (good) primes in ps."""
    n = len(coeffs) - 1
    rows = len(ps)
    if rows == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.ones(rows, dtype=bool)

    f = np.empty((rows, n + 1), dtype=np.int64)
    for j, c in enumerate(coeffs):
        f[:, j] = np.mod(c, ps)
    if coeffs[-1] != 1:
        lead_inv = np.array([pow(int(v), -1, int(p))
                             for v, p in zip(f[:, n], ps)], dtype=np.int64)
        f = np.mod(f * lead_inv[:, None], ps[:, None])

    # X^p per row by a masked square-and-multiply over the bits of p
    cur = np.zeros((rows, n), dtype=np.int64)
    cur[:, 0] = 1
    for k in range(int(ps.max()).bit_length() - 1, -1, -1):
        cur = _vec_reduce_monic(_vec_polymul_mod(cur, cur, ps), f, ps)
        shifted = _vec_mulx_mod(cur, f, ps)
        bit = ((ps >> k) & 1).astype(bool)
        cur = np.where(bit[:, None], shifted, cur)
    t1 = cur

    powers = {1: t1}
    cur = t1
    for k in range(2, n + 1):
        cur = _vec_compose_mod(cur, t1, f, ps)
        powers[k] = cur

    xrow = np.zeros((rows, n), dtype=np.int64)
    xrow[:, 1] = 1
    reducible = ~(powers[n] == xrow).all(axis=1)
    subs = sorted({n // ell for ell in prime_divisors(n)})
    for m in subs:
        reducible |= (powers[m] == xrow).all(axis=1)

    # only the survivors need a real gcd; done scalar per row
    survivors = np.nonzero(~reducible)[0]
    if len(survivors):
        f_list = f[survivors].tolist()
        ps_list = ps[survivors].tolist()
        power_lists = {m: powers[m][survivors].tolist() for m in subs}
        for row, (frow, p) in enumerate(zip(f_list, ps_list)):
            for m in subs:
                g = list(power_lists[m][row])
                g[1] = (g[1] - 1) % p
                g = _trim(g)
                if len(_pgcd(g, _trim(list(frow)), p)) - 1 >= 1:
                    reducible[survivors[row]] = True
                    break
    return ~reducible


def _classify_chunk(args):
    coeffs, lead, sep_res, ps_list = args
    ps = np.array(ps_list, dtype=np.int64)
    if sep_res == 0:
        bad = np.ones(len(ps), dtype=bool)
    else:
        bad = np.zeros(len(ps), dtype=bool)
        if abs(lead) != 1:
            bad |= np.array([lead % int(p) == 0 for p in ps_list])
        bad |= np.array([sep_res % int(p) == 0 for p in ps_list])
    good = ps[~bad]
    inert = int(_batch_irreducible(coeffs, good).sum())
    return int(bad.sum()), int(len(good)), inert


# reports --------------------------------------------------------------------

# The vector kernel holds residues below p in int64; _vec_polymul_mod sums
# up to n products of two of them before reducing, and every other
# intermediate is smaller.  Any p with n * (p - 1)^2 > 2^63 - 1 would wrap
# silently, so such bounds are refused (at degree 6, above ~1.24 * 10^9).
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
    primes = [p for p in sieve_primes(bound) if p > floor]
    lead = coeffs[-1]
    sep_res = _separability_resultant(coeffs)

    if workers <= 1 or len(primes) < 1000:
        chunks = [primes]
    else:
        size = (len(primes) + workers - 1) // workers
        chunks = [primes[i:i + size] for i in range(0, len(primes), size)]
    args = [(coeffs, lead, sep_res, chunk) for chunk in chunks if chunk]
    if len(args) <= 1:
        results = [_classify_chunk(a) for a in args]
    else:
        with get_context("fork").Pool(len(args)) as pool:
            results = pool.map(_classify_chunk, args)

    skipped = sum(r[0] for r in results)
    tested = sum(r[1] for r in results)
    inert = sum(r[2] for r in results)
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
