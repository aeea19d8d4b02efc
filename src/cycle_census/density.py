"""Prime-density experiments: how often does f stay irreducible mod p?

For an integer polynomial f of degree n, irreducible over the rationals,
the density of primes p with f irreducible mod p equals the fraction of
n-cycles in the Galois group, so it can never exceed phi(n)/n.  This
module runs the experiment: sieve the primes of a window (floor, bound] in
segments, discard the finitely many primes of bad reduction (leading
coefficient vanishing or repeated factors), test irreducibility of each
good reduction, and report the empirical density next to the phi(n)/n
ceiling and an optional group-predicted density.

The per-prime reference implementation is scalar: f of degree n is
irreducible iff X^(p^n) = X mod f and gcd(X^(p^(n/l)) - X, f) = 1 for
every prime l dividing n (the distinct-degree criterion).  It reaches
X^(p^k) as X^(p^(k-1)) times the Frobenius matrix Q of rows X^(ip) mod f,
in Python ints: O(n^3) a prime.  Density reports skip the primes dividing
the integer B = det Bez(f, f') = lc(f)^2 disc(f) = +-lc(f) Res(f, f') and
test the rest in numpy, all at once, by other criteria and sharing no code
with the scalar test, which the tests cross-check them against.
By Stickelberger's theorem (Swan, Pacific J. Math. 12, 1962),
(B / p) = (-1)^(n - r) at an odd good p, r the number of factors of f mod
p, so a parity screen sends the kernel only p = 2 and the odd p with
(B / p) = (-1)^(n - 1): about half when B is no square and n > 2 (at n = 2
the kernel costs less than the character).  B = s^2 D, D squarefree, has
(B / p) = (D* / p), D* = D if D = 1 mod 4 else 4D, a Kronecker symbol of
period |D*| in p (Cohen, GTM 138, 1.4.2), tabled once a report if D's primes
are below 2^12 and 32 |D*| <= min(2^17, primes): an entry costs up to 25
primes' B^((p - 1) / 2) mod p on a 2-CPU Xeon, else computed.  A square B has
(B / p) = 1, left uncomputed: every p passes for odd n, only p = 2 for
even n.  The kernel takes X^p from X^(p >> k0) mod p, read from one table
of X^m mod g over Z a report, one reduction mod f a lower bit, Q from X^p,
then Berlekamp (von zur Gathen and Gerhard, Modern Computer Algebra,
14.8): squarefree mod p, f is irreducible iff dim ker(Q - I) = 1, iff M,
Q - I without row 0 (which is 0) and a column j with Tr X^j != 0 mod p, is
nonsingular: an irreducible f's Q - I has row space {h^p - h} = ker Tr
(Lidl and Niederreiter, Finite Fields, 2.25), and a separable f has such a
j, 0 for p not dividing n (Tr 1 = n), else the least j with s_j(g) != 0
mod p, by Newton's identities once a report.  Fixed-pivot elimination
decides M, swapping up a row under a zero pivot, each entry within
2(p - 1)^2 <= n(p - 1)^2: alone for n <= 6, where it reduces
sum_{k<n-1} k^2 entries a prime, at most the n(n - 1) of a screen for
X^(p^n) = X and no X^(p^(n/l)) = X, which decides alone for n a prime
power and leaves M its survivors else.  The kernel takes f = sum c_j X^j
as its monic form g = lc^(n-1) f(X / lc), g_j = c_j lc^(n-1-j), which
factors as f does mod any p not dividing lc (X -> X / lc is an
automorphism), and p | lc gives p | Res(f, f'), so the kernel sees no such
p.  It folds X^n = -sum g_j X^j in with g's own integers up to the fold
limit 1 + isqrt((2^63 - 1) // (n G)), G the growth of the unreduced fold's
slot bounds (see _BLOCK_CELLS), else with residues (c_j mod p)
(lc mod p)^(n-1-j), from f's own integers; _route decides it all once.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import index

import numpy as np

from .census import _JsonReport, count_n_cycles
from .ntheory import euler_phi, factorization, prime_divisors
from .permutations import (DEFAULT_ELEMENT_CAP, MAX_DEGREE, ParseError,
                           PermGroup, _check_degree, _decimal, _digit_limit)


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
class DensityReport(_JsonReport):
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


# primes -------------------------------------------------------------------
#
# Eratosthenes in segments of the odd numbers (Bays and Hudson, BIT 17, 1977):
# slot k stands for 2k + 1, a segment is _SEGMENT slots in one reused bool
# buffer, and each odd base prime q <= sqrt(bound) crosses off every q-th
# slot from its first odd multiple at or above both q^2 and the segment's
# start.  A window (floor, bound] takes the slots of its odd numbers above
# 1, cut into segments from its first; 2 is the one even prime.
_SEGMENT = 1 << 17


def _base_primes(bound: int) -> np.ndarray:
    """The odd primes q with q^2 <= bound, which sieve (0, bound]."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    root = isqrt(bound)
    return _sieve(root)[1:] if root > 2 else np.empty(0, np.int64)


def _segments(base, floor: int, bound: int, first: int = 0, every: int = 1):
    """(start, flags) for segments first, first + every, ... of the odd numbers
    in (floor, bound]: flags[i] says whether start + 2i is prime.  Every
    segment is a view of one buffer, overwritten by the next."""
    lo, hi = max(1, (floor + 1) // 2), (bound + 1) // 2
    flags = np.empty(min(_SEGMENT, max(0, hi - lo)), dtype=bool)
    for a in range(lo + first * _SEGMENT, hi, every * _SEGMENT):
        seg, start = flags[:min(_SEGMENT, hi - a)], 2 * a + 1
        seg[:] = True
        qs = base[:np.searchsorted(base, isqrt(start + 2 * len(seg) - 2), "right")]
        m = np.maximum(qs * qs, -(-start // qs) * qs)
        m += (m + 1) % 2 * qs   # odd
        for q, k in zip(qs.tolist(), ((m - start) // 2).tolist()):
            seg[k::q] = False
        yield start, seg


def _primes(base, floor: int, bound: int, first: int = 0, every: int = 1):
    """The primes of segments first, first + every, ... of (floor, bound] as
    ascending int64 arrays, one a segment, 2 alone ahead of segment 0's."""
    if first == 0 and floor < 2 <= bound:
        yield np.array([2], np.int64)
    for start, flags in _segments(base, floor, bound, first, every):
        ps = np.flatnonzero(flags)
        ps *= 2
        ps += start
        yield ps


def _sieve(bound: int) -> np.ndarray:
    """All primes <= bound as an ascending int64 array."""
    return np.concatenate(list(_primes(_base_primes(bound), 0, bound)))


def sieve_primes(bound: int) -> list[int]:
    """All primes <= bound, ascending, as Python ints."""
    return _sieve(bound).tolist()


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
    """A gcd of a and b over GF(p), not made monic: callers read its degree."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _xpow_p_mod(m, p):
    """X^p mod m: p's bits from the top, a square each, times X (a shift)
    on a set bit."""
    result = [1]
    for bit in bin(p)[2:]:
        result = _pmod(_pmul(result, result, p), m, p)
        if bit == "1":
            result = _pmod([0] + result, m, p)
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
    deriv = [(i * c) % p for i, c in enumerate(fbar)][1:]
    if len(_pgcd(fbar, deriv, p)) > 1:
        return BadReduction("repeated factors mod p")
    return PolyModP(p=p, coeffs=tuple(fbar))


def is_irreducible_mod_p(fp: PolyModP) -> bool:
    """Distinct-degree irreducibility test over GF(p).

    X^(p^k) mod f walks the Frobenius matrix Q of rows X^(ip) mod f: since
    h^p = h(X^p) over GF(p), X^(p^k) = sum_i h_i Q[i] for h = X^(p^(k-1)).
    """
    n = fp.degree
    if n < 1:
        raise ValueError("irreducibility needs degree at least 1")
    if n == 1:
        return True
    p, m, x = fp.p, fp.coeffs, [0, 1]
    Q = [[1], _xpow_p_mod(m, p)]
    while len(Q) < n:
        Q.append(_pmod(_pmul(Q[-1], Q[1], p), m, p))
    powers = [x]   # powers[k] = X^(p^k) mod f
    for _ in range(n):
        acc = [0] * n
        for h, row in zip(powers[-1], Q):
            for j, c in enumerate(row):
                acc[j] += h * c
        powers.append(_trim([c % p for c in acc]))
    if powers[n] != x:
        return False
    for ell in prime_divisors(n):
        g = powers[n // ell] + [0, 0]
        g[1] = (g[1] - 1) % p
        if len(_pgcd(g, m, p)) > 1:
            return False
    return True


# batched classification -----------------------------------------------------
#
# Polynomials are held coefficient-major, shape (slots, primes) int64: array
# row i is coefficient i, a contiguous vector over the primes (one column
# each).  Residues lie in [0, p); each step states the largest magnitude it
# reaches, none above n * (p - 1)^2, where density_report's bound keeps int64
# from wrapping (degree 6: ~1.24 * 10^9), but the integer fold's: its 2n
# slots start within n(p - 1)^2, and slot k, top first, adds its bound times
# |g_j| to slot k - n + j.  Linear in that start, the bounds grow by G, the
# largest slot of one such pass from 1, so the fold fits iff
# n(p - 1)^2 G <= 2^63 - 1: up to the route's fold limit
# 1 + isqrt((2^63 - 1) // (n G)), found once a report.  Each of K workers
# sieves every K-th segment of the window and screens its primes in blocks
# of _BLOCK_CELLS // (n + 1)^2, which bounds the n x n x rows Frobenius
# matrix and keeps a block's working set in cache; the kernel runs on the
# survivors, refilled to blocks of that size, in one workspace, (n + 3)^2
# int64 a prime of a block, M over Q at p | n too.
_BLOCK_CELLS, _INT64_MAX = 1 << 18, 2 ** 63 - 1


def _reduce(acc, f, support, ps, wrap, tmp):
    """acc mod the monic X^n + f, top first, subtracting only in the support:
    the runs of slots where the integer f is nonzero (other slots are 0 mod
    every p).  f is g's own integers, shape (n, 1), up to the fold limit, or
    its residues, and then wrap reduces a slot before its fold: it starts
    within n(p - 1)^2 and takes at most n more products, +-n(p - 1)^2.
    Products go to tmp (n rows); acc[:n] is reduced in place."""
    n = len(f)
    for k in range(len(acc) - 1, n - 1, -1):
        if wrap:
            acc[k] %= ps
        for run in support:
            acc[k - n:k][run] -= np.multiply(acc[k], f[run], out=tmp[run])
    return np.remainder(acc[:n], ps, out=acc[:n])


def _minor_nonsingular(m, ps, tmp):
    """Whether the square m, (k, k, primes) in (-p, p), is nonsingular mod each
    p: fixed pivots turn row r > i into m[i, i] r - r[i] m[i] past column i, as
    many rows a call as tmp holds; a zero pivot over a nonzero entry first
    swaps row i with the first such row below it, at that prime only (stale
    entries left of column i move along, read by no later step)."""
    for i in range(len(m)):
        stall = (m[i, i] == 0) & (m[i + 1:, i] != 0).any(axis=0)
        if stall.any():
            at = np.flatnonzero(stall)
            below = i + 1 + np.argmax(m[i + 1:, i, at] != 0, axis=0)
            m[i, :, at], m[below, :, at] = m[below, :, at], m[i, :, at]
        rest, lead, top = m[i + 1:, i + 1:], m[i + 1:, i, None], m[i, None, i + 1:]
        rest *= m[i, i]
        rows = len(tmp) // max(1, rest[:1].size)   # whose products fit tmp at once
        for r in range(0, len(rest), rows):
            part = rest[r:r + rows]
            part -= np.multiply(lead[r:r + rows], top,
                                out=tmp[:part.size].reshape(part.shape))
        np.fmod(rest, ps, out=rest)
    return (m.diagonal() != 0).all(axis=1)   # the pivots


def _residues(coeffs, ps, out):
    """The integer coefficients mod each p: len(coeffs) rows, in out.

    |c| of any size is reduced by Horner over its 31-bit limbs, top first,
    with a % p after every step (c = 0 has no limbs): r < p, so
    r * 2^31 + limb < p * 2^31 + 2^31 < 2^63 for every bound that
    density_report accepts (p < 3.04 * 10^9, reached at degree 1)."""
    for c, r in zip(coeffs, out):
        r[:] = 0
        for shift in range((abs(c).bit_length() - 1) // 31 * 31, -1, -31):
            np.remainder(r * 2 ** 31 + (abs(c) >> shift & (2 ** 31 - 1)), ps, out=r)
        if c < 0:
            np.remainder(-r, ps, out=r)
    return out


def _separability_resultant(coeffs) -> int:
    """B = det Bez(f, f') = lc(f)^2 disc(f) = (-1)^(n(n-1)/2) lc(f) Res(f, f'),
    signed.  p divides B exactly when p | lc(f) or f mod p has a repeated
    factor (f' = 0 mod p included): these are the primes of bad reduction.

    Res(f, f') by the subresultant remainder sequence over Z (Collins 1967),
    on coefficient lists lowest first: each step sets d = deg a - deg b and
    a, b <- b, prem(a, b) / (g h^d), prem(a, b) = lc(b)^(d + 1) a mod b, then
    g = lc(a) and h = g^d / h^(d - 1); every division is exact.  A step takes
    (-1)^(deg a deg b) into the sign, a zero remainder is a repeated factor
    (B = 0), and at deg b = 0, Res(a, b) = b^(deg a) / h^(deg a - 1)."""
    n = len(coeffs) - 1
    a, b = [*coeffs], [k * c for k, c in enumerate(coeffs)][1:]
    sign, g, h = (-1) ** (n * (n - 1) // 2) * coeffs[-1], 1, 1
    while len(b) > 1:
        d = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        for _ in range(d + 1):   # a <- prem(a, b), one leading term at a time
            a = [b[-1] * x - a[-1] * y
                 for x, y in zip(a[:-1], [0] * (len(a) - len(b)) + b[:-1])]
        if not _trim(a):
            return 0
        a, b = b, [x // (g * h ** d) for x in a]
        g, h = a[-1], a[-1] ** d // h ** (d - 1)
    return sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2)


@dataclass(frozen=True)
class _Route:
    """How f's primes are classified, decided once a report (see _route)."""

    bezout: int   # B, whose prime divisors are skipped
    monic: tuple[int, ...]   # g_0..g_(n-1) of f's monic form g
    support: tuple[slice, ...]   # the runs of nonzero g_j
    fold_limit: int   # the largest p whose integer fold fits int64
    parity: str   # the parity screen: "character", "2 only" or "all"
    kronecker: tuple[int, ...]   # K: (B / p) = K[p mod |D*|] at odd p, or () (see _route)
    decide: str   # the kernel decides by "minor", "screen" or "screen, minor"
    column: dict[int, int]   # l | n, ascending, to the least j with s_j(g) =
    # Tr X^j != 0 mod l, M's dropped column at p = l (0: none, only if l | B)


def _jacobi(a, m):
    """(a / m) for odd m > 0: Euler's criterion at each prime q | m, as 0 or +-1."""
    return prod(((pow(a, q // 2, q) + 1) % q - 1) ** e for q, e in factorization(m))


def _route(coeffs, primes: int = 0) -> _Route:
    """f's route for a report of `primes` primes (module docstring, _BLOCK_CELLS note)."""
    n, lc, bezout = len(coeffs) - 1, coeffs[-1], _separability_resultant(coeffs)
    monic = tuple(c * lc ** (n - 1 - j) for j, c in enumerate(coeffs[:-1]))
    sums = [n]   # g's power sums s_k = Tr X^k, by Newton's identities
    for k in range(1, n):
        sums.append(-k * monic[n - k] - sum(monic[n - i] * sums[k - i] for i in range(1, k)))
    column = {ell: next((j for j, s in enumerate(sums) if s % ell), 0)
              for ell in prime_divisors(n)}
    growth = [1] * (2 * n)
    for k in range(2 * n - 1, n - 1, -1):
        growth[k - n:k] = [b + growth[k] * abs(g) for b, g in zip(growth[k - n:], monic)]
    square = bezout >= 0 and isqrt(bezout) ** 2 == bezout   # then (B / p) = 1
    parity = ("character" if not square and n > 2 else
              "2 only" if square and n % 2 == 0 else "all")
    rest, d = abs(bezout), (bezout > 0) - (bezout < 0)   # B = s^2 d rest, d squarefree
    for q in _sieve(2 ** 12).tolist() if parity == "character" else ():
        while rest % q == 0:
            rest, d = rest // q, d // q if d % q == 0 else d * q
    period = abs(d) * (1 if d % 4 == 1 else 4) * (isqrt(rest) ** 2 == rest)   # |D*| or 0
    runs = re.finditer("1+", "".join("01"[g != 0] for g in monic))
    return _Route(
        bezout, monic, tuple(slice(*run.span()) for run in runs),
        fold_limit=1 + isqrt(_INT64_MAX // (n * max(growth))), parity=parity,
        kronecker=tuple(_jacobi(d, r if r % 2 else r + period) for r in range(period))
        if parity == "character" and period <= min(2 ** 12, primes // 32) else (),
        decide="minor" if n <= 6 else "screen" if len(column) == 1 else "screen, minor",
        column=column)


def _power_table(g, primes):
    """X^m mod g = X^n + sum g_j X^j over Z as contiguous column m of an int64
    array of n rows: X^m shifted up a slot, its top t folded in as -t g_j.
    It keeps max(n, min(primes, 2^15 // n)) columns, but stops before the
    first with a coefficient outside int64 (the n monomials fit)."""
    n, flat = len(g), []
    col, size = [1] + [0] * (n - 1), n * max(n, min(primes, 2 ** 15 // n))
    while len(flat) < size and -2 ** 63 <= min(col) <= max(col) < 2 ** 63:
        flat += col
        col = [c - col[-1] * g_j for c, g_j in zip([0] + col[:-1], g)]
    return np.array(flat, np.int64).reshape(-1, n).T


def _batch_irreducible(coeffs: tuple[int, ...], ps: np.ndarray, *, route: _Route,
                       table: np.ndarray, arena: np.ndarray) -> np.ndarray:
    """Vectorized irreducibility test for the (good) primes in ps, on f's
    monic form g (see the module docstring), along f's route.  Memory grows
    as n^2 len(ps): callers pass blocks and an arena (see _BLOCK_CELLS)."""
    n = len(coeffs) - 1
    if n == 1:
        return np.ones(len(ps), dtype=bool)   # linear f is always irreducible
    # (n + 3)^2 rows: Q's n^2, then 6n + 2 of scratch reused phase by phase: a
    # square's sum (2n + 1), products (tmp, n), bit select (2n), f's residues
    # (n + 1, wrap only); Q[k]'s sum at Q[k], spilling n - 1; X^(p^k) in 2 x n
    w = arena[:(n + 3) ** 2 * len(ps)].reshape(-1, len(ps))
    Q, scratch = w[:n * n].reshape(n, n, -1), w[n * n:]
    acc, tmp, sel = np.split(scratch[:5 * n + 1], [2 * n + 1, 3 * n + 1])
    wrap = (p_max := int(ps.max())) > route.fold_limit   # X^n = -sum g_j X^j
    if wrap:   # g_j mod p from f's residues: each product below (p - 1)^2
        f, power = _residues(coeffs, ps, scratch[5 * n + 1:6 * n + 2]), 1
        for j in range(n - 2, -1, -1):
            power = power * f[n] % ps   # lc^(n-1-j) mod p
            f[j] = f[j] * power % ps
        f = f[:-1]
    else:
        f = np.array(route.monic, np.int64)[:, None]
    # X^p from the table's X^(p >> k0), k0 least with p_max >> k0 a column,
    # one _reduce a lower bit: the square (cross terms once, doubled) summed
    # one slot up gives X times it in slots 0..2n-1 and itself in 1..2n
    k0 = next(k for k in range(p_max.bit_length() + 1) if p_max >> k < table.shape[1])
    xp = np.take(table, ps >> k0, axis=1, out=sel[:n], mode="clip")
    xp %= ps
    for k in range(k0 - 1, -1, -1):
        acc[:] = 0
        for i in range(n - 1):
            acc[2 * i + 2:i + n + 1] += np.multiply(xp[i], xp[i + 1:], out=tmp[i + 1:])
        acc *= 2
        acc[1::2] += np.multiply(xp, xp, out=tmp)
        np.subtract(acc[:-1], acc[1:], out=sel)   # xp, in sel, is read above
        sel *= ps >> k & 1   # bit k of each p; |sel| stays within n(p - 1)^2
        sel += acc[1:]
        xp = _reduce(sel, f, route.support, ps, wrap, tmp)

    # Frobenius matrix Q[i] = X^(ip) mod f, Q[k] = Q[k - 1] X^p summed at
    # Q[k] itself: slot k sums at most n products, within the n(p - 1)^2
    # that the fold limit starts from.  Since h^p = h(X^p) over GF(p),
    # X^(p^k) = sum_i h_i Q[i] for h = X^(p^(k-1)): n products per slot.
    Q[0], Q[1] = table[:, [0]], xp   # 1, X^p
    for k in range(2, n):
        total = w[k * n:(k + 2) * n - 1]
        total[:] = 0
        for i in range(n):
            total[i:i + n] += np.multiply(Q[k - 1, i], Q[1], out=tmp)
        _reduce(total, f, route.support, ps, wrap, tmp)

    cols, irreducible = np.arange(len(ps)), np.empty(len(ps), dtype=bool)
    if route.decide != "minor":   # the power screen
        x, stops = table[:, [1]], {n // ell for ell in route.column}   # X
        power, seen = Q[1], np.zeros(len(ps), dtype=bool)   # some X^(p^(n/l)) = X
        for k in range(1, n + 1):
            if k > 1:
                power = np.einsum("ir,ijr->jr", power, Q, out=acc[k % 2 * n:][:n])
                power %= ps
            if k in stops:
                seen |= (power == x).all(axis=0)
        irreducible = (power == x).all(axis=0) & ~seen
        if route.decide == "screen":   # n = l^k: f's factors' degrees divide n / l
            return irreducible
        cols = np.flatnonzero(irreducible)
    for ell, j in route.column.items():   # Tr 1 = n = 0 at p = l: M drops column j
        at = cols[ps[cols] == ell]   # its column j - 1 becomes Q - I's 0, before M overlays Q
        Q[1:, j, at] = Q[1:, 0, at] + (np.arange(1, n) == j)[:, None]
    # M over Q, row i - 1 of M ending before row i of Q starts; products after it
    M = arena[:(n - 1) ** 2 * len(cols)].reshape(n - 1, n - 1, len(cols))
    for i in range(1, n):
        np.take(Q[i, 1:], cols, axis=1, out=M[i - 1], mode="clip")
    M.reshape((n - 1) ** 2, len(cols))[::n] -= 1   # M's diagonal
    irreducible[cols] = _minor_nonsingular(M, ps[cols], arena[M.size:])
    return irreducible


def _character(r, ps, w):
    """(r / p) = r^((p - 1) / 2) mod p, r in [1, p), where (B / p) has no period table,
    by p >> 1's bits from the top in w[:4]: a square, times 1 + bit (r - 1), <= (p - 1)^2."""
    chi, bit, factor, r1 = w[:4]
    np.subtract(r, 1, out=r1)
    chi[:] = 1
    for k in range(int(ps.max()).bit_length() - 1, 0, -1):
        chi *= chi
        chi %= ps
        np.right_shift(ps, k, out=bit)
        bit &= 1
        np.multiply(r1, bit, out=factor)
        factor += 1
        chi *= factor
        chi %= ps
    return chi


def _classify_blocks(coeffs, route, table, step, primes):
    """(skipped, tested, inert) summed over primes, an iterable of ascending
    int64 arrays, screened in blocks of at most step; the good primes that
    pass the parity screen in the route's mode queue up and run in kernel
    blocks of step, then one tail, all in one workspace.  The queue holds
    fewer than step survivors before a block and so at most 2 step after it,
    however many primes a segment has."""
    n, K = len(coeffs) - 1, np.array(route.kronecker, np.int64)
    arena = np.empty((n + 3) ** 2 * step, np.int64)
    queue, queued = np.empty(2 * step, np.int64), 0   # survivors awaiting the kernel
    counts = np.zeros(3, np.int64)
    for ps in (seg[i:i + step] for seg in primes for i in range(0, len(seg), step)):
        w = arena[:5 * len(ps)].reshape(5, -1)
        r = _residues((abs(route.bezout),), ps, w[4:])[0]   # |B|: -r costs 64 KiB of RSS
        keep = r != 0   # else p | B: bad reduction
        if route.kronecker:   # (B / p) = K[p mod |D*|] at an odd p, and p = 2 passes
            chi = np.take(K, np.remainder(ps, len(K), out=w[0]), out=w[1], mode="clip")
            keep &= (chi == (-1) ** (n - 1)) | (ps == 2)
        elif route.parity != "all":   # "2 only": a square B has (B / p) = 1
            chi = 1 if route.parity == "2 only" else _character(
                ps - r if route.bezout < 0 else r, ps, w)
            keep &= chi == (1 if n % 2 else ps - 1)   # both 1 at p = 2
        survivors, tested = ps[keep], np.count_nonzero(r)
        queue[queued:queued + len(survivors)] = survivors
        queued += len(survivors)
        counts[:2] += len(ps) - tested, tested
        while queued >= step:
            counts[2] += _batch_irreducible(coeffs, queue[:step], route=route,
                                            table=table, arena=arena).sum()
            queued -= step
            queue[:queued] = queue[step:step + queued]
    if queued:
        counts[2] += _batch_irreducible(coeffs, queue[:queued], route=route,
                                        table=table, arena=arena).sum()
    return counts.tolist()


def _classify_share(share):
    """One worker's counts: its segments of the report's window, sieved here."""
    coeffs, route, table, step, base, floor, bound, first, every = share
    return _classify_blocks(coeffs, route, table, step,
                            _primes(base, floor, bound, first, every))


# reports --------------------------------------------------------------------

def get_context(method: str):
    """multiprocessing.get_context, imported when a pool first starts."""
    import multiprocessing
    return multiprocessing.get_context(method)


def predicted_density(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> Fraction:
    """Fraction of n-cycles in G: the Chebotarev prediction for the density."""
    return Fraction(count_n_cycles(G, cap), G.order)


def density_report(coeffs, bound: int, floor: int = 0,
                   predicted: Fraction | None = None,
                   workers: int = 1) -> DensityReport:
    """Classify every prime in (floor, bound] as skipped, inert, or split.

    Callers are responsible for f being irreducible over the rationals;
    the report is purely an exact count of what happens mod each prime.
    A degree above 64 is refused, as the census refuses one, and so is a
    coefficient, bound or floor that is no integer (TypeError).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    coeffs = tuple(_trim([index(c) for c in coeffs]))
    bound, floor = index(bound), index(floor)
    if len(coeffs) < 2:
        raise ValueError("the polynomial must have degree at least 1")
    n = len(coeffs) - 1
    _check_degree(n)
    limit = 1 + isqrt(_INT64_MAX // n)
    if bound > limit:
        raise ValueError(f"bound {bound} exceeds {limit}, the largest bound "
                         f"whose degree-{n} arithmetic fits in int64")
    base = _base_primes(bound)
    sizes = [np.count_nonzero(flags) for _, flags in _segments(base, floor, bound)]
    primes = sum(sizes) + (floor < 2)   # the route and the table read the count
    route = _route(coeffs, primes)
    table = _power_table(route.monic, primes * (n > 1))   # linear f: no X^p
    step = max(1, min(primes, _BLOCK_CELLS // len(coeffs) ** 2))
    workers = min(workers, max(1, len(sizes)), os.cpu_count() or 1)
    shares = [(coeffs, route, table, step, base, floor, bound, i, workers)
              for i in range(workers)]
    if workers == 1:
        results = [_classify_share(shares[0])]
    else:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_classify_share, shares)

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


class PolynomialParseError(ParseError):
    """Malformed polynomial text."""


def parse_polynomial(text: str) -> tuple[int, ...]:
    """Parse "x^6+x^3+1" style input into integer coefficients, ascending.

    Terms are [coefficient][x[^power]] joined by + or -; coefficients may
    be rationals like 3/2, in which case denominators are cleared (the
    density of inert primes is invariant under scaling).
    """
    def number(m, group: str, default):   # a digit run of the term m
        digits = m.group(group)
        return default if digits is None else _decimal(
            digits, lambda message: PolynomialParseError(message, m.start(group)))

    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or (m.group("num") is None and m.group("var") is None):
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError("expected a term", pos)
        if not first and m.group("sign") is None:
            raise PolynomialParseError("expected '+' or '-'", pos)
        sign = -1 if m.group("sign") == "-" else 1
        num, den = number(m, "num", 1), number(m, "den", 1)
        if den == 0:
            raise PolynomialParseError(f"denominator {m.group('den')} is zero",
                                       m.start("den"))
        exp = 0 if m.group("var") is None else number(m, "exp", 1)
        if exp > MAX_DEGREE:
            raise PolynomialParseError(f"exponent {exp} exceeds supported "
                                       f"maximum {MAX_DEGREE}", m.start("exp"))
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * Fraction(num, den)
        pos = m.end()
        first = False
    if not coeffs:
        raise PolynomialParseError("empty polynomial")
    scale = lcm(*[c.denominator for c in coeffs.values()])
    out = _trim([int(coeffs.get(i, Fraction(0)) * scale)
                 for i in range(max(coeffs) + 1)])
    if not out:
        raise PolynomialParseError("the zero polynomial is not accepted")
    limit = _digit_limit()
    if limit and max(map(abs, out)) >= 10 ** limit:
        raise PolynomialParseError(f"a coefficient has more than {limit} digits "
                                   "once terms are summed and denominators cleared")
    return tuple(out)
