"""Prime-density experiments: how often does f stay irreducible mod p?

For an integer polynomial f of degree n, irreducible over the rationals,
the density of primes p with f irreducible mod p equals the fraction of
n-cycles in the Galois group, so it can never exceed phi(n)/n.  This
module runs the experiment: sieve the primes up to a bound, discard the
finitely many primes of bad reduction (leading coefficient vanishing or
repeated factors), test irreducibility of each good reduction, and report
the empirical density next to the phi(n)/n ceiling and an optional
group-predicted density.

The per-prime reference implementation is scalar: f of degree n is
irreducible iff X^(p^n) = X mod f and gcd(X^(p^(n/l)) - X, f) = 1 for
every prime l dividing n (the distinct-degree criterion).  It reaches
X^(p^k) as X^(p^(k-1)) times the Frobenius matrix Q of rows X^(ip) mod f,
in Python ints: O(n^3) a prime.  Density reports skip the primes dividing
the integer Res(f, f') and test the rest in numpy, all at once, sharing
no code with the scalar route: X^p from X^(p >> k0) mod p, read from one
table of X^m mod g over Z a report, one reduction mod f a lower bit, Q
from X^p, then Berlekamp (von zur Gathen and Gerhard, Modern Computer
Algebra, 14.8): squarefree mod p, f is irreducible iff dim ker(Q - I) = 1,
and for p not dividing n iff M, Q - I without row 0 (which is 0) and
column 0, is nonsingular, as (Tr X^j)_j spans the right kernel with
Tr 1 = n (Lidl and Niederreiter, Finite Fields, 2.24).  Fixed-pivot
elimination decides M, each entry within 2(p - 1)^2 <= n(p - 1)^2, for
n > 6 after a screen for X^(p^n) = X and no X^(p^(n/l)) = X, which
decides alone for n a prime power.  The tests cross-check the two routes,
which decide by different criteria.  The kernel takes f = sum c_j X^j as
its monic form g = lc^(n-1) f(X / lc), g_j = c_j lc^(n-1-j), which factors
as f does mod any p not dividing lc (X -> X / lc is an automorphism), and
p | lc gives p | Res(f, f'), so the kernel sees no such p.  It folds
X^n = -sum g_j X^j in with g's own integers where a simulation of the
unreduced fold (_fold_fits) stays within 2^63 - 1, else with residues
(c_j mod p) (lc mod p)^(n-1-j), which read only f's own integers.  Each
worker writes every step into one int64 workspace for all its blocks.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import index

import numpy as np

from .census import _JsonReport, count_n_cycles
from .ntheory import euler_phi, prime_divisors
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

def _sieve(bound: int) -> np.ndarray:
    """All primes <= bound as an ascending int64 array (Eratosthenes)."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


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
# reaches, none above n * (p - 1)^2 (see _INT64_MAX) but the integer fold's
# (see _fold_fits).  density_report hands the kernel blocks of
# _BLOCK_CELLS // (n + 1)^2 primes, which bounds the n x n x rows Frobenius
# matrix and keeps a block's working set in cache; each of K workers runs
# every K-th block in one workspace, (n + 3)^2 int64 a prime of its first.
_BLOCK_CELLS = 1 << 18


def _reduce(acc, f, support, ps, wrap, tmp=None):
    """acc mod the monic X^n + f, top first, subtracting only in the support:
    the runs of slots where the integer f is nonzero (other slots are 0 mod
    every p).  f is g's own integers, shape (n, 1), within _fold_fits, or
    its residues, and then wrap reduces a slot before its fold: it starts
    within n(p - 1)^2 and takes at most n more products, +-n(p - 1)^2.
    Products go to tmp (n rows) if given; acc[:n] is reduced in place."""
    n = len(f)
    for k in range(len(acc) - 1, n - 1, -1):
        if wrap:
            acc[k] %= ps
        for run in support:
            acc[k - n:k][run] -= np.multiply(
                acc[k], f[run], out=None if tmp is None else tmp[run])
    return np.remainder(acc[:n], ps, out=acc[:n])


def _rows_independent(a, ps):
    """Whether the rows a[k] (slots, primes) are independent mod each p, by
    fraction-free elimination: row k's first nonzero slot j is its pivot,
    per prime, and each later row r becomes a[k, j] r - r[j] a[k] mod p.
    np.fmod, cheaper than %, keeps entries in (-p, p), so an update is at
    most 2 (p - 1)^2 <= n (p - 1)^2, the bound _INT64_MAX enforces."""
    cols = np.arange(a.shape[2])
    independent = np.ones(a.shape[2], dtype=bool)
    for k, row in enumerate(a):
        nonzero = row != 0
        independent &= nonzero.any(axis=0)
        j = np.argmax(nonzero, axis=0)
        rest = a[k + 1:]   # all later rows at once, updated in place
        lead = rest[:, j, cols]
        rest *= row[j, cols]
        rest -= lead[:, None] * row
        np.fmod(rest, ps, out=rest)
    return independent


def _minor_nonsingular(m, ps, tmp):
    """Whether the square m, (k, k, primes) in (-p, p), is nonsingular mod each
    p: fixed pivots turn row r > i into m[i, i] r - r[i] m[i] past column i, as
    many rows a call as tmp holds; under a zero pivot over a nonzero entry the
    pivot search decides on the trailing block, nonsingular iff m is."""
    searched, by_search = np.zeros((2, len(ps)), dtype=bool)
    for i in range(len(m)):
        swap = (m[i, i] == 0) & ~searched & (m[i + 1:, i] != 0).any(axis=0)
        if swap.any():
            by_search[swap] = _rows_independent(m[i:, i:, swap], ps[swap])
            searched |= swap
        rest, lead, top = m[i + 1:, i + 1:], m[i + 1:, i, None], m[i, None, i + 1:]
        rest *= m[i, i]
        rows = len(tmp) // max(1, rest[:1].size)   # whose products fit tmp at once
        for r in range(0, len(rest), rows):
            part = rest[r:r + rows]
            part -= np.multiply(lead[r:r + rows], top,
                                out=tmp[:part.size].reshape(part.shape))
        np.fmod(rest, ps, out=rest)
    return np.where(searched, by_search, (m.diagonal() != 0).all(axis=1))   # pivots


def _residues(coeffs, ps, out=None):
    """The integer coefficients mod each p: len(coeffs) rows, in out if given.

    |c| of any size is reduced by Horner over its 31-bit limbs, top first,
    with a % p after every step (c = 0 has no limbs): r < p, so
    r * 2^31 + limb < p * 2^31 + 2^31 < 2^63 for every bound that
    density_report accepts (p < 3.04 * 10^9, reached at degree 1)."""
    out = np.empty((len(coeffs), len(ps)), np.int64) if out is None else out
    for c, r in zip(coeffs, out):
        r[:] = 0
        for shift in range((abs(c).bit_length() - 1) // 31 * 31, -1, -31):
            np.remainder(r * 2 ** 31 + (abs(c) >> shift & (2 ** 31 - 1)), ps, out=r)
        if c < 0:
            np.remainder(-r, ps, out=r)
    return out


def _separability_resultant(coeffs) -> int:
    """|Res(f, f')|, from the n x n Bezout matrix of (f, f') by fraction-free
    (Bareiss) elimination in Python ints.  Res(f, f') = +-lc(f) disc(f), so
    p divides it exactly when p | lc(f) or f mod p has a repeated factor
    (f' = 0 mod p included): these are the primes of bad reduction.

    The Bezoutian (f(x) f'(y) - f(y) f'(x)) / (x - y) of f = sum a_k x^k
    and f' = sum b_k x^k has coefficient sum_{q <= min(i, j)}
    (a_{i+j+1-q} b_q - a_q b_{i+j+1-q}) at x^i y^j.  Its determinant is
    +-lc(f)^(n - deg f') Res(f, f') = +-lc(f) Res(f, f'), so dividing by
    |lc(f)| is exact.  The matrix has half the side of the (2n - 1)-square
    Sylvester matrix, so elimination takes about an eighth of the steps."""
    n = len(coeffs) - 1
    a = [*coeffs] + [0] * n
    b = [i * c for i, c in enumerate(coeffs)][1:] + [0] * (n + 1)
    m = [[sum(a[i + j + 1 - q] * b[q] - a[q] * b[i + j + 1 - q]
              for q in range(min(i, j) + 1)) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot] = m[pivot], m[k]   # a row swap only flips the sign
        for row in m[k + 1:]:
            row[k + 1:] = [(x * m[k][k] - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], m[k][k + 1:])]
        prev = m[k][k]
    return abs(m[-1][-1]) // abs(coeffs[-1])


def _bad_primes(resultant, ps, out=None):
    """The primes of bad reduction in ps: those dividing Res(f, f')."""
    return _residues((resultant,), ps, out)[0] == 0


def _fold_fits(coeffs, p_max) -> bool:
    """Whether _reduce may fold with the monic g's own integers up to p_max:
    no slot of 2n, each from n(p_max - 1)^2, passes 2^63 - 1 when slot k,
    top first and unreduced, adds its bound times |g_j| to slot k - n + j."""
    n = len(coeffs) - 1
    bound = [n * (p_max - 1) ** 2] * (2 * n)
    for k in range(2 * n - 1, n - 1, -1):
        if bound[k] > _INT64_MAX:   # bounds only grow: stop before big ints
            return False
        for j, c in enumerate(coeffs[:-1]):
            bound[k - n + j] += bound[k] * abs(c)
    return max(bound) <= _INT64_MAX


def _monic(coeffs):
    """g_0..g_(n-1) of f's monic form g = lc^(n-1) f(X / lc)."""
    return tuple(c * coeffs[-1] ** (len(coeffs) - 2 - j)
                 for j, c in enumerate(coeffs[:-1]))


def _power_table(coeffs, primes):
    """X^m mod g over the integers, g f's monic form, as contiguous column m
    of an int64 array of n rows: X^m shifted up a slot, its top t folded in
    as -t g_j.  It keeps max(n, min(primes, 2^15 // n)) columns, but stops
    before the first with a coefficient outside int64 (the n monomials fit)."""
    n, g, flat = len(coeffs) - 1, _monic(coeffs), []
    col, size = [1] + [0] * (n - 1), n * max(n, min(primes, 2 ** 15 // n))
    while len(flat) < size and -2 ** 63 <= min(col) <= max(col) < 2 ** 63:
        flat += col
        col = [c - col[-1] * g_j for c, g_j in zip([0] + col[:-1], g)]
    return np.array(flat, np.int64).reshape(-1, n).T


def _batch_irreducible(coeffs: tuple[int, ...], ps: np.ndarray,
                       table: np.ndarray | None = None,
                       arena: np.ndarray | None = None) -> np.ndarray:
    """Vectorized irreducibility test for the (good) primes in ps, on f's
    monic form g (see the module docstring), by a minor of Q - I.  Memory
    grows as n^2 len(ps): callers pass blocks and an arena (see _BLOCK_CELLS)."""
    n = len(coeffs) - 1
    if n == 1 or len(ps) == 0:
        return np.full(len(ps), n == 1)   # linear f is always irreducible
    monic = _monic(coeffs)
    table = _power_table(coeffs, len(ps)) if table is None else table
    arena = np.empty((n + 3) ** 2 * len(ps), np.int64) if arena is None else arena
    # (n + 3)^2 rows: Q's n^2, then 6n + 2 of scratch reused phase by phase: a
    # square's sum (2n + 1), products (tmp, n), bit select (2n), f's residues
    # (n + 1, wrap only); Q[k]'s sum at Q[k], spilling n - 1; X^(p^k) in 2 x n
    w = arena[:(n + 3) ** 2 * len(ps)].reshape(-1, len(ps))
    Q, scratch = w[:n * n].reshape(n, n, -1), w[n * n:]
    acc, tmp, sel = np.split(scratch[:5 * n + 1], [2 * n + 1, 3 * n + 1])
    p_max = int(ps.max())
    wrap = not _fold_fits(monic + (1,), p_max)   # X^n = -sum g_j X^j
    if wrap:   # g_j mod p from f's residues: each product below (p - 1)^2
        f, power = _residues(coeffs, ps, scratch[5 * n + 1:6 * n + 2]), 1
        for j in range(n - 2, -1, -1):
            power = power * f[n] % ps   # lc^(n-1-j) mod p
            f[j] = f[j] * power % ps
        f = f[:-1]
    else:
        f = np.array(monic, np.int64)[:, None]
    support = [slice(*run.span()) for run in   # runs of nonzero f_i, i < n
               re.finditer("1+", "".join("01"[c != 0] for c in coeffs[:-1]))]
    # X^p from the table's X^(p >> k0), k0 least with p_max >> k0 a column,
    # one _reduce a lower bit: the square (cross terms once, doubled) summed
    # one slot up gives X times it in slots 0..2n-1 and itself in 1..2n
    k0 = next(k for k in range(p_max.bit_length() + 1)
              if p_max >> k < table.shape[1])
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
        xp = _reduce(sel, f, support, ps, wrap, tmp)

    # Frobenius matrix Q[i] = X^(ip) mod f, Q[k] = Q[k - 1] X^p summed at
    # Q[k] itself: slot k sums at most n products, within the n(p - 1)^2
    # that _fold_fits starts from.  Since h^p = h(X^p) over GF(p),
    # X^(p^k) = sum_i h_i Q[i] for h = X^(p^(k-1)): n products per slot.
    Q[0], Q[1] = table[:, [0]], xp   # 1, X^p
    for k in range(2, n):
        total = w[k * n:(k + 2) * n - 1]
        total[:] = 0
        for i in range(n):
            total[i:i + n] += np.multiply(Q[k - 1, i], Q[1], out=tmp)
        _reduce(total, f, support, ps, wrap, tmp)

    # Eliminating M reduces sum_{k<n-1} k^2 entries a prime, each at most
    # 2(p - 1)^2 <= n(p - 1)^2; for n <= 6 no more than the screen's n(n - 1)
    cols, irreducible = np.arange(len(ps)), np.empty(len(ps), dtype=bool)
    if sum(k * k for k in range(n - 1)) > n * (n - 1):   # else M decides alone
        ells, x = prime_divisors(n), table[:, [1]]   # X
        power, seen = Q[1], np.zeros(len(ps), dtype=bool)   # some X^(p^(n/l)) = X
        for k in range(1, n + 1):
            if k > 1:
                power = np.einsum("ir,ijr->jr", power, Q, out=acc[k % 2 * n:][:n])
                power %= ps
            if k in {n // ell for ell in ells}:
                seen |= (power == x).all(axis=0)
        irreducible = (power == x).all(axis=0) & ~seen
        if len(ells) == 1:   # enough for n = l^k: f's factors' degrees divide n / l
            return irreducible
        cols = np.flatnonzero(irreducible)
    if (div := n % ps[cols] == 0).any():   # Tr 1 = 0: the search decides, on Q - I
        irreducible[cols[div]] = _rows_independent(
            Q[1:, :, cols[div]] - np.eye(n, dtype=np.int64)[1:, :, None], ps[cols[div]])
        cols = cols[~div]
    # M over Q, row i - 1 of M ending before row i of Q starts; products after it
    M = arena[:(n - 1) ** 2 * len(cols)].reshape(n - 1, n - 1, len(cols))
    for i in range(1, n):
        np.take(Q[i, 1:], cols, axis=1, out=M[i - 1], mode="clip")
    M.reshape((n - 1) ** 2, len(cols))[::n] -= 1   # M's diagonal
    irreducible[cols] = _minor_nonsingular(M, ps[cols], arena[M.size:])
    return irreducible


def _classify_blocks(args):
    """(skipped, tested, inert) summed over blocks, the first the largest."""
    coeffs, resultant, table, blocks = args
    arena = np.empty((len(coeffs) + 2) ** 2 * len(blocks[0]), np.int64)
    counts = np.zeros(3, np.int64)
    for ps in blocks:
        good = ps[~_bad_primes(resultant, ps, arena[None, :len(ps)])]
        counts += len(ps) - len(good), len(good), _batch_irreducible(
            coeffs, good, table=table, arena=arena).sum()
    return counts.tolist()


# reports --------------------------------------------------------------------

def get_context(method: str):
    """multiprocessing.get_context, imported when a pool first starts."""
    import multiprocessing
    return multiprocessing.get_context(method)


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
    primes = _sieve(bound)
    primes = primes[np.searchsorted(primes, floor, side="right"):]

    resultant = _separability_resultant(coeffs)
    table = _power_table(coeffs, len(primes) * (n > 1))   # linear f: no X^p
    step = max(1, _BLOCK_CELLS // len(coeffs) ** 2)
    blocks = [primes[i:i + step] for i in range(0, len(primes), step)]
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    shares = [(coeffs, resultant, table, blocks[i::workers]) for i in range(workers)]
    if workers <= 1:
        results = [_classify_blocks(share) for share in shares]
    else:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_classify_blocks, shares)

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
