"""Small integer helpers shared across the package."""

from __future__ import annotations

from math import gcd


def is_prime(n: int) -> bool:
    return n >= 2 and factorization(n) == [(n, 1)]


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""
    if n < 1:
        raise ValueError("factorization needs a positive integer")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorization(n)]


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n with gcd(k, n) = 1."""
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result = n
    for p, _ in factorization(n):
        result = result // p * (p - 1)
    return result


def multiplicative_order(a: int, m: int) -> int:
    if m < 2 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    order = 1
    x = a % m
    while x != 1:
        x = (x * a) % m
        order += 1
    return order


def _mult_closure(gens: list[int], m: int) -> set[int]:
    out = {1 % m}
    frontier = [1 % m]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = (x * g) % m
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def unit_group_generators(m: int) -> list[int]:
    """A deterministic generating set for the unit group of Z/m.

    Greedy sweep: units are tried in increasing order and kept whenever
    they enlarge the subgroup generated so far.  For m <= 2 the unit
    group is trivial and the list is empty.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    generated = {1 % m}
    gens: list[int] = []
    for u in range(2, m):
        if gcd(u, m) != 1 or u in generated:
            continue
        gens.append(u)
        generated = _mult_closure(gens, m)
    return gens


def smallest_primitive_root(m: int) -> int:
    """Least unit of multiplicative order phi(m); raises if none exists."""
    target = euler_phi(m)
    for u in range(2, m):
        if gcd(u, m) == 1 and multiplicative_order(u, m) == target:
            return u
    if m in (1, 2):
        return 1
    raise ValueError(f"unit group modulo {m} is not cyclic")


def prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise ValueError."""
    fac = factorization(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac[0]
