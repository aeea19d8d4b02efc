"""Arithmetic in small Galois fields GF(p^e), p^e <= 128.

Field elements are ints in range(q) packing the coefficient vector of a
polynomial over GF(p) in base p, least significant digit first (so the
constant term is the lowest digit and the residue class of x is the
element p).  For e >= 2 the modulus is the lexicographically least
primitive monic polynomial of degree e, coefficients compared from the
constant term up; primitivity makes x a generator of the multiplicative
group, which is verified at construction.  For e = 1 no modulus is
stored.  Every field does its arithmetic by table lookup.
"""

from __future__ import annotations

import functools
import itertools

from .ntheory import is_prime, smallest_primitive_root

MAX_Q = 128


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...],
                  modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product of length-e coefficient tuples mod (modulus, p); e = 1 never
    reduces, so it reads no modulus."""
    e = len(a)
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(e):
                prod[k - e + j] = (prod[k - e + j] - c * modulus[j]) % p
    return tuple(prod[:e] + [0] * (e - len(prod)))


class FqField:
    """GF(p^e) with exhaustive add/mul tables (q <= 128 keeps them tiny)."""

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_inv", "_frob")

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("exponent must be at least 1")
        q = p ** e
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds the supported maximum {MAX_Q}")
        self.p, self.e, self.q = p, e, q
        self.modulus = None if e == 1 else self._find_primitive_modulus()
        self._build_tables()

    # construction ---------------------------------------------------

    def _find_primitive_modulus(self) -> tuple[int, ...]:
        p, e, q = self.p, self.e, self.q
        x = (0, 1) + (0,) * (e - 2)
        for tail in itertools.product(range(p), repeat=e):
            if tail[0] == 0:
                continue  # x would not be a unit
            modulus = tail + (1,)
            # multiplicative order of x must be exactly q - 1, which also
            # forces irreducibility (reducible moduli have fewer units)
            v = x
            order = 1
            while order < q and v != (1,) + (0,) * (e - 1):
                v = _poly_mul_mod(v, x, modulus, p)
                order += 1
            if order == q - 1:
                return modulus
        raise AssertionError(f"no primitive polynomial found for GF({p}^{e})")

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        coeffs = [self.coeffs(a) for a in range(q)]
        enc = self.from_coeffs
        self._add = [
            bytes(enc(tuple((ca[i] + cb[i]) % p for i in range(e)))
                  for cb in coeffs)
            for ca in coeffs
        ]
        self._mul = [
            bytes(enc(_poly_mul_mod(ca, cb, self.modulus, p))
                  for cb in coeffs)
            for ca in coeffs
        ]
        self._inv = (0,) + tuple(row.index(1) for row in self._mul[1:])
        self._frob = tuple(self.pow_(a, p) for a in range(q))

    # element codecs -------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of a, constant term first, length e."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, v) -> int:
        a = 0
        for c in reversed(tuple(v)):
            a = a * self.p + c % self.p
        return a

    def elements(self) -> range:
        return range(self.q)

    # arithmetic -----------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def x(self) -> int:
        """The residue class of the variable; a generator for e >= 2."""
        if self.e == 1:
            raise ValueError("GF(p) has no variable residue; use primitive_element()")
        return self.p

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self.from_coeffs(tuple((-c) % self.p for c in self.coeffs(a)))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._inv[a]

    def pow_(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result = 1
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def frobenius(self, a: int) -> int:
        """The field automorphism a -> a^p."""
        return self._frob[a]

    def primitive_element(self) -> int:
        """A fixed generator of the multiplicative group."""
        if self.e > 1:
            return self.x
        return smallest_primitive_root(self.p) % self.p if self.p > 2 else 1

    def __repr__(self) -> str:
        return f"FqField(p={self.p}, e={self.e})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FqField:
    """Construct (and cache) GF(p^e); raises ValueError for p^e > 128."""
    return FqField(p, e)
