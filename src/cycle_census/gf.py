"""Arithmetic in small Galois fields GF(p^e), p^e <= 128.

Field elements are ints in range(q) packing the coefficient vector of a
polynomial over GF(p) in base p, least significant digit first (so the
constant term is the lowest digit and the residue class of x is the
element p).  For e >= 2 the modulus is the lexicographically least
primitive monic polynomial of degree e, coefficients compared from the
constant term up.  For e = 1 no modulus is stored.

A monic f of degree e with f(0) != 0 is primitive exactly when x has
order p^e - 1 modulo f (Lidl & Niederreiter, *Finite Fields*, 1997), so
the modulus is the first whose walk 1, x, x^2, ... first returns to 1
after q - 1 steps, and that walk is the field's exp table (for e = 1, the
walk of primitive_element()).  Products, inverses, powers and the
Frobenius map are read off it and its inverse, the log table.
"""

from __future__ import annotations

import functools
import itertools

from .ntheory import is_prime, smallest_primitive_root

MAX_Q = 128


class FqField:
    """GF(p^e) with exhaustive add/mul tables (q <= 128 keeps them tiny)."""

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_exp", "_log")

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("exponent must be at least 1")
        q = p ** e
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds the supported maximum {MAX_Q}")
        self.p, self.e, self.q = p, e, q
        coeffs = [self.coeffs(a) for a in range(q)]
        self._add = [bytes(self.from_coeffs(x + y for x, y in zip(ca, cb))
                           for cb in coeffs) for ca in coeffs]
        # the modulus x - g makes the walk of x over GF(p) the powers of g
        tails = ((t for t in itertools.product(range(p), repeat=e) if t[0])
                 if e > 1 else [(-self.primitive_element() % p,)])
        for tail in tails:
            if exp := self._walk(tail):
                break
        self.modulus = tail + (1,) if e > 1 else None
        self._exp = exp
        self._log = log = {a: k for k, a in enumerate(exp)}
        self._mul = [bytes(q)] + [
            bytes([0, *(exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q))])
            for a in range(1, q)]

    def _walk(self, tail: tuple[int, ...]) -> list[int] | None:
        """The powers 1, x, ..., x^(q-2) modulo x^e + tail, if x first
        returns to 1 at x^(q-1); None otherwise.  Multiplying by x shifts
        the digits up and subtracts the carried-out top digit times tail."""
        p, high = self.p, self.p ** (self.e - 1)
        minus = [self.from_coeffs(-c * t for t in tail) for c in range(p)]
        walk, a = [], 1
        for _ in range(self.q - 1):
            walk.append(a)
            a = self._add[a % high * p][minus[a // high]]
        return walk if a == 1 and walk.count(1) == 1 else None

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
        return self.pow_(a, -1)

    def pow_(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return int(k == 0)
        return self._exp[self._log[a] * k % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        """The field automorphism a -> a^p."""
        return self.pow_(a, self.p)

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
