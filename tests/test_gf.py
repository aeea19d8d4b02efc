import itertools

import pytest

from cycle_census.gf import MAX_Q, FqField, make_field
from cycle_census.ntheory import is_prime

SUPPORTED = [(p, e) for p in range(2, MAX_Q + 1) if is_prime(p)
             for e in range(1, 8) if p ** e <= MAX_Q]


def test_make_field_basics():
    f8 = make_field(2, 3)
    assert (f8.p, f8.e, f8.q) == (2, 3, 8)
    assert f8.pow_(f8.x, 7) == 1 and f8.x != 1   # order 7, a prime

    f3 = make_field(3, 1)
    assert f3.q == 3 and f3.modulus is None

    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # the only irreducible quadratic over GF(2)


def test_prime_field_has_no_variable_residue():
    with pytest.raises(ValueError, match="no variable residue"):
        make_field(5, 1).x


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 8)   # 256 > 128
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_char2_addition_is_involutive():
    f8 = make_field(2, 3)
    for a in f8.elements():
        assert f8.add(a, a) == 0


def test_gf9_frobenius_squared_is_identity():
    f9 = make_field(3, 2)
    for a in f9.elements():
        assert f9.frobenius(f9.frobenius(a)) == a


def test_gf7_inverse():
    f7 = make_field(7, 1)
    assert f7.inv(3) == 5


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(5, 1).inv(0)


@pytest.mark.parametrize("p,e", SUPPORTED)
def test_multiplicative_group_cyclic_of_order_q_minus_1(p, e):
    field = make_field(p, e)
    g = field.primitive_element()
    powers = {field.pow_(g, k) for k in range(field.q - 1)}
    assert powers == set(range(1, field.q))


@pytest.mark.parametrize("p,e", SUPPORTED)
def test_frobenius_fixed_field(p, e):
    field = make_field(p, e)
    for a in field.elements():
        assert field.pow_(a, field.q) == a


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_frobenius_is_an_automorphism(p, e):
    field = make_field(p, e)
    for a in field.elements():
        for b in field.elements():
            assert field.frobenius(field.add(a, b)) == \
                field.add(field.frobenius(a), field.frobenius(b))
            assert field.frobenius(field.mul(a, b)) == \
                field.mul(field.frobenius(a), field.frobenius(b))


def _oracle_tables(field: FqField):
    """Recompute add/mul from first principles on coefficient tuples."""
    p, e = field.p, field.e
    if e == 1:
        add = {(a, b): (a + b) % p for a in range(p) for b in range(p)}
        mul = {(a, b): (a * b) % p for a in range(p) for b in range(p)}
        return add, mul
    modulus = field.modulus

    def to_poly(a):
        return field.coeffs(a)

    def from_poly(c):
        return field.from_coeffs(c)

    def poly_mul(u, v):
        out = [0] * (2 * e - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
        # reduce by the monic modulus
        for k in range(2 * e - 2, e - 1, -1):
            c = out[k]
            if c:
                out[k] = 0
                for j in range(e):
                    out[k - e + j] = (out[k - e + j] - c * modulus[j]) % p
        return tuple(out[:e])

    add = {}
    mul = {}
    for a in range(field.q):
        for b in range(field.q):
            add[(a, b)] = from_poly(tuple((x + y) % p for x, y in
                                          zip(to_poly(a), to_poly(b))))
            mul[(a, b)] = from_poly(poly_mul(to_poly(a), to_poly(b)))
    return add, mul


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (127, 1)])
def test_tables_match_modular_polynomial_oracle(p, e):
    field = make_field(p, e)
    add, mul = _oracle_tables(field)
    for a, b in itertools.product(field.elements(), repeat=2):
        assert field.add(a, b) == add[(a, b)]
        assert field.mul(a, b) == mul[(a, b)]


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_field_axioms_spot(p, e):
    field = make_field(p, e)
    for a in field.elements():
        assert field.mul(a, 1) == a
        assert field.add(a, 0) == a
        if a:
            assert field.mul(a, field.inv(a)) == 1
    for a, b, c in itertools.islice(
            itertools.product(field.elements(), repeat=3), 500):
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))


def test_modulus_is_lexicographically_least_primitive():
    # over GF(2), degree 3, tails in constant-first lex order:
    # (1,0,0) = 1+x^3 factors; (1,0,1) = 1+x^2+x^3 is primitive
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    # over GF(3), degree 2: 1+x^2 is irreducible but x has order 4 != 8;
    # 2+x+x^2 is the first primitive one
    assert make_field(3, 2).modulus == (2, 1, 1)


def test_coeff_roundtrip():
    field = make_field(3, 3)
    for a in field.elements():
        assert field.from_coeffs(field.coeffs(a)) == a
