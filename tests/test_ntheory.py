import pytest

from cycle_census.ntheory import (euler_phi, factorization,
                                  multiplicative_order, smallest_primitive_root,
                                  unit_group_generators)


@pytest.mark.parametrize("call, message", [
    (lambda: factorization(0), "^factorization needs a positive integer$"),
    (lambda: euler_phi(-4), "^euler_phi needs a positive integer$"),
    (lambda: multiplicative_order(2, 4), "^2 is not a unit modulo 4$"),
    (lambda: multiplicative_order(1, 1), "^1 is not a unit modulo 1$"),
    (lambda: unit_group_generators(0), "^modulus must be positive$"),
    (lambda: smallest_primitive_root(8), "^unit group modulo 8 is not cyclic$")])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_trivial_unit_groups_have_root_1():
    """Z/1 and Z/2 have one unit, 1, which generates their unit group."""
    assert smallest_primitive_root(1) == smallest_primitive_root(2) == 1
    assert unit_group_generators(1) == unit_group_generators(2) == []
