"""The chain builder against the oracle it replaced, its order cap, and
the chain record a group keeps.

The builder filters generators by their first moved point, reads cached
inverse representatives and can stop at an order cap; none of that may
change a chain.  Transversal representatives, and their dict order, are
part of the output (random_element and so the sweep's random rows read
them), so chains are compared item by item in insertion order.  The
inverse transversals and strong generators the group keeps are checked
against the representatives, and membership against the sift that
inverts them.
"""

import hashlib
import random

import pytest

from cycle_census import catalog
from cycle_census.permutations import (CapExceeded, Permutation, _build_chain,
                                       _contains_raw, _orbits,
                                       _stabilizer_gens, group_from_generators,
                                       iterate_elements, random_element)

from helpers import (_sift_raw, build_chain, catalog_instances, compose,
                     inverse, is_identity)


def _items(chain):
    base, transversals = chain[:2]
    return base, [list(tr.items()) for tr in transversals]


def _order(chain):
    order = 1
    for tr in chain[1]:
        order *= len(tr)
    return order


def _catalog_cases():
    return [(name, G.degree, G.raw_generators())
            for name, G in catalog.standard_instances()]


def _random_phase_cases():
    """Every pair the sweep's random phase draws at its default seed, kept
    or not, until it has kept 200."""
    instances = catalog_instances()
    rng = random.Random(20240809)
    cases = []
    kept = 0
    while kept < 200:
        name, parent = instances[rng.randrange(len(instances))]
        pair = [random_element(parent, rng).images,
                random_element(parent, rng).images]
        cases.append((f"pair{len(cases)}<{name}", parent.degree, pair))
        kept += (len(_orbits(parent.degree, pair)) == 1
                 and _order(build_chain(parent.degree, pair)) <= 100_000)
    return cases


def _seeded_subgroup_cases():
    """The first 60 pairs drawn by test_census's random-subgroup invariant
    test (seed 99), kept or not."""
    rng = random.Random(99)
    parents = [catalog.symmetric(8), catalog.pgammal(2, 8),
               catalog.wreath_imprimitive(catalog.symmetric(3),
                                          catalog.symmetric(4))]
    cases = []
    for k in range(60):
        parent = parents[rng.randrange(len(parents))]
        pair = [random_element(parent, rng).images,
                random_element(parent, rng).images]
        cases.append((f"seeded{k}", parent.degree, pair))
    return cases


@pytest.fixture(scope="module")
def cases():
    """(label, degree, raw generators, oracle chain) for every case."""
    out = {"catalog": _catalog_cases(), "random_phase": _random_phase_cases(),
           "seeded": _seeded_subgroup_cases()}
    return {kind: [(label, degree, gens, build_chain(degree, gens))
                   for label, degree, gens in found]
            for kind, found in out.items()}


def test_case_counts(cases):
    assert len(cases["catalog"]) == 221
    assert len(cases["random_phase"]) == 320
    assert len(cases["seeded"]) == 60


@pytest.mark.parametrize("kind", ["catalog", "random_phase", "seeded"])
def test_chains_equal_the_oracle(cases, kind):
    for label, degree, gens, want in cases[kind]:
        assert _items(_build_chain(degree, gens)) == _items(want), label


@pytest.mark.parametrize("kind", ["catalog", "random_phase"])
def test_a_cap_at_the_order_changes_nothing(cases, kind):
    for label, degree, gens, want in cases[kind]:
        chain = _build_chain(degree, gens, order_cap=_order(want))
        assert _items(chain) == _items(want), label


@pytest.mark.parametrize("kind", ["catalog", "random_phase"])
def test_a_cap_below_the_order_refuses(cases, kind):
    refused = 0
    for label, degree, gens, want in cases[kind]:
        order = _order(want)
        if order == 1:
            continue   # no cap below 1 is accepted
        with pytest.raises(CapExceeded) as info:
            _build_chain(degree, gens, order_cap=order - 1)
        exc = info.value
        assert not exc.exact and exc.cap == order - 1, label
        assert order - 1 < exc.order <= order, label   # a lower bound on |G|
        refused += 1
    assert refused > 200


def test_random_phase_refusals_are_pinned(cases):
    """The lower bound each refusal reports, for every transitive pair of
    the random phase that the sweep's order cap of 10^5 refuses.  The
    digest was taken before the builder skipped Schreier generators it had
    sifted and levels that gained no generator: neither may move the
    moment the bound passes the cap."""
    refused = []
    for label, degree, gens, _ in cases["random_phase"]:
        if len(_orbits(degree, gens)) > 1:
            continue   # the sweep builds no chain for an intransitive pair
        try:
            _build_chain(degree, gens, order_cap=100_000)
        except CapExceeded as exc:
            refused.append((label, exc.order))
    assert len(refused) == 41
    assert hashlib.sha256(repr(refused).encode()).hexdigest() == (
        "a185072492af8ea8bbf2177a698e651a43ea2ffc8ee15fdfdad94fa9ecdf7e49")


class TestChainRecord:
    """What a group keeps of its chain build beside the pinned fields: the
    inverse transversals of every working level and the strong generators,
    on the catalog and the random-phase pairs."""

    @pytest.fixture(scope="class")
    def groups(self, cases):
        return [(label, group_from_generators(
                    degree, [Permutation(g) for g in gens]))
                for kind in ("catalog", "random_phase")
                for label, degree, gens, _ in cases[kind]]

    def test_case_count(self, groups):
        assert len(groups) == 541

    def test_stored_inverses_invert_the_representatives(self, groups):
        for label, G in groups:
            assert len(G._inverses) == G.degree, label
            levels = dict(zip(G.base, G.transversals))
            for point, inverses in enumerate(G._inverses):
                # a pruned level holds its point alone
                tr = levels.get(point, {point: tuple(range(G.degree))})
                assert {x: inverse(rep) for x, rep in tr.items()} == inverses, label

    def test_strong_generators_carry_inverse_and_first_moved_point(self, groups):
        for label, G in groups:
            for g, g_inv, first in G._strong:
                assert is_identity(compose(g, g_inv)), label
                assert first == min(x for x in range(G.degree) if g[x] != x), label
            assert bool(G._strong) == bool(G.base), label

    def test_stabilizer_generators_generate_the_stabilizer(self, groups):
        """The strong generators moving only points above base[0] have the
        orbits of all representatives below the top level, and generate a
        group of order |G| / |orbit of base[0]|."""
        for label, G in groups:
            if not G.base:
                continue
            gens = _stabilizer_gens(G)
            reps = [rep for tr in G.transversals[1:] for rep in tr.values()]
            assert _orbits(G.degree, gens) == _orbits(G.degree, reps), label
            identity = Permutation.identity(G.degree)
            stabilizer = group_from_generators(
                G.degree, [identity] + [Permutation(g) for g in gens])
            assert stabilizer.order == G.order // len(G.transversals[0]), label

    def test_second_level_generators_generate_its_stabilizer(self, groups):
        """The strong generators moving only points above base[1] generate
        the stabilizer of base[0] and base[1], of order |G| over the first
        two transversal sizes: |G| / (n |O_b|) for transitive G, the
        group whose cosets a depth-2 count lists."""
        checked = 0
        for label, G in groups:
            if len(G.base) < 2:
                continue
            checked += 1
            gens = [Permutation(g) for g in _stabilizer_gens(G, 1)]
            stabilizer = group_from_generators(
                G.degree, [Permutation.identity(G.degree)] + gens)
            assert stabilizer.order == G.order // (
                len(G.transversals[0]) * len(G.transversals[1])), label
        assert checked == 464   # of 541; the rest have one base point or none

    def test_membership_agrees_with_the_inverting_sift(self, groups):
        """Seeded random members, and each times a transposition, which
        may or may not lie in G."""
        rng = random.Random(17)
        outside = 0
        for label, G in groups:
            n = G.degree
            for _ in range(4):
                member = random_element(G, rng).images
                a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                swap = list(range(n))
                swap[a], swap[b] = b, a
                for g in (member, compose(member, tuple(swap))):
                    want = is_identity(_sift_raw(G, g))
                    assert _contains_raw(G, g) == want, (label, g)
                    outside += not want
        assert outside == 1982   # of 2 164 products with a transposition


class TestOrderCap:
    def test_stops_before_the_chain_is_complete(self):
        """a8 wr c2 has order 812 851 200; a cap of 10^5 is passed by a
        partial chain, whose bound is what the refusal reports."""
        G = dict(catalog_instances())["a8_wr_c2"]
        with pytest.raises(CapExceeded) as info:
            group_from_generators(G.degree, G.generators, order_cap=10 ** 5)
        exc = info.value
        assert 10 ** 5 < exc.order < G.order
        assert str(exc) == (f"group order is at least {exc.order}, "
                            "above the order cap 100000")

    def test_exact_refusals_keep_their_message(self, m11):
        with pytest.raises(CapExceeded) as info:
            iterate_elements(m11, cap=100)
        assert info.value.exact
        assert str(info.value) == (
            "group order 7920 exceeds the enumeration cap 100")

    def test_group_within_the_cap(self, m11):
        G = group_from_generators(11, m11.generators, order_cap=m11.order)
        assert (G.order, G.base) == (m11.order, m11.base)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(ValueError, match="order_cap must be at least 1"):
            group_from_generators(3, [Permutation((1, 2, 0))], order_cap=cap)

    def test_trivial_group_within_any_cap(self):
        G = group_from_generators(4, [Permutation.identity(4)], order_cap=1)
        assert (G.order, G.base) == (1, ())
