import pytest

from cycle_census import catalog
from cycle_census.blocks import (BlockSystem, InvalidBlockSystemError,
                                 all_minimal_block_systems, block_action,
                                 block_constituent, derived_series,
                                 is_primitive, is_solvable,
                                 minimal_block_containing)
from cycle_census.permutations import (NotTransitiveError, Permutation,
                                       group_from_generators,
                                       iterate_elements, parse_permutation)

from helpers import constituent_elements, minimal_invariant_partitions


class TestMinimalBlockContaining:
    def test_c6_pair_distance_two(self):
        C6 = catalog.cyclic_regular(6)
        system = minimal_block_containing(C6, 0, 2)
        assert system.blocks == ((0, 2, 4), (1, 3, 5))

    def test_sym5_any_pair_trivial(self):
        S5 = catalog.symmetric(5)
        for b in range(1, 5):
            assert minimal_block_containing(S5, 0, b) is None

    def test_c3wrc3_pair_in_block(self, c3wrc3):
        system = minimal_block_containing(c3wrc3, 0, 1)
        assert system.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        # matches the exhaustive oracle for the finest partition joining 0,1
        oracle = minimal_invariant_partitions(
            9, [g.images for g in c3wrc3.generators])
        assert frozenset(frozenset(b) for b in system.blocks) in oracle

    def test_requires_transitive(self):
        G = group_from_generators(4, [parse_permutation("(1,2)", 4)])
        with pytest.raises(NotTransitiveError):
            minimal_block_containing(G, 0, 1)

    def test_invariance_of_returned_systems(self):
        for G in (catalog.cyclic_regular(12), catalog.holomorph_cyclic(9),
                  catalog.sharpness_group(1)):
            for b in range(1, G.degree):
                system = minimal_block_containing(G, 0, b)
                if system is None:
                    continue
                blocks = set(system.blocks)
                for g in G.generators:
                    for block in blocks:
                        image = tuple(sorted(g.images[x] for x in block))
                        assert image in blocks


class TestAllMinimalSystems:
    def test_sym6_empty(self):
        assert all_minimal_block_systems(catalog.symmetric(6)) == ()

    def test_c6_two_systems(self):
        systems = all_minimal_block_systems(catalog.cyclic_regular(6))
        assert sorted(s.s for s in systems) == [2, 3]

    def test_sharpness1_has_size3_system(self, sharp1):
        systems = all_minimal_block_systems(sharp1)
        assert any(s.s == 3 and s.r == 2 for s in systems)

    @pytest.mark.parametrize("maker", [
        lambda: catalog.cyclic_regular(6),
        lambda: catalog.cyclic_regular(8),
        lambda: catalog.cyclic_regular(9),
        lambda: catalog.sharpness_group(1),
        lambda: catalog.holomorph_cyclic(8),
        lambda: catalog.holomorph_cyclic(9),
        lambda: catalog.wreath_imprimitive(catalog.cyclic_regular(3),
                                           catalog.cyclic_regular(3)),
        lambda: catalog.wreath_imprimitive(catalog.symmetric(2),
                                           catalog.symmetric(2)),
        lambda: catalog.symmetric(6),
        lambda: catalog.pgl(3, 2),
        lambda: catalog.alternating(8),
    ])
    def test_matches_exhaustive_search_degree_le_9(self, maker):
        G = maker()
        if G.degree > 9:
            pytest.skip("oracle is exhaustive only up to degree 9")
        got = {frozenset(frozenset(b) for b in s.blocks)
               for s in all_minimal_block_systems(G)}
        expected = set(minimal_invariant_partitions(
            G.degree, [g.images for g in G.generators]))
        assert got == expected


class TestPrimitivity:
    def test_sym5(self):
        assert is_primitive(catalog.symmetric(5))

    def test_c6(self):
        assert not is_primitive(catalog.cyclic_regular(6))

    def test_pgl32(self, pgl32):
        assert is_primitive(pgl32)

    def test_prime_degree_transitive_groups(self):
        assert is_primitive(catalog.cyclic_regular(7))
        assert is_primitive(catalog.holomorph_cyclic(11))


class TestBlockAction:
    def test_c3wrc3(self, c3wrc3):
        system = all_minimal_block_systems(c3wrc3)[0]
        image, in_kernel = block_action(c3wrc3, system)
        assert image.degree == 3 and image.order == 3
        kernel_size = sum(1 for p in iterate_elements(c3wrc3, 1000)
                          if in_kernel(p))
        assert image.order * kernel_size == c3wrc3.order

    def test_c6_size3_system(self):
        C6 = catalog.cyclic_regular(6)
        system = next(s for s in all_minimal_block_systems(C6) if s.s == 3)
        image, _ = block_action(C6, system)
        assert image.order == 2

    def test_sharpness1_size3_system(self, sharp1):
        system = next(s for s in all_minimal_block_systems(sharp1) if s.s == 3)
        image, in_kernel = block_action(sharp1, system)
        assert image.degree == 2 and image.order == 2
        kernel_size = sum(1 for p in iterate_elements(sharp1, 1000)
                          if in_kernel(p))
        assert kernel_size * image.order == sharp1.order

    def test_rejects_non_invariant_partition(self):
        S4 = catalog.symmetric(4)
        bad = BlockSystem(degree=4, blocks=((0, 1), (2, 3)))
        with pytest.raises(InvalidBlockSystemError):
            block_action(S4, bad)

    def test_image_order_divides_group_order(self):
        for G in (catalog.cyclic_regular(12), catalog.holomorph_cyclic(8),
                  catalog.sharpness_group(2)):
            for system in all_minimal_block_systems(G):
                image, _ = block_action(G, system)
                assert G.order % image.order == 0


class TestBlockConstituent:
    def test_c3wrc3_block_is_c3(self, c3wrc3):
        system = all_minimal_block_systems(c3wrc3)[0]
        for idx in range(system.r):
            constituent = block_constituent(c3wrc3, system, idx)
            assert constituent.degree == 3 and constituent.order == 3

    def test_sharpness1_block_inside_agl1_3(self, sharp1):
        system = next(s for s in all_minimal_block_systems(sharp1) if s.s == 3)
        constituent = block_constituent(sharp1, system, 0)
        assert constituent.degree == 3
        assert constituent.order % 3 == 0
        assert 6 % constituent.order == 0  # inside AGL_1(3), which is Sym(3)

    def test_c6_size2_block(self):
        C6 = catalog.cyclic_regular(6)
        system = next(s for s in all_minimal_block_systems(C6) if s.s == 2)
        constituent = block_constituent(C6, system, 0)
        assert constituent.degree == 2 and constituent.order == 2

    def test_bad_index(self, c3wrc3):
        system = all_minimal_block_systems(c3wrc3)[0]
        with pytest.raises(ValueError):
            block_constituent(c3wrc3, system, 99)

    def test_requires_transitive(self):
        G = group_from_generators(4, [parse_permutation("(1,2)(3,4)", 4)])
        system = BlockSystem(degree=4, blocks=((0, 1), (2, 3)))
        with pytest.raises(NotTransitiveError):
            block_constituent(G, system, 1)

    def test_group_above_the_element_cap(self):
        """S8 wr C2 has 3 251 404 800 elements; each block still sees S8."""
        G = catalog.wreath_imprimitive(catalog.symmetric(8),
                                       catalog.symmetric(2))
        assert G.order == 3_251_404_800
        system = all_minimal_block_systems(G)[0]
        assert [block_constituent(G, system, j).order
                for j in range(system.r)] == [40_320, 40_320]

    def test_matches_enumeration_across_catalog(self):
        """Every block of every minimal system of every catalog group of
        order <= 1e4: the chain-built constituent has the oracle's order
        and its generators lie in the oracle's element set."""
        checked = 0
        for name, G in catalog.standard_instances():
            if G.order > 10 ** 4:
                continue
            for system in all_minimal_block_systems(G):
                for j in range(system.r):
                    elements = constituent_elements(G, system, j)
                    H = block_constituent(G, system, j)
                    assert H.order == len(elements), (name, system, j)
                    assert all(g.images in elements for g in H.generators)
                    checked += 1
        assert checked == 682


class TestDerivedSeries:
    def test_sym4_textbook(self):
        orders, solvable = derived_series(catalog.symmetric(4))
        assert orders == (24, 12, 4, 1)
        assert solvable

    def test_alt5_perfect(self):
        orders, solvable = derived_series(catalog.alternating(5))
        assert not solvable
        assert orders[0] == orders[1] == 60

    def test_stalls_after_a_drop(self):
        assert derived_series(catalog.symmetric(5)) == ((120, 60, 60), False)

    def test_sharpness_groups_solvable(self):
        assert is_solvable(catalog.sharpness_group(1))
        assert is_solvable(catalog.sharpness_group(2))

    def test_orders_divide(self):
        for G in (catalog.symmetric(4), catalog.holomorph_cyclic(12),
                  catalog.sharpness_group(2), catalog.pgl(2, 5)):
            orders, _ = derived_series(G)
            for a, b in zip(orders, orders[1:]):
                assert a % b == 0 and b <= a

    def test_trivial_and_cyclic(self):
        orders, solvable = derived_series(catalog.cyclic_regular(5))
        assert solvable and orders == (5, 1)
        trivial = group_from_generators(2, [Permutation.identity(2)])
        assert derived_series(trivial) == ((1,), True)

    def test_pgammal28_not_solvable(self):
        assert not is_solvable(catalog.pgammal(2, 8))


def test_constituent_transitive_when_group_has_full_cycle():
    """On a group containing an n-cycle, every block constituent through
    the setwise stabilizer acts transitively on its block."""
    from cycle_census.permutations import is_transitive as transitive
    cases = [catalog.cyclic_regular(12), catalog.holomorph_cyclic(9),
             catalog.sharpness_group(1), catalog.sharpness_group(2),
             catalog.wreath_imprimitive(catalog.cyclic_regular(3),
                                        catalog.cyclic_regular(3))]
    for G in cases:
        assert any(p.is_n_cycle() for p in iterate_elements(G, 10 ** 4))
        for system in all_minimal_block_systems(G):
            constituent = block_constituent(G, system, 0)
            assert transitive(constituent)


def test_image_times_kernel_equals_group_order_across_catalog():
    """First isomorphism theorem, checked by counting: for every minimal
    system of every catalog group of order <= 1e4, the block-action image
    order times the kernel size (by membership filtering) equals |G|."""
    checked = 0
    for name, G in catalog.standard_instances():
        if G.order > 10 ** 4:
            continue
        for system in all_minimal_block_systems(G):
            image, in_kernel = block_action(G, system)
            kernel_size = sum(1 for p in iterate_elements(G, 10 ** 4)
                              if in_kernel(p))
            assert image.order * kernel_size == G.order, name
            checked += 1
    assert checked > 100
