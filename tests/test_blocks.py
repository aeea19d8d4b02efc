import itertools
import random

import pytest

from cycle_census import blocks, catalog, census
from cycle_census.blocks import (BlockSystem, InvalidBlockSystemError,
                                 all_minimal_block_systems, block_action,
                                 block_constituent, derived_series,
                                 minimal_block_containing)
from cycle_census.permutations import (DEFAULT_ELEMENT_CAP, CapExceeded,
                                       NotTransitiveError,
                                       Permutation, _contains_raw,
                                       _is_full_cycle, _orbits,
                                       group_from_generators,
                                       parse_permutation, random_element)

import helpers
from helpers import (_iter_raw, all_partners_minimal_systems,
                     block_kernel_order, catalog_instances,
                     constituent_elements,
                     finest_partition_joining, minimal_invariant_partitions,
                     random_subgroups)


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

    @pytest.mark.parametrize("b", [-3, 6])
    def test_refuses_points_out_of_range(self, b):
        """-3 would be read as point 3 and 6 would index past the end."""
        C6 = catalog.cyclic_regular(6)
        with pytest.raises(ValueError, match=r"0\.\.5"):
            minimal_block_containing(C6, 0, b)
        with pytest.raises(ValueError, match=r"0\.\.5"):
            minimal_block_containing(C6, b, 0)

    def test_every_ordered_pair_matches_the_merging_closure(self):
        """minimal_block_containing(G, a, b) first carries a to 0 by the
        inverse of a level-0 representative: every ordered pair, a != 0
        included, against the oracle's merging closure of a and b, on the
        catalog instances of degree <= 12 and the seeded random subgroups."""
        groups = [G for _, G in catalog_instances() if G.degree <= 12]
        groups += random_subgroups(40)
        assert len(groups) == 147
        for G in groups:
            n, raw = G.degree, G.raw_generators()
            for a, b in itertools.permutations(range(n), 2):
                system = minimal_block_containing(G, a, b)
                got = system.blocks if system else (tuple(range(n)),)
                assert got == finest_partition_joining(n, raw, a, b), (
                    G.generators, a, b)

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


class TestOneClosurePerSuborbit:
    """all_minimal_block_systems closes {0, min O} once per G_0-orbit O; the
    oracle closes {0, b} for every other point b with its own merging
    closure."""

    @staticmethod
    def oracle(G):
        return all_partners_minimal_systems(G.degree, G.raw_generators())

    def test_catalog(self):
        for name, G in catalog_instances():
            got = [s.blocks for s in all_minimal_block_systems(G)]
            assert got == self.oracle(G), name

    def test_groups_the_towers_visit(self, monkeypatch):
        """Every group the structure towers and the wreath identity of the
        sweep at the census cap ask for minimal systems: catalog groups
        that attain the bound, the block-action images below them, and
        every census of more than _SLICE_CELLS elements, factors of a full
        wreath product included.  Each random row is censused, none reusing
        an equal group's report, so the oracle also meets every generating
        set of a group the random phase draws again."""
        visited = []
        original = census.all_minimal_block_systems
        sweep_row = census._sweep_row

        def recording(H):
            systems = original(H)
            visited.append((H, systems))
            return systems
        monkeypatch.setattr(census, "all_minimal_block_systems", recording)
        monkeypatch.setattr(census, "_sweep_row",
                            lambda name, group, cap, memo, reuse=False:
                            sweep_row(name, group, cap, memo))
        census.run_sweep(instance_cap=DEFAULT_ELEMENT_CAP)
        assert len(visited) == 243
        for H, systems in visited:
            assert [s.blocks for s in systems] == self.oracle(H), H.generators

    def test_degree_one(self):
        assert all_minimal_block_systems(catalog.cyclic_regular(1)) == ()


class TestPrimitivity:
    """A group is primitive iff it has no minimal block system."""

    def test_sym5(self):
        assert not all_minimal_block_systems(catalog.symmetric(5))

    def test_c6(self):
        assert all_minimal_block_systems(catalog.cyclic_regular(6))

    def test_pgl32(self, pgl32):
        assert not all_minimal_block_systems(pgl32)

    def test_prime_degree_transitive_groups(self):
        assert not all_minimal_block_systems(catalog.cyclic_regular(7))
        assert not all_minimal_block_systems(catalog.holomorph_cyclic(11))


class TestBlockAction:
    def test_c3wrc3(self, c3wrc3):
        system = all_minimal_block_systems(c3wrc3)[0]
        image = block_action(c3wrc3, system)
        assert image.degree == 3 and image.order == 3
        assert image.order * block_kernel_order(c3wrc3, system) == c3wrc3.order

    def test_c6_size3_system(self):
        C6 = catalog.cyclic_regular(6)
        system = next(s for s in all_minimal_block_systems(C6) if s.s == 3)
        assert block_action(C6, system).order == 2

    def test_sharpness1_size3_system(self, sharp1):
        system = next(s for s in all_minimal_block_systems(sharp1) if s.s == 3)
        image = block_action(sharp1, system)
        assert image.degree == 2 and image.order == 2
        assert block_kernel_order(sharp1, system) * image.order == sharp1.order

    def test_rejects_non_invariant_partition(self):
        S4 = catalog.symmetric(4)
        bad = BlockSystem(degree=4, blocks=((0, 1), (2, 3)))
        with pytest.raises(InvalidBlockSystemError):
            block_action(S4, bad)

    def test_image_order_divides_group_order(self):
        for G in (catalog.cyclic_regular(12), catalog.holomorph_cyclic(8),
                  catalog.sharpness_group(2)):
            for system in all_minimal_block_systems(G):
                assert G.order % block_action(G, system).order == 0


class TestBlockConstituent:
    def test_c3wrc3_block_is_c3(self, c3wrc3):
        system = all_minimal_block_systems(c3wrc3)[0]
        constituent = block_constituent(c3wrc3, system)
        assert constituent.degree == 3 and constituent.order == 3

    def test_blocks_in_any_order(self, sharp1):
        """A caller's system may list the block through 0 anywhere: the
        constituent is still that block's."""
        for system in all_minimal_block_systems(sharp1):
            home = block_constituent(sharp1, system)
            for shift in range(1, system.r):
                moved = BlockSystem(degree=system.degree,
                                    blocks=system.blocks[shift:]
                                    + system.blocks[:shift])
                H = block_constituent(sharp1, moved)
                assert (H.degree, H.generators) == (home.degree, home.generators)

    def test_sharpness1_block_inside_agl1_3(self, sharp1):
        system = next(s for s in all_minimal_block_systems(sharp1) if s.s == 3)
        constituent = block_constituent(sharp1, system)
        assert constituent.degree == 3
        assert constituent.order % 3 == 0
        assert 6 % constituent.order == 0  # inside AGL_1(3), which is Sym(3)

    def test_c6_size2_block(self):
        C6 = catalog.cyclic_regular(6)
        system = next(s for s in all_minimal_block_systems(C6) if s.s == 2)
        constituent = block_constituent(C6, system)
        assert constituent.degree == 2 and constituent.order == 2

    def test_requires_transitive(self):
        G = group_from_generators(4, [parse_permutation("(1,2)(3,4)", 4)])
        system = BlockSystem(degree=4, blocks=((0, 1), (2, 3)))
        with pytest.raises(NotTransitiveError):
            block_constituent(G, system)

    def test_group_above_the_element_cap(self):
        """S8 wr C2 has 3 251 404 800 elements; the block through 0 still
        sees S8."""
        G = catalog.wreath_imprimitive(catalog.symmetric(8),
                                       catalog.symmetric(2))
        assert G.order == 3_251_404_800
        system = all_minimal_block_systems(G)[0]
        assert block_constituent(G, system).order == 40_320

    def test_matches_enumeration_across_catalog(self):
        """Every minimal system of every catalog group and every random-phase
        subgroup of order <= 1e4: the chain-built constituent has the
        oracle's order and its generators lie in the oracle's element set."""
        checked = 0
        for name, G in [*catalog_instances(), *_random_phase_subgroups()]:
            if G.order > 10 ** 4:
                continue
            for system in all_minimal_block_systems(G):
                elements = constituent_elements(G, system)
                H = block_constituent(G, system)
                assert H.order == len(elements), (name, system)
                assert all(g.images in elements for g in H.generators)
                checked += 1
        assert checked == 312


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
        assert derived_series(catalog.sharpness_group(1))[1]
        assert derived_series(catalog.sharpness_group(2))[1]

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
        assert not derived_series(catalog.pgammal(2, 8))[1]


def _random_phase_subgroups():
    """The 200 subgroups the sweep's random phase censuses at its default
    seed: transitive pairs of order at most 10^5."""
    instances = catalog_instances()
    rng = random.Random(20240809)
    out = []
    while len(out) < 200:
        name, parent = instances[rng.randrange(len(instances))]
        pair = [random_element(parent, rng), random_element(parent, rng)]
        if len(_orbits(parent.degree, [g.images for g in pair])) > 1:
            continue
        try:
            H = group_from_generators(parent.degree, pair, order_cap=100_000)
        except CapExceeded:
            continue
        out.append((f"rand{len(out) + 1:03d}<{name}", H))
    return out


class TestNormalClosureAgainstTheOracle:
    """derived_series keeps each normal closure's generators irredundant and
    takes the closure's own group as the next term; the oracle adds every
    nontrivial commutator and whole rounds of conjugates, then rebuilds."""

    @pytest.fixture(scope="class")
    def groups(self):
        found = [(name, G) for name, G in catalog_instances()
                 if G.order <= 200_000]
        assert len(found) == 179
        random_phase = _random_phase_subgroups()
        assert len(random_phase) == 200
        return found + random_phase

    def test_orders_and_solvability(self, groups):
        for name, G in groups:
            assert derived_series(G) == helpers.derived_series(G), name

    def test_each_generator_is_outside_its_predecessors(self, groups,
                                                        monkeypatch):
        closures = []
        original = blocks._normal_closure

        def recording(G, seeds):
            N = original(G, seeds)
            closures.append((G, N))
            return N
        monkeypatch.setattr(blocks, "_normal_closure", recording)
        for name, G in groups:
            closures.clear()
            derived_series(G)
            assert bool(closures) == (G.order > 1), name
            for H, N in closures:
                if N.order == 1:   # generated by the identity alone
                    assert N.generators == (Permutation.identity(G.degree),)
                    continue
                gens = [g.images for g in N.generators]
                assert len(gens) <= N.order.bit_length() - 1, name   # log2|N|
                for k, x in enumerate(gens):
                    before = group_from_generators(
                        G.degree,
                        [Permutation.identity(G.degree), *N.generators[:k]])
                    assert not _contains_raw(before, x), (name, k)
                # normal in the term it closes in: conjugates stay inside
                for g in H.raw_generators():
                    ginv = helpers.inverse(g)
                    assert all(_contains_raw(N, helpers.compose(
                        helpers.compose(ginv, x), g)) for x in gens), name


def test_constituent_transitive_when_group_has_full_cycle():
    """On a group containing an n-cycle, the constituent of the block
    through 0 acts transitively on its block."""
    from cycle_census.permutations import is_transitive as transitive
    cases = [catalog.cyclic_regular(12), catalog.holomorph_cyclic(9),
             catalog.sharpness_group(1), catalog.sharpness_group(2),
             catalog.wreath_imprimitive(catalog.cyclic_regular(3),
                                        catalog.cyclic_regular(3))]
    for G in cases:
        assert any(map(_is_full_cycle, _iter_raw(G)))
        for system in all_minimal_block_systems(G):
            assert transitive(block_constituent(G, system))


def test_image_times_kernel_equals_group_order_across_catalog():
    """First isomorphism theorem, checked by counting: for every minimal
    system of every catalog group of order <= 1e4, the block-action image
    order times the kernel size (by membership filtering) equals |G|."""
    checked = 0
    for name, G in catalog_instances():
        if G.order > 10 ** 4:
            continue
        for system in all_minimal_block_systems(G):
            image = block_action(G, system)
            assert image.order * block_kernel_order(G, system) == G.order, name
            checked += 1
    assert checked > 100
