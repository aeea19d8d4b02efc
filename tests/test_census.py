import json
import math
import random
from fractions import Fraction

import pytest

from cycle_census import catalog, census, permutations
from cycle_census.census import (CensusReport, are_conjugate_n_cycles,
                                 count_n_cycles, cyclic_transitive_count,
                                 euler_phi, extremal_structure_check,
                                 n_cycle_classes, normalizer_order_of_cycle,
                                 theorem_verdict, validate_report)
from cycle_census.permutations import (CapExceeded, NotTransitiveError,
                                       Permutation, group_from_generators,
                                       is_transitive, iterate_elements,
                                       parse_permutation, random_element)

from helpers import collect_n_cycles, conjugacy_orbits, naive_closure


class TestEulerPhi:
    def test_paper_value(self):
        assert euler_phi(9) == 6

    def test_edge(self):
        assert euler_phi(1) == 1

    def test_twelve(self):
        assert euler_phi(12) == 4

    @pytest.mark.parametrize("n", range(1, 80))
    def test_against_gcd_count(self, n):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1)


class TestCounts:
    def test_sym4(self):
        assert count_n_cycles(catalog.symmetric(4)) == 6

    def test_c6(self):
        assert count_n_cycles(catalog.cyclic_regular(6)) == 2

    def test_m11(self, m11):
        assert count_n_cycles(m11) == 1440

    def test_cap_propagates(self, m11):
        with pytest.raises(CapExceeded):
            count_n_cycles(m11, cap=1000)

    def test_rejects_intransitive(self):
        G = group_from_generators(4, [parse_permutation("(1,2)", 4)])
        with pytest.raises(NotTransitiveError):
            count_n_cycles(G)

    def test_group_without_n_cycles(self):
        klein = group_from_generators(
            4, [parse_permutation("(1,2)(3,4)", 4),
                parse_permutation("(1,3)(2,4)", 4)])
        assert count_n_cycles(klein) == 0
        report = theorem_verdict(klein)
        assert report.n_cycle_count == 0 and report.class_count == 0
        assert report.cyclic_transitive_count == 0 and not report.equality
        assert report.count_divides_order is None


class TestClasses:
    def test_sym6_single_class(self):
        cc, reps = n_cycle_classes(catalog.symmetric(6))
        assert cc == 1 and len(reps) == 1

    def test_pgammal28_three_classes(self):
        cc, reps = n_cycle_classes(catalog.pgammal(2, 8))
        assert cc == 3
        assert cc < euler_phi(9)

    def test_c3wrc3_four_classes(self, c3wrc3):
        cc, reps = n_cycle_classes(c3wrc3)
        assert cc == 4

    def test_representatives_pairwise_nonconjugate(self, c3wrc3):
        _, reps = n_cycle_classes(c3wrc3)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not are_conjugate_n_cycles(c3wrc3, a, b)

    def test_every_cycle_conjugate_to_exactly_one_rep(self):
        G = catalog.pgammal(2, 8)
        _, reps = n_cycle_classes(G)
        cycles = [p for p in iterate_elements(G, 10 ** 4) if p.is_n_cycle()]
        for tau in cycles[::17]:
            hits = [r for r in reps if are_conjugate_n_cycles(G, r, tau)]
            assert len(hits) == 1

    def test_orbit_partition_agrees_with_coset_trick(self, sharp1):
        """Cross-check the two conjugacy routes on a full n-cycle set."""
        cycles = [p for p in iterate_elements(sharp1, 100) if p.is_n_cycle()]
        _, reps = n_cycle_classes(sharp1)
        for tau in cycles:
            assert sum(are_conjugate_n_cycles(sharp1, r, tau) for r in reps) == 1


class TestSubgroupCounts:
    def test_c3wrc3(self, c3wrc3):
        assert cyclic_transitive_count(c3wrc3) == 6

    def test_sym4(self):
        assert cyclic_transitive_count(catalog.symmetric(4)) == 3

    def test_agl1_7(self):
        assert cyclic_transitive_count(catalog.holomorph_cyclic(7)) == 1

    def test_m11(self, m11):
        assert cyclic_transitive_count(m11) == 144


class TestNormalizer:
    def test_pgl32_singer(self, pgl32):
        sigma = catalog.singer_cycle(3, 2)
        assert normalizer_order_of_cycle(pgl32, sigma) == 21  # n * d

    def test_sym7_full_holomorph(self):
        S7 = catalog.symmetric(7)
        sigma = parse_permutation("(1,2,3,4,5,6,7)", 7)
        assert normalizer_order_of_cycle(S7, sigma) == 42

    def test_sharpness1_attains_full_normalizer(self, sharp1):
        sixes = [p for p in iterate_elements(sharp1, 100) if p.is_n_cycle()]
        assert len(sixes) == 12
        assert any(normalizer_order_of_cycle(sharp1, s) == 12 for s in sixes)

    def test_divisibility_constraints(self, m11):
        eleven = next(p for p in iterate_elements(m11, 10 ** 4)
                      if p.is_n_cycle())
        order = normalizer_order_of_cycle(m11, eleven)
        n = 11
        assert order % n == 0 and (n * euler_phi(n)) % order == 0

    def test_rejects_non_cycle(self, pgl32):
        with pytest.raises(ValueError):
            normalizer_order_of_cycle(pgl32, Permutation.identity(7))

    def test_rejects_outsider(self):
        C7 = catalog.cyclic_regular(7)
        outsider = parse_permutation("(1,3,2,4,5,6,7)", 7)
        if not C7.contains(outsider):
            with pytest.raises(ValueError):
                normalizer_order_of_cycle(C7, outsider)


class TestVerdicts:
    def test_sharpness1(self, sharp1):
        report = theorem_verdict(sharp1)
        assert report.equality and report.solvable
        assert report.structure_verdict == "pass"
        assert report.tower == (3, 2)
        assert report.class_count == euler_phi(6) == 2
        assert report.cyclic_transitive_count == 6
        assert report.bound == Fraction(36, 6)

    def test_sharpness2(self):
        report = theorem_verdict(catalog.sharpness_group(2))
        assert report.degree == 18 and report.order == 972
        assert report.equality and report.solvable
        assert report.structure_verdict == "pass"
        assert report.class_count == euler_phi(18) == 6

    def test_c3wrc3(self, c3wrc3):
        report = theorem_verdict(c3wrc3)
        assert report.cyclic_transitive_count == 6
        assert report.bound == 9 and not report.equality
        assert report.count_divides_order is False

    def test_m11(self, m11):
        report = theorem_verdict(m11)
        assert report.n_cycle_count == 1440
        assert report.class_count == 2
        assert report.cyclic_transitive_count == 144
        assert report.bound == Fraction(7920, 11) == 720
        assert not report.equality
        # cross-check against the class size identity
        assert 1440 == report.class_count * 7920 // 11

    def test_validate_report_clean(self, m11):
        assert validate_report(theorem_verdict(m11)) == []

    def test_validate_report_flags_faults(self):
        good = theorem_verdict(catalog.cyclic_regular(6))
        from dataclasses import replace
        assert validate_report(replace(good, class_count=99))
        assert validate_report(replace(good, n_cycle_count=3))


class TestExtremal:
    def test_sharpness1_tower(self, sharp1):
        passed, tower = extremal_structure_check(sharp1)
        assert passed and tower == (3, 2)

    def test_cyclic12_tower_is_prime_factorization(self):
        passed, tower = extremal_structure_check(catalog.cyclic_regular(12))
        assert passed and sorted(tower) == [2, 2, 3]

    def test_cyclic_prime(self):
        passed, tower = extremal_structure_check(catalog.cyclic_regular(7))
        assert passed and tower == (7,)

    def test_rejects_without_equality(self):
        with pytest.raises(ValueError):
            extremal_structure_check(catalog.symmetric(4))

    def test_tower_product_is_degree(self):
        for n in (4, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24):
            passed, tower = extremal_structure_check(catalog.cyclic_regular(n))
            assert passed
            assert math.prod(tower) == n


class TestPglSingerStructure:
    """In pgl(d,q) every n-cycle generates a conjugate of the Singer cycle,
    and the class count is phi(n)/d (from the normalizer order n*d)."""

    @pytest.mark.parametrize("d,q", [(2, 4), (2, 5), (3, 2), (2, 8)])
    def test_all_n_cycles_are_singer(self, d, q):
        G = catalog.pgl(d, q)
        n = G.degree
        sigma = catalog.singer_cycle(d, q)
        units = [k for k in range(1, n) if math.gcd(k, n) == 1]
        generator_powers = [sigma ** k for k in units]
        cycles = [p for p in iterate_elements(G, 10 ** 4) if p.is_n_cycle()]
        for tau in cycles:
            assert any(are_conjugate_n_cycles(G, s, tau)
                       for s in generator_powers)

    @pytest.mark.parametrize("d,q", [(2, 4), (2, 5), (3, 2), (2, 8)])
    def test_class_count_phi_over_d(self, d, q):
        G = catalog.pgl(d, q)
        cc, _ = n_cycle_classes(G)
        assert cc == euler_phi(G.degree) // d


class TestClassSizeIdentity:
    @pytest.mark.parametrize("maker", [
        lambda: catalog.symmetric(6),
        lambda: catalog.pgammal(2, 8),
        lambda: catalog.sharpness_group(2),
        lambda: catalog.holomorph_cyclic(16),
        lambda: catalog.wreath_imprimitive(catalog.cyclic_regular(3),
                                           catalog.cyclic_regular(3)),
    ])
    def test_each_class_has_size_order_over_n(self, maker):
        G = maker()
        report = theorem_verdict(G)
        if report.n_cycle_count:
            assert report.n_cycle_count * G.degree == \
                report.class_count * G.order


class TestDualityInstance:
    def test_no_fourteen_cycle(self):
        D = catalog.duality_extension(3, 2)
        assert count_n_cycles(D) == 0

    def test_q3_instance_also_has_no_full_cycle(self):
        D = catalog.duality_extension(3, 3)
        assert count_n_cycles(D) == 0

    def test_singer_power_conjugacy(self, pgl32):
        Y = catalog.singer_cycle(3, 2)
        conjugate = {k: are_conjugate_n_cycles(pgl32, Y, Y ** k)
                     for k in range(1, 7)}
        assert conjugate == {1: True, 2: True, 4: True,
                             3: False, 5: False, 6: False}


class TestSerialization:
    def test_roundtrip(self, m11):
        report = theorem_verdict(m11)
        blob = json.dumps(report.to_json_dict())
        assert CensusReport.from_json_dict(json.loads(blob)) == report

    def test_roundtrip_with_tower(self, sharp1):
        report = theorem_verdict(sharp1)
        blob = json.dumps(report.to_json_dict())
        assert CensusReport.from_json_dict(json.loads(blob)) == report


class TestWorkerValidation:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_sweep_and_density_refuse(self, workers):
        from cycle_census.density import density_report
        with pytest.raises(ValueError, match="at least 1"):
            density_report((1, 0, 1), bound=100, workers=workers)


class TestSweepArguments:
    """Arguments that would skip every instance, or fail the random phase
    as if the theorem were violated, are refused before any census."""

    @pytest.mark.parametrize("kwargs", [
        dict(subgroup_count=-3), dict(subgroup_count=-1),
        dict(instance_cap=0), dict(instance_cap=-1),
        dict(subgroup_order_cap=0), dict(subgroup_order_cap=-5)])
    def test_refused(self, kwargs, monkeypatch):
        def no_catalog(**_):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(catalog, "standard_instances", no_catalog)
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be at least"):
            census.run_sweep(**kwargs)

    def test_smallest_accepted(self):
        rows = census.run_sweep(instance_cap=1, subgroup_count=0,
                                subgroup_order_cap=1)
        assert {r.status for r in rows} == {"ok", "skipped"}
        assert not any(r.name.startswith("rand") for r in rows)


class TestOneIdentityCheck:
    """With a count that is off by one, every failed identity is reported
    once, by validate_report, in the verdict and in the sweep."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        original = census.count_n_cycles
        monkeypatch.setattr(census, "count_n_cycles",
                            lambda *args: original(*args) + 1)

    def test_verdict_raises(self, off_by_one):
        with pytest.raises(census.CensusInvariantError,
                           match="class count 3 exceeds phi"):
            theorem_verdict(catalog.cyclic_regular(6))

    def test_sweep_rows_name_each_identity_once(self, off_by_one):
        rows = census.run_sweep(instance_cap=50, subgroup_count=0)
        violations = [r for r in rows if r.status == "violation"]
        assert violations
        for row in violations:
            assert row.detail.split("; ") == validate_report(row.report), row.name


class TestSweepRandomPhase:
    """The random phase rejects intransitive pairs from their generators'
    orbits, before any chain is built, and keeps the same subgroups."""

    KWARGS = dict(instance_cap=1, subgroup_count=15, subgroup_order_cap=2000)

    def test_no_chain_for_an_intransitive_pair(self, monkeypatch):
        from cycle_census.permutations import _orbits
        orbit_counts = []
        original = census.group_from_generators

        def recording(degree, gens):
            orbit_counts.append(len(_orbits(degree, [g.images for g in gens])))
            return original(degree, gens)
        monkeypatch.setattr(census, "group_from_generators", recording)
        census.run_sweep(**self.KWARGS)
        assert orbit_counts and set(orbit_counts) == {1}

    def test_rows_match_building_every_pair(self):
        rows = census.run_sweep(**self.KWARGS)
        instances = catalog.standard_instances()
        rng = random.Random(20240809)
        expected = []
        while len(expected) < 15:
            parent_name, parent = instances[rng.randrange(len(instances))]
            H = group_from_generators(parent.degree,
                                      [random_element(parent, rng),
                                       random_element(parent, rng)])
            if H.order <= 2000 and is_transitive(H):
                expected.append((f"rand{len(expected) + 1:03d}<{parent_name}",
                                 H.order))
        random_rows = [r for r in rows if r.name.startswith("rand")]
        assert [(r.name, r.order) for r in random_rows] == expected
        assert all(r.status == "ok" for r in random_rows)


class TestSuborbitCensusAgainstEnumeration:
    """The census counts one coset slice per G_0-orbit; the oracle enumerates
    all of G and partitions the n-cycles by breadth-first conjugation.  The
    count is also taken with the slice kernel's block budget at 64 cells,
    where most blocks hold a single prefix."""

    @staticmethod
    def _mismatch(G):
        cycles = collect_n_cycles(G)
        classes = conjugacy_orbits(G, cycles)
        class_size = G.order // G.degree
        if any(size != class_size for _, size in classes):
            return f"a class size differs from |G|/n = {class_size}"
        count, phi = len(cycles), euler_phi(G.degree)
        class_count, reps = n_cycle_classes(G)
        report = theorem_verdict(G, with_structure=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permutations, "_SLICE_CELLS", 64)
            small_blocks = count_n_cycles(G)
        have = (report.n_cycle_count, report.class_count,
                report.cyclic_transitive_count, class_count,
                [r.images for r in reps], small_blocks)
        want = (count, len(classes), count // phi, len(classes),
                [rep for rep, _ in classes], count)
        return None if have == want else (
            f"census {have[:3]} ({small_blocks} at 64 cells) != oracle {want[:3]}")

    def test_catalog_instances(self):
        checked = 0
        for name, G in catalog.standard_instances():
            if G.order > 200_000:
                continue
            checked += 1
            assert self._mismatch(G) is None, name
        assert checked == 179

    def test_random_subgroups(self):
        rng = random.Random(20240809)
        parents = [G for _, G in catalog.standard_instances()]
        checked = 0
        while checked < 40:
            parent = parents[rng.randrange(len(parents))]
            H = group_from_generators(
                parent.degree,
                [random_element(parent, rng), random_element(parent, rng)])
            if H.order > 10 ** 5 or not is_transitive(H):
                continue
            checked += 1
            assert self._mismatch(H) is None, H.generators

    def test_degree_one(self):
        """G_0 has no orbit on points other than 0; the identity is the
        single 1-cycle."""
        G = catalog.cyclic_regular(1)
        assert self._mismatch(G) is None
        assert n_cycle_classes(G) == (1, (Permutation.identity(1),))

    def test_m23(self):
        report = theorem_verdict(catalog.load_named("m23"))
        assert report.n_cycle_count == 887_040
        assert report.class_count == 2
        assert report.cyclic_transitive_count == 40_320
        assert report.bound == 443_520 and not report.equality


class TestRandomSubgroupInvariants:
    def test_class_bound_on_random_subgroups(self):
        """Random 2-generator transitive subgroups never break the bound."""
        rng = random.Random(99)
        parents = [catalog.symmetric(8), catalog.pgammal(2, 8),
                   catalog.wreath_imprimitive(catalog.symmetric(3),
                                              catalog.symmetric(4))]
        from cycle_census.permutations import random_element, is_transitive
        checked = 0
        while checked < 25:
            parent = parents[rng.randrange(len(parents))]
            H = group_from_generators(
                parent.degree,
                [random_element(parent, rng), random_element(parent, rng)])
            if H.order > 10 ** 5 or not is_transitive(H):
                continue
            checked += 1
            report = theorem_verdict(H)
            assert validate_report(report) == []
            assert report.class_count <= report.phi_n


class TestConstituentChoice:
    """The tower checker grades sub-block groups through the setwise
    stabilizer; the block kernel induces a subgroup of that.  Verify
    empirically that swapping in the kernel constituent never changes a
    tower verdict on the small equality groups of the catalog."""

    @staticmethod
    def _kernel_constituent(G, system, idx):
        from cycle_census.permutations import _iter_raw, Permutation
        block_of = system.block_index()
        block = system.blocks[idx]
        position = {x: i for i, x in enumerate(block)}
        projections = set()
        for t in _iter_raw(G):
            if all(block_of[t[x]] == block_of[x] for x in range(G.degree)):
                projections.add(tuple(position[t[x]] for x in block))
        return group_from_generators(
            len(block), [Permutation(t) for t in sorted(projections)])

    @staticmethod
    def _tower(G, constituent_fn, has_cycle=None):
        from cycle_census.blocks import all_minimal_block_systems, block_action
        from cycle_census.ntheory import is_prime
        from cycle_census.permutations import _iter_raw, _is_full_cycle

        if has_cycle is None:
            def has_cycle(H):
                return any(_is_full_cycle(t) for t in _iter_raw(H))

        def rec(H):
            m = H.degree
            if m == 1:
                return []
            systems = all_minimal_block_systems(H)
            if not systems:
                if is_prime(m) and (m * (m - 1)) % H.order == 0 and has_cycle(H):
                    return [m]
                return None
            for system in systems:
                s = system.s
                if not is_prime(s):
                    continue
                H_sub = constituent_fn(H, system, 0)
                if (s * (s - 1)) % H_sub.order != 0 or not has_cycle(H_sub):
                    continue
                rest = rec(block_action(H, system)[0])
                if rest is not None:
                    return [s] + rest
            return None

        return rec(G)

    def test_kernel_vs_stabilizer_constituent_same_verdict(self):
        from cycle_census.blocks import block_constituent
        checked = 0
        for name, G in catalog.standard_instances():
            if G.order > 4000:
                continue
            report = theorem_verdict(G, with_structure=False)
            if not report.equality:
                continue
            checked += 1
            with_stab = self._tower(G, block_constituent)
            with_kernel = self._tower(G, self._kernel_constituent)
            assert (with_stab is None) == (with_kernel is None), name
        assert checked >= 25

    def test_every_prime_step_contains_a_p_cycle(self):
        """The library tower search does not look for the p-cycle of a prime
        step: the step's group is transitive of prime degree p, so p divides
        its order and it holds an element of order p, a p-cycle.  Check that
        by naive closure at every step the search grades, and that the
        towers equal those of the search that still looks."""
        from cycle_census.blocks import block_constituent, derived_series
        steps = []

        def has_cycle(H):
            found = any(Permutation(t).is_n_cycle()
                        for t in naive_closure(H.degree, H.raw_generators()))
            steps.append(found)
            return found

        checked = 0
        for name, G in catalog.standard_instances():
            if G.order > 200_000:
                continue
            report = theorem_verdict(G)
            if not report.equality:
                continue
            checked += 1
            searched = self._tower(G, block_constituent, has_cycle)
            tower = tuple(searched) if searched is not None else None
            assert report.tower == tower, name
            solvable = derived_series(G)[1]
            assert extremal_structure_check(G) == (
                tower is not None and solvable, tower), name
        assert checked == 38 and len(steps) >= checked and all(steps)
