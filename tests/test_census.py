import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from cycle_census import catalog, census, permutations
from cycle_census.blocks import (all_minimal_block_systems, block_action,
                                 block_constituent)
from cycle_census.census import (CensusReport, are_conjugate_n_cycles,
                                 count_n_cycles, cyclic_transitive_count,
                                 euler_phi, extremal_structure_check,
                                 n_cycle_classes, normalizer_order_of_cycle,
                                 theorem_verdict, validate_report)
from cycle_census.permutations import (DEFAULT_ELEMENT_CAP, CapExceeded,
                                       NotTransitiveError, Permutation,
                                       _is_full_cycle, _suborbits, contains,
                                       group_from_generators, is_transitive,
                                       parse_permutation, random_element)

from helpers import (_iter_raw, catalog_instances, collect_n_cycles, compose,
                     conjugacy_orbits, conjugate_by_enumeration, cycle_type,
                     inverse, m23_slice, naive_closure,
                     normalizer_order_by_relabeling, random_subgroups,
                     seeded_pairs, wreath_n_cycle_count)


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
        cycles = [Permutation(t) for t in collect_n_cycles(G)]
        for tau in cycles[::17]:
            hits = [r for r in reps if are_conjugate_n_cycles(G, r, tau)]
            assert len(hits) == 1

    def test_orbit_partition_agrees_with_coset_trick(self, sharp1):
        """Cross-check the two conjugacy routes on a full n-cycle set."""
        cycles = [Permutation(t) for t in collect_n_cycles(sharp1)]
        _, reps = n_cycle_classes(sharp1)
        for tau in cycles:
            assert sum(are_conjugate_n_cycles(sharp1, r, tau) for r in reps) == 1


class TestConjugacyOutsideTheGroup:
    """are_conjugate_n_cycles with sigma outside G: the relabelings carrying
    sigma to tau, the coset <sigma> x0, may meet G in some of their n
    elements only, so each candidate sigma^k * x0 is tested.  Checked
    against trying every element of G, for 211 random n-cycles sigma
    outside the 120 catalog instances of order at most 2000, each paired
    with one G-conjugate and one random n-cycle: 223 of the 422 pairs are
    conjugate."""

    @staticmethod
    def _n_cycle(rng, n):
        points = rng.sample(range(n), n)
        images = [0] * n
        for i, x in enumerate(points):
            images[x] = points[(i + 1) % n]
        return tuple(images)

    def test_against_every_element(self):
        rng = random.Random(3511)
        checked, conjugate = 0, 0
        for name, G in catalog_instances():
            if G.order > 2000:
                continue
            elements = list(_iter_raw(G))
            for _ in range(2):
                sigma = self._n_cycle(rng, G.degree)
                if contains(G, Permutation(sigma)):
                    continue
                g = rng.choice(elements)
                for tau in (compose(compose(inverse(g), sigma), g),
                            self._n_cycle(rng, G.degree)):
                    want = conjugate_by_enumeration(G, sigma, tau)
                    assert are_conjugate_n_cycles(
                        G, Permutation(sigma), Permutation(tau)) == want, name
                    checked += 1
                    conjugate += want
        assert (checked, conjugate) == (422, 223)


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
        sixes = [Permutation(t) for t in collect_n_cycles(sharp1)]
        assert len(sixes) == 12
        assert any(normalizer_order_of_cycle(sharp1, s) == 12 for s in sixes)

    def test_divisibility_constraints(self, m11):
        eleven = Permutation(next(filter(_is_full_cycle, _iter_raw(m11))))
        order = normalizer_order_of_cycle(m11, eleven)
        n = 11
        assert order % n == 0 and (n * euler_phi(n)) % order == 0

    @staticmethod
    def _mismatches(G):
        """Class representatives whose normalizer order differs from the
        relabeling search, with both orders."""
        _, reps = n_cycle_classes(G)
        orders = [(normalizer_order_of_cycle(G, r),
                   normalizer_order_by_relabeling(G, r.images)) for r in reps]
        return len(reps), [(r, o) for r, o in zip(reps, orders) if o[0] != o[1]]

    def test_catalog_class_representatives_match_relabeling(self):
        checked = 0
        for name, G in catalog_instances():
            if G.order <= 200_000:
                count, mismatches = self._mismatches(G)
                assert not mismatches, name
                checked += count
        assert checked == 474

    def test_random_subgroups_match_relabeling(self):
        for H in random_subgroups(40):
            assert not self._mismatches(H)[1], H.generators

    def test_degree_one(self):
        G = catalog.cyclic_regular(1)
        assert normalizer_order_of_cycle(G, Permutation.identity(1)) == 1

    def test_rejects_non_cycle(self, pgl32):
        with pytest.raises(ValueError):
            normalizer_order_of_cycle(pgl32, Permutation.identity(7))

    def test_rejects_outsider(self):
        C7 = catalog.cyclic_regular(7)
        outsider = parse_permutation("(1,3,2,4,5,6,7)", 7)
        if not contains(C7, outsider):
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

    def test_a_passing_tower_means_solvable(self, monkeypatch):
        """The census reads solvability off a passing tower and runs the
        derived series only when the tower fails.  Check the derived series
        agrees on every equality group the sweep censuses at cap 2 * 10^7
        (its random phase included) and on seeded random subgroups."""
        from cycle_census.blocks import derived_series
        groups = []
        sweep_row = census._sweep_row

        def recording(name, group, *rest):
            groups.append((name, group))
            return sweep_row(name, group, *rest)
        monkeypatch.setattr(census, "_sweep_row", recording)
        census.run_sweep(instance_cap=2 * 10 ** 7)
        for k, (parent, g1, g2) in enumerate(seeded_pairs()):
            H = group_from_generators(parent.degree, [g1, g2])
            if H.order <= 10 ** 5 and is_transitive(H):
                groups.append((f"seeded{k}", H))
        passed = 0
        for name, G in groups:
            report = theorem_verdict(G, 2 * 10 ** 7)
            if not report.equality:
                continue
            assert report.solvable == derived_series(G)[1], name
            passed += report.tower is not None
        assert passed == 98

    def test_a_failing_tower_leaves_solvability_to_the_derived_series(
            self, monkeypatch, sharp1):
        """No equality group above fails its tower, so make one fail."""
        monkeypatch.setattr(census, "_structure_tower", lambda G: None)
        report = theorem_verdict(sharp1)
        assert (report.solvable, report.structure_verdict, report.tower) == (
            True, "fail", None)
        monkeypatch.setattr(census, "derived_series",
                            lambda G: ((G.order, G.order), False))
        report, violations = census._verdict_full(sharp1, DEFAULT_ELEMENT_CAP)
        assert report.solvable is False
        assert violations == ["bound attained by a non-solvable group"]


class TestStructureTowerRejections:
    """_structure_tower's four ways to refuse a step, each on the catalog
    instance that takes it.  Calls to block_constituent and block_action
    are recorded, so each test also shows how far the search got."""

    @staticmethod
    def _tower(monkeypatch, name):
        calls = []
        for fn in ("block_constituent", "block_action"):
            def recording(G, system, fn=fn, real=getattr(census, fn)):
                image = real(G, system)
                calls.append((fn, system.s, image.degree, image.order))
                return image
            monkeypatch.setattr(census, fn, recording)
        return census._structure_tower(dict(catalog_instances())[name]), calls

    def test_primitive_of_non_prime_degree(self, monkeypatch):
        """S4 has no block system, and its degree 4 is not prime."""
        assert self._tower(monkeypatch, "s4") == (None, [])

    def test_minimal_blocks_of_non_prime_size(self, monkeypatch):
        """S4 wr C2's one minimal system has blocks of 4 points."""
        G = dict(catalog_instances())["s4_wr_c2"]
        assert [system.s for system in all_minimal_block_systems(G)] == [4]
        assert self._tower(monkeypatch, "s4_wr_c2") == (None, [])

    def test_constituent_order_not_dividing_p_times_p_minus_1(self, monkeypatch):
        """S5 wr C2: the blocks have 5 points, but |S5| = 120 does not
        divide 5 * 4."""
        assert self._tower(monkeypatch, "s5_wr_c2") == (
            None, [("block_constituent", 5, 5, 120)])

    def test_failing_block_action_backtracks(self, monkeypatch):
        """C2 wr S4: the C2 constituent passes, but the S4 acting on the
        four blocks is primitive of degree 4, so the search gives up."""
        assert self._tower(monkeypatch, "c2_wr_s4") == (
            None, [("block_constituent", 2, 2, 2), ("block_action", 2, 4, 24)])

    def test_count_of_rejected_catalog_instances(self):
        groups = [G for _, G in catalog_instances() if G.order <= 2 * 10 ** 7]
        assert len(groups) == 210
        assert sum(census._structure_tower(G) is None for G in groups) == 78


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
        cycles = [Permutation(t) for t in collect_n_cycles(G)]
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

    def test_roundtrip_every_sweep_report(self):
        reports = [r.report for r in census.run_sweep(instance_cap=5000,
                                                      subgroup_count=5)
                   if r.report is not None]
        assert len(reports) > 100
        for report in reports:
            blob = json.dumps(report.to_json_dict())
            assert CensusReport.from_json_dict(json.loads(blob)) == report

    def test_extra_keys_ignored_missing_field_refused(self, sharp1):
        d = theorem_verdict(sharp1).to_json_dict()
        assert list(d) == [f.name for f in dataclasses.fields(CensusReport)]
        named = {"name": "sharpness(1)", **d}
        assert CensusReport.from_json_dict(named) == theorem_verdict(sharp1)
        del d["tower"]
        with pytest.raises(KeyError, match="tower"):
            CensusReport.from_json_dict(d)


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

        def recording(degree, gens, **kwargs):
            orbit_counts.append(len(_orbits(degree, [g.images for g in gens])))
            return original(degree, gens, **kwargs)
        monkeypatch.setattr(census, "group_from_generators", recording)
        census.run_sweep(**self.KWARGS)
        assert orbit_counts and set(orbit_counts) == {1}

    def test_rows_match_building_every_pair(self):
        rows = census.run_sweep(**self.KWARGS)
        instances = catalog_instances()
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


class TestSweepReusesEqualGroups:
    """A random subgroup equal to a group the sweep censused before takes
    that group's report instead of a census of its own."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        verdict_full = census._verdict_full

        def counting(G, cap):
            calls.append(G)
            return verdict_full(G, cap)
        monkeypatch.setattr(census, "_verdict_full", counting)
        return calls, verdict_full

    @pytest.mark.parametrize("seed, censuses", [
        (1, 251), (2, 258), (3, 257), (20240809, 251)])
    def test_every_row_is_its_own_groups_census(self, monkeypatch, seed,
                                                 censuses):
        calls, verdict_full = self._counting(monkeypatch)
        groups = {}
        sweep_row = census._sweep_row

        def recording(name, group, *rest):
            groups[name] = group
            return sweep_row(name, group, *rest)
        monkeypatch.setattr(census, "_sweep_row", recording)
        rows = census.run_sweep(instance_cap=200_000, subgroup_count=200,
                                subgroup_order_cap=100_000, seed=seed)
        assert len(calls) == censuses
        censused = [r for r in rows if r.status != "skipped"]
        assert len(censused) == len(groups) == 379
        for row in censused:
            report, violations = verdict_full(groups[row.name], 200_000)
            assert (row.report, row.detail) == (
                report, "; ".join(violations)), row.name

    def test_same_order_different_group_is_censused(self, monkeypatch):
        calls, _ = self._counting(monkeypatch)
        c4 = group_from_generators(4, [parse_permutation("(1,2,3,4)", 4)])
        v4 = group_from_generators(4, [parse_permutation("(1,2)(3,4)", 4),
                                       parse_permutation("(1,3)(2,4)", 4)])
        c4_again = group_from_generators(4, [parse_permutation("(1,4,3,2)", 4)])
        for first, second in ((c4, v4), (v4, c4)):
            memo = {}
            rows = [census._sweep_row(name, G, 100, memo, reuse=True)
                    for name, G in (("a", first), ("b", second))]
            assert [r.report.n_cycle_count for r in rows] == [
                count_n_cycles(first), count_n_cycles(second)]
        assert sorted(count_n_cycles(G) for G in (c4, v4)) == [0, 2]
        assert len(calls) == 4
        again = census._sweep_row("c", c4_again, 100, memo, reuse=True)
        assert len(calls) == 4 and again.report == rows[1].report   # c4's
        census._sweep_row("d", c4_again, 100, memo)   # a catalog row
        assert len(calls) == 5


class TestSuborbitCensusAgainstEnumeration:
    """The census counts one coset slice per G_0-orbit; the oracle enumerates
    all of G and partitions the n-cycles by breadth-first conjugation.  The
    count is also taken with the slice kernel's block budget at 64 cells,
    where most blocks hold a single prefix, and where every group of order
    above 64 takes the deep rules: a full wreath product of a minimal
    system is counted from its factors (79 of the 132 catalog instances of
    order 65 to 2*10^5), and any other group counts the suborbit of
    base[1] at depth 2, one coset of G_{0,b} per G_{0,b}-orbit, and every
    other suborbit on its slice (the other 53); a group of order at most 64
    takes depth 1 throughout."""

    @staticmethod
    def _mismatch(G):
        cycles = collect_n_cycles(G)
        classes = conjugacy_orbits(G, cycles)
        class_size = G.order // G.degree
        if any(size != class_size for _, size in classes):
            return f"a class size differs from |G|/n = {class_size}"
        count, phi = len(cycles), euler_phi(G.degree)
        class_count, reps = n_cycle_classes(G)
        report = theorem_verdict(G)
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
        for name, G in catalog_instances():
            if G.order > 200_000:
                continue
            checked += 1
            assert self._mismatch(G) is None, name
        assert checked == 179

    def test_both_deep_rules_run_at_64_cells(self):
        mid = [G for _, G in catalog_instances() if 64 < G.order <= 200_000]
        full = [G for G in mid if any(
            block_constituent(G, s).order ** s.r * block_action(G, s).order
            == G.order for s in all_minimal_block_systems(G))]
        assert (len(mid), len(full)) == (132, 79)

    def test_random_subgroups(self):
        for H in random_subgroups(40):
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


def _rows_digest(rows):
    """sha256 of every sweep row: name, degree, order, status, detail and
    the report as JSON, one line per row in sweep order."""
    lines = [json.dumps([r.name, r.degree, r.order, r.status, r.detail,
                         r.report.to_json_dict() if r.report else None])
             for r in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSecondLevelCosets:
    """The depth-2 count of the suborbit of b = base[1], taken whatever the
    group's size, against the n-cycles of its depth-1 slice _iter_raw(G, [b])
    weighted by |O_b|, on the catalog instances of order <= 2*10^5, the
    random subgroups and M23.  A census of more than _SLICE_CELLS elements
    that is not a full wreath product counts that suborbit so, on G's own
    chain, and every other suborbit on its slice.  Groups with no base[1]
    (regular groups and degree 1) have no depth 2."""

    @staticmethod
    def _check(G, slice_=None):
        """slice_, when given, is the n-cycle count of _iter_raw(G, [b])."""
        b = G.base[1]
        deep = census._weighted_count(G, census._second_level_cosets(G), 2)
        if slice_ is None:
            slice_ = sum(map(_is_full_cycle, _iter_raw(G, [b])))
        return deep == len(G.transversals[1]) * slice_

    def test_catalog_instances(self):
        groups = [(name, G) for name, G in catalog_instances()
                  if G.order <= 200_000 and len(G.base) > 1]
        assert len(groups) == 155   # of 179
        assert [name for name, G in groups if not self._check(G)] == []

    def test_random_subgroups(self):
        groups = [H for H in random_subgroups(40) if len(H.base) > 1]
        assert len(groups) == 31
        assert [H.generators for H in groups if not self._check(H)] == []

    def test_m23(self):
        """G_{0,1} is M21, transitive on the 21 points other than 0 and 1:
        one coset of |M21| = 20 160 elements."""
        G = catalog.load_named("m23")
        assert [w for _, w in census._second_level_cosets(G)] == [22 * 21]
        assert G.base[1] == 1   # m23_slice() is _iter_raw(G, [1])
        assert self._check(G, int(m23_slice()[1].sum()))

    def test_m23_census_builds_no_chain(self, monkeypatch):
        """M23 is primitive, so its census looks for a full wreath product
        in vain, then counts its one suborbit, base[1]'s, on its own chain:
        no chain is built."""
        G = catalog.load_named("m23")
        assert _suborbits(G) == [(1, 22)]
        builds = []
        original = permutations._build_chain

        def recording(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(permutations, "_build_chain", recording)
        assert theorem_verdict(G).n_cycle_count == 887_040
        assert builds == []

    def test_m23_census_lists_one_coset(self, monkeypatch):
        rows = []
        original = census._full_cycle_mask

        def counting(block):
            rows.append(len(block))
            return original(block)
        monkeypatch.setattr(census, "_full_cycle_mask", counting)
        assert theorem_verdict(catalog.load_named("m23")).n_cycle_count == 887_040
        assert sum(rows) == 20_160


class TestWreathIdentity:
    """Above _SLICE_CELLS elements, a group with a minimal block system of
    r blocks whose constituent K and block action H have |K|^r |H| = |G|
    is the full wreath product K wr H, counted as #r-cycles(H) |K|^(r-1)
    #s-cycles(K) from two more censuses; any other group keeps the slice
    kernel."""

    @staticmethod
    def _record(monkeypatch):
        """Lists filled by the census from now on: (degree, order) of every
        group count_n_cycles is called on, and the length of every block
        of rows the kernel tests for n-cycles."""
        calls, rows = [], []
        count, mask = census.count_n_cycles, census._full_cycle_mask

        def counting(H, cap=DEFAULT_ELEMENT_CAP):
            calls.append((H.degree, H.order))
            return count(H, cap)

        def listing(block):
            rows.append(len(block))
            return mask(block)
        monkeypatch.setattr(census, "count_n_cycles", counting)
        monkeypatch.setattr(census, "_full_cycle_mask", listing)
        return calls, rows

    def test_a_full_wreath_product_is_counted_from_its_factors(
            self, monkeypatch):
        """a4_wr_hol4 (order 165 888, three suborbits) is counted from hol4
        on its 4 blocks and A4 on the block of 0, in 7 rows.  Without its
        block systems the kernel lists 27 648 rows, base[1]'s suborbit at
        depth 2 and the other two on their slices."""
        G = dict(catalog_instances())["a4_wr_hol4"]
        want = wreath_n_cycle_count(catalog.alternating(4),
                                    catalog.holomorph_cyclic(4))
        calls, rows = self._record(monkeypatch)
        assert census.count_n_cycles(G) == want
        assert calls == [(16, 165_888), (4, 8), (4, 12)]
        assert sum(rows) == 7
        calls.clear()
        rows.clear()
        monkeypatch.setattr(census, "all_minimal_block_systems",
                            lambda H: ())
        assert census.count_n_cycles(G) == want
        assert calls == [(16, 165_888)]
        assert sum(rows) == 27_648

    @staticmethod
    def _sign(t):
        return (-1) ** (len(t) - len(cycle_type(t)))

    def test_an_index_2_subgroup_of_a_wreath_product_is_refused(
            self, monkeypatch):
        """The kernel of sgn(block permutation) * sgn(g) on S4 wr S4, from
        the Schreier generators of the transversal {1, t}, t an odd
        generator: its constituent and block action are S4 as in the whole
        wreath product, so their orders multiply to twice its order and
        the identity is refused.  Every 16-cycle has a 4-cycle on the
        blocks, both odd, so it lies in the kernel: the count is the
        wreath product's."""
        W = catalog.wreath_imprimitive(catalog.symmetric(4),
                                       catalog.symmetric(4))

        def chi(g):   # point x lies in block x // 4
            blocks = tuple(g[4 * j] // 4 for j in range(4))
            return self._sign(blocks) * self._sign(g)
        gens = W.raw_generators()
        t = next(g for g in gens if chi(g) == -1)
        t_inv = inverse(t)
        schreier = [h for g in gens
                    for h in ((g, compose(compose(t, g), t_inv))
                              if chi(g) == 1 else
                              (compose(g, t_inv), compose(t, g)))]
        G = group_from_generators(16, [Permutation(h) for h in schreier])
        assert G.order == 3_981_312 == W.order // 2
        assert _suborbits(G) == [(1, 3), (4, 12)]
        systems = all_minimal_block_systems(G)
        assert systems
        for system in systems:
            K = block_constituent(G, system)
            H = block_action(G, system)
            assert K.order ** system.r * H.order == 2 * G.order
        calls, _ = self._record(monkeypatch)
        assert census.count_n_cycles(G) == 497_664 == wreath_n_cycle_count(
            catalog.symmetric(4), catalog.symmetric(4))
        assert calls == [(16, 3_981_312)]


class TestSweepRowsArePinned:
    """Every row of run_sweep() at its defaults, random rows included.  The
    digest was taken before the chain builder skipped Schreier generators
    it had sifted, before normal closures kept their generators
    irredundant and before the count read one block stream per census;
    none of these may change a row."""

    def test_rows_at_the_defaults(self):
        rows = census.run_sweep()
        assert len(rows) == 421
        assert _rows_digest(rows) == (
            "65f3b83fdad5ffcb15116daa5c9476f584426bf4d9a0cd03eb3acfa8dd9ebfbc")


class TestSweepAtTheCensusCap:
    """verify's default instance cap is the census cap, 2*10^7.  The sweep
    then censuses 210 of the 221 catalog instances; the 31 above the old
    default of 2*10^5 are all imprimitive wreath products, and every wreath
    row is checked against the closed form, which enumerates no wreath
    product."""

    @pytest.fixture(scope="class")
    def rows(self):
        return census.run_sweep(instance_cap=DEFAULT_ELEMENT_CAP,
                                subgroup_count=0)

    def test_coverage(self, rows):
        censused = [r for r in rows if r.status == "ok"]
        assert len(censused) == 210
        assert [r for r in rows if r.status == "violation"] == []
        wider = [r.name for r in censused if r.order > 200_000]
        assert len(wider) == 31
        assert all("_wr_" in name for name in wider)

    def test_wreath_rows_match_the_closed_form(self, rows):
        wreaths = [r for r in rows if "_wr_" in r.name and r.status == "ok"]
        factors = {code: catalog.family_instance(code)
                   for r in wreaths for code in r.name.split("_wr_")}
        counts = {}
        for r in wreaths:
            inner, outer = r.name.split("_wr_")
            counts[r.name] = wreath_n_cycle_count(factors[inner],
                                                  factors[outer])
            assert r.report.n_cycle_count == counts[r.name], r.name
        assert len(counts) == 137   # of 148; the 11 skipped rows are wreaths too
        assert counts["c2_wr_s8"] == 645_120
        assert counts["s5_wr_c3"] == 691_200

    def test_rows_are_pinned(self, rows):
        """Pinned as TestSweepRowsArePinned pins the default sweep."""
        assert len(rows) == 221
        assert _rows_digest(rows) == (
            "0ef5941716660c0b38c81536d259f25259c0605bc47ed6c3f1f28780c6617308")


class TestRandomSubgroupInvariants:
    def test_class_bound_on_random_subgroups(self):
        """Random 2-generator transitive subgroups never break the bound."""
        checked = 0
        for parent, g1, g2 in seeded_pairs():
            H = group_from_generators(parent.degree, [g1, g2])
            if H.order > 10 ** 5 or not is_transitive(H):
                continue
            checked += 1
            report = theorem_verdict(H)
            assert validate_report(report) == []
            assert report.class_count <= report.phi_n
            if checked == 25:
                break
        assert checked == 25


class TestConstituentChoice:
    """The tower checker grades sub-block groups through the setwise
    stabilizer; the block kernel induces a subgroup of that.  Verify
    empirically that swapping in the kernel constituent never changes a
    tower verdict on the small equality groups of the catalog."""

    @staticmethod
    def _kernel_constituent(G, system):
        block_of = system.block_index()
        block = system.blocks[block_of[0]]
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
        from cycle_census.permutations import _is_full_cycle

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
                H_sub = constituent_fn(H, system)
                if (s * (s - 1)) % H_sub.order != 0 or not has_cycle(H_sub):
                    continue
                rest = rec(block_action(H, system))
                if rest is not None:
                    return [s] + rest
            return None

        return rec(G)

    def test_kernel_vs_stabilizer_constituent_same_verdict(self):
        from cycle_census.blocks import block_constituent
        checked = 0
        for name, G in catalog_instances():
            if G.order > 4000:
                continue
            report = theorem_verdict(G)
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
        for name, G in catalog_instances():
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


class TestCensusUnderRelabelling:
    """The census is a class function of G in S_n: conjugating G by any
    relabelling x changes no report field, no class count and no
    normalizer order.  The relabelled group's chain, and every bytes
    product the census takes of it, differ from G's, so a composition in
    the wrong order, a prefix built wrongly or a membership sift that
    misses shows up here as a changed report.  Two seeded relabellings of
    every transitive catalog instance up to 2*10^7, M23 included, and of
    the first 40 seeded random subgroups."""

    @staticmethod
    def _relabelled(G, x):
        """x^-1 G x, generator by generator, conjugated by the oracle's
        tuple compose."""
        x_inv = inverse(x)
        return group_from_generators(G.degree, [
            Permutation(compose(compose(x_inv, g), x))
            for g in G.raw_generators()])

    @pytest.fixture(scope="class")
    def pairs(self):
        """(label, G, [two relabelled conjugates of G]) for each group."""
        groups = [(name, G) for name, G in catalog_instances()
                  if G.order <= 2 * 10 ** 7]
        groups.append(("m23", catalog.load_named("m23")))
        groups += [(f"rand{k}", H) for k, H in enumerate(random_subgroups(40))]
        rng = random.Random(3407)
        out = []
        for label, G in groups:
            conjugates = []
            for _ in range(2):
                x = list(range(G.degree))
                rng.shuffle(x)
                conjugates.append(self._relabelled(G, tuple(x)))
            out.append((label, G, conjugates))
        return out

    def test_group_count(self, pairs):
        assert len(pairs) == 251
        assert all(is_transitive(G) for _, G, _ in pairs)

    def test_verdicts_are_equal_field_by_field(self, pairs):
        for label, G, conjugates in pairs:
            want = theorem_verdict(G)
            for H in conjugates:
                assert H.order == G.order, label
                got = theorem_verdict(H)
                for field in dataclasses.fields(CensusReport):
                    assert (getattr(got, field.name)
                            == getattr(want, field.name)), (label, field.name)

    def test_classes_and_normalizer_orders_are_equal(self, pairs):
        """Up to 2*10^5, against the first relabelling (the verdicts above
        cover both).  The representatives are not compared: each is the
        lexicographic minimum of its class, which relabelling moves."""
        checked = 0
        for label, G, (H, _) in pairs:
            if G.order > 200_000:
                continue
            checked += 1
            found = []
            for K in (G, H):
                count, reps = n_cycle_classes(K)
                found.append((count, sorted(normalizer_order_of_cycle(K, r)
                                            for r in reps)))
            assert found[1] == found[0], label
        assert checked == 219
