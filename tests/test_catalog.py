import random

import pytest

from cycle_census import catalog
from cycle_census.catalog import (GroupSpecError, cyclic_regular,
                                  duality_extension, family_instance,
                                  holomorph_cyclic, load_group_spec,
                                  parse_group_spec, pgammal, pgl, pgl_order,
                                  sharpness_group, singer_cycle,
                                  wreath_imprimitive, write_group_spec)
from cycle_census.census import normalizer_order_of_cycle
from cycle_census.gf import MAX_Q, make_field
from cycle_census.ntheory import euler_phi, prime_power
from cycle_census.permutations import (contains, is_transitive,
                                       iterate_elements, parse_permutation)

from helpers import naive_closure

PGL_CASES = [(2, 4), (2, 5), (2, 7), (2, 8), (3, 2), (3, 3)]


class TestCyclicRegular:
    def test_basic(self):
        C6 = cyclic_regular(6)
        assert C6.order == 6 and is_transitive(C6)

    def test_trivial(self):
        assert cyclic_regular(1).order == 1

    def test_nine_cycles(self):
        C9 = cyclic_regular(9)
        nine_cycles = [p for p in iterate_elements(C9, 100) if p.is_n_cycle()]
        assert len(nine_cycles) == euler_phi(9) == 6


class TestHolomorph:
    def test_agl1_7(self):
        G = holomorph_cyclic(7)
        assert G.order == 42
        assert len(naive_closure(7, [g.images for g in G.generators])) == 42

    def test_m2(self):
        assert holomorph_cyclic(2).order == 2

    def test_m9(self):
        G = holomorph_cyclic(9)
        assert G.order == 54
        assert len(naive_closure(9, [g.images for g in G.generators])) == 54

    @pytest.mark.parametrize("m", range(2, 28))
    def test_order_formula(self, m):
        assert holomorph_cyclic(m).order == m * euler_phi(m)


class TestSymAlt:
    def test_orders(self):
        assert catalog.symmetric(4).order == 24
        assert catalog.alternating(5).order == 60

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sym_order(self, n):
        import math
        assert catalog.symmetric(n).order == math.factorial(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_alt_order(self, n):
        import math
        assert catalog.alternating(n).order == math.factorial(n) // 2

    def test_alt7_contains_seven_cycle(self):
        assert contains(catalog.alternating(7),
                        parse_permutation("(1,2,3,4,5,6,7)", 7))


class TestWreath:
    def test_c3_wr_c3(self, c3wrc3):
        assert c3wrc3.degree == 9 and c3wrc3.order == 81

    def test_s2_wr_s2_dihedral(self):
        W = wreath_imprimitive(catalog.symmetric(2), catalog.symmetric(2))
        assert W.degree == 4 and W.order == 8

    def test_order_formula_random_smalls(self):
        rng = random.Random(5)
        pool = [catalog.cyclic_regular(2), catalog.cyclic_regular(3),
                catalog.symmetric(3), catalog.holomorph_cyclic(4),
                catalog.alternating(4), catalog.symmetric(4)]
        for _ in range(12):
            A, B = rng.choice(pool), rng.choice(pool)
            W = wreath_imprimitive(A, B)
            assert W.order == A.order ** B.degree * B.order
            assert W.degree == A.degree * B.degree

    def test_point_numbering(self):
        # generator of the outer group must send point i of block j to
        # point i of block b(j)
        A = catalog.cyclic_regular(3)
        B = catalog.cyclic_regular(2)
        W = wreath_imprimitive(A, B)
        swap = next(g for g in W.generators
                    if g.images[0] == 3)
        assert swap.images == (3, 4, 5, 0, 1, 2)


class TestPGL:
    @pytest.mark.parametrize("d,q", PGL_CASES)
    def test_order_formula(self, d, q):
        G = pgl(d, q)
        assert G.degree == (q ** d - 1) // (q - 1)
        assert G.order == pgl_order(d, q)

    def test_known_orders(self):
        assert pgl(3, 2).order == 168
        assert pgl(2, 5).order == 120
        assert pgl(2, 8).order == 504

    def test_small_closure(self):
        G = pgl(3, 2)
        assert len(naive_closure(7, [g.images for g in G.generators])) == 168

    @pytest.mark.parametrize("d,q", PGL_CASES)
    def test_pgammal_index(self, d, q):
        _, e = prime_power(q)
        assert pgammal(d, q).order == pgl(d, q).order * e

    def test_pgammal_prime_field_equals_pgl(self):
        G, PG = pgl(2, 5), pgammal(2, 5)
        assert G.order == PG.order
        assert all(contains(PG, g) for g in G.generators)
        assert all(contains(G, g) for g in PG.generators)

    def test_transitive(self):
        for d, q in PGL_CASES:
            assert is_transitive(pgl(d, q))


def _is_prime_power(q):
    try:
        prime_power(q)
    except ValueError:
        return False
    return True


# Every PGL_d(q) the library supports: q <= MAX_Q and degree <= MAX_DEGREE.
ADMISSIBLE_PGL = [(d, q) for q in range(2, MAX_Q + 1) if _is_prime_power(q)
                  for d in range(2, 7)
                  if (q ** d - 1) // (q - 1) <= catalog.MAX_DEGREE]


class TestSinger:
    def test_admissible_cases(self):
        assert len(ADMISSIBLE_PGL) == 35
        assert set(PGL_CASES) < set(ADMISSIBLE_PGL)

    @pytest.mark.parametrize("d,q", ADMISSIBLE_PGL)
    def test_singer_is_n_cycle_in_pgl(self, d, q):
        s = singer_cycle(d, q)
        G = pgl(d, q)
        assert s.is_n_cycle()
        assert contains(G, s)
        # the normalizer of a Singer cycle in PGL_d(q) has order n * d
        assert normalizer_order_of_cycle(G, s) == G.degree * d

    def test_singer_32_is_seven_cycle(self):
        assert singer_cycle(3, 2).cycle_type() == (7,)

    def test_singer_32_images_are_pinned(self):
        # multiplication by x in GF(2)[x]/(x^3 + x^2 + 1)
        assert singer_cycle(3, 2).images == (4, 0, 3, 1, 6, 2, 5)

    @pytest.mark.parametrize("d,q", [(2, 4), (3, 4), (6, 2), (2, 49)])
    def test_builds_only_the_base_field(self, d, q, monkeypatch):
        built = []

        def recording(p, e):
            built.append(p ** e)
            return make_field(p, e)
        monkeypatch.setattr(catalog, "make_field", recording)
        singer_cycle(d, q)
        assert built and set(built) == {q}

    @pytest.mark.parametrize("d,q", [(2, 64), (4, 4), (7, 2), (2, 6), (1, 5)])
    def test_inadmissible_parameters_refused(self, d, q):
        with pytest.raises(ValueError):
            singer_cycle(d, q)

    def test_singer_24_is_five_cycle(self):
        assert singer_cycle(2, 4).cycle_type() == (5,)


class TestDuality:
    def test_degree_and_order(self):
        D = duality_extension(3, 2)
        assert D.degree == 14 and D.order == 336
        assert len(naive_closure(14, [g.images for g in D.generators])) == 336

    def test_transitive(self):
        assert is_transitive(duality_extension(3, 2))

    def test_q3(self):
        D = duality_extension(3, 3)
        assert D.degree == 26
        assert D.order == 2 * pgl_order(3, 3)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            duality_extension(2, 2)
        with pytest.raises(ValueError):
            duality_extension(3, 4)


class TestSharpness:
    def test_k1(self, sharp1):
        assert sharp1.degree == 6 and sharp1.order == 36
        assert len(naive_closure(6, [g.images for g in sharp1.generators])) == 36

    def test_k2(self):
        G = sharpness_group(2)
        assert G.degree == 18 and G.order == 972

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_order_formula(self, k):
        m = 3 ** k
        assert sharpness_group(k).order == 2 * m * m * euler_phi(m)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sharpness_group(0)
        with pytest.raises(ValueError):
            sharpness_group(4)


@pytest.mark.parametrize("family", [cyclic_regular, holomorph_cyclic,
                                    catalog.symmetric, catalog.alternating])
def test_degree_above_64_refused(family):
    with pytest.raises(ValueError, match="degree 65 exceeds supported maximum 64"):
        family(65)


class TestGroupSpecFiles:
    def test_m11(self, m11):
        assert m11.degree == 11 and m11.order == 7920
        assert is_transitive(m11)

    def test_psl2_11(self, psl2_11):
        assert psl2_11.degree == 11 and psl2_11.order == 660
        assert is_transitive(psl2_11)

    def test_m23_loads(self):
        M23 = catalog.load_named("m23")
        assert M23.degree == 23 and M23.order == 10200960

    def test_parse_error_non_bijective(self):
        text = "degree 3\ngen (1,2)(2,3)\n"
        with pytest.raises(GroupSpecError):
            parse_group_spec(text).build()

    def test_order_mismatch_rejected(self):
        text = "# expected_order 99\ndegree 3\ngen (1,2,3)\n"
        with pytest.raises(GroupSpecError, match="expected_order"):
            parse_group_spec(text).build()

    def test_missing_degree(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("gen (1,2)\n")

    def test_unknown_line(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("degree 3\nfoo bar\n")

    def test_degree_above_64(self):
        with pytest.raises(GroupSpecError, match="degree 65 exceeds"):
            parse_group_spec("degree 65\ngen (1,2)\n")

    def test_write_then_load_roundtrip(self, tmp_path):
        G = catalog.pgl(3, 2)
        path = tmp_path / "pgl32.grp"
        path.write_text(write_group_spec(G, "pgl32"))
        H = load_group_spec(path)
        assert H.order == G.order and H.degree == G.degree
        assert all(contains(H, g) for g in G.generators)

    def test_data_dir_override(self, tmp_path, monkeypatch):
        path = tmp_path / "tiny.grp"
        path.write_text("# expected_order 2\ndegree 2\ngen (1,2)\n")
        monkeypatch.setenv("CYCLE_CENSUS_DATA", str(tmp_path))
        assert catalog.load_named("tiny").order == 2


class TestFamilyCodes:
    def test_codes(self):
        assert family_instance("c6").order == 6
        assert family_instance("s4").order == 24
        assert family_instance("a5").order == 60
        assert family_instance("hol9").order == 54
        assert family_instance("sharp1").order == 36

    def test_bad_code(self):
        with pytest.raises(ValueError):
            family_instance("q7")


def test_every_listed_family_instance_contains_an_n_cycle(m11, psl2_11, pgl32):
    """Families from the primitive classification all contain full cycles."""
    instances = [
        holomorph_cyclic(7), holomorph_cyclic(11), holomorph_cyclic(13),
        catalog.symmetric(6), catalog.alternating(7),
        pgl(2, 4), pgl(2, 5), pgl(2, 7), pgl(2, 8), pgl32, pgl(3, 3),
        pgammal(2, 8), pgammal(2, 4), m11, psl2_11,
    ]
    for G in instances:
        assert any(p.is_n_cycle() for p in iterate_elements(G, 10 ** 5)), G
