import random
import re

import pytest

from cycle_census import catalog
from cycle_census.catalog import (GroupSpecError, cyclic_regular,
                                  duality_extension, family_instance,
                                  holomorph_cyclic, load_group_spec,
                                  parse_group_spec, pgammal, pgl, pgl_order,
                                  sharpness_group, singer_cycle,
                                  standard_instances, wreath_imprimitive,
                                  write_group_spec)
from cycle_census.census import normalizer_order_of_cycle
from cycle_census.gf import MAX_Q, make_field
from cycle_census.ntheory import euler_phi, prime_power
from cycle_census.permutations import (_is_full_cycle, contains,
                                       is_transitive, parse_permutation)

from helpers import (_iter_raw, chain_record, collect_n_cycles, inverse,
                     naive_closure, tuple_record)

PGL_CASES = [(2, 4), (2, 5), (2, 7), (2, 8), (3, 2), (3, 3)]


class TestCyclicRegular:
    def test_basic(self):
        C6 = cyclic_regular(6)
        assert C6.order == 6 and is_transitive(C6)

    def test_trivial(self):
        assert cyclic_regular(1).order == 1

    def test_nine_cycles(self):
        C9 = cyclic_regular(9)
        nine_cycles = collect_n_cycles(C9)
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

    @pytest.mark.parametrize("d,q", [(2, 64), (4, 4), (7, 2), (2, 6), (1, 5),
                                     (200_000_000, 2), (65, 2), (2, 257)])
    def test_inadmissible_parameters_refused(self, d, q):
        """Refused on a short line, large d and q before any arithmetic
        (q = 10^23 - 1, which trial division takes minutes to factor, is
        checked from the command line under a timeout)."""
        with pytest.raises(ValueError) as info:
            singer_cycle(d, q)
        assert len(str(info.value)) < 200
        assert "Exceeds the limit" not in str(info.value)

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
        for k in (65, 10_000, 10 ** 300):   # refused before 3^k is formed
            with pytest.raises(ValueError, match="k above 64 puts the degree"):
                sharpness_group(k)


@pytest.mark.parametrize("family", [cyclic_regular, holomorph_cyclic,
                                    catalog.symmetric, catalog.alternating])
def test_degree_above_64_refused(family):
    with pytest.raises(ValueError, match="degree 65 exceeds supported maximum 64"):
        family(65)
    # a huge degree is not quoted, and no int is formatted past 4300 digits
    for n in (10 ** 300 - 1, 10 ** 5000):
        with pytest.raises(ValueError) as info:
            family(n)
        assert str(info.value) == "degree above 10^18 exceeds supported maximum 64"


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
            parse_group_spec(text)

    def test_order_mismatch_rejected(self):
        text = "# expected_order 99\ndegree 3\ngen (1,2,3)\n"
        with pytest.raises(GroupSpecError, match="expected_order"):
            parse_group_spec(text)

    def test_order_annotation_is_the_exact_word(self):
        """Only "# expected_order N" declares an order; any other comment,
        even one that starts with that word, is a plain comment."""
        for comment in ("# expected_orders 5", "# expected_order_is_unknown",
                        "#expected_orderly"):
            text = f"{comment}\ndegree 3\ngen (1,2,3)\n"
            assert parse_group_spec(text).order == 3
        # the space after '#' is optional: a wrong order is refused
        text = "#expected_order {}\ndegree 3\ngen (1,2,3)\n"
        assert parse_group_spec(text.format(3)).order == 3
        with pytest.raises(GroupSpecError, match="^<string>: constructed "
                           "order 3 does not match expected_order 4$"):
            parse_group_spec(text.format(4))

    def test_duplicate_order_annotation(self):
        """A second annotation is refused at its own line, before any
        build, whether or not it agrees with the first."""
        for second in ("# expected_order 7", "# expected_order 3"):
            with pytest.raises(GroupSpecError, match="^<string>:4: duplicate "
                               "expected_order annotation$"):
                parse_group_spec(f"degree 3\ngen (1,2,3)\n"
                                 f"# expected_order 3\n{second}\n")

    def test_missing_degree(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("gen (1,2)\n")

    @pytest.mark.parametrize("text, message", [
        ("degree 3\ndegree 3\ngen (1,2,3)\n", "^<string>:2: duplicate degree line$"),
        ("# a comment alone\n", "^<string>: missing degree line$"),
        ("degree 3\n", "^<string>: no generators$")])
    def test_incomplete_or_repeated_header(self, text, message):
        with pytest.raises(GroupSpecError, match=message):
            parse_group_spec(text)

    def test_unknown_line(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("degree 3\nfoo bar\n")
        # a keyword is a whole word, not a prefix
        for text, lineno in (("degrees 3\ngen (1,2,3)\n", 1),
                             ("degree 3\ngenerator (1,2,3)\n", 2)):
            with pytest.raises(GroupSpecError,
                               match=f"^<string>:{lineno}: unrecognized line"):
                parse_group_spec(text)
        assert parse_group_spec("degree 3\ngen(1,2,3)\n").order == 3

    def test_degree_above_64(self):
        with pytest.raises(GroupSpecError, match="degree 65 exceeds"):
            parse_group_spec("degree 65\ngen (1,2)\n")

    @pytest.mark.parametrize("text, message", [
        ("degree ³\ngen (1,2)\n", "^<string>:1: malformed degree line$"),
        ("# expected_order ²\ndegree 3\ngen (1,2,3)\n",
         "^<string>:1: malformed expected_order annotation$"),
        ("degree 3\ngen (1,²)\n",
         "expected a point number \\(at character 3\\)$")])
    def test_non_ascii_digits_are_malformed(self, text, message):
        """Superscripts pass str.isdigit but not int(); each is refused as
        a GroupSpecError, never a bare ValueError."""
        with pytest.raises(GroupSpecError, match=message):
            parse_group_spec(text)

    @pytest.mark.parametrize("text, message", [
        (f"degree {'9' * 5000}\ngen (1,2)\n", "^<string>:1: a number of 5000 "),
        (f"# expected_order {'9' * 5000}\ndegree 3\ngen (1,2,3)\n",
         "^<string>:1: a number of 5000 "),
        (f"# c3\n\ndegree {'0' * 5000}3\ngen (1,2,3)\n",
         "^<string>:3: a number of 5001 "),
        (f"degree 3\ngen (1,{'9' * 5000})\n",
         "^<string>:2: bad generator: a number of 5000 digits exceeds the "
         "4300-digit limit \\(at character 3\\)$")])
    def test_numbers_longer_than_int_converts(self, text, message):
        """A number of more digits than int() converts is a GroupSpecError
        with its file:line (a generator's, with its character position),
        short enough for one line: the number is never quoted."""
        with pytest.raises(GroupSpecError, match=message) as exc:
            parse_group_spec(text)
        assert "exceeds the 4300-digit limit" in str(exc.value)
        assert len(str(exc.value)) < 200

    def test_write_then_load_roundtrip(self, tmp_path):
        G = catalog.pgl(3, 2)
        path = tmp_path / "pgl32.grp"
        path.write_text(write_group_spec(G))
        H = load_group_spec(path)
        assert H.order == G.order and H.degree == G.degree
        assert all(contains(H, g) for g in G.generators)

    def test_every_standard_instance_round_trips(self):
        """Written out and parsed back, every catalog instance, M23
        included, builds with its degree, order, base and generator images,
        and its order annotation reads back: raised by one, it is refused."""
        for name, G in standard_instances(include_m23=True):
            text = write_group_spec(G, comment=name)
            H = parse_group_spec(text, name)
            assert (H.degree, H.order, H.base) == (G.degree, G.order,
                                                   G.base), name
            assert ([h.images for h in H.generators]
                    == [g.images for g in G.generators]), name
            line = f"\n# expected_order {G.order}\n"
            assert text.count(line) == 1, name
            wrong = text.replace(line, f"\n# expected_order {G.order + 1}\n")
            with pytest.raises(GroupSpecError, match=re.escape(
                    f"{name}: constructed order {G.order} does not match "
                    f"expected_order {G.order + 1}")):
                parse_group_spec(wrong, name)

    def test_writer_refuses_an_annotation_in_its_comment(self):
        """A comment line whose first word is expected_order would read
        back as a second, or malformed, annotation; any other is kept."""
        G = cyclic_regular(3)
        for comment in ("expected_order", "c3\n  expected_order 3",
                        "expected_order 4 sets it"):
            with pytest.raises(ValueError, match="expected_order"):
                write_group_spec(G, comment=comment)
        for comment in ("expected_orders", "c3, expected_order 3",
                        "#expected_order 4"):
            text = write_group_spec(G, comment=comment)
            assert parse_group_spec(text).order == 3

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
        with pytest.raises(ValueError, match="unknown family code"):
            family_instance("c²")
        with pytest.raises(ValueError, match="^family code c<N>: a number of "
                           "5000 digits exceeds the 4300-digit limit$"):
            family_instance("c" + "9" * 5000)


def test_every_listed_family_instance_contains_an_n_cycle(m11, psl2_11, pgl32):
    """Families from the primitive classification all contain full cycles."""
    instances = [
        holomorph_cyclic(7), holomorph_cyclic(11), holomorph_cyclic(13),
        catalog.symmetric(6), catalog.alternating(7),
        pgl(2, 4), pgl(2, 5), pgl(2, 7), pgl(2, 8), pgl32, pgl(3, 3),
        pgammal(2, 8), pgammal(2, 4), m11, psl2_11,
    ]
    for G in instances:
        assert any(map(_is_full_cycle, _iter_raw(G))), G


class TestStandardInstances:
    def test_one_chain_build_per_instance(self, monkeypatch):
        """The elementary ranges leave out hol2, s2 and a3, which repeat c2
        and c3, and each pgammal extends the pgl built before it."""
        builds = []
        original = catalog.group_from_generators

        def counting(degree, gens, **kwargs):
            builds.append(degree)
            return original(degree, gens, **kwargs)
        monkeypatch.setattr(catalog, "group_from_generators", counting)
        for include_m23, count in ((False, 221), (True, 222)):
            builds.clear()
            instances = catalog.standard_instances(include_m23=include_m23)
            assert len(instances) == len(builds) == count
            assert [G.degree for _, G in instances] == builds
        names = [name for name, _ in instances]
        assert not {"hol2", "s2", "a3"} & set(names)
        assert names.index("pgammal(2,8)") == names.index("pgl(2,8)") + 1

    def test_elementary_instances_have_distinct_generators(self):
        """No two elementary instances share a generator tuple: the ranges
        start past hol2 and s2 (c2's generators) and a3 (c3's)."""
        elementary = [G for name, G in catalog.standard_instances()
                      if re.fullmatch(r"(c|hol|s|a)\d+", name)]
        assert len(elementary) == 24 + 25 + 6 + 5
        keys = [tuple(G.raw_generators()) for G in elementary]
        assert len(set(keys)) == len(keys)

    def test_left_out_instances_repeat_earlier_generators(self):
        c2, c3 = cyclic_regular(2), cyclic_regular(3)
        assert holomorph_cyclic(2).raw_generators() == c2.raw_generators()
        assert catalog.symmetric(2).raw_generators() == c2.raw_generators()
        assert catalog.alternating(3).raw_generators() == c3.raw_generators()


def _constructor_records():
    """The record of every elementary constructor call in its tested range:
    (degree, order, raw generators, base, transversals and _inverses in
    insertion order, _strong), or the refusal's type and message.  The
    record is hashed in the shape it was pinned in: in tuple form
    (helpers.tuple_record), each empty inverse level as {point: identity},
    each strong generator as (g, g^-1, first)."""
    records = []
    for builder, top in ((cyclic_regular, 65), (holomorph_cyclic, 65),
                         (catalog.symmetric, 16), (catalog.alternating, 16)):
        for n in range(-1, top + 1):
            try:
                G = builder(n)
            except Exception as exc:
                records.append((builder.__name__, n, type(exc).__name__,
                                str(exc)))
                continue
            identity = tuple(range(G.degree))
            base, transversals, inverses, strong = tuple_record(chain_record(G))
            records.append((
                builder.__name__, n, G.degree, G.order,
                tuple(G.raw_generators()), base,
                tuple(tuple(tr.items()) for tr in transversals),
                tuple(tuple(inv.items()) or ((x, identity),)
                      for x, inv in enumerate(inverses)),
                tuple((g, inverse(g), first) for g, first in strong)))
    return records


def test_elementary_constructors_are_pinned():
    """The groups and refusals of the four elementary constructors, taken
    before their (generators, order) helpers were folded into them."""
    import hashlib
    records = _constructor_records()
    assert len(records) == 2 * 67 + 2 * 18
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "9721994f22cc8cf0bdc1ee7a5bff944b02297acc4eb49aa62f786b74e0a20d76")
