import random
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_census import catalog
from cycle_census.blocks import (all_minimal_block_systems, block_action,
                                 block_constituent)
from cycle_census.census import count_n_cycles
from cycle_census.permutations import (CapExceeded, CycleParseError,
                                       DegreeMismatchError, Permutation,
                                       _is_full_cycle, _orbits, contains,
                                       format_cycles, group_from_generators,
                                       is_transitive, parse_permutation,
                                       random_element)

import helpers
from helpers import (_iter_raw, catalog_instances, chain_record, kernel_rows,
                     naive_closure, tuple_record)


def perm(text, degree):
    return parse_permutation(text, degree)


class TestParsing:
    def test_three_cycle(self):
        assert perm("(1,2,3)", 3).images == (1, 2, 0)

    def test_empty_is_identity(self):
        assert perm("", 5) == Permutation.identity(5)
        assert perm("()", 5) == Permutation.identity(5)

    def test_two_cycles(self):
        assert perm("(1,2)(3,4,5)", 6).images == (1, 0, 3, 4, 2, 5)

    def test_whitespace(self):
        assert perm(" (1, 2) (3,4) ", 4).images == (1, 0, 3, 2)

    def test_out_of_range(self):
        with pytest.raises(CycleParseError) as exc:
            perm("(1,7)", 5)
        assert exc.value.position == 3

    def test_repeated_point(self):
        with pytest.raises(CycleParseError, match="repeated"):
            perm("(1,2)(2,3)", 5)

    def test_malformed(self):
        with pytest.raises(CycleParseError):
            perm("(1,2", 5)
        with pytest.raises(CycleParseError):
            perm("1,2)", 5)
        with pytest.raises(CycleParseError):
            perm("(1 2)", 5)
        # a superscript is a digit to str.isdigit but not to int()
        with pytest.raises(CycleParseError, match="expected a point number") as exc:
            perm("(1,²)", 3)
        assert exc.value.position == 3

    def test_point_longer_than_int_converts(self):
        """A point of more digits than int() converts is refused at its
        position, and the message gives its length, not the number."""
        with pytest.raises(CycleParseError, match="5000 digits exceeds the "
                           "4300-digit limit \\(at character 4\\)$") as exc:
            perm("(1, " + "9" * 5000 + ")", 3)
        assert exc.value.position == 4

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            images = list(range(9))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert parse_permutation(format_cycles(p), 9) == p


@st.composite
def permutations(draw, degree=8):
    images = draw(st.permutations(range(degree)))
    return Permutation(tuple(images))


class TestAlgebra:
    def test_involution_squared(self):
        t = perm("(1,2)", 2)
        assert (t * t).is_identity()

    def test_cycle_squared(self):
        c = perm("(1,2,3)", 3)
        assert c * c == perm("(1,3,2)", 3)

    @given(permutations())
    @settings(max_examples=50, deadline=None)
    def test_identity_law(self, p):
        e = Permutation.identity(p.degree)
        assert p * e == p
        assert e * p == p

    @given(permutations(), permutations())
    @settings(max_examples=50, deadline=None)
    def test_compose_preserves_bijection(self, p, q):
        r = p * q
        assert sorted(r.images) == list(range(p.degree))
        assert r.apply(0) == q.apply(p.apply(0))

    @given(permutations())
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_inverse_examples(self):
        assert perm("(1,2,3)", 3).inverse() == perm("(1,3,2)", 3)
        assert Permutation.identity(4).inverse() == Permutation.identity(4)
        assert perm("(1,2)(3,4,5)", 5).inverse() == perm("(1,2)(3,5,4)", 5)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            perm("(1,2)", 2) * perm("(1,2)", 3)

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("images", [b"\x01\x02\x00", [1, 2, 0],
                                        np.array([1, 2, 0])])
    def test_images_are_kept_as_a_tuple(self, images):
        """Bytes (a chain record entry), a list and a numpy array are stored
        as the tuple of their images, as Python ints: the same Permutation,
        with the same hash."""
        p, q = Permutation(images), Permutation((1, 2, 0))
        assert type(p.images) is tuple and p.images == (1, 2, 0)
        assert all(type(x) is int for x in p.images)
        assert p == q and hash(p) == hash(q)

    def test_non_integer_images_refused(self):
        """1.0 sorts equal to 1, so only reading each image as an integer
        refuses it, at construction rather than in a later product."""
        with pytest.raises(TypeError):
            Permutation((1.0, 0, 2))

    @pytest.mark.parametrize("build", [
        lambda: Permutation(()),
        lambda: perm("", 0),
        lambda: group_from_generators(0, []),
        lambda: catalog.cyclic_regular(0),
        lambda: catalog.symmetric(-1)])
    def test_degree_below_1_refused(self, build):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            build()

    def test_not_a_bijection_in_bytes(self):
        with pytest.raises(ValueError):
            Permutation(b"\x00\x00\x01")

    def test_pow(self):
        c = perm("(1,2,3,4,5)", 5)
        assert c ** 5 == Permutation.identity(5)
        assert c ** -1 == c.inverse()
        assert c ** 7 == c * c


class TestCycleWalkAgainstOracles:
    """cycles, cycle_type, order and powers all read the one cycle walk;
    the oracles are the separate walks and the repeated squaring they
    replaced."""

    @staticmethod
    def _check(p):
        t, n = p.images, p.degree
        assert p.cycles() == helpers.cycles(t)
        assert p.cycle_type() == helpers.cycle_type(t)
        assert p.order() == helpers.order(t)
        for k in range(-2 * n, 2 * n + 1):
            assert (p ** k).images == helpers.power(t, k), k

    @given(st.integers(1, 12).flatmap(lambda d: permutations(degree=d)))
    @settings(max_examples=100, deadline=None)
    def test_random_permutations(self, p):
        self._check(p)

    def test_every_element_of_small_catalog_groups(self):
        groups = (catalog.symmetric(6), catalog.holomorph_cyclic(11),
                  catalog.pgl(3, 2), catalog.sharpness_group(1),
                  catalog.cyclic_regular(1))
        for G in groups:
            for t in _iter_raw(G):
                self._check(Permutation(t))


class TestCycleType:
    def test_six_cycle(self):
        assert perm("(1,2,3,4,5,6)", 6).cycle_type() == (6,)
        assert perm("(1,2,3,4,5,6)", 6).is_n_cycle()

    def test_identity(self):
        assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)

    def test_mixed(self):
        assert perm("(1,2)(3,4,5)", 6).cycle_type() == (1, 2, 3)
        assert not perm("(1,2)(3,4,5)", 6).is_n_cycle()

    def test_degree_one(self):
        assert Permutation.identity(1).is_n_cycle()


class TestGroups:
    def test_sym7(self):
        G = group_from_generators(7, [perm("(1,2)", 7), perm("(1,2,3,4,5,6,7)", 7)])
        assert G.order == 5040

    def test_single_three_cycle(self):
        assert group_from_generators(3, [perm("(1,2,3)", 3)]).order == 3

    def test_trivial(self):
        G = group_from_generators(4, [Permutation.identity(4)])
        assert G.order == 1
        assert list(kernel_rows(G)) == [Permutation.identity(4).images]

    def test_m11_order_vs_naive_closure(self, m11):
        closure = naive_closure(11, [g.images for g in m11.generators])
        assert m11.order == len(closure) == 7920

    def test_order_equals_naive_closure_small(self):
        cases = [
            catalog.symmetric(4),
            catalog.holomorph_cyclic(7),
            catalog.holomorph_cyclic(9),
            catalog.alternating(5),
            catalog.pgl(3, 2),
            catalog.pgammal(2, 8),
            catalog.sharpness_group(1),
            catalog.duality_extension(3, 2),
            catalog.wreath_imprimitive(catalog.cyclic_regular(3),
                                       catalog.cyclic_regular(3)),
        ]
        for G in cases:
            closure = naive_closure(G.degree, [g.images for g in G.generators])
            assert G.order == len(closure)

    def test_agl7_order(self):
        assert catalog.holomorph_cyclic(7).order == 42

    def test_pgammal28_order(self):
        assert catalog.pgammal(2, 8).order == 1512

    def test_base_is_smallest_moved(self):
        G = catalog.symmetric(5)
        assert G.base[0] == 0
        assert list(G.base) == sorted(G.base)

    def test_generator_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            group_from_generators(4, [perm("(1,2)", 4), perm("(1,2)", 5)])

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            group_from_generators(3, [])


class TestMembership:
    def test_identity_always_member(self):
        for G in (catalog.symmetric(4), catalog.alternating(5)):
            assert contains(G, Permutation.identity(G.degree))

    def test_alt4(self):
        A4 = catalog.alternating(4)
        assert not contains(A4, perm("(1,2)", 4))
        assert contains(A4, perm("(1,2,3)", 4))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            contains(catalog.symmetric(4), perm("(1,2)", 5))

    def test_against_naive_closure(self):
        rng = random.Random(11)
        for G in (catalog.alternating(5), catalog.holomorph_cyclic(9),
                  catalog.pgl(3, 2), catalog.sharpness_group(1)):
            closure = naive_closure(G.degree, [g.images for g in G.generators])
            hits = misses = 0
            while hits < 100 or misses < 100:
                images = list(range(G.degree))
                rng.shuffle(images)
                t = tuple(images)
                if t in closure:
                    hits += 1
                    assert contains(G, Permutation(t))
                else:
                    misses += 1
                    assert not contains(G, Permutation(t))
                if hits + misses > 100_000:
                    break
            # membership of actual elements, not just random hits
            sample = rng.sample(sorted(closure), min(100, len(closure)))
            for t in sample:
                assert contains(G, Permutation(t))


class TestIteration:
    def test_sym3(self):
        G = group_from_generators(3, [perm("(1,2)", 3), perm("(1,2,3)", 3)])
        elements = list(kernel_rows(G))
        assert elements == list(_iter_raw(G))
        assert len(elements) == 6
        assert len(set(elements)) == 6

    def test_m11_within_cap(self, m11):
        elements = list(kernel_rows(m11))
        assert elements == list(_iter_raw(m11))
        assert len(elements) == 7920
        assert len(set(elements)) == 7920

    def test_m11_cap_exceeded(self, m11):
        with pytest.raises(CapExceeded) as exc:
            count_n_cycles(m11, 10 ** 3)
        assert exc.value.order == 7920 and exc.value.cap == 1000

    def test_no_duplicates_catalog(self):
        for G in (catalog.holomorph_cyclic(12), catalog.pgl(2, 5),
                  catalog.sharpness_group(2), catalog.alternating(6)):
            seen = set()
            for t in kernel_rows(G):
                assert t not in seen
                seen.add(t)
            assert len(seen) == G.order

    def test_deterministic_order(self):
        G = catalog.pgl(3, 2)
        first = list(kernel_rows(G))
        second = list(kernel_rows(G))
        assert first == second == list(_iter_raw(G))


def orbits(G):
    return _orbits(G.degree, G.raw_generators())


class TestOrbits:
    def test_cycle_transitive(self):
        assert orbits(catalog.cyclic_regular(6)) == [(0, 1, 2, 3, 4, 5)]

    def test_partial(self):
        G = group_from_generators(4, [perm("(1,2)", 4)])
        assert orbits(G) == [(0, 1), (2,), (3,)]

    def test_sym5(self):
        assert len(orbits(catalog.symmetric(5))) == 1


class TestTransitivityFromTheChain:
    """is_transitive reads the size of the chain's first level; the
    reference is the orbit search over the generators."""

    @staticmethod
    def agrees(G):
        orbits = _orbits(G.degree, G.raw_generators())
        return is_transitive(G) == (len(orbits) == 1)

    def test_catalog_and_m23(self):
        groups = [G for _, G in catalog_instances()]
        groups.append(catalog.load_named("m23"))
        assert all(is_transitive(G) and self.agrees(G) for G in groups)

    def test_groups_that_fix_0(self):
        """base[0] > 0, and its orbit misses 0, however large it is."""
        for text, degree in (("(2,3,4,5,6)", 6), ("(2,3)(4,5)", 5),
                             ("(2,3)", 3), ("", 1), ("", 4)):
            G = group_from_generators(degree, [perm(text, degree)])
            assert self.agrees(G) and is_transitive(G) == (degree == 1)

    def test_block_actions_and_constituents(self):
        checked = 0
        for name, G in catalog_instances():
            for system in all_minimal_block_systems(G):
                image = block_action(G, system)
                constituent = block_constituent(G, system)
                assert self.agrees(image) and self.agrees(constituent), name
                checked += 2
        assert checked == 422

    def test_random_pairs_without_the_orbit_filter(self):
        """2-generator subgroups of the catalog instances, intransitive
        pairs kept: the sweep's random phase rejects those before any
        chain is built."""
        rng = random.Random(20240809)
        instances = catalog_instances()
        built = intransitive = 0
        while built < 500:
            _, parent = instances[rng.randrange(len(instances))]
            pair = [random_element(parent, rng), random_element(parent, rng)]
            try:
                H = group_from_generators(parent.degree, pair,
                                          order_cap=100_000)
            except CapExceeded:
                continue
            built += 1
            intransitive += not is_transitive(H)
            assert self.agrees(H), H.generators
        assert intransitive == 136


class TestRandomElements:
    def test_members_and_coverage(self):
        G = catalog.alternating(4)
        rng = random.Random(3)
        seen = set()
        for _ in range(500):
            p = random_element(G, rng)
            assert contains(G, p)
            seen.add(p.images)
        assert len(seen) == 12


def test_ncycle_centralizer_identity():
    """For an n-cycle s in transitive G, exactly n elements commute with s."""
    cases = [catalog.cyclic_regular(8), catalog.symmetric(5),
             catalog.holomorph_cyclic(9), catalog.sharpness_group(1),
             catalog.pgl(3, 2)]
    for G in cases:
        sigma = next(filter(_is_full_cycle, _iter_raw(G)))
        fixers = [t for t in _iter_raw(G)
                  if helpers.compose(helpers.compose(helpers.inverse(t), sigma),
                                     t) == sigma]
        assert len(fixers) == G.degree
        powers = {Permutation(sigma) ** k for k in range(G.degree)}
        assert {Permutation(t) for t in fixers} == powers


def test_iteration_dedup_across_catalog():
    """The slice kernel's level-0 listing of every catalog instance below
    1e5 yields exactly order(G) distinct elements, the same as the tuple
    walk in helpers and in its order; so does the trivial group, which has
    no base."""
    checked = 0
    for name, G in catalog_instances():
        if G.order > 10 ** 5:
            continue
        seen = set()
        for p, t in zip_longest(kernel_rows(G), _iter_raw(G)):
            assert p is not None and p == t, name
            seen.add(p)
        assert len(seen) == G.order, name
        assert type(p[0]) is int, name   # not a numpy integer
        checked += 1
    assert checked > 150
    trivial = group_from_generators(4, [Permutation.identity(4)])
    assert list(kernel_rows(trivial)) == list(_iter_raw(trivial)) == [
        Permutation.identity(4).images]


def test_base_points_are_smallest_moved_in_increasing_order():
    """Each base point is the least point moved by the stabilizer of the
    previous ones, so bases are strictly increasing."""
    from cycle_census import catalog
    cases = [catalog.symmetric(5), catalog.pgl(3, 2),
             catalog.sharpness_group(1), catalog.holomorph_cyclic(9),
             # generators that avoid the smallest point of a deeper orbit
             group_from_generators(6, [perm("(1,3,5)(2,4,6)", 6),
                                       perm("(2,3)", 6)])]
    for G in cases:
        assert list(G.base) == sorted(G.base)
        for i, b in enumerate(G.base):
            prefix = G.base[:i]
            stabilizer = [t for t in _iter_raw(G)
                          if all(t[x] == x for x in prefix)]
            moved = min(x for x in range(G.degree)
                        if any(t[x] != x for t in stabilizer))
            assert moved == b, (G, i)


def _chain_digest(groups):
    """sha256 of every (base, transversal items in insertion order), the
    representatives in the tuple form they were pinned in."""
    import hashlib
    records = [tuple_record(chain_record(G)) for G in groups]
    chains = [(base, tuple(tuple(tr.items()) for tr in transversals))
              for base, transversals, _, _ in records]
    return hashlib.sha256(repr(chains).encode()).hexdigest()


class TestChainsArePinned:
    """Transversal representatives, and their dict order, are part of the
    output: random_element and so the sweep's random rows read them.
    The digests were taken from the chain builder before the up-front
    rebuild of every level was dropped."""

    def test_catalog_chains(self):
        groups = [G for _, G in catalog.standard_instances()]
        assert len(groups) == 221
        assert _chain_digest(groups) == (
            "4825db07f973db1c927b2c4de4f1b1df965fbb1c3cc0818b1f00e3faea33eb55")

    def test_random_phase_chains(self):
        """Every pair the sweep's random phase draws at its default seed,
        built into a chain whether the sweep keeps it or not."""
        from cycle_census.permutations import _orbits
        instances = catalog.standard_instances()
        rng = random.Random(20240809)
        groups = []
        accepted = 0
        while accepted < 200:
            _, parent = instances[rng.randrange(len(instances))]
            g1 = random_element(parent, rng)
            g2 = random_element(parent, rng)
            H = group_from_generators(parent.degree, [g1, g2])
            groups.append(H)
            accepted += (H.order <= 100_000
                         and len(_orbits(H.degree, H.raw_generators())) == 1)
        assert len(groups) == 320
        assert _chain_digest(groups) == (
            "0acf387f7f03933880e281f5bcfff0b19faaa8b489af2ce5abe23e81ac917a0a")


def test_every_library_annotation_resolves():
    """typing.get_type_hints resolves every function and method that the
    library's modules define, as a type checker sees them: in the module's
    globals plus what its `if TYPE_CHECKING:` block imports (numpy, which
    the slice kernel imports at call time)."""
    import ast
    import importlib
    import inspect
    import pkgutil
    import typing

    import cycle_census

    unresolved = []
    for info in pkgutil.iter_modules(cycle_census.__path__):
        if info.name == "__main__":   # importing it runs the CLI
            continue
        module = importlib.import_module(f"cycle_census.{info.name}")
        namespace = dict(vars(module))
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                exec(compile(ast.Module(node.body, []), module.__file__, "exec"),
                     namespace)
        defined = [obj for obj in vars(module).values()
                   if getattr(obj, "__module__", None) == module.__name__]
        for cls in [obj for obj in defined if inspect.isclass(obj)]:
            for attr in vars(cls).values():
                attr = getattr(attr, "fget", getattr(attr, "__func__", attr))
                if inspect.isfunction(attr):
                    defined.append(attr)
        for func in filter(inspect.isfunction, defined):
            try:
                typing.get_type_hints(func, globalns=namespace)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{func.__qualname__}: {exc}")
    assert unresolved == []
