"""The chain builder against the oracle it replaced, its order cap, its
order ceiling, and the chain record a group keeps.

The builder filters generators by their first moved point, reads cached
inverse representatives, composes bytes, can stop at an order cap and
stops early at a proven order ceiling; none of that may change a chain.
The record it returns, and a group keeps, is the builder's own: bytes
representatives and strong generators, padded inverse tables.  It is
compared with the oracle's chains and the pinned digests in tuple form
(helpers.tuple_record).  Transversal representatives, and their dict
order, are part of the output (random_element and so the sweep's random
rows read them), so chains are compared item by item in insertion order.
The inverse transversals and strong generators the group keeps are
checked against the representatives, and membership against the sift
that inverts them.
"""

import hashlib
import math
import random
import re

import pytest

from cycle_census import catalog, census, permutations
from cycle_census.permutations import (CapExceeded, Permutation, _build_chain,
                                       _contains_raw, _orbits,
                                       _stabilizer_gens, _suborbits, contains,
                                       group_from_generators, random_element)

from helpers import (_sift_raw, build_chain, catalog_instances, chain_record,
                     compose, inverse, is_identity, relabelled, seeded_pairs,
                     tuple_record)


def _items(chain):
    """Base and transversal items of a chain in tuple form: the oracle's,
    or the builder's through tuple_record."""
    base, transversals = chain[:2]
    return base, [list(tr.items()) for tr in transversals]


def _order(chain):
    order = 1
    for tr in chain[1]:
        order *= len(tr)
    return order


def _record(chain):
    """Everything the builder returns: base, transversals and inverse
    transversals in insertion order, and the strong generators."""
    base, transversals, inverses, strong = chain
    return (base, [list(tr.items()) for tr in transversals],
            [list(inv.items()) for inv in inverses], strong)


# |PGL_3(2)| extended by the duality, and the two loaded groups
_OTHER_ORDERS = {"duality(3,2)": 2 * 168, "m11": 7920, "psl2_11": 660}


def _family_order(name):
    """The order of a catalog instance, from its family's theorem alone."""
    if name in _OTHER_ORDERS:
        return _OTHER_ORDERS[name]
    if "_wr_" in name:
        inner, outer = name.split("_wr_")
        return (_family_order(inner) ** int(re.sub(r"\D", "", outer))
                * _family_order(outer))
    family, *args = re.findall(r"[a-z]+|\d+", name)
    args = [int(a) for a in args]
    if family in ("pgl", "pgammal"):
        d, q = args
        order = q ** (d * (d - 1) // 2) * math.prod(q ** i - 1
                                                    for i in range(2, d + 1))
        return order * {4: 2, 8: 3}.get(q, 1) if family == "pgammal" else order
    (n,) = args
    return {"c": lambda: n, "s": lambda: math.factorial(n),
            "a": lambda: math.factorial(n) // 2,
            "hol": lambda: n * sum(math.gcd(u, n) == 1 for u in range(n)),
            "sharpness": lambda: 2 * 9 ** n * 2 * 3 ** (n - 1)}[family]()


def _catalog_cases():
    return [(name, G.degree, G.raw_generators(), _family_order(name))
            for name, G in catalog.standard_instances()]


def _random_phase_cases():
    """Every pair the sweep's random phase draws at its default seed, kept
    or not, until it has kept 200, with its parent's order."""
    instances = catalog_instances()
    rng = random.Random(20240809)
    cases = []
    kept = 0
    while kept < 200:
        name, parent = instances[rng.randrange(len(instances))]
        pair = [random_element(parent, rng).images,
                random_element(parent, rng).images]
        cases.append((f"pair{len(cases)}<{name}", parent.degree, pair,
                      parent.order))
        kept += (len(_orbits(parent.degree, pair)) == 1
                 and _order(build_chain(parent.degree, pair)) <= 100_000)
    return cases


def _seeded_subgroup_cases():
    """The 60 seeded pairs test_census draws (seed 99), kept or not, with
    their parent's order."""
    return [(f"seeded{k}", parent.degree, [g1.images, g2.images], parent.order)
            for k, (parent, g1, g2) in enumerate(seeded_pairs())]


@pytest.fixture(scope="module")
def drawn():
    """(label, degree, raw generators, proven order ceiling) for every case:
    a catalog instance's family order, a random pair's parent's order."""
    return {"catalog": _catalog_cases(), "random_phase": _random_phase_cases(),
            "seeded": _seeded_subgroup_cases()}


@pytest.fixture(scope="module")
def cases(drawn):
    """(label, degree, raw generators, oracle chain) for every case."""
    return {kind: [(label, degree, gens, build_chain(degree, gens))
                   for label, degree, gens, _ in found]
            for kind, found in drawn.items()}


def test_case_counts(cases):
    assert len(cases["catalog"]) == 221
    assert len(cases["random_phase"]) == 320
    assert len(cases["seeded"]) == 60


@pytest.mark.parametrize("kind", ["catalog", "random_phase", "seeded"])
def test_chains_equal_the_oracle(cases, kind):
    for label, degree, gens, want in cases[kind]:
        chain = tuple_record(_build_chain(degree, gens))
        assert _items(chain) == _items(want), label


@pytest.mark.parametrize("kind", ["catalog", "random_phase"])
def test_a_cap_at_the_order_changes_nothing(cases, kind):
    for label, degree, gens, want in cases[kind]:
        chain = _build_chain(degree, gens, order_cap=_order(want))
        assert _items(tuple_record(chain)) == _items(want), label


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


class TestOrderCeiling:
    """A build given a proven upper bound on its order stops as soon as
    the product of its transversal sizes reaches it, and leaves the full
    build's record: base, transversals and inverse transversals in
    insertion order, and strong generators."""

    @pytest.mark.parametrize("kind", ["catalog", "random_phase", "seeded"])
    def test_the_ceiling_changes_no_record(self, drawn, kind):
        stopped = 0
        for label, degree, gens, ceiling in drawn[kind]:
            full = _build_chain(degree, gens)
            assert _order(full) <= ceiling, label
            if kind == "catalog":
                assert _order(full) == ceiling, label   # the family's theorem
            chain = _build_chain(degree, gens, ceiling=ceiling)
            assert _record(chain) == _record(full), label
            stopped += _order(full) == ceiling
        # every catalog instance; the random pairs that generate their parent
        assert stopped == {"catalog": 221, "random_phase": 141,
                           "seeded": 35}[kind]

    def test_the_catalog_keeps_the_full_records(self, drawn):
        """standard_instances builds with the family orders."""
        for (label, degree, gens, _), (name, G) in zip(
                drawn["catalog"], catalog.standard_instances()):
            assert label == name
            assert _record(chain_record(G)) == _record(
                _build_chain(degree, gens)), name

    def test_the_cap_refuses_the_same_pairs_at_the_same_bound(self, drawn):
        """The random phase's pairs under the sweep's order cap of 10^5,
        with and without their parent's order as the ceiling: the same
        refusals, at the same lower bound, as the pinned digest."""
        refused = {False: [], True: []}
        for with_ceiling, found in refused.items():
            for label, degree, gens, order in drawn["random_phase"]:
                if len(_orbits(degree, gens)) > 1:
                    continue
                try:
                    chain = _build_chain(degree, gens, order_cap=100_000,
                                         ceiling=order if with_ceiling else None)
                except CapExceeded as exc:
                    found.append((label, exc.order))
                else:
                    assert _record(chain) == _record(
                        _build_chain(degree, gens)), label
        assert refused[True] == refused[False]
        assert hashlib.sha256(repr(refused[True]).encode()).hexdigest() == (
            "a185072492af8ea8bbf2177a698e651a43ea2ffc8ee15fdfdad94fa9ecdf7e49")

    def test_relabelled_conjugates_keep_the_full_records(self):
        """The conjugate by (base[1] b) of every group above one block, for
        each other suborbit O_b of more than one point, built with |G| as
        the ceiling (helpers.relabelled): M23 and the 11 wreath products
        above the default cap of 2*10^7, which the default sweep skips,
        included."""
        groups = [(name, G) for name, G in catalog_instances()
                  if G.order > permutations._SLICE_CELLS]
        groups.append(("m23", catalog.load_named("m23")))
        assert len(groups) == 46
        assert sum(G.order > 2 * 10 ** 7 for _, G in groups) == 11
        built = 0
        for name, G in groups:
            a = G.base[1]
            for b, size in _suborbits(G):
                if size == 1 or b == a:
                    continue
                H = relabelled(G, b)
                tau = tuple(b if x == a else a if x == b else x
                            for x in range(G.degree))
                full = _build_chain(G.degree, [compose(compose(tau, g), tau)
                                               for g in G.raw_generators()])
                assert _record(chain_record(H)) == _record(full), (name, b)
                built += 1
        assert built == 59

    def test_the_stop_skips_sifts(self, monkeypatch):
        """On a wreath product, and on a random pair that generates its
        whole parent, the build with its ceiling sifts strictly less."""
        sifts = []
        original = permutations._sift

        def counting(*args):
            sifts.append(args)
            return original(*args)
        monkeypatch.setattr(permutations, "_sift", counting)
        wreath = dict(catalog_instances())["s3_wr_s4"]
        rng = random.Random(5)
        parent = catalog.symmetric(6)
        while True:
            pair = [random_element(parent, rng).images for _ in range(2)]
            if _order(_build_chain(6, pair)) == parent.order:
                break
        for degree, gens, ceiling in (
                (wreath.degree, wreath.raw_generators(), 6 ** 4 * 24),
                (6, pair, parent.order)):
            counts = []
            for bound in (None, ceiling):
                sifts.clear()
                _build_chain(degree, gens, ceiling=bound)
                counts.append(len(sifts))
            assert counts[1] < counts[0], counts

    def test_a_ceiling_below_the_order_refuses(self, drawn):
        """The bound passes a ceiling of |G| - 1 on every catalog instance
        but the trivial one: a caller bug, refused rather than a chain."""
        refused = 0
        for label, degree, gens, order in drawn["catalog"]:
            if order == 1:
                continue
            with pytest.raises(ValueError, match=(
                    rf"order at least \d+, above its order ceiling {order - 1}$")):
                _build_chain(degree, gens, ceiling=order - 1)
            refused += 1
        assert refused == 220

    def test_group_from_generators_takes_the_ceiling(self, m11):
        G = group_from_generators(11, m11.generators, _ceiling=m11.order)
        assert (G.order, G.base, G.transversals) == (
            m11.order, m11.base, m11.transversals)
        with pytest.raises(ValueError, match="above its order ceiling 7919"):
            group_from_generators(11, m11.generators, _ceiling=7919)


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
            base, transversals, stored, _ = tuple_record(chain_record(G))
            assert len(stored) == G.degree, label
            levels = dict(zip(base, transversals))
            for point, inverses in enumerate(stored):
                # a pruned level keeps nothing
                tr = levels.get(point, {})
                assert {x: inverse(rep) for x, rep in tr.items()} == inverses, label

    def test_strong_generators_carry_their_first_moved_point(self, groups):
        for label, G in groups:
            for g, first in G._strong:
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


@pytest.fixture(scope="module")
def records(drawn):
    """(label, degree, record) of every standard instance, M23 included,
    every random-phase pair, and the conjugate by (base[1] b) of every
    group above one block, for each other suborbit O_b of more than one
    point, built with |G| as the ceiling (helpers.relabelled)."""
    above = [(name, G) for name, G in catalog_instances()
             if G.order > permutations._SLICE_CELLS]
    above.append(("m23", catalog.load_named("m23")))
    return {
        "standard": [(name, G.degree, chain_record(G)) for name, G
                     in catalog.standard_instances(include_m23=True)],
        "random_phase": [(label, degree, _build_chain(degree, gens))
                         for label, degree, gens, _ in drawn["random_phase"]],
        "relabelled": [((name, b), G.degree,
                        chain_record(relabelled(G, b)))
                       for name, G in above for b, size in _suborbits(G)
                       if size > 1 and b != G.base[1]],
    }


class TestTrimmedRecord:
    """The record keeps only what the library reads: one inverse level per
    point, empty unless the point is a base point, and each strong
    generator with the smallest point it moves."""

    @pytest.mark.parametrize("kind", ["standard", "random_phase", "relabelled"])
    def test_levels_and_strong_generators(self, records, kind):
        for label, degree, record in records[kind]:
            base, transversals, inverses, strong = tuple_record(record)
            assert len(inverses) == degree, label
            levels = dict(zip(base, transversals))
            for point, level in enumerate(inverses):
                assert list(level.items()) == [
                    (x, inverse(rep))
                    for x, rep in levels.get(point, {}).items()], (label, point)
            for g, first in strong:
                assert first == min(x for x in range(degree) if g[x] != x), label

    @pytest.mark.parametrize("gens", [[(1, 2, 0)], [(1, 0, 2)]])
    def test_a_moved_non_base_point_is_refused(self, gens):
        """(2,3) moves only points that C3 and <(1,2)> of degree 3 give no
        base level; the sift finds no representative for it."""
        G = group_from_generators(3, [Permutation(g) for g in gens])
        assert G.base == (0,)
        assert not contains(G, Permutation((0, 2, 1)))


def _is_images(p, degree):
    """p is bytes of length degree holding a permutation of 0..degree-1."""
    return type(p) is bytes and sorted(p) == list(range(degree))


class TestRecordRepresentation:
    """The record a build returns, and a group keeps, is the builder's:
    representatives and strong generators as bytes of length n, every
    inverse as a 256-byte table that inverts its representative on
    0..n-1 and fixes n..255.  It equals the oracle's chain at the degree
    edges."""

    def _assert_bytes(self, label, degree, record):
        base, transversals, inverses, strong = record
        assert len(inverses) == degree, label
        identity, pad = bytes(range(degree)), bytes(range(degree, 256))
        levels = dict(zip(base, transversals))
        for level in transversals:
            assert all(_is_images(p, degree) for p in level.values()), label
        for point, level in enumerate(inverses):
            reps = levels.get(point, {})
            assert level.keys() == reps.keys(), (label, point)
            for x, table in level.items():
                assert type(table) is bytes and len(table) == 256, label
                assert table[degree:] == pad, (label, point, x)
                assert reps[x].translate(table) == identity, (label, point, x)
        for g, first in strong:
            assert _is_images(g, degree), label
            assert type(first) is int, label

    def test_every_standard_instance(self, records):
        for label, degree, record in records["standard"]:
            self._assert_bytes(label, degree, record)
        assert len(records["standard"]) == 222

    def test_random_phase_pairs(self, records):
        for label, degree, record in records["random_phase"]:
            self._assert_bytes(label, degree, record)

    def test_relabelled_conjugates(self, records):
        for label, degree, record in records["relabelled"]:
            self._assert_bytes(label, degree, record)
        assert len(records["relabelled"]) == 59

    @pytest.mark.parametrize("degree, gens", [
        (1, [(0,)]),
        (2, [(0, 1)]),
        (2, [(1, 0)]),
        (2, [(0, 1), (1, 0), (1, 0)]),
    ])
    def test_small_degrees_equal_the_oracle(self, degree, gens):
        chain = _build_chain(degree, gens)
        assert _items(tuple_record(chain)) == _items(build_chain(degree, gens))
        self._assert_bytes(gens, degree, chain)

    @pytest.mark.parametrize("family", [catalog.cyclic_regular,
                                        catalog.holomorph_cyclic,
                                        catalog.symmetric])
    def test_degree_64_equals_the_oracle(self, family):
        """The largest degree, where every image is still a byte; S64's
        oracle build is the slowest of the three (about 3 s)."""
        G = family(64)
        chain = _build_chain(64, G.raw_generators())
        assert _items(tuple_record(chain)) == _items(
            build_chain(64, G.raw_generators()))
        self._assert_bytes(family.__name__, 64, chain)


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
            census.count_n_cycles(m11, cap=100)
        assert info.value.exact
        assert str(info.value) == (
            "group order 7920 exceeds the census cap 100")

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
