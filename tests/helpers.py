"""Independent oracles for the test suite.

Everything here is deliberately naive (breadth-first closures, exhaustive
partition search, block closures of 0 with every other point, trial
division of polynomials, full enumeration by the tuple walk _iter_raw,
membership by a sift that inverts each representative (_sift_raw),
separate cycle walks, powers by repeated squaring, normalizers by testing
every relabeling of a cycle) and shares no code with the paths it checks,
apart from the chain builder under the normal-closure oracle (the builder
is checked against build_chain here) and the membership sift under the
normal-closure and normalizer oracles.  catalog_instances builds the
standard catalog once for the tests that only read it, random_subgroups
the seeded random subgroups, seeded_pairs the seeded random pairs of
three fixed parents, m23_slice walks M23's one depth-1 slice once, and
relabelled conjugates a group by a transposition, built with its order as
the ceiling.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from cycle_census.catalog import (load_named, pgammal, standard_instances,
                                  symmetric, wreath_imprimitive)
from cycle_census.permutations import (Permutation, _contains_raw,
                                       _is_full_cycle, _slice_blocks,
                                       group_from_generators, is_transitive,
                                       random_element)


@functools.cache
def catalog_instances():
    """catalog.standard_instances(), built once, as a tuple.  The function
    is bound here at import, so a test that monkeypatches
    catalog.standard_instances cannot leave its fake in the cache."""
    return tuple(standard_instances())


@functools.cache
def random_subgroups(count):
    """The first count seeded random transitive subgroups of order <= 10^5
    of the catalog instances, each generated by two random elements."""
    rng = random.Random(20240809)
    parents = [G for _, G in catalog_instances()]
    groups = []
    while len(groups) < count:
        parent = parents[rng.randrange(len(parents))]
        H = group_from_generators(
            parent.degree,
            [random_element(parent, rng), random_element(parent, rng)])
        if H.order <= 10 ** 5 and is_transitive(H):
            groups.append(H)
    return tuple(groups)


@functools.cache
def seeded_pairs():
    """The first 60 draws of seed 99, kept or not: (parent, g1, g2), the
    parent drawn from S8, PGammaL(2,8) and S3 wr S4, then two random
    elements of it."""
    rng = random.Random(99)
    parents = [symmetric(8), pgammal(2, 8),
               wreath_imprimitive(symmetric(3), symmetric(4))]
    pairs = []
    for _ in range(60):
        parent = parents[rng.randrange(len(parents))]
        pairs.append((parent, random_element(parent, rng),
                      random_element(parent, rng)))
    return tuple(pairs)


def compose(p, q):
    return tuple(q[i] for i in p)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_identity(p):
    return all(i == j for i, j in enumerate(p))


def naive_closure(degree, gens):
    """All products of the generators, by breadth-first closure."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def equal_part_partitions(n, s):
    """All partitions of range(n) into blocks of size s, as frozensets."""
    assert n % s == 0
    points = list(range(n))

    def rec(remaining):
        if not remaining:
            yield []
            return
        head = remaining[0]
        rest = remaining[1:]
        for mates in itertools.combinations(rest, s - 1):
            block = frozenset((head,) + mates)
            left = [x for x in rest if x not in block]
            for tail in rec(left):
                yield [block] + tail

    yield from rec(points)


def invariant_partitions(degree, raw_gens):
    """Every nontrivial invariant equal-part partition, exhaustively."""
    out = []
    for s in range(2, degree):
        if degree % s != 0:
            continue
        for partition in equal_part_partitions(degree, s):
            blocks = set(partition)
            if all(frozenset(g[x] for x in block) in blocks
                   for block in blocks for g in raw_gens):
                out.append(frozenset(blocks))
    return out


def minimal_invariant_partitions(degree, raw_gens):
    """Minimal elements of the invariant-partition poset (exhaustive)."""
    all_parts = invariant_partitions(degree, raw_gens)

    def refines(p, q):
        return p != q and all(any(b <= c for c in q) for b in p)

    return [p for p in all_parts
            if not any(refines(q, p) for q in all_parts)]


def finest_partition_joining(degree, raw_gens, a, b):
    """The finest invariant partition with a and b in one block, as sorted
    blocks by least point: classes are merged until every generator maps
    each class into one class."""
    label = list(range(degree))
    label[b] = a
    changed = True
    while changed:
        changed = False
        for g in raw_gens:
            first = {}
            for x in range(degree):
                r = first.setdefault(label[x], x)
                keep, drop = label[g[r]], label[g[x]]
                if keep != drop:
                    label = [keep if c == drop else c for c in label]
                    changed = True
    blocks = {}
    for x in range(degree):
        blocks.setdefault(label[x], []).append(x)
    return tuple(sorted(map(tuple, blocks.values())))


def all_partners_minimal_systems(degree, raw_gens):
    """The minimal block systems of a transitive group, as block tuples in
    order of (block size, blocks): the finest invariant partition joining
    0 and b for every other point b, kept when no other one refines it."""
    systems = {finest_partition_joining(degree, raw_gens, 0, b)
               for b in range(1, degree)}
    systems.discard((tuple(range(degree)),))

    def refines(p, q):
        return p != q and all(any(set(x) <= set(y) for y in q) for x in p)

    minimal = [p for p in systems if not any(refines(q, p) for q in systems)]
    return sorted(minimal, key=lambda p: (len(p[0]), p))


# polynomials over GF(p), ascending coefficient lists -----------------------

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - 1, len(b) - 2, -1):
        c = (a[k] * inv) % p
        q[k - len(b) + 1] = c
        if c:
            for j in range(len(b)):
                a[k - len(b) + 1 + j] = (a[k - len(b) + 1 + j] - c * b[j]) % p
    return poly_trim(q), poly_trim(a)


def naive_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    f = poly_trim(coeffs)
    deg = len(f) - 1
    assert deg >= 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            _, r = poly_divmod(f, g, p)
            if not r:
                return False
    return True


def sylvester_determinant(coeffs):
    """Res(f, f') with its sign: the determinant of the (2n - 1)-square
    Sylvester matrix of f and f' (n - 1 rows of f, then n of f', highest
    coefficient first), by fraction-free (Bareiss) elimination, each row
    swap flipping the sign."""
    n = len(coeffs) - 1
    deriv = [i * c for i, c in enumerate(coeffs)][:0:-1]
    m = ([[0] * i + [*coeffs[::-1]] + [0] * (n - 2 - i) for i in range(n - 1)]
         + [[0] * i + deriv + [0] * (n - 1 - i) for i in range(n)])
    prev, sign = 1, 1
    for k in range(len(m) - 1):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for row in m[k + 1:]:
            row[k + 1:] = [(x * m[k][k] - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], m[k][k + 1:])]
        prev = m[k][k]
    return sign * m[-1][-1]


def sylvester_resultant(coeffs):
    """|Res(f, f')| from the Sylvester determinant."""
    return abs(sylvester_determinant(coeffs))


def discriminant(coeffs):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), exact in integers."""
    n = len(coeffs) - 1
    return (-1) ** (n * (n - 1) // 2) * sylvester_determinant(coeffs) // coeffs[-1]


def monic_powers(coeffs, count):
    """X^m mod f's monic form g = lc^(n-1) f(X / lc) over the integers, for
    m < count, ascending: X^(m+1) is X^m shifted up a place, and its X^n
    term, t X^n, folds back as -t (g_0 + g_1 X + ... + g_(n-1) X^(n-1))."""
    n, lc = len(coeffs) - 1, coeffs[-1]
    g = [coeffs[j] * lc ** (n - 1 - j) for j in range(n)]
    power, powers = [1] + [0] * (n - 1), []
    for _ in range(count):
        powers.append(power)
        shifted = [0] + power
        top = shifted.pop()
        power = [shifted[j] - top * g[j] for j in range(n)]
    return powers


def trace_of_power(coeffs, j, p):
    """Tr X^j on GF(p)[X]/(g), g f's monic form lc^(n-1) f(X / lc): the trace
    of multiplication by X^j, the sum over i < n of the X^i coefficient of
    X^(i+j) mod g, by trial division in Python ints."""
    n, lc = len(coeffs) - 1, coeffs[-1]
    g = [coeffs[k] * lc ** (n - 1 - k) % p for k in range(n)] + [1]
    total = 0
    for i in range(n):
        rest = poly_divmod([0] * (i + j) + [1], g, p)[1] + [0] * n
        total += rest[i]
    return total % p


def rank_mod_p(rows, p):
    """The rank of an integer matrix mod p by Gaussian elimination with a
    pivot search in every column, in Python ints."""
    rows, rank = [[x % p for x in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            c = rows[r][col] * inv
            rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# full enumeration, the slice kernel's reference ----------------------------

def _iter_raw(G, top_points=None):
    """Stream every element exactly once, as raw image tuples.

    The walk is a mixed-radix sweep over transversal products, deepest
    stabilizer innermost, orbit points in increasing order.  Restricting
    top_points to a subset of the first orbit yields a deterministic
    partition of the element stream: the coset slices the census counts,
    one per orbit of the point stabilizer.
    """
    identity = tuple(range(G.degree))
    if not G.base:
        yield identity
        return
    point_lists = [sorted(tr) for tr in G.transversals]
    if top_points is not None:
        point_lists[0] = list(top_points)
    transversals = G.transversals
    depth = len(point_lists)

    def rec(level, suffix):
        if level == depth:
            yield suffix
            return
        tr = transversals[level]
        for beta in point_lists[level]:
            yield from rec(level + 1, compose(tr[beta], suffix))

    yield from rec(0, identity)


def kernel_rows(G):
    """The slice kernel's listing of all of G, from level 0 under the
    identity, as image tuples in the kernel's order: the listing the tests
    compare with _iter_raw(G)."""
    for block in _slice_blocks(G, [tuple(range(G.degree))], 0):
        yield from map(tuple, block.tolist())


@functools.cache
def m23_slice():
    """The 443 520 elements _iter_raw(M23, [1]) as int8 rows, and whether
    each is an n-cycle by _is_full_cycle: the one depth-1 slice of M23,
    walked once for the tests that read it."""
    G = load_named("m23")
    full = []

    def rows():
        for t in _iter_raw(G, [1]):
            full.append(_is_full_cycle(t))
            yield t
    table = np.fromiter(rows(), dtype=np.dtype((np.int8, G.degree)),
                        count=G.order // G.degree)
    return table, np.array(full)


# block constituents by full enumeration -----------------------------------

def constituent_elements(G, system):
    """Every element of the constituent of the block through 0, as image
    tuples on the block's positions: the projections of all elements that
    keep the block."""
    block_of = system.block_index()
    block = system.blocks[block_of[0]]
    position = {x: i for i, x in enumerate(block)}
    return {tuple(position[t[x]] for x in block) for t in _iter_raw(G)
            if all(block_of[t[x]] == block_of[0] for x in block)}


def block_kernel_order(G, system):
    """How many elements of G keep every block of the system, by
    enumeration."""
    block_of = system.block_index()
    return sum(all(block_of[t[x]] == block_of[x] for x in range(G.degree))
               for t in _iter_raw(G))


# the census by full enumeration -------------------------------------------

def collect_n_cycles(G):
    """Every n-cycle of G, by enumerating all |G| elements."""
    return [t for t in _iter_raw(G) if _is_full_cycle(t)]


def wreath_n_cycle_count(inner, outer):
    """n-cycles of the imprimitive wreath product inner wr outer, in closed
    form: #k-cycles(outer) * |inner|^(k-1) * #m-cycles(inner), where m and
    k are the degrees of inner and outer and n = mk.  An element is an
    n-cycle exactly when its block permutation is a k-cycle and the product
    of its k block components, taken along that cycle, is an m-cycle; k - 1
    of the components are free and the last is then fixed.  The two factor
    counts come from full enumeration of the (small) factors."""
    return (len(collect_n_cycles(outer)) * inner.order ** (outer.degree - 1)
            * len(collect_n_cycles(inner)))


def conjugacy_orbits(G, cycles):
    """Partition n-cycles into G-classes by breadth-first conjugation.

    Returns (minimal representative, class size) per class, sorted by
    representative.  Conjugates are taken under the generators only.
    """
    conjugators = []
    for g in G.generators:
        g = tuple(g.images)
        ginv = [0] * len(g)
        for i, j in enumerate(g):
            ginv[j] = i
        conjugators.append((g, tuple(ginv)))
    remaining = set(cycles)
    classes = []
    for start in sorted(cycles):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g, ginv in conjugators:
                    y = tuple(g[x[ginv[i]]] for i in range(len(x)))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        assert orbit <= remaining, "conjugation left the n-cycle set"
        remaining -= orbit
        classes.append((min(orbit), len(orbit)))
    return classes


def conjugate_by_enumeration(G, sigma, tau):
    """Whether g^-1 * sigma * g = tau for some g of G, sigma and tau any
    image tuples of its degree, trying every element of the tuple walk."""
    return any(compose(compose(inverse(g), sigma), g) == tau
               for g in _iter_raw(G))


# cycles and normalizers, as the library computed them before -------------

def cycles(t):
    """Nontrivial cycles of the image tuple t, each from its smallest point,
    by the walk Permutation.cycles made before it shared one."""
    out = []
    seen = [False] * len(t)
    for start in range(len(t)):
        if seen[start] or t[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = t[start]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = t[x]
        out.append(tuple(cycle))
    return tuple(out)


def cycle_type(t):
    """Sorted cycle lengths of t, fixed points included, by its own walk."""
    lengths = []
    seen = [False] * len(t)
    for start in range(len(t)):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        x = t[start]
        while x != start:
            seen[x] = True
            length += 1
            x = t[x]
        lengths.append(length)
    return tuple(sorted(lengths))


def order(t):
    """The least common multiple of the cycle lengths, by gcd."""
    result = 1
    for length in cycle_type(t):
        result = result * length // math.gcd(result, length)
    return result


def power(t, k):
    """t^k by repeated squaring, a negative k through the inverse."""
    if k < 0:
        return power(inverse(t), -k)
    result = tuple(range(len(t)))
    square = t
    while k:
        if k & 1:
            result = compose(result, square)
        square = compose(square, square)
        k >>= 1
    return result


def normalizer_order_by_relabeling(G, sigma):
    """|N_G(<sigma>)| for an n-cycle sigma of G: the normalizer of <sigma>
    in S_n is the n * phi(n) relabelings a[i] -> a[u*i + t] of the cycle
    a = (0, sigma(0), ...), u prime to n, and each is tested for
    membership in G."""
    n = len(sigma)
    a = [0]
    while len(a) < n:
        a.append(sigma[a[-1]])
    count = 0
    for u in range(1, n + 1):
        if math.gcd(u, n) != 1:
            continue
        for t in range(n):
            images = [0] * n
            for i in range(n):
                images[a[i]] = a[(u * i + t) % n]
            count += _contains_raw(G, tuple(images))
    return count


# the stabilizer chain, as the library built it before its order cap ------

def build_chain(degree, raw_gens):
    """Deterministic Schreier-Sims; returns (base, transversals).

    The library's chain builder as it stood before it gained an order cap,
    first-moved-point generator filter and cached inverse representatives:
    generators of level i are found by testing every point below i, and
    each representative is inverted where it is used.  The library's chains,
    dict insertion order included, must equal these.
    """
    identity = tuple(range(degree))
    strong = [g for g in dict.fromkeys(raw_gens) if not is_identity(g)]
    if not strong:
        return (), ()
    transversals = [{} for _ in range(degree)]

    def gens_at(i):
        return [g for g in strong if all(g[b] == b for b in range(i))]

    def rebuild(i):
        gens_i = gens_at(i)
        tr = {i: identity}
        frontier = [i]
        while frontier:
            nxt = []
            for gamma in frontier:
                rep = tr[gamma]
                for s in gens_i:
                    delta = s[gamma]
                    if delta not in tr:
                        tr[delta] = compose(rep, s)
                        nxt.append(delta)
            frontier = nxt
        transversals[i] = tr

    def sift(g, start):
        for i in range(start, degree):
            beta = g[i]
            if beta == i:
                continue   # the representative would be the identity
            rep = transversals[i].get(beta)
            if rep is None:
                return g, i
            g = compose(g, inverse(rep))
        return g, degree   # fully sifted: g is the identity

    i = degree - 1
    while i >= 0:
        rebuild(i)
        jump = None
        for gamma in sorted(transversals[i]):
            rep = transversals[i][gamma]
            for s in gens_at(i):
                sgen = compose(compose(rep, s),
                               inverse(transversals[i][s[gamma]]))
                if is_identity(sgen):
                    continue
                residue, j = sift(sgen, i + 1)
                if j == degree:
                    continue
                strong.append(residue)
                for k in range(i + 1, j + 1):
                    rebuild(k)
                jump = j
                break
            if jump is not None:
                break
        if jump is None:
            i -= 1
        else:
            i = jump

    kept = [(b, tr) for b, tr in enumerate(transversals) if len(tr) > 1]
    return (tuple(b for b, _ in kept),
            tuple(tr for _, tr in kept))


def chain_record(G):
    """What G keeps of its chain build, as _build_chain returns it."""
    return G.base, G.transversals, G._inverses, G._strong


def relabelled(G, b):
    """G conjugated by the transposition tau = (base[1] b), for b moved by
    G_0 other than base[1], built with |G| as its ceiling: a conjugate
    whose chain stops early, as the chain-builder tests need.  tau is an
    involution, so each generator g becomes tau * g * tau."""
    a = G.base[1]
    tau = tuple(b if x == a else a if x == b else x for x in range(G.degree))
    return group_from_generators(
        G.degree, [Permutation(compose(compose(tau, g), tau))
                   for g in G.raw_generators()], _ceiling=G.order)


def tuple_record(record):
    """A chain record (base, transversals, inverses, strong) in the tuple
    form the pinned digests and the oracle's chains were taken in: every
    representative and strong generator as an image tuple, every padded
    inverse table cut to its n images.  The record keeps one inverse level
    per point, so n is their number."""
    base, transversals, inverses, strong = record
    n = len(inverses)

    def images(level):
        return {x: tuple(p[:n]) for x, p in level.items()}

    return (base, tuple(map(images, transversals)),
            tuple(map(images, inverses)),
            tuple((tuple(g), first) for g, first in strong))


def _sift_raw(G, g):
    """The residue of g sifted through G's chain, each representative
    inverted where it is used, as the library sifted before its groups kept
    the builder's inverse transversals; g lies in G iff it is the identity."""
    for b, tr in zip(G.base, G.transversals):
        if g[b] == b:
            continue
        rep = tr.get(g[b])
        if rep is None:
            return g
        g = compose(g, inverse(rep))
    return g


# the derived series, as the library computed it before its normal closures
# kept their generators irredundant ------------------------------------------

def normal_closure_order_and_gens(G, seeds):
    """Smallest normal subgroup of <G.generators> containing the seeds.

    Every distinct nontrivial seed is a generator, and each round adds the
    conjugates that lie outside the group the round started from, so the
    generating set may be far from irredundant."""
    degree = G.degree
    identity = tuple(range(degree))
    gens = []
    for s in seeds:
        if not is_identity(s) and s not in gens:
            gens.append(s)
    if not gens:
        return 1, [identity]
    raw_outer = [(g.images, inverse(g.images)) for g in G.generators]
    while True:
        group = group_from_generators(
            degree, [Permutation(t) for t in gens])
        added = False
        for x in list(gens):
            for g, ginv in raw_outer:
                y = compose(compose(ginv, x), g)
                if not _contains_raw(group, y):
                    gens.append(y)
                    added = True
        if not added:
            return group.order, gens


def derived_series(G):
    """Orders of the derived series and solvability, each term the normal
    closure of the commutators of the previous term's generator pairs."""
    orders = [G.order]
    current = G
    while orders[-1] > 1:
        raw = [g.images for g in current.generators]
        commutators = [compose(compose(inverse(a), inverse(b)), compose(a, b))
                       for a in raw for b in raw]
        order, gens = normal_closure_order_and_gens(current, commutators)
        orders.append(order)
        if order in (1, orders[-2]):
            break
        current = group_from_generators(
            current.degree, [Permutation(t) for t in gens])
    return tuple(orders), orders[-1] == 1
