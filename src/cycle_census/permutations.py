"""Permutation algebra and an exact permutation-group engine.

Points are 0-based integers throughout the API; cycle strings and
group-spec files use 1-based points.  Composition is left-to-right:
``(p * q).apply(x) == q.apply(p.apply(x))``.

Groups carry a deterministic stabilizer chain (each base point is the
smallest point moved by the current stabilizer), so orders, membership
tests and the slice kernel's coset listings are exact and reproducible
across runs.
Everything is immutable after construction and safe to share between
threads or worker processes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice
from math import lcm, prod
from operator import index
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np   # annotations only; numpy loads at call time

DEFAULT_ELEMENT_CAP = 20_000_000

# The slice kernel's rows are int8, and the chain builder composes through
# 256-byte tables: every group build refuses a larger degree.
MAX_DEGREE = 64

# The slice kernel lists a coset slice in blocks of at most _SLICE_CELLS int8
# cells (rows * degree) gathered through a table of at most _SLICE_CELLS
# bytes, which bounds its working set whatever |G|.  It imports numpy where
# it runs: imported here, numpy would load before the rest of the package
# is compiled, and when modules compile from source (no bytecode cache)
# that alone raises a census's peak RSS by about 0.9 MiB.
_SLICE_CELLS = 1 << 17


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n > MAX_DEGREE:
        shown = n if n < 10 ** 18 else "above 10^18"   # keeps the line short
        raise ValueError(f"degree {shown} exceeds supported maximum {MAX_DEGREE}")


def _digit_limit() -> int:
    """The most decimal digits int() and str() convert: 0 for no limit
    (sys.get_int_max_str_digits, absent and unlimited before Python
    3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal(digits: str, refuse) -> int:
    """int(digits) for a run of decimal digits; a run longer than
    _digit_limit() raises refuse(message) instead.  The message gives the
    length: formatting the number would fail too."""
    limit = _digit_limit()
    if 0 < limit < len(digits):
        raise refuse(f"a number of {len(digits)} digits exceeds the "
                     f"{limit}-digit limit")
    return int(digits)


class ParseError(ValueError):
    """Malformed input text; carries the offending character index."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class CycleParseError(ParseError):
    """Malformed cycle notation."""


class DegreeMismatchError(ValueError):
    pass


class NotTransitiveError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """Refused outright: the group's order exceeds a cap.

    order is |G| when exact, else a lower bound on |G| that already
    exceeds the cap (a chain build given an order cap stops there).
    """

    def __init__(self, order: int, cap: int, exact: bool = True):
        if exact:
            message = f"group order {order} exceeds the census cap {cap}"
        else:
            message = f"group order is at least {order}, above the order cap {cap}"
        super().__init__(message)
        self.order = order
        self.cap = cap
        self.exact = exact


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection of {0..n-1} stored as its image tuple (of any sequence
    of integers, each read with operator.index)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(map(index, self.images)))
        n = len(self.images)
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        if sorted(self.images) != list(range(n)):
            raise ValueError("images do not form a bijection of 0..n-1")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot compose degree {self.degree} with degree {other.degree}")
        return Permutation(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        """Each point moves k steps along its cycle (backwards for k < 0)."""
        images = list(range(self.degree))
        for cycle in self.cycles():
            for i, x in enumerate(cycle):
                images[x] = cycle[(i + k) % len(cycle)]
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = set()
        for start in range(self.degree):
            if start not in seen and self.images[start] != start:
                out.append(tuple(_cycle(self.images, start)))
                seen.update(out[-1])
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted multiset of cycle lengths, fixed points included."""
        lengths = [len(c) for c in self.cycles()]
        return tuple(sorted(lengths + [1] * (self.degree - sum(lengths))))

    def is_n_cycle(self) -> bool:
        return _is_full_cycle(self.images)

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def _cycle(t: tuple[int, ...], start: int) -> list[int]:
    """The cycle of t through start, from start in the order t moves it."""
    out = [start]
    x = t[start]
    while x != start:
        out.append(x)
        x = t[x]
    return out


def _is_full_cycle(t: tuple[int, ...]) -> bool:
    """True iff t is a single cycle moving all len(t) points."""
    steps = 1
    x = t[0]
    while x != 0:
        x = t[x]
        steps += 1
    return steps == len(t)


def _full_cycle_mask(block: np.ndarray) -> np.ndarray:
    """Row-wise _is_full_cycle of an int8 (rows, n) block of image rows.

    Follows 0 for n - 1 steps with flat gathers; a row is an n-cycle
    exactly when 0 does not come back before the n-th step.
    """
    import numpy as np   # at call time: see _SLICE_CELLS
    rows, n = block.shape
    flat = block.ravel()
    offsets = np.arange(0, rows * n, n)
    x = np.zeros(rows, dtype=np.intp)
    alive = np.ones(rows, dtype=bool)
    for _ in range(n - 1):
        x = flat[offsets + x]
        alive &= x != 0
    return alive


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation with 1-based points.

    Cycles are parenthesized, points comma-separated; fixed points may be
    omitted; "" and "()" denote the identity.  Whitespace is allowed
    between tokens.  Errors report the character position.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    images = list(range(degree))
    seen: set[int] = set()
    i, n = 0, len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    while i < n:
        if text[i] != "(":
            raise CycleParseError("expected '('", i)
        i = skip_ws(i + 1)
        cycle: list[int] = []
        if i < n and text[i] == ")":
            i = skip_ws(i + 1)
            continue
        while True:
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i == start:
                raise CycleParseError("expected a point number", start)
            val = _decimal(text[start:i], lambda m: CycleParseError(m, start))
            if not 1 <= val <= degree:
                raise CycleParseError(
                    f"point {val} out of range 1..{degree}", start)
            if val - 1 in seen:
                raise CycleParseError(f"repeated point {val}", start)
            seen.add(val - 1)
            cycle.append(val - 1)
            i = skip_ws(i)
            if i >= n:
                raise CycleParseError("unterminated cycle", n)
            if text[i] == ",":
                i = skip_ws(i + 1)
                continue
            if text[i] == ")":
                i = skip_ws(i + 1)
                break
            raise CycleParseError("expected ',' or ')'", i)
        for a, b in zip(cycle, cycle[1:]):
            images[a] = b
        images[cycle[-1]] = cycle[0]
    return Permutation(tuple(images))


def format_cycles(p: Permutation) -> str:
    """Disjoint-cycle string with 1-based points; identity prints as "()"."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles)


@dataclass(eq=False)
class PermGroup:
    """A permutation group with its stabilizer chain.

    transversals[i] maps each point of the orbit of base[i] under the
    i-th stabilizer to a coset representative (its n images as bytes)
    carrying base[i] to that point.  order is the product of the
    transversal sizes.  _inverses[i] holds the inverse representatives of
    level i, as the builder's padded tables, for every point i ({} unless
    i is a base point), and _strong the strong generators as (g as bytes,
    smallest point g moves), all as _build_chain held them.  Do not
    mutate any field.
    """

    degree: int
    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    transversals: tuple[dict[int, bytes], ...]
    order: int
    _inverses: tuple[dict[int, bytes], ...]
    _strong: tuple[tuple[bytes, int], ...]

    def raw_generators(self) -> list[tuple[int, ...]]:
        return [g.images for g in self.generators]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def group_from_generators(degree: int, generators: Sequence[Permutation], *,
                          order_cap: int | None = None,
                          _ceiling: int | None = None) -> PermGroup:
    """Build the group with a deterministic stabilizer chain.

    Base points are chosen as the smallest point moved by the current
    stabilizer, in increasing order, so that enumeration order and
    reports are reproducible.  With an order_cap, a group of larger order
    is refused (CapExceeded, exact=False) as soon as the partial chain
    proves it, without completing the chain.  _ceiling is private: a
    proven upper bound on the order, at which the build may stop early
    (see _build_chain).  A degree above MAX_DEGREE is refused first: the
    builder's byte tables hold images below 256, and the slice kernel's
    rows are int8.
    """
    _check_degree(degree)
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator sequence must be nonempty")
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(
                f"generator of degree {g.degree} in a degree {degree} group")
    if order_cap is not None and order_cap < 1:
        raise ValueError(f"order_cap must be at least 1, got {order_cap}")
    base, transversals, inverses, strong = _build_chain(
        degree, [g.images for g in gens], order_cap, _ceiling)
    return PermGroup(degree=degree, generators=gens, base=base,
                     transversals=transversals,
                     order=prod(map(len, transversals)),
                     _inverses=inverses, _strong=strong)


def _build_chain(degree, raw_gens, order_cap=None, ceiling=None):
    """Deterministic Schreier-Sims: (base, transversals, inverses, strong).

    The working base is the full point sequence 0..n-1; levels whose
    orbit stays a singleton are pruned afterwards, which leaves exactly
    the increasing sequence of smallest-moved points of the successive
    stabilizers (a skipped point is fixed by the whole stabilizer above
    it, so removing its level keeps the chain valid).

    The build holds every permutation as bytes of length n, and composes
    p * q (p first) as p.translate(Q), where Q is q padded to a 256-byte
    table (q + bytes(range(n, 256)), which bytes.maketrans(identity, q)
    makes; bytes.maketrans(q, identity) pads q^-1): one C loop, and a
    bytes key hashes in C too.  This is exact because group_from_generators refuses a
    degree above MAX_DEGREE = 64, so every image is a byte and the padding
    fixes the bytes a length-n permutation never holds.

    Each strong generator is kept as (padded g, padded g^-1, smallest
    point g moves) (a residue that sifts to level j moves j first), so the
    generators of level i are those whose first moved point is >= i; each
    rebuild keeps the list it filtered for its level.  Each level keeps
    the inverses of its representatives beside them, padded.  The record
    is returned as built, and keeps what the library reads: transversals
    as bytes of length n, inverses as padded tables, one level per point,
    {} where pruned (the sift skips a fixed point), and strong as (g,
    first), g cut to length n.

    No proven work is redone.  When the descent reaches level i, every
    level below it (i + 1 ..) has been passed since the last change, so
    they form a complete chain for the group S_{i+1} of their generators.
    A Schreier generator that level i sifted before lies in S_{i+1}: it
    sifted to the identity, or its residue joined the generators of a
    level below i.  Sifting it again would give the identity, so each
    level skips the elements it has sifted.  A level is rebuilt on a visit
    only if it gained a generator since its last rebuild; otherwise the
    rebuild would give the same orbit, in the same order.

    Level i's transversal is always an orbit of a subgroup of the i-th
    stabilizer, so the product of the transversal sizes is a lower bound
    on |G|; with an order_cap, the build stops with CapExceeded as soon as
    that bound passes it.

    With a ceiling C >= |G|, a level visit that finds the bound equal to C
    once the level is fresh rebuilds every stale level and ends the build,
    before it sifts any of its Schreier generators.  This is exact
    (Seress, Permutation Group Algorithms, 2003, ch. 4): a transversal,
    stale or not, is at most the basic orbit of its level, and the basic
    orbit sizes multiply to |G|, so bound = C >= |G| makes every
    transversal a full basic orbit.  Every element of G then sifts to the
    identity, so no later Schreier generator adds a strong generator, and
    the full run would only rebuild the stale levels from the same
    generators: the record (base, transversals in insertion order,
    inverses, strong) is the full run's.  A bound above C disproves the
    ceiling and raises ValueError.  Only proven ceilings may be passed: a
    family's order theorem, |inner|^r |outer| for a wreath product, |G|
    for a conjugate of G, or the order of a group containing G.  A claimed
    order, such as a spec file's expected_order, is not one: a ceiling
    below |G| that the bound happens to hit would return an incomplete
    chain.
    """
    identity = bytes(range(degree))
    table = bytes(range(256))   # the identity, padded
    strong = []   # (padded g, padded g^-1, the smallest point g moves)

    def keep(g, first):
        strong.append((bytes.maketrans(identity, g),
                       bytes.maketrans(g, identity), first))

    for g in dict.fromkeys(map(bytes, raw_gens)):
        if g != identity:
            keep(g, next(x for x, y in enumerate(g) if x != y))
    transversals: list[dict[int, bytes]] = [{} for _ in range(degree)]
    inverses: list[dict[int, bytes]] = [{} for _ in range(degree)]
    # the (padded g, padded g^-1) of level i, as its last rebuild found them
    gens: list[list[tuple[bytes, bytes]]] = [[] for _ in range(degree)]
    fresh = [False] * degree   # level i holds the orbit of all its generators
    # the Schreier generators sifted at level i so far (the identity needs no
    # sift): each lies in the group of the generators of level i + 1
    sifted = [{identity} for _ in range(degree)]
    bound = 1   # the product of the transversal sizes

    def rebuild(i):
        nonlocal bound
        gens_i = gens[i] = [(s, s_inv) for s, s_inv, first in strong
                            if first >= i]
        tr = {i: identity}
        inv = {i: table}
        frontier = [i]
        while frontier:
            nxt = []
            for gamma in frontier:
                rep = tr[gamma]
                rep_inv = inv[gamma]
                for s, s_inv in gens_i:
                    delta = s[gamma]
                    if delta not in tr:
                        tr[delta] = rep.translate(s)
                        inv[delta] = s_inv.translate(rep_inv)
                        nxt.append(delta)
            frontier = nxt
        bound = bound // (len(transversals[i]) or 1) * len(tr)
        transversals[i] = tr
        inverses[i] = inv
        fresh[i] = True
        if ceiling is not None and bound > ceiling:
            raise ValueError(f"the group has order at least {bound}, "
                             f"above its order ceiling {ceiling}")
        if order_cap is not None and bound > order_cap:
            raise CapExceeded(bound, order_cap, exact=False)

    i = degree - 1
    while i >= 0:
        if not fresh[i]:
            rebuild(i)
        if bound == ceiling:
            for k in range(i):
                if not fresh[k]:
                    rebuild(k)
            break
        tr, inv = transversals[i], inverses[i]
        seen = sifted[i]
        jump = None
        for gamma in sorted(tr):
            rep = tr[gamma]
            for s, _ in gens[i]:
                schreier = rep.translate(s).translate(inv[s[gamma]])
                if schreier in seen:
                    continue
                seen.add(schreier)
                residue, j = _sift(inverses, schreier, i + 1)
                if j == degree:
                    continue
                keep(residue, j)
                fresh[:j + 1] = [False] * (j + 1)
                for k in range(i + 1, j + 1):
                    rebuild(k)
                jump = j
                break
            if jump is not None:
                break
        i = i - 1 if jump is None else jump

    kept = [(b, tr) for b, tr in enumerate(transversals) if len(tr) > 1]
    return (tuple(b for b, _ in kept), tuple(tr for _, tr in kept),
            tuple(inv if len(inv) > 1 else {} for inv in inverses),
            tuple((s[:degree], first) for s, _, first in strong))


def _sift(inverses, g: bytes, start: int = 0):
    """Sift g, held as bytes, through the padded inverse transversals of
    the chain builder from level start; returns (residue, level it stopped
    at), that level len(g) once g is the identity.  Each step is one
    translate through a 256-byte table, exact for n <= 64 < 256 (see
    _build_chain).  Membership (_contains_raw) is this sift too."""
    for i in range(start, len(g)):
        beta = g[i]
        if beta == i:
            continue   # the representative would be the identity
        rep_inv = inverses[i].get(beta)
        if rep_inv is None:
            return g, i
        g = g.translate(rep_inv)
    return g, len(g)


def _contains_raw(G: PermGroup, g: Sequence[int]) -> bool:
    """Membership of the images g (a tuple or bytes): the builder's sift."""
    return _sift(G._inverses, bytes(g))[1] == G.degree


def contains(G: PermGroup, p: Permutation) -> bool:
    """Exact membership test by sifting through the stabilizer chain."""
    if p.degree != G.degree:
        raise DegreeMismatchError(
            f"element degree {p.degree} does not match group degree {G.degree}")
    return _contains_raw(G, p.images)


def _slice_blocks(G: PermGroup, prefixes: Sequence[Sequence[int]],
                  level: int) -> Iterator[np.ndarray]:
    """The rows p o t_level[.] o t_(level+1)[.] o ... for each prefix p in
    turn (a tuple or bytes), as int8 blocks of shape (rows, n).

    Under each prefix the levels from level on run in nested order, each
    over its sorted orbit points, the deepest innermost: one row per
    element of the stabilizer those levels form.  Prefix t_0[b] from level
    1 gives the coset slice of the elements sending base[0] to b.  No
    library path lists a whole group: the identity from level 0 gives G
    (a group with no base, its identity), which the tests compare with
    their tuple walk.
    The deepest levels are tabled into one array, the deepest whatever its
    size and each level above it while the table stays within
    _SLICE_CELLS bytes: row (beta, r) of T_j[:, table] is
    t_j[beta] applied after row r, so each level stays outside those below
    it.  The table is intp because it is the index of every gather, and
    numpy converts an index of any other dtype to intp on each call: an
    int8 table would cost eight times its size per block.  The levels
    above the table are walked under each prefix as bytes
    p o t_level[.] o ..., each step a translate through p padded, and each
    block is q[table] for as many of these q as fit in _SLICE_CELLS int8
    cells (at least one), read from their joined bytes.  Rows are int8,
    so callers refuse a degree above MAX_DEGREE.
    """
    import numpy as np   # at call time: see _SLICE_CELLS
    n = G.degree
    pad = bytes(range(n, 256))
    levels = [[tr[beta] for beta in sorted(tr)] for tr in G.transversals[level:]]
    table = np.arange(n, dtype=np.intp)[None]
    while levels and (len(table) == 1
                      or len(levels[-1]) * table.nbytes <= _SLICE_CELLS):
        reps = np.frombuffer(b"".join(levels.pop()), np.uint8).reshape(-1, n)
        table = np.take(reps.astype(np.intp), table, axis=1).reshape(-1, n)
    per_block = max(1, _SLICE_CELLS // table.size)

    def walk(depth: int, p: bytes) -> Iterator[bytes]:
        if depth == len(levels):
            yield p
            return
        padded = p + pad
        for rep in levels[depth]:
            yield from walk(depth + 1, rep.translate(padded))

    rows = (q for p in prefixes for q in walk(0, bytes(p)))
    while batch := list(islice(rows, per_block)):
        block = np.frombuffer(b"".join(batch), np.int8).reshape(-1, n)
        yield np.take(block, table, axis=1).reshape(-1, n)


def _stabilizer_gens(G: PermGroup, level: int = 0) -> list[bytes]:
    """Generators of the stabilizer of base[0], ..., base[level]: the strong
    generators whose smallest moved point lies above base[level].  Each
    base point is the smallest point its stabilizer moves, so the
    stabilizer of the earlier base points fixes every point below
    base[level], and these generate the pointwise stabilizer of
    0..base[level].  For transitive G of degree > 1, level 0 gives G_0
    and level 1 gives G_{0,b}, b = base[1]."""
    return [g for g, first in G._strong if first > G.base[level]]


def _suborbits(G: PermGroup) -> list[tuple[int, int]]:
    """(min O, |O|) for every orbit O of the point stabilizer G_0 on 1..n-1,
    for transitive G, by minimum.

    Degree 1 lists (0, 1): its one slice, the identity, is the 1-cycle.
    """
    if G.degree == 1:
        return [(0, 1)]
    orbits = _orbits(G.degree, _stabilizer_gens(G))
    return [(orbit[0], len(orbit)) for orbit in orbits[1:]]


def _orbits(degree: int, raw_gens) -> list[tuple[int, ...]]:
    """Orbits of the raw generators on points, each sorted, by minimum."""
    seen = [False] * degree
    parts = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in raw_gens:
                    y = g[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
                        nxt.append(y)
            frontier = nxt
        parts.append(tuple(sorted(orbit)))
    return parts


def is_transitive(G: PermGroup) -> bool:
    # Level 0 is the orbit of base[0].  When G fixes 0, base[0] > 0 and its
    # orbit misses 0, so it is short of the degree.
    return len(G.transversals[0]) == G.degree if G.base else G.degree == 1


def random_element(G: PermGroup, rng) -> Permutation:
    """Uniform random element via independent transversal choices."""
    e = bytes(range(G.degree))
    pad = bytes(range(G.degree, 256))
    for tr in G.transversals:
        points = sorted(tr)
        e = tr[points[rng.randrange(len(points))]].translate(e + pad)
    return Permutation(tuple(e))
