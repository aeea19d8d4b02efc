"""Permutation algebra and an exact permutation-group engine.

Points are 0-based integers throughout the API; cycle strings and
group-spec files use 1-based points.  Composition is left-to-right:
``(p * q).apply(x) == q.apply(p.apply(x))``.

Groups carry a deterministic stabilizer chain (each base point is the
smallest point moved by the current stabilizer), so orders, membership
tests and element enumeration are exact and reproducible across runs.
Everything is immutable after construction and safe to share between
threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from typing import Iterator, Sequence

DEFAULT_ELEMENT_CAP = 20_000_000

# The slice kernel lists a coset slice in blocks of at most _SLICE_CELLS int8
# cells (rows * degree) gathered through a table of at most _SLICE_CELLS
# bytes, which bounds its working set whatever |G|.  It imports numpy where
# it runs: imported here, numpy would load before the rest of the package
# is compiled, and when modules compile from source (no bytecode cache)
# that alone raises a census's peak RSS by about 0.9 MiB.
_SLICE_CELLS = 1 << 17


class CycleParseError(ValueError):
    """Malformed cycle notation; carries the offending character index."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class DegreeMismatchError(ValueError):
    pass


class NotTransitiveError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """Enumeration refused outright: the group exceeds the element cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds the enumeration cap {cap}")
        self.order = order
        self.cap = cap


# Hot loops work on raw image tuples; Permutation is the public wrapper.

def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(q.__getitem__, p))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _is_identity(p: tuple[int, ...]) -> bool:
    return all(i == j for i, j in enumerate(p))


def _conjugate(x: tuple[int, ...], g: tuple[int, ...], ginv: tuple[int, ...]) -> tuple[int, ...]:
    """g^-1 * x * g under left-to-right composition."""
    return tuple(map(g.__getitem__, map(x.__getitem__, ginv)))


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection of {0..n-1} stored as its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
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
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(self.degree))
        square = self.images
        while k:
            if k & 1:
                result = _compose(result, square)
            square = _compose(square, square)
            k >>= 1
        return Permutation(result)

    def is_identity(self) -> bool:
        return _is_identity(self.images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted multiset of cycle lengths, fixed points included."""
        lengths = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 1
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                length += 1
                x = self.images[x]
            lengths.append(length)
        return tuple(sorted(lengths))

    def is_n_cycle(self) -> bool:
        return _is_full_cycle(self.images)

    def order(self) -> int:
        result = 1
        for length in self.cycle_type():
            result = result * length // gcd(result, length)
        return result

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


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


def compose(p: Permutation, q: Permutation) -> Permutation:
    return p * q


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def cycle_type(p: Permutation) -> tuple[int, ...]:
    return p.cycle_type()


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
            while i < n and text[i].isdigit():
                i += 1
            if i == start:
                raise CycleParseError("expected a point number", start)
            val = int(text[start:i])
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
    i-th stabilizer to a coset representative (as a raw image tuple)
    carrying base[i] to that point.  order is the product of the
    transversal sizes.  Do not mutate any field.
    """

    degree: int
    generators: tuple[Permutation, ...]
    base: tuple[int, ...]
    transversals: tuple[dict[int, tuple[int, ...]], ...]
    order: int

    def contains(self, p: Permutation) -> bool:
        return contains(self, p)

    def __contains__(self, p: Permutation) -> bool:
        return contains(self, p)

    def raw_generators(self) -> list[tuple[int, ...]]:
        return [g.images for g in self.generators]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def group_from_generators(degree: int, generators: Sequence[Permutation]) -> PermGroup:
    """Build the group with a deterministic stabilizer chain.

    Base points are chosen as the smallest point moved by the current
    stabilizer, in increasing order, so that enumeration order and
    reports are reproducible.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator sequence must be nonempty")
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(
                f"generator of degree {g.degree} in a degree {degree} group")
    base, transversals = _build_chain(degree, [g.images for g in gens])
    order = 1
    for tr in transversals:
        order *= len(tr)
    return PermGroup(degree=degree, generators=gens, base=base,
                     transversals=transversals, order=order)


def _build_chain(degree, raw_gens):
    """Deterministic Schreier-Sims; returns (base, transversals).

    The working base is the full point sequence 0..n-1; levels whose
    orbit stays a singleton are pruned afterwards, which leaves exactly
    the increasing sequence of smallest-moved points of the successive
    stabilizers (a skipped point is fixed by the whole stabilizer above
    it, so removing its level keeps the chain valid).
    """
    identity = tuple(range(degree))
    strong = [g for g in dict.fromkeys(raw_gens) if not _is_identity(g)]
    if not strong:
        return (), ()
    transversals: list[dict[int, tuple[int, ...]]] = [{} for _ in range(degree)]

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
                        tr[delta] = _compose(rep, s)
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
            g = _compose(g, _inverse(rep))
        return g, degree   # fully sifted: g is the identity

    i = degree - 1
    while i >= 0:
        rebuild(i)
        jump = None
        for gamma in sorted(transversals[i]):
            rep = transversals[i][gamma]
            for s in gens_at(i):
                sgen = _compose(_compose(rep, s),
                                _inverse(transversals[i][s[gamma]]))
                if _is_identity(sgen):
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


def _sift_raw(G: PermGroup, g: tuple[int, ...]) -> tuple[int, ...]:
    for i, b in enumerate(G.base):
        beta = g[b]
        if beta == b:
            continue
        rep = G.transversals[i].get(beta)
        if rep is None:
            return g
        g = _compose(g, _inverse(rep))
    return g


def _contains_raw(G: PermGroup, g: tuple[int, ...]) -> bool:
    return _is_identity(_sift_raw(G, g))


def contains(G: PermGroup, p: Permutation) -> bool:
    """Exact membership test by sifting through the stabilizer chain."""
    if p.degree != G.degree:
        raise DegreeMismatchError(
            f"element degree {p.degree} does not match group degree {G.degree}")
    return _contains_raw(G, p.images)


def _iter_raw(G: PermGroup, top_points: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Stream every element exactly once, as raw image tuples.

    The walk is a mixed-radix sweep over transversal products, deepest
    stabilizer innermost, orbit points in increasing order.  Restricting
    top_points to a subset of the first orbit yields a deterministic
    partition of the element stream; the census walks one such coset
    slice per orbit of the point stabilizer.
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

    def rec(level: int, suffix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if level == depth:
            yield suffix
            return
        tr = transversals[level]
        for beta in point_lists[level]:
            yield from rec(level + 1, _compose(tr[beta], suffix))

    yield from rec(0, identity)


def _slice_blocks(G: PermGroup, b: int) -> Iterator[np.ndarray]:
    """The coset slice _iter_raw(G, [b]) as int8 blocks of shape (rows, n).

    The deepest levels are tabled into one array, level by level upward
    while the next table stays within _SLICE_CELLS bytes: row (beta, r) of
    T_j[:, table] is t_j[beta] applied after row r, the order _iter_raw
    nests them in.  The table is intp because it is the index of every
    gather, and numpy converts an index of any other dtype to intp on each
    call: an int8 table would cost eight times its size per block.  The
    upper levels are walked as prefix tuples p = t_0[b] o t_1[.] o ...,
    and each block is p[table] for as many prefixes as fit in _SLICE_CELLS
    int8 cells (at least one).  Concatenated, the blocks are the slice's
    elements in _iter_raw order.  Rows are int8, so the degree must be at
    most 128.
    """
    import numpy as np   # at call time: see _SLICE_CELLS
    n = G.degree
    if not G.base:
        yield np.arange(n, dtype=np.int8)[None]
        return
    levels = [[G.transversals[0][b]]]
    levels += [[tr[beta] for beta in sorted(tr)] for tr in G.transversals[1:]]
    top = len(levels) - 1
    table = np.array(levels[top], dtype=np.intp)
    while top > 0 and len(levels[top - 1]) * table.nbytes <= _SLICE_CELLS:
        top -= 1
        table = np.take(np.array(levels[top], dtype=np.intp), table,
                        axis=1).reshape(-1, n)
    per_block = max(1, _SLICE_CELLS // table.size)

    def prefixes(level: int, p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if level == top:
            yield p
            return
        for rep in levels[level]:
            yield from prefixes(level + 1, _compose(rep, p))

    walk = prefixes(0, tuple(range(n)))
    while batch := list(islice(walk, per_block)):
        yield np.take(np.array(batch, dtype=np.int8), table,
                      axis=1).reshape(-1, n)


def iterate_elements(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> Iterator[Permutation]:
    """All elements of G, each exactly once, in a deterministic order.

    Refuses to start (raises CapExceeded) if order(G) > cap, so callers
    can never silently sample a partial census.
    """
    if G.order > cap:
        raise CapExceeded(G.order, cap)
    return (Permutation(t) for t in _iter_raw(G))


def _stabilizer_gens(G: PermGroup) -> list[tuple[int, ...]]:
    """Generators of the stabilizer of base[0]: the transversal
    representatives below the top level.  That is G_0 for transitive G of
    degree > 1, whose base[0] is 0."""
    return [rep for tr in G.transversals[1:] for rep in tr.values()]


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


def orbit_partition(G: PermGroup) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Orbits of G on points, plus a transitivity flag."""
    parts = _orbits(G.degree, G.raw_generators())
    return tuple(parts), len(parts) == 1


def is_transitive(G: PermGroup) -> bool:
    return orbit_partition(G)[1]


def random_element(G: PermGroup, rng) -> Permutation:
    """Uniform random element via independent transversal choices."""
    e = tuple(range(G.degree))
    for tr in G.transversals:
        points = sorted(tr)
        e = _compose(tr[points[rng.randrange(len(points))]], e)
    return Permutation(e)
