"""Imprimitivity machinery: block systems, block actions, solvability.

Block systems are G-invariant partitions of the points into r blocks of
equal size s.  Minimal systems are found by the classic union-find
closure of a point pair, swept over all partners of the first base
point; block constituents are read off the stabilizer chain, so no
function here enumerates the group; the derived series closes
commutators of generator pairs under conjugation until the order
stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutations import (NotTransitiveError, PermGroup, Permutation,
                           _compose, _conjugate, _contains_raw, _inverse,
                           _is_identity, _stabilizer_gens,
                           group_from_generators, is_transitive)


class InvalidBlockSystemError(ValueError):
    """The partition is not invariant under the group."""


@dataclass(frozen=True)
class BlockSystem:
    """A partition of {0..n-1} into r blocks of equal size s."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        covered = sorted(x for block in self.blocks for x in block)
        if covered != list(range(self.degree)):
            raise ValueError("blocks do not partition the point set")
        sizes = {len(block) for block in self.blocks}
        if len(sizes) != 1:
            raise ValueError("blocks are not of equal size")

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def s(self) -> int:
        return len(self.blocks[0])

    def block_index(self) -> list[int]:
        """point -> index of its block."""
        idx = [0] * self.degree
        for j, block in enumerate(self.blocks):
            for x in block:
                idx[x] = j
        return idx


def _partition_from_classes(degree: int, class_of: list[int]) -> BlockSystem:
    groups: dict[int, list[int]] = {}
    for x in range(degree):
        groups.setdefault(class_of[x], []).append(x)
    blocks = tuple(sorted((tuple(sorted(b)) for b in groups.values()),
                          key=lambda b: b[0]))
    return BlockSystem(degree=degree, blocks=blocks)


def minimal_block_containing(G: PermGroup, a: int, b: int) -> BlockSystem | None:
    """The finest G-invariant partition with a and b in one block.

    Returns None when that partition is the one-block partition (the pair
    generates no proper block).  Union-find closure over the pair orbit.
    """
    if not is_transitive(G):
        raise NotTransitiveError("block systems are defined for transitive groups")
    if a == b:
        raise ValueError("points must be distinct")
    n = G.degree
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    raw = [g.images for g in G.generators]
    queue = [(a, b)]
    union(a, b)
    while queue:
        u, v = queue.pop()
        for g in raw:
            x, y = g[u], g[v]
            if union(x, y):
                queue.append((x, y))
    class_of = [find(x) for x in range(n)]
    if len(set(class_of)) == 1:
        return None
    return _partition_from_classes(n, class_of)


def _refines(finer: BlockSystem, coarser: BlockSystem) -> bool:
    idx = coarser.block_index()
    return all(len({idx[x] for x in block}) == 1 for block in finer.blocks)


def all_minimal_block_systems(G: PermGroup) -> tuple[BlockSystem, ...]:
    """Every minimal nontrivial G-invariant partition; empty iff primitive."""
    if not is_transitive(G):
        raise NotTransitiveError("block systems are defined for transitive groups")
    a = G.base[0] if G.base else 0
    candidates: dict[tuple, BlockSystem] = {}
    for b in range(G.degree):
        if b == a:
            continue
        system = minimal_block_containing(G, a, b)
        if system is not None:
            candidates[system.blocks] = system
    minimal = []
    for system in candidates.values():
        if not any(_refines(other, system) and other.blocks != system.blocks
                   for other in candidates.values()):
            minimal.append(system)
    minimal.sort(key=lambda s: (s.s, s.blocks))
    return tuple(minimal)


def is_primitive(G: PermGroup) -> bool:
    return not all_minimal_block_systems(G)


def _block_images(G: PermGroup, system: BlockSystem) -> list[tuple[int, ...]]:
    """Each generator's action on the blocks, as block-index images."""
    if system.degree != G.degree:
        raise InvalidBlockSystemError("partition degree does not match the group")
    block_lookup = {block: j for j, block in enumerate(system.blocks)}
    out = []
    for g in G.generators:
        images = []
        for block in system.blocks:
            moved = tuple(sorted(g.images[x] for x in block))
            j = block_lookup.get(moved)
            if j is None:
                raise InvalidBlockSystemError(
                    f"partition is not invariant under generator {g}")
            images.append(j)
        out.append(tuple(images))
    return out


def block_action(G: PermGroup, system: BlockSystem):
    """The induced group on blocks, plus a kernel membership predicate.

    Raises InvalidBlockSystemError when some generator fails to map
    blocks to blocks.  The kernel (elements fixing every block setwise)
    is represented lazily by the returned predicate.
    """
    image_gens = [Permutation(t) for t in _block_images(G, system)]
    image = group_from_generators(system.r, image_gens)
    idx = system.block_index()

    def in_kernel(p: Permutation) -> bool:
        return all(idx[p.images[x]] == idx[x] for x in range(G.degree))

    return image, in_kernel


def block_constituent(G: PermGroup, system: BlockSystem,
                      block_index: int) -> PermGroup:
    """Action of the setwise stabilizer of one block on that block.

    Built from the stabilizer chain of transitive G: an element keeps the
    block B_0 of point 0 iff it maps 0 into B_0, so G_0 and the top
    transversal representatives of B_0 generate G_{B_0}.  Block B_j is
    B_0^t for t the representative of its least point; its stabilizer is
    t^-1 G_{B_0} t.  Positions on the block follow its point order.
    """
    if not 0 <= block_index < system.r:
        raise ValueError("block index out of range")
    _block_images(G, system)
    if not is_transitive(G):
        raise NotTransitiveError("block constituents are defined for transitive groups")
    home = next(b for b in system.blocks if 0 in b)
    gens = _stabilizer_gens(G) + [G.transversals[0][b] for b in home if b != 0]
    block = system.blocks[block_index]
    if block != home:
        t = G.transversals[0][block[0]]
        tinv = _inverse(t)
        gens = [_conjugate(g, t, tinv) for g in gens]
    position = {x: i for i, x in enumerate(block)}
    projections = {tuple(range(len(block)))}
    projections.update(tuple(position[g[x]] for x in block) for g in gens)
    return group_from_generators(
        len(block), [Permutation(t) for t in sorted(projections)])


def _normal_closure_order_and_gens(G: PermGroup, seeds: list[tuple[int, ...]]):
    """Smallest normal subgroup of <G.generators> containing the seeds."""
    degree = G.degree
    identity = tuple(range(degree))
    gens = []
    for s in seeds:
        if not _is_identity(s) and s not in gens:
            gens.append(s)
    if not gens:
        return 1, [identity]
    raw_outer = [(g.images, _inverse(g.images)) for g in G.generators]
    while True:
        group = group_from_generators(
            degree, [Permutation(t) for t in gens])
        added = False
        for x in list(gens):
            for g, ginv in raw_outer:
                y = _conjugate(x, g, ginv)
                if not _contains_raw(group, y):
                    gens.append(y)
                    added = True
        if not added:
            return group.order, gens


def derived_series(G: PermGroup) -> tuple[tuple[int, ...], bool]:
    """Orders of the derived series, and whether it reaches the trivial group.

    Each term is the normal closure of the commutators of the previous
    term's generator pairs.  The series is cut off as soon as the order
    stops decreasing (a perfect subgroup), which settles solvability.
    """
    orders = [G.order]
    current = G
    while orders[-1] > 1:
        raw = [g.images for g in current.generators]
        commutators = []
        for a in raw:
            ainv = _inverse(a)
            for b in raw:
                binv = _inverse(b)
                commutators.append(
                    _compose(_compose(ainv, binv), _compose(a, b)))
        order, gens = _normal_closure_order_and_gens(current, commutators)
        orders.append(order)
        if order in (1, orders[-2]):
            break
        current = group_from_generators(
            current.degree, [Permutation(t) for t in gens])
    return tuple(orders), orders[-1] == 1


def is_solvable(G: PermGroup) -> bool:
    return derived_series(G)[1]
