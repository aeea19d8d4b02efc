"""Imprimitivity machinery: block systems, block actions, solvability.

Block systems are G-invariant partitions of the points into r blocks of
equal size s, read off the stabilizer chain: the blocks through 0 are
the orbits of 0 under the subgroups containing G_0 (Dixon & Mortimer,
Thm 1.5A), so the least block through 0 and b is the orbit of 0 under
<G_0, t_0[b]>, and its images under the level-0 representatives t_0[x]
are its system.  The block constituent is read for the block through 0
only: G is transitive, so every other block's constituent is conjugate
to it in S_s.  No function here enumerates the group; the derived series
closes commutators of generator pairs under conjugation until the order
stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutations import (NotTransitiveError, PermGroup, Permutation,
                           _compose, _conjugate, _contains_raw, _inverse,
                           _orbits, _stabilizer_gens, _suborbits,
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


def _block_through_0(G: PermGroup, b: int) -> frozenset[int]:
    """The least block through 0 and b: the orbit of 0 under <G_0, t_0[b]>."""
    return frozenset(_orbits(G.degree, _stabilizer_gens(G) + [G.transversals[0][b]])[0])


def _system(G: PermGroup, block: frozenset[int]) -> BlockSystem:
    """The system of a block through 0: its images t_0[x](block), each
    sorted, in order of their least points."""
    images = {tuple(sorted(t[y] for y in block)) for t in G.transversals[0].values()}
    return BlockSystem(degree=G.degree, blocks=tuple(sorted(images)))


def minimal_block_containing(G: PermGroup, a: int, b: int) -> BlockSystem | None:
    """The finest G-invariant partition with a and b in one block.

    Returns None when that partition is the one-block partition (the pair
    generates no proper block).  G is transitive, so base[0] = 0 and
    G._inverses[0] is the level of point 0: t_0[a]^-1 maps a, b to 0, b'.
    """
    if not is_transitive(G):
        raise NotTransitiveError("block systems are defined for transitive groups")
    n = G.degree
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"points must lie in 0..{n - 1}, got {a} and {b}")
    if a == b:
        raise ValueError("points must be distinct")
    block = _block_through_0(G, G._inverses[0][a][b])
    return None if len(block) == n else _system(G, block)


def all_minimal_block_systems(G: PermGroup) -> tuple[BlockSystem, ...]:
    """Every minimal nontrivial G-invariant partition; empty iff primitive.

    A minimal system is the finest one joining 0 to some other point b of
    its block.  That system is the same for b and g(b), for g in G_0: g
    fixes 0 and maps every G-invariant partition to itself.  So one block
    through 0 and min O per G_0-orbit O finds every candidate.  A system
    is fixed by its block through 0, so it refines another exactly when
    its block lies inside the other's.
    """
    if not is_transitive(G):
        raise NotTransitiveError("block systems are defined for transitive groups")
    # b is 0 only at degree 1, which has no other point
    candidates = {_block_through_0(G, b) for b, _ in _suborbits(G) if b}
    candidates.discard(frozenset(range(G.degree)))
    minimal = [_system(G, block) for block in candidates
               if not any(other < block for other in candidates)]
    return tuple(sorted(minimal, key=lambda s: (s.s, s.blocks)))


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


def block_action(G: PermGroup, system: BlockSystem) -> PermGroup:
    """The group G induces on the blocks of the system.

    Raises InvalidBlockSystemError when some generator fails to map
    blocks to blocks.
    """
    image_gens = [Permutation(t) for t in _block_images(G, system)]
    return group_from_generators(system.r, image_gens)


def block_constituent(G: PermGroup, system: BlockSystem) -> PermGroup:
    """Action of the setwise stabilizer of the block through 0 on it.

    G is transitive, so an element carries the block through 0 to any
    other block, and conjugation by it carries one constituent to the
    other: all block constituents are conjugate in S_s, and this one
    stands for them all.  Built from the stabilizer chain: an element
    keeps the block B of point 0 iff it maps 0 into B, so G_0 and the top
    transversal representatives of B generate G_B.  Positions on the
    block follow its point order.
    """
    _block_images(G, system)
    if not is_transitive(G):
        raise NotTransitiveError("block constituents are defined for transitive groups")
    block = next(b for b in system.blocks if 0 in b)
    gens = _stabilizer_gens(G) + [G.transversals[0][b] for b in block if b != 0]
    position = {x: i for i, x in enumerate(block)}
    projections = {tuple(range(len(block)))}
    projections.update(tuple(position[g[x]] for x in block) for g in gens)
    return group_from_generators(
        len(block), [Permutation(t) for t in sorted(projections)])


def _normal_closure(G: PermGroup, seeds) -> PermGroup:
    """The smallest normal subgroup of G containing the seeds.

    A seed, or a conjugate of a generator by a generator of G, joins the
    generators only when it lies outside the group they generate, which is
    then rebuilt.  Each addition at least doubles the order, so the
    closure has at most log2 of its order generators.  Once every
    generator's conjugates lie inside, the group is normal in G.
    """
    degree = G.degree
    group = group_from_generators(degree, [Permutation.identity(degree)])
    gens: list[Permutation] = []

    def join(x: tuple[int, ...]) -> None:
        nonlocal group
        if not _contains_raw(group, x):
            gens.append(Permutation(x))
            group = group_from_generators(degree, gens)

    for s in seeds:
        join(s)
    outer = [(g, _inverse(g)) for g in G.raw_generators()]
    for x in gens:   # grows while it is walked: new generators are conjugated too
        for g, ginv in outer:
            join(_conjugate(x.images, g, ginv))
    return group


def derived_series(G: PermGroup) -> tuple[tuple[int, ...], bool]:
    """Orders of the derived series, and whether it reaches the trivial group.

    Each term is the normal closure of the commutators of the previous
    term's generator pairs.  The series is cut off as soon as the order
    stops decreasing (a perfect subgroup), which settles solvability.
    """
    orders = [G.order]
    current = G
    while orders[-1] > 1:
        raw = current.raw_generators()
        inverses = [_inverse(a) for a in raw]
        commutators = [_compose(_compose(ainv, binv), _compose(a, b))
                       for a, ainv in zip(raw, inverses)
                       for b, binv in zip(raw, inverses)]
        current = _normal_closure(current, commutators)
        orders.append(current.order)
        if current.order == orders[-2]:
            break
    return tuple(orders), orders[-1] == 1
