"""The numpy slice kernel against the tuple walk it replaced.

_slice_blocks must list coset slices in the order of helpers._iter_raw,
the tuple walk kept as the reference, _full_cycle_mask must agree with
_is_full_cycle row by row, and the census built on them must equal full
enumeration.  The small-group checks run at the default
block budget and at 64 cells, where most blocks hold one prefix and the
chain splits into table and prefix levels near its bottom.
"""

import tracemalloc

import numpy as np
import pytest

from cycle_census import catalog, permutations
from cycle_census.census import _suborbits, count_n_cycles
from cycle_census.permutations import (Permutation, _full_cycle_mask,
                                       _is_full_cycle, _slice_blocks,
                                       group_from_generators)

from helpers import (_iter_raw, catalog_instances, collect_n_cycles,
                     m23_slice)

EDGE_DEGREES = {
    "c1": catalog.cyclic_regular(1),
    "c2": catalog.cyclic_regular(2),
    "c64": catalog.cyclic_regular(64),
    "hol64": catalog.holomorph_cyclic(64),
}


@pytest.fixture(params=[permutations._SLICE_CELLS, 64],
                ids=["default-cells", "64-cells"])
def cells(request, monkeypatch):
    monkeypatch.setattr(permutations, "_SLICE_CELLS", request.param)
    return request.param


def _top_points(G):
    return sorted(G.transversals[0]) if G.base else [0]


def _slices(G, tops):
    """The coset slices of the points tops: the rows t_0[b] o (levels >= 1)
    for each b in tops (the identity for a group with no base)."""
    top = G.transversals[0] if G.base else {0: tuple(range(G.degree))}
    return _slice_blocks(G, [top[b] for b in tops], 1)


class TestBlocks:
    def test_blocks_follow_iter_raw(self, cells):
        """Every slice of every catalog instance of order <= 10^4 and of the
        degree 1, 2 and 64 groups, and the stream of all G_0-orbit minima
        that count_n_cycles reads: the concatenated rows are the slices in
        _iter_raw order, |G|/n rows each, and the mask is _is_full_cycle of
        each row."""
        groups = [(name, G) for name, G in catalog_instances()
                  if G.order <= 10 ** 4]
        assert len(groups) == 145
        groups += list(EDGE_DEGREES.items())
        multi = 0
        for name, G in groups:
            n = G.degree
            minima = [b for b, _ in _suborbits(G)]
            multi += len(minima) > 1
            for tops in [[b] for b in _top_points(G)] + [minima]:
                blocks = list(_slices(G, tops))
                assert all(block.dtype == np.int8 and block.shape[1] == n
                           and block.size <= max(cells, n * n)
                           for block in blocks), (name, tops)
                rows = np.concatenate(blocks)
                slice_ = list(_iter_raw(G, tops))
                assert len(slice_) == len(tops) * G.order // n
                assert rows.tolist() == [list(t) for t in slice_], (name, tops)
                mask = np.concatenate([_full_cycle_mask(x) for x in blocks])
                assert mask.tolist() == list(map(_is_full_cycle, slice_)), (
                    name, tops)
        assert multi > 100

    def test_m23_slice(self):
        """The one M23 slice (M23 is 4-transitive, so G_0 has one orbit on
        the other points) has 443 520 elements, too many for one block: it
        comes in bounded blocks, in _iter_raw order, and its mask is
        _is_full_cycle row by row."""
        G = catalog.load_named("m23")
        assert _suborbits(G) == [(1, 22)]
        elements, full = m23_slice()
        start = 0
        blocks = 0
        n_cycles = 0
        for block in _slices(G, [1]):
            assert block.size <= permutations._SLICE_CELLS
            stop = start + len(block)
            assert np.array_equal(block, elements[start:stop])
            mask = _full_cycle_mask(block)
            assert np.array_equal(mask, full[start:stop])
            start = stop
            blocks += 1
            n_cycles += int(mask.sum())
        assert start == len(elements)
        assert blocks > 1
        assert n_cycles * 22 == 887_040


    def test_listing_a_slice_stays_within_the_budget(self):
        """Listing any slice of the catalog instances of order <= 2·10^5,
        the stream of all their orbit-minimum slices, or the M23 slice, holds at most the table, the block being built and
        the block before it: under 3 * _SLICE_CELLS bytes of traced memory.
        An int8 table, which numpy turns into an intp index on every
        gather, needed about 7.5 * _SLICE_CELLS here."""
        groups = [(name, G) for name, G in catalog_instances()
                  if G.order <= 200_000]
        groups.append(("m23", catalog.load_named("m23")))
        budget = 3 * permutations._SLICE_CELLS
        for name, G in groups:
            tops = [b for b, _ in _suborbits(G)]
            for stream in [[b] for b in tops] + [tops]:
                tracemalloc.start()
                try:
                    for _ in _slices(G, stream):
                        pass
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < budget, (name, stream, peak)


class TestCountsAgainstEnumeration:
    """Counts, classes and representatives on the catalog and the random
    subgroups are checked, at both budgets for the counts, in
    test_census.py::TestSuborbitCensusAgainstEnumeration."""

    @pytest.mark.parametrize("name", sorted(EDGE_DEGREES))
    def test_edge_degrees(self, name, cells):
        G = EDGE_DEGREES[name]
        assert count_n_cycles(G) == len(collect_n_cycles(G))

    def test_degree_above_64_is_refused(self):
        """Rows are int8, which would wrap points past 127 into negative
        indices; the census refuses any degree above the documented 64,
        before listing anything."""
        shift = Permutation(tuple(range(1, 65)) + (0,))
        G = group_from_generators(65, [shift])
        with pytest.raises(ValueError, match="degree 65 exceeds"):
            count_n_cycles(G)

