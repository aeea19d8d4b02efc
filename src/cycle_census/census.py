"""The n-cycle census: counts, conjugacy classes, subgroup counts, verdicts.

For a transitive group G of degree n the census counts the n-cycles
(below a hard cap on |G|), derives their classes, and from them the
quantities of interest: the number of cyclic transitive subgroups
(= n-cycle count / phi(n)), the bound |G|/n, whether the bound is
attained, and, in the attained case, solvability plus a prime-tower
certificate for the wreath-like block structure.

The count visits one coset slice per orbit of the point stabilizer G_0,
not the whole group: the number N(0, b) of n-cycles sending 0 to b is
constant on each G_0-orbit O_b, and the slice of elements sending 0 to b
has |G|/n elements.  One level deeper, the number N(0, b, c) of n-cycles
sending 0 to b and b to c is constant on each orbit of G_{0,b}, and the
elements doing so form one coset of G_{0,b} (Sims's orbit weighting;
Seress, Permutation Group Algorithms, 2003, ch. 9).  When the slices span
more than one block, a full wreath product is counted from its two
factors (see count_n_cycles), and any other group counts the suborbit of
b = base[1], whose G_{0,b} its chain holds, one coset per G_{0,b}-orbit:
M23 lists one coset of 20 160 elements instead of a slice of 443 520.
The n-cycles are counted, never stored.  The class count then follows
from the class-size identity |class| = |G|/n, since the centralizer of an
n-cycle sigma in the full symmetric group is <sigma>.

Neither a slice nor a coset is walked element by element.  Their
elements are products p o t_j[.] o ... o t_k[.] of a prefix p and
transversal representatives (Seress, section 4.1): p = t_0[b] from level
1 for a slice, p = t_0[b] o t_1[c'] from level 2 for a coset.
permutations._slice_blocks tables the deepest factors into one array,
walks the upper ones under each prefix, and lists the rows of all the
prefixes of one depth as one stream of blocks of at most _SLICE_CELLS
cells, each a numpy gather of stacked prefixes through the table.
_full_cycle_mask then follows 0 through every row of a block at once.
One block is alive at a time, so for any group the count holds at most
the table, one block (each at most 128 KiB) and a few index vectors of
one entry per row.

Conjugacy of two n-cycles sigma, tau is decidable with n membership
tests: every relabeling carrying sigma to tau lies in the coset <sigma>x0
for any one such relabeling x0, which for sigma in G lies in G or misses
it, so one test decides.  Class representatives are found with that test
inside the orbit-minimum slices, and the normalizer follows from it by an
exact identity, |N_G(<sigma>)| = n * #{u prime to n : sigma^u conjugate
to sigma in G}.  Every view (counts, classes, verdicts) reads the
one full report theorem_verdict(G, cap).  The test suite checks counts,
classes, representatives and normalizers against full enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, prod

from . import catalog, permutations
from .blocks import (all_minimal_block_systems, block_action,
                     block_constituent, derived_series)
from .ntheory import euler_phi, is_prime
from .permutations import (DEFAULT_ELEMENT_CAP, CapExceeded,
                           NotTransitiveError, PermGroup, Permutation,
                           _contains_raw, _cycle, _full_cycle_mask, _orbits,
                           _sift, _slice_blocks,
                           _stabilizer_gens, _suborbits, group_from_generators,
                           is_transitive, random_element)

__all__ = [
    "CensusReport", "CensusInvariantError", "euler_phi", "count_n_cycles",
    "n_cycle_classes", "cyclic_transitive_count", "are_conjugate_n_cycles",
    "normalizer_order_of_cycle", "theorem_verdict", "extremal_structure_check",
    "validate_report", "run_sweep", "SweepRow",
]


class CensusInvariantError(RuntimeError):
    """An exact identity the census relies on failed; treat as a build break."""


class _JsonReport:
    """JSON form of a report dataclass: its fields in declaration order, a
    Fraction as {"num", "den"} and a tuple as a list.  Reading back takes
    exactly those fields and ignores any other key."""

    def to_json_dict(self) -> dict:
        def encode(v):
            if isinstance(v, Fraction):
                return {"num": v.numerator, "den": v.denominator}
            return list(v) if isinstance(v, tuple) else v
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict):
        def decode(v):
            if isinstance(v, dict):
                return Fraction(v["num"], v["den"])
            return tuple(v) if isinstance(v, list) else v
        return cls(**{f.name: decode(d[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class CensusReport(_JsonReport):
    """All census quantities for one transitive group.

    bound is the exact rational |G|/n; equality means the cyclic
    transitive subgroup count attains it.  solvable is only computed when
    equality holds (None otherwise); structure_verdict is one of "pass",
    "fail", "not_applicable"; tower is the prime tower certificate when
    the structure check passed.  count_divides_order reports whether the
    subgroup count divides |G| (None when the count is zero).
    """

    degree: int
    order: int
    n_cycle_count: int
    class_count: int
    cyclic_transitive_count: int
    bound: Fraction
    phi_n: int
    equality: bool
    solvable: bool | None
    structure_verdict: str
    count_divides_order: bool | None
    tower: tuple[int, ...] | None


# counting ----------------------------------------------------------------

def count_n_cycles(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Exact n-cycle count, summed over one coset per orbit of a stabilizer.

    N(0, b), the number of n-cycles sending 0 to b, is constant on each
    orbit O_b of G_0, so the count is the sum of |O_b| N(0, b) over b =
    min O_b.  Above _SLICE_CELLS elements, base[1]'s share is read off the
    _second_level_cosets of G, each of |G|/(n |O_b|) elements, any other
    off the slice of |G|/n elements sending 0 to b.  But first, a minimal
    system of r blocks of s points with constituent K and block action H,
    |K|^r |H| = |G|, makes G the full wreath product K wr H it embeds in
    (Krasner-Kaloujnine): #r-cycles(H) |K|^(r-1) #s-cycles(K).  Refused
    when |G| exceeds the cap.  Every census entry point is a view over it.
    """
    if not is_transitive(G):
        raise NotTransitiveError("the census requires a transitive group")
    if G.order > cap:
        raise CapExceeded(G.order, cap)
    deep = G.order > permutations._SLICE_CELLS
    if deep:
        for system in all_minimal_block_systems(G):
            K, H = block_constituent(G, system), block_action(G, system)
            if K.order ** system.r * H.order == G.order:
                return (count_n_cycles(H, G.order) * K.order ** (system.r - 1)
                        * count_n_cycles(K, G.order))
    top = _top_level(G)
    count, shallow = 0, []
    for b, size in _suborbits(G):
        if deep and b == G.base[1]:   # |G| > n, so G_0 moves base[1]
            count += _weighted_count(G, _second_level_cosets(G), 2)
        else:
            shallow.append((top[b], size))
    return count + _weighted_count(G, shallow, 1)


def _top_level(G: PermGroup) -> dict[int, bytes]:
    """Level 0 of a transitive group's chain: t_0[b] sends 0 to b.  Degree
    1 has no base, and its one representative is the identity."""
    return G.transversals[0] if G.base else {0: b"\x00"}


def _second_level_cosets(G: PermGroup) -> list[tuple[bytes, int]]:
    """(p, |O_b| |O_c|) for the suborbit O_b of b = base[1], one pair per
    orbit O_c of G_{0,b} on the points an n-cycle can send b to after 0,
    with p = t_0[b] o t_1[c'], c = min O_c and c' = t_0[b]^-1(c).

    The elements sending 0 to b and b to c are p o G_{0,b}, which levels 2
    and on of the chain list.  Conjugation by G_{0,b} moves c along O_c,
    so N(0, b) is the sum of |O_c| N(0, b, min O_c) over the G_{0,b}-orbits
    in t_0[b](O_b), and |O_b| N(0, b) is the suborbit's share of the
    count.  c = 0 is left out: it closes the 2-cycle (0 b), and n > 2
    here, since G_0 moves b.
    """
    b = G.base[1]
    t0 = G.transversals[0][b] + bytes(range(G.degree, 256))   # padded
    t0_inv = G._inverses[0][b]
    level1 = G.transversals[1]
    return [(level1[t0_inv[orbit[0]]].translate(t0), len(level1) * len(orbit))
            for orbit in _orbits(G.degree, _stabilizer_gens(G, 1))
            if orbit[0] and t0_inv[orbit[0]] in level1]


def _weighted_count(G: PermGroup, weighted, level: int) -> int:
    """The sum of w times the number of n-cycles among the rows
    p o t_level[.] o ... of _slice_blocks, over the pairs (p, w).

    The rows come in one block stream, prefix after prefix, each prefix
    giving the product of the transversal sizes from level on, so row k
    belongs to prefix k // that product.
    """
    import numpy as np   # at call time, as in the slice kernel
    if not weighted:
        return 0
    per_prefix = prod(map(len, G.transversals[level:]))
    found = np.zeros(len(weighted), dtype=np.int64)
    start = 0
    # map drops each block before the next is built: one block is live.
    for mask in map(_full_cycle_mask,
                    _slice_blocks(G, [p for p, _ in weighted], level)):
        rows = start + np.flatnonzero(mask)
        found += np.bincount(rows // per_prefix, minlength=len(weighted))
        start += len(mask)
    return sum(w * int(k) for (_, w), k in zip(weighted, found))


# conjugacy ---------------------------------------------------------------

def are_conjugate_n_cycles(G: PermGroup, sigma: Permutation,
                           tau: Permutation) -> bool:
    """Whether two n-cycles are conjugate inside G.

    Tests the n candidate conjugators sigma^k * x0 for membership, where
    x0 is the relabeling matching up the two cycles: x0 alone for sigma in
    G, as the candidates then all lie in G or all miss it.
    """
    if not (sigma.is_n_cycle() and tau.is_n_cycle()):
        raise ValueError("both permutations must be full cycles")
    if sigma.degree != G.degree or tau.degree != G.degree:
        raise ValueError("degree mismatch with the group")
    s = sigma.images
    steps = 1 if _contains_raw(G, s) else G.degree
    return _are_conjugate_raw(G, s, tau.images, steps)


def _are_conjugate_raw(G: PermGroup, s: tuple[int, ...], t: tuple[int, ...],
                       steps: int = 1) -> bool:
    """Sifts the candidates sigma^k * x0, k < steps, stepped as bytes."""
    n = len(s)
    x0 = bytearray(n)
    for a, b in zip(_cycle(s, 0), _cycle(t, 0)):
        x0[a] = b
    cand, s, pad = bytes(x0), bytes(s), bytes(range(n, 256))
    for _ in range(steps):
        if _sift(G._inverses, cand)[1] == n:
            return True
        cand = s.translate(cand + pad)
    return False


def n_cycle_classes(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP
                    ) -> tuple[int, tuple[Permutation, ...]]:
    """Number of conjugacy classes of n-cycles, with the lexicographically
    minimal representative of each, in increasing order.

    Every class has |G|/n elements.  The images of 0 over one class form
    a union of G_0-orbits, so the class minimum lies in the slice of the
    least point of one of them.  The orbit-minimum slices are scanned in
    increasing order, each sorted, and a candidate not conjugate to an
    earlier one opens a new class.
    """
    import numpy as np   # at call time, as in the slice kernel
    class_count = theorem_verdict(G, cap).class_count
    reps: list[tuple[int, ...]] = []
    top = _top_level(G)
    for b, _ in _suborbits(G):
        if len(reps) == class_count:
            break
        cycles = np.concatenate([
            block[_full_cycle_mask(block)]
            for block in _slice_blocks(G, [top[b]], 1)])
        cycles = cycles[np.lexsort(cycles.T[::-1])]
        for t in map(tuple, cycles.tolist()):
            if not any(_are_conjugate_raw(G, r, t) for r in reps):
                reps.append(t)
                if len(reps) == class_count:
                    break
    if len(reps) != class_count:
        raise CensusInvariantError(
            f"found {len(reps)} class representatives, expected {class_count}")
    return class_count, tuple(Permutation(rep) for rep in reps)


def cyclic_transitive_count(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Number of cyclic transitive subgroups: n-cycle count / phi(n), exactly."""
    return theorem_verdict(G, cap).cyclic_transitive_count


def normalizer_order_of_cycle(G: PermGroup, sigma: Permutation) -> int:
    """Order of the normalizer of <sigma> in G, for an n-cycle sigma of G.

    The normalizer is n * #{u : 1 <= u <= n, gcd(u, n) = 1, sigma^u
    conjugate to sigma in G}: the elements of G conjugating sigma to
    sigma^u form a coset of the centralizer C_G(sigma) = <sigma>, of n
    elements.
    """
    if not sigma.is_n_cycle():
        raise ValueError("normalizer_order_of_cycle needs a full cycle")
    if sigma.degree != G.degree or not _contains_raw(G, sigma.images):
        raise ValueError("the cycle does not lie in the group")
    n = G.degree
    return n * sum(_are_conjugate_raw(G, sigma.images, (sigma ** u).images)
                   for u in range(1, n + 1) if gcd(u, n) == 1)


# verdicts ----------------------------------------------------------------

def _structure_tower(G: PermGroup) -> tuple[int, ...] | None:
    """Search for a chain of invariant partitions with prime ratios.

    Each step must induce, on the sub-blocks inside one super-block, a
    group that sits between C_p and AGL_1(p): degree p, containing a
    p-cycle, order dividing p(p-1).  The p-cycle needs no search: H and
    each block constituent are transitive (the setwise stabilizer of a
    block is transitive on it), so p divides the order and an element of
    order p in S_p is a p-cycle.  Greedy over minimal systems with
    backtracking; the first passing tower is returned, finest step first,
    or None.  It enumerates no group: constituents are built from
    stabilizer chains.
    """

    def rec(H: PermGroup):
        m = H.degree
        if m == 1:
            return []
        systems = all_minimal_block_systems(H)
        if not systems:
            if is_prime(m) and (m * (m - 1)) % H.order == 0:
                return [m]
            return None
        for system in systems:
            s = system.s
            if not is_prime(s):
                continue
            constituent = block_constituent(H, system)
            if (s * (s - 1)) % constituent.order != 0:
                continue
            rest = rec(block_action(H, system))
            if rest is not None:
                return [s] + rest
        return None

    tower = rec(G)
    return None if tower is None else tuple(tower)


def extremal_structure_check(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP):
    """Certify the block structure of a group attaining the bound.

    Only meaningful when the cyclic-transitive-subgroup count equals
    |G|/n; raises ValueError otherwise.  Returns (passed, tower), read off
    the census report: passed is its structure verdict.
    """
    report = theorem_verdict(G, cap)
    if not report.equality:
        raise ValueError("extremal structure check requires the bound to be attained")
    return report.structure_verdict == "pass", report.tower


def _verdict_full(G: PermGroup, cap: int):
    count = count_n_cycles(G, cap)
    n, order = G.degree, G.order
    phi = euler_phi(n)
    class_count = count * n // order   # |class| = |G|/n
    subcount, remainder = divmod(count, phi)
    bound = Fraction(order, n)
    equality = remainder == 0 and Fraction(subcount) == bound

    solvable, verdict, tower = None, "not_applicable", None
    if equality:
        # A passing tower embeds G in an iterated wreath product of
        # subgroups of AGL_1(p), which is solvable: no derived series needed.
        tower = _structure_tower(G)
        solvable = tower is not None or derived_series(G)[1]
        verdict = "fail" if tower is None else "pass"

    report = CensusReport(
        degree=n, order=order, n_cycle_count=count, class_count=class_count,
        cyclic_transitive_count=subcount, bound=bound, phi_n=phi,
        equality=equality, solvable=solvable, structure_verdict=verdict,
        count_divides_order=(order % subcount == 0) if subcount else None,
        tower=tower)
    return report, validate_report(report)


def theorem_verdict(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> CensusReport:
    """Full census of one group; raises CensusInvariantError on any
    violated identity (which would mean a bug or a counterexample)."""
    report, violations = _verdict_full(G, cap)
    if violations:
        raise CensusInvariantError("; ".join(violations))
    return report


def validate_report(report: CensusReport) -> list[str]:
    """Re-check every exact identity a report must satisfy; one message
    per failed identity."""
    count, n, phi = report.n_cycle_count, report.degree, report.phi_n
    subcount, classes = report.cyclic_transitive_count, report.class_count
    problems = []
    if count != subcount * phi:
        problems.append(f"n-cycle count {count} != {subcount} * phi({n}) = {phi}")
    if count * n != classes * report.order:
        problems.append(f"n-cycle count {count} != {classes} classes * "
                        f"|G|/n = {Fraction(report.order, n)}")
    if classes > phi:
        problems.append(f"class count {classes} exceeds phi({n}) = {phi}")
    if subcount > report.bound:
        problems.append(f"subgroup count {subcount} exceeds bound {report.bound}")
    if report.equality and report.solvable is False:
        problems.append("bound attained by a non-solvable group")
    return problems


# the catalog sweep ---------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    name: str
    degree: int
    order: int
    status: str                      # "ok" | "skipped" | "violation"
    report: CensusReport | None
    detail: str = ""

    def to_json_dict(self) -> dict:
        """The row as `verify --format json` prints it."""
        return {"name": self.name, "degree": self.degree, "order": self.order,
                "status": self.status, "detail": self.detail,
                "report": self.report.to_json_dict() if self.report else None}


def _sweep_row(name: str, group: PermGroup, cap: int, memo: dict,
               reuse: bool = False) -> SweepRow:
    """One censused row.  memo maps (degree, order) to the censused groups'
    (generator images, report, violations), which reuse reads (run_sweep)."""
    entries = memo.setdefault((group.degree, group.order), [])
    known = (e for e in entries if all(_contains_raw(group, g) for g in e[0]))
    entry = next(known, None) if reuse else None
    if entry is None:
        entry = (tuple(bytes(g.images) for g in group.generators),
                 *_verdict_full(group, cap=cap))
        entries.append(entry)
    _, report, violations = entry
    status = "violation" if violations else "ok"
    return SweepRow(name, group.degree, group.order, status, report,
                    "; ".join(violations))


def run_sweep(instance_cap: int = 200_000,
              subgroup_count: int = 200,
              subgroup_order_cap: int = 100_000,
              seed: int = 20240809,
              include_m23: bool = False) -> list[SweepRow]:
    """Census every standard catalog instance, then random subgroups.

    Instances above instance_cap are reported as skipped rather than
    sampled.  The random phase draws 2-generator subgroups of the
    catalog instances, keeping the transitive ones of order at most
    subgroup_order_cap, until subgroup_count of them have been censused.
    Refuses (ValueError) a negative subgroup_count and caps below 1, which
    would skip every instance or starve the random phase, and a random
    phase that finds fewer than subgroup_count in 60 * subgroup_count draws.

    Every report field is an invariant of the group as a set, so a random
    subgroup H takes the report of a group K of its degree and order
    censused before when K's generators all sift into H: K <= H and
    |K| = |H| give K = H (Lagrange).  Catalog rows are each censused.
    """
    for name, value, least in (("subgroup_count", subgroup_count, 0),
                               ("instance_cap", instance_cap, 1),
                               ("subgroup_order_cap", subgroup_order_cap, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rows: list[SweepRow] = []
    memo: dict = {}
    instances = catalog.standard_instances(include_m23=include_m23)

    for name, group in instances:
        if group.order > instance_cap:
            rows.append(SweepRow(name, group.degree, group.order, "skipped",
                                 None, f"order above sweep cap {instance_cap}"))
        else:
            rows.append(_sweep_row(name, group, instance_cap, memo))

    rng = random.Random(seed)
    produced = 0
    attempts = 0
    max_attempts = 60 * subgroup_count
    while produced < subgroup_count and attempts < max_attempts:
        attempts += 1
        parent_name, parent = instances[rng.randrange(len(instances))]
        g1 = random_element(parent, rng)
        g2 = random_element(parent, rng)
        if len(_orbits(parent.degree, [g1.images, g2.images])) > 1:
            continue   # intransitive: no chain needed to reject the pair
        try:
            # <g1, g2> lies in parent, so its build stops at |parent|
            H = group_from_generators(parent.degree, [g1, g2],
                                      order_cap=subgroup_order_cap,
                                      _ceiling=parent.order)
        except CapExceeded:
            continue   # refused as soon as its partial chain passed the cap
        produced += 1
        rows.append(_sweep_row(f"rand{produced:03d}<{parent_name}", H,
                               subgroup_order_cap, memo, True))
    if produced < subgroup_count:
        raise ValueError(f"only {produced} random subgroups found in "
                         f"{max_attempts} attempts")
    return rows
