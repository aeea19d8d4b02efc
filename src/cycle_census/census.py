"""The n-cycle census: counts, conjugacy classes, subgroup counts, verdicts.

For a transitive group G of degree n the census counts the n-cycles
(below a hard cap on |G|), derives their classes, and from them the
quantities of interest: the number of cyclic transitive subgroups
(= n-cycle count / phi(n)), the bound |G|/n, whether the bound is
attained, and, in the attained case, solvability plus a prime-tower
certificate for the wreath-like block structure.

The count visits one coset slice per orbit of the point stabilizer G_0,
not the whole group: the number N(0, b) of n-cycles sending 0 to b is
constant on each G_0-orbit, and the slice of elements sending 0 to b has
|G|/n elements.  The n-cycles are counted, never stored.  The class count
then follows from the class-size identity |class| = |G|/n, since the
centralizer of an n-cycle sigma in the full symmetric group is <sigma>.

A slice is never walked element by element.  Its elements are products
t_0[b] o t_1[.] o ... o t_k[.] of transversal representatives (Seress,
Permutation Group Algorithms, 2003, section 4.1); permutations._slice_blocks
tables the deepest factors into one array, walks the upper ones as
prefixes, and lists the slice in blocks of at most _SLICE_CELLS cells, each
a numpy gather of stacked prefixes through the table.  _full_cycle_mask
then follows 0 through every row of a block at once.  One block is alive
at a time, so for any group the count holds at most the table, one block
(each at most 128 KiB) and a few index vectors of one entry per row.

Conjugacy of two n-cycles sigma, tau is decidable with n membership
tests: every relabeling carrying sigma to tau lies in the coset <sigma>x0
for any one such relabeling x0.  Class representatives are found with
that test inside the orbit-minimum slices.  The test suite checks counts,
classes and representatives against full enumeration with a
conjugation-orbit partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import catalog
from .blocks import (all_minimal_block_systems, block_action,
                     block_constituent, derived_series)
from .ntheory import euler_phi, is_prime
from .permutations import (DEFAULT_ELEMENT_CAP, CapExceeded,
                           NotTransitiveError, PermGroup, Permutation,
                           _compose, _contains_raw, _full_cycle_mask,
                           _orbits, _slice_blocks, _stabilizer_gens,
                           group_from_generators, is_transitive,
                           random_element)

__all__ = [
    "CensusReport", "CensusInvariantError", "euler_phi", "count_n_cycles",
    "n_cycle_classes", "cyclic_transitive_count", "are_conjugate_n_cycles",
    "normalizer_order_of_cycle", "theorem_verdict", "extremal_structure_check",
    "validate_report", "run_sweep", "SweepRow",
]


class CensusInvariantError(RuntimeError):
    """An exact identity the census relies on failed; treat as a build break."""


@dataclass(frozen=True)
class CensusReport:
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

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "order": self.order,
            "n_cycle_count": self.n_cycle_count,
            "class_count": self.class_count,
            "cyclic_transitive_count": self.cyclic_transitive_count,
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
            "phi_n": self.phi_n,
            "equality": self.equality,
            "solvable": self.solvable,
            "structure_verdict": self.structure_verdict,
            "count_divides_order": self.count_divides_order,
            "tower": list(self.tower) if self.tower is not None else None,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CensusReport":
        return CensusReport(
            degree=d["degree"],
            order=d["order"],
            n_cycle_count=d["n_cycle_count"],
            class_count=d["class_count"],
            cyclic_transitive_count=d["cyclic_transitive_count"],
            bound=Fraction(d["bound"]["num"], d["bound"]["den"]),
            phi_n=d["phi_n"],
            equality=d["equality"],
            solvable=d["solvable"],
            structure_verdict=d["structure_verdict"],
            count_divides_order=d["count_divides_order"],
            tower=tuple(d["tower"]) if d["tower"] is not None else None,
        )


# counting ----------------------------------------------------------------

def _suborbits(G: PermGroup) -> list[tuple[int, int]]:
    """(min O, |O|) for every orbit O of the point stabilizer G_0 on 1..n-1.

    Degree 1 has no such orbit; its one slice, the identity, is the 1-cycle.
    """
    if G.degree == 1:
        return [(0, 1)]
    orbits = _orbits(G.degree, _stabilizer_gens(G))
    return [(orbit[0], len(orbit)) for orbit in orbits[1:]]


def count_n_cycles(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Exact n-cycle count, summed over one coset slice per G_0-orbit.

    N(0, b), the number of n-cycles sending 0 to b, is constant on each
    orbit O of G_0 (conjugation by G_0 moves the image of 0 along O), so
    the count is the sum of |O| * N(0, min O).  Refused when |G| exceeds
    the cap or the degree exceeds 64.  Every census entry point is a view
    over this pass.
    """
    if not is_transitive(G):
        raise NotTransitiveError("the census requires a transitive group")
    if G.order > cap:
        raise CapExceeded(G.order, cap)
    catalog._check_degree(G.degree)   # the slice kernel's rows are int8
    # map drops each block before the next is built: one block is live.
    return sum(size * sum(int(mask.sum()) for mask
                          in map(_full_cycle_mask, _slice_blocks(G, b)))
               for b, size in _suborbits(G))


# conjugacy ---------------------------------------------------------------

def _cycle_order_from(t: tuple[int, ...], start: int) -> list[int]:
    out = [start]
    x = t[start]
    while x != start:
        out.append(x)
        x = t[x]
    return out


def are_conjugate_n_cycles(G: PermGroup, sigma: Permutation,
                           tau: Permutation) -> bool:
    """Whether two n-cycles are conjugate inside G.

    Tests the n candidate conjugators sigma^k * x0 for membership, where
    x0 is the relabeling matching up the two cycles.
    """
    if not (sigma.is_n_cycle() and tau.is_n_cycle()):
        raise ValueError("both permutations must be full cycles")
    if sigma.degree != G.degree or tau.degree != G.degree:
        raise ValueError("degree mismatch with the group")
    return _are_conjugate_raw(G, sigma.images, tau.images)


def _are_conjugate_raw(G: PermGroup, s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    n = len(s)
    a = _cycle_order_from(s, 0)
    b = _cycle_order_from(t, 0)
    x0 = [0] * n
    for ai, bi in zip(a, b):
        x0[ai] = bi
    x0 = tuple(x0)
    cand = x0
    for _ in range(n):
        if _contains_raw(G, cand):
            return True
        cand = _compose(s, cand)
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
    class_count = theorem_verdict(G, cap, with_structure=False).class_count
    reps: list[tuple[int, ...]] = []
    for b, _ in _suborbits(G):
        if len(reps) == class_count:
            break
        cycles = np.concatenate([block[_full_cycle_mask(block)]
                                 for block in _slice_blocks(G, b)])
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
    return theorem_verdict(G, cap, with_structure=False).cyclic_transitive_count


def normalizer_order_of_cycle(G: PermGroup, sigma: Permutation) -> int:
    """Order of the normalizer of <sigma> in G, for an n-cycle sigma.

    The normalizer of <sigma> in the full symmetric group has exactly
    n * phi(n) elements (cycle rotations composed with unit-multiplier
    relabelings); each is tested for membership in G.
    """
    if not sigma.is_n_cycle():
        raise ValueError("normalizer_order_of_cycle needs a full cycle")
    if not contains_safe(G, sigma):
        raise ValueError("the cycle does not lie in the group")
    n = G.degree
    if n == 1:
        return 1
    a = _cycle_order_from(sigma.images, 0)
    count = 0
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        for t in range(n):
            images = [0] * n
            for i in range(n):
                images[a[i]] = a[(u * i + t) % n]
            if _contains_raw(G, tuple(images)):
                count += 1
    return count


def contains_safe(G: PermGroup, p: Permutation) -> bool:
    return p.degree == G.degree and _contains_raw(G, p.images)


# verdicts ----------------------------------------------------------------

def _structure_tower(G: PermGroup) -> tuple[bool, tuple[int, ...] | None]:
    """Search for a chain of invariant partitions with prime ratios.

    Each step must induce, on the sub-blocks inside one super-block, a
    group that sits between C_p and AGL_1(p): degree p, containing a
    p-cycle, order dividing p(p-1).  The p-cycle needs no search: H and
    each block constituent are transitive (the setwise stabilizer of a
    block is transitive on it), so p divides the order and an element of
    order p in S_p is a p-cycle.  Greedy over minimal systems with
    backtracking; the first passing tower is reported, finest step first.
    It enumerates no group: constituents are built from stabilizer chains.
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
            constituent = block_constituent(H, system, 0)
            if (s * (s - 1)) % constituent.order != 0:
                continue
            image, _ = block_action(H, system)
            rest = rec(image)
            if rest is not None:
                return [s] + rest
        return None

    tower = rec(G)
    if tower is None:
        return False, None
    return True, tuple(tower)


def extremal_structure_check(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP):
    """Certify the block structure of a group attaining the bound.

    Only meaningful when the cyclic-transitive-subgroup count equals
    |G|/n; raises ValueError otherwise.  Returns (passed, tower).
    """
    report = theorem_verdict(G, cap=cap, with_structure=False)
    if not report.equality:
        raise ValueError("extremal structure check requires the bound to be attained")
    _, solvable = derived_series(G)
    passed, tower = _structure_tower(G)
    return (passed and solvable), tower


def _verdict_full(G: PermGroup, cap: int, with_structure: bool = True):
    count = count_n_cycles(G, cap)
    n = G.degree
    order = G.order
    phi = euler_phi(n)
    class_count = count * n // order   # |class| = |G|/n
    subcount, remainder = divmod(count, phi)
    bound = Fraction(order, n)
    equality = remainder == 0 and Fraction(subcount) == bound

    solvable = None
    verdict = "not_applicable"
    tower = None
    if equality and with_structure:
        _, solvable = derived_series(G)
        passed, tower = _structure_tower(G)
        verdict = "pass" if (solvable and passed) else "fail"

    report = CensusReport(
        degree=n, order=order, n_cycle_count=count, class_count=class_count,
        cyclic_transitive_count=subcount, bound=bound, phi_n=phi,
        equality=equality, solvable=solvable, structure_verdict=verdict,
        count_divides_order=(order % subcount == 0) if subcount else None,
        tower=tower)
    return report, validate_report(report)


def theorem_verdict(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP,
                    with_structure: bool = True) -> CensusReport:
    """Full census of one group; raises CensusInvariantError on any
    violated identity (which would mean a bug or a counterexample)."""
    report, violations = _verdict_full(G, cap, with_structure)
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


def _sweep_row(name: str, group: PermGroup, cap: int) -> SweepRow:
    report, violations = _verdict_full(group, cap=cap)
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
    would otherwise skip every instance or report a failed random phase.
    """
    for name, value, least in (("subgroup_count", subgroup_count, 0),
                               ("instance_cap", instance_cap, 1),
                               ("subgroup_order_cap", subgroup_order_cap, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rows: list[SweepRow] = []
    instances = catalog.standard_instances(include_m23=include_m23)

    for name, group in instances:
        if group.order > instance_cap:
            rows.append(SweepRow(name, group.degree, group.order, "skipped",
                                 None, f"order above sweep cap {instance_cap}"))
        else:
            rows.append(_sweep_row(name, group, instance_cap))

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
        H = group_from_generators(parent.degree, [g1, g2])
        if H.order > subgroup_order_cap:
            continue
        produced += 1
        rows.append(_sweep_row(f"rand{produced:03d}<{parent_name}", H,
                               subgroup_order_cap))
    if produced < subgroup_count:
        rows.append(SweepRow("random-phase", 0, 0, "violation", None,
                             f"only {produced} random subgroups found in "
                             f"{max_attempts} attempts"))
    return rows
