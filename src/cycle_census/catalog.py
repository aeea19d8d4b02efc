"""Constructors for the permutation-group families under study.

Covers regular cyclic groups, holomorphs of cyclic groups, symmetric and
alternating groups, imprimitive wreath products, projective linear groups
PGL_d(q) and their field-automorphism extensions, Singer cycles, the
point-hyperplane duality extension of PGL_3(q), the sharp family of
degree 2*3^k, and the group-spec reader, which parses a generator file
for the sporadic entries (M11, M23, PSL2(11) on 11 points) straight to
its group and checks the file's order annotation.  Every permutation of the
projective points but the Frobenius map is a matrix over GF(q) acting on
the normalized points of GF(q)^d; a Singer cycle is a companion matrix.
"""

from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

from .gf import MAX_Q, FqField, make_field
from .ntheory import (euler_phi, prime_power, smallest_primitive_root,
                      unit_group_generators)
from .permutations import (MAX_DEGREE, CycleParseError, PermGroup,
                           Permutation, _check_degree, _decimal, format_cycles,
                           group_from_generators, parse_permutation)

DATA_ENV_VAR = "CYCLE_CENSUS_DATA"


class GroupSpecError(ValueError):
    """Bad group-spec file: syntax, degree, or order validation failure."""


def data_dir() -> Path:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


# elementary families ---------------------------------------------------

def cyclic_regular(n: int) -> PermGroup:
    """The cyclic group generated by the n-cycle (1,2,...,n)."""
    _check_degree(n)
    cycle = Permutation(tuple((i + 1) % n for i in range(n)))
    return group_from_generators(n, [cycle], _ceiling=n)


def holomorph_cyclic(m: int) -> PermGroup:
    """All maps i -> u*i + t on Z/m; order m * phi(m).

    For prime m this is AGL_1(m), the full normalizer of a regular cyclic
    group inside the symmetric group.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    _check_degree(m)
    translation = Permutation(tuple((i + 1) % m for i in range(m)))
    gens = [translation] + [Permutation(tuple((u * i) % m for i in range(m)))
                            for u in unit_group_generators(m)]
    return group_from_generators(m, gens, _ceiling=m * euler_phi(m))


def symmetric(n: int) -> PermGroup:
    _check_degree(n)
    cycle = Permutation(tuple((i + 1) % n for i in range(n)))
    gens = [cycle] if n <= 2 else [parse_permutation("(1,2)", n), cycle]
    return group_from_generators(n, gens, _ceiling=math.factorial(n))


def alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating groups need degree at least 3")
    _check_degree(n)
    three = parse_permutation("(1,2,3)", n)
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, Permutation(tuple((i + 1) % n for i in range(n)))]
    else:
        # (2,3,...,n) is an even (n-1)-cycle
        gens = [three, parse_permutation(
            "(" + ",".join(str(i) for i in range(2, n + 1)) + ")", n)]
    return group_from_generators(n, gens, _ceiling=math.factorial(n) // 2)


def wreath_imprimitive(inner: PermGroup, outer: PermGroup) -> PermGroup:
    """Imprimitive wreath product: r blocks of size s, blocks permuted by outer.

    Point i of block j (both 1-based) is point (j-1)*s + i; the order is
    |inner|^r * |outer|.
    """
    s, r = inner.degree, outer.degree
    n = s * r
    _check_degree(n)
    gens = []
    for a in inner.raw_generators():
        for j in range(r):
            images = list(range(n))
            for i in range(s):
                images[j * s + i] = j * s + a[i]
            gens.append(Permutation(tuple(images)))
    for b in outer.raw_generators():
        images = [0] * n
        for j in range(r):
            for i in range(s):
                images[j * s + i] = b[j] * s + i
        gens.append(Permutation(tuple(images)))
    return group_from_generators(
        n, gens, _ceiling=inner.order ** r * outer.order)


# projective linear groups ----------------------------------------------

def projective_points(field: FqField, d: int) -> list[tuple[int, ...]]:
    """1-dimensional subspaces of GF(q)^d as normalized representatives.

    Representatives have first nonzero coordinate 1 and are listed in
    lexicographic order of their coordinate vectors (field elements
    ordered by their integer encoding).
    """
    return [vec for vec in itertools.product(field.elements(), repeat=d)
            if next((c for c in vec if c != 0), 0) == 1]


def _normalize_point(field: FqField, vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c != 0:
            if c == 1:
                return vec
            inv = field.inv(c)
            return tuple(field.mul(inv, w) for w in vec)
    raise ValueError("zero vector does not span a projective point")


def _matrix_point_perm(field: FqField, mat, points, index) -> Permutation:
    images = []
    for v in points:
        w = tuple(_dot(field, row, v) for row in mat)
        images.append(index[_normalize_point(field, w)])
    return Permutation(tuple(images))


def _dot(field: FqField, row, v) -> int:
    acc = 0
    for a, b in zip(row, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _gl_generators(field: FqField, d: int):
    """Matrices generating GL_d(q): a transvection, a basis cycle, and a
    diagonal torus generator (omitted for q = 2 where it is trivial)."""
    one, zero = field.one, field.zero
    ident = [[one if i == j else zero for j in range(d)] for i in range(d)]
    transvection = [row[:] for row in ident]
    transvection[0][1] = one
    basis_cycle = [[one if i == (j + 1) % d else zero for j in range(d)]
                   for i in range(d)]
    mats = [transvection, basis_cycle]
    if field.q > 2:
        diag = [row[:] for row in ident]
        diag[0][0] = field.primitive_element()
        mats.append(diag)
    return mats


def pgl_order(d: int, q: int) -> int:
    order = q ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        order *= q ** i - 1
    return order


def _projective_space(d: int, q: int):
    """GF(q), the projective points of GF(q)^d, and each point's index."""
    if d < 2:
        raise ValueError("projective dimension parameter d must be at least 2")
    # Bounds first: prime_power trial-divides q, and q^d has d*log2(q) bits.
    if q > MAX_Q:
        raise ValueError(f"field size q exceeds the supported maximum {MAX_Q}")
    if d > MAX_DEGREE:
        raise ValueError(f"d above {MAX_DEGREE} puts the degree (q^d-1)/(q-1) "
                         f"past the supported maximum {MAX_DEGREE}")
    p, e = prime_power(q)
    _check_degree((q ** d - 1) // (q - 1))
    field = make_field(p, e)
    points = projective_points(field, d)
    return field, points, {v: i for i, v in enumerate(points)}


def pgl(d: int, q: int) -> PermGroup:
    """PGL_d(q) acting on the (q^d - 1)/(q - 1) projective points."""
    field, points, index = _projective_space(d, q)
    gens = [_matrix_point_perm(field, mat, points, index)
            for mat in _gl_generators(field, d)]
    return group_from_generators(len(points), gens, _ceiling=pgl_order(d, q))


def frobenius_point_perm(d: int, q: int) -> Permutation:
    """Coordinatewise p-th power map on projective points."""
    field, points, index = _projective_space(d, q)
    images = [index[_normalize_point(field, tuple(field.frobenius(c) for c in v))]
              for v in points]
    return Permutation(tuple(images))


def pgammal(d: int, q: int) -> PermGroup:
    """PGL_d(q) extended by the field automorphisms; index e = log_p q."""
    return _extend_by_frobenius(pgl(d, q), d, q)   # pgl refuses d and q first


def _extend_by_frobenius(base: PermGroup, d: int, q: int) -> PermGroup:
    """PGammaL_d(q) from the group base = PGL_d(q): base itself for prime q.
    Its order is |PGL_d(q)| e for q = p^e."""
    e = prime_power(q)[1]
    if e == 1:
        return base
    gens = list(base.generators) + [frobenius_point_perm(d, q)]
    return group_from_generators(base.degree, gens,
                                 _ceiling=pgl_order(d, q) * e)


def singer_cycle(d: int, q: int) -> Permutation:
    """An n-cycle of PGL_d(q): the companion matrix of a polynomial over GF(q).

    Multiplication by a generator x of GF(q^d)* permutes the projective
    points in a single cycle; in the basis 1, x, ..., x^(d-1) it is the
    companion matrix of the minimal polynomial of x, so one exists.  The
    monic f of degree d with f_0 != 0 are tried in lexicographic order of
    (f_0, ..., f_{d-1}), and the first whose companion matrix acts as an
    n-cycle is returned.  The matrix is invertible, so it lies in PGL_d(q).
    """
    field, points, index = _projective_space(d, q)
    for tail in itertools.product(field.elements(), repeat=d):
        if tail[0] == 0:
            continue
        # column c is the image of x^c: x^(c+1), or -f_0 - ... - f_{d-1} x^(d-1)
        companion = [[field.one if r == c + 1 else field.zero
                      for c in range(d - 1)] + [field.neg(tail[r])]
                     for r in range(d)]
        cycle = _matrix_point_perm(field, companion, points, index)
        if cycle.is_n_cycle():
            return cycle
    raise AssertionError(f"no companion matrix of degree {d} over GF({q}) "
                         "acts as an n-cycle")


def duality_extension(d: int, q: int) -> PermGroup:
    """PGL_3(q), extended by point-hyperplane duality.

    Acts on 2n points: 1..n are the projective points, n+1..2n the
    hyperplanes (indexed by the same normalized coordinate vectors); the
    extra generator swaps point i with hyperplane i.  It is the polarity
    v -> v^perp, which conjugates a matrix A to its inverse transpose, so
    the order is 2 |PGL_3(q)|.
    """
    if d != 3 or q not in (2, 3):
        raise ValueError("duality extension is built for d = 3 and q in {2, 3}")
    field, points, index = _projective_space(d, q)
    n = len(points)

    hyperplane_sets = [frozenset(i for i, v in enumerate(points)
                                 if _dot(field, w, v) == 0) for w in points]
    set_index = {s: j for j, s in enumerate(hyperplane_sets)}

    def paired(point_perm: Permutation) -> Permutation:
        pi = point_perm.images
        images = list(pi)
        for j, s in enumerate(hyperplane_sets):
            moved = frozenset(pi[i] for i in s)
            images.append(n + set_index[moved])
        return Permutation(tuple(images))

    gens = [paired(_matrix_point_perm(field, mat, points, index))
            for mat in _gl_generators(field, d)]
    swap = Permutation(tuple((i + n) % (2 * n) for i in range(2 * n)))
    gens.append(swap)
    return group_from_generators(2 * n, gens, _ceiling=2 * pgl_order(d, q))


# the sharp family -------------------------------------------------------

def sharpness_group(k: int) -> PermGroup:
    """Degree 2*3^k subgroup of Hol(C_{3^k}) wr C_2 with diagonal multiplier.

    Generated by a translation on each of the two blocks, the diagonal
    multiplication (u, u) for a generator u of the units of Z/3^k, and the
    block swap; order 2 * 3^(2k) * phi(3^k).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_DEGREE:   # before 3^k is formed
        raise ValueError(f"k above {MAX_DEGREE} puts the degree 2*3^k past "
                         f"the supported maximum {MAX_DEGREE}")
    m = 3 ** k
    n = 2 * m
    _check_degree(n)
    u = smallest_primitive_root(m)

    def block_translation(block: int) -> Permutation:
        images = list(range(n))
        off = block * m
        for i in range(m):
            images[off + i] = off + (i + 1) % m
        return Permutation(tuple(images))

    diag = Permutation(tuple((i // m) * m + (u * (i % m)) % m for i in range(n)))
    swap = Permutation(tuple((i + m) % n for i in range(n)))
    return group_from_generators(
        n, [block_translation(0), block_translation(1), diag, swap],
        _ceiling=2 * m * m * euler_phi(m))


# group-spec files --------------------------------------------------------

def parse_group_spec(text: str, name: str = "<string>") -> PermGroup:
    """Parse the group-spec format and return the group it describes.

    Grammar: optional comment lines starting with '#'; one line
    "degree N"; one line "gen <cycles>" per generator, the space optional;
    blank lines are ignored.  A keyword is a whole word: "degrees 3" is an
    unrecognized line.  A comment of the exact form "# expected_order N",
    at most one per file, declares the order the built group must have.
    Every syntax error is raised at its line, before the group is built;
    the annotation is a claim to check, not a proven bound, so the build
    gets no ceiling from it.
    """
    degree = None
    expected = None
    gens: list[Permutation] = []

    def error(message) -> GroupSpecError:   # at the line being read
        return GroupSpecError(f"{name}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["expected_order"]:
                if expected is not None:
                    raise error("duplicate expected_order annotation")
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise error("malformed expected_order annotation")
                expected = _decimal(parts[1], error)
            continue
        keyword = "gen" if line.startswith("gen(") else line.split()[0]
        if keyword == "degree":
            if degree is not None:
                raise error("duplicate degree line")
            parts = line.split()
            if (len(parts) != 2 or not parts[1].isdecimal()
                    or _decimal(parts[1], error) < 1):
                raise error("malformed degree line")
            degree = int(parts[1])
            try:
                _check_degree(degree)
            except ValueError as exc:
                raise error(exc) from None
            continue
        if keyword == "gen":
            if degree is None:
                raise error("generator before degree line")
            try:
                gens.append(parse_permutation(line[3:].strip(), degree))
            except CycleParseError as exc:
                raise error(f"bad generator: {exc}") from exc
            continue
        raise error(f"unrecognized line {line!r}")
    if degree is None:
        raise GroupSpecError(f"{name}: missing degree line")
    if not gens:
        raise GroupSpecError(f"{name}: no generators")
    group = group_from_generators(degree, gens)
    if expected is not None and group.order != expected:
        raise GroupSpecError(f"{name}: constructed order {group.order} "
                             f"does not match expected_order {expected}")
    return group


def load_group_spec(path) -> PermGroup:
    """Load and validate a .grp file; order mismatches fail loudly."""
    path = Path(path)
    return parse_group_spec(path.read_text(), name=path.name)


def load_named(name: str) -> PermGroup:
    """Load <name>.grp from the data directory (see CYCLE_CENSUS_DATA)."""
    return load_group_spec(data_dir() / f"{name}.grp")


def write_group_spec(group: PermGroup, comment: str = "") -> str:
    """Render a group in the group-spec format, with its order annotation.

    A comment line whose first word is expected_order would read back as
    a second annotation, so it is refused (ValueError).
    """
    parts = comment.splitlines()
    if any(part.split()[:1] == ["expected_order"] for part in parts):
        raise ValueError("a comment line may not start with expected_order, "
                         "the order annotation's word")
    lines = [f"# {part}".rstrip() for part in parts]
    lines += [f"# expected_order {group.order}", f"degree {group.degree}"]
    lines += [f"gen {format_cycles(g)}" for g in group.generators]
    return "\n".join(lines) + "\n"


# family codes and the standard instance list -----------------------------

def family_instance(code: str) -> PermGroup:
    """Build a group from a compact code: c<N>, s<N>, a<N>, hol<N>, sharp<K>."""
    code = code.strip().lower()
    for prefix, builder in (("hol", holomorph_cyclic), ("sharp", sharpness_group),
                            ("c", cyclic_regular), ("s", symmetric),
                            ("a", alternating)):
        if code.startswith(prefix) and code[len(prefix):].isdecimal():
            return builder(_decimal(code[len(prefix):], lambda m: ValueError(
                f"family code {prefix}<N>: {m}")))
    raise ValueError(f"unknown family code {code!r} "
                     "(expected c<N>, s<N>, a<N>, hol<N>, or sharp<K>)")


def standard_instances(include_m23: bool = False) -> list[tuple[str, PermGroup]]:
    """The fixed catalog sweep: every family at its standard parameters.

    Wreath products are taken over all ordered pairs of the degree <= 9
    instances whose product degree stays <= 18.  The elementary ranges
    start past hol2 and s2, which are c2, and past a3, which is c3, and
    each pgammal extends the pgl built just before it: one chain build
    per instance.
    """
    out: list[tuple[str, PermGroup]] = (
        [(f"c{n}", cyclic_regular(n)) for n in range(1, 25)]
        + [(f"hol{m}", holomorph_cyclic(m)) for m in range(3, 28)]
        + [(f"s{n}", symmetric(n)) for n in range(3, 9)]
        + [(f"a{n}", alternating(n)) for n in range(4, 9)])
    pool = [(name, G) for name, G in out if 2 <= G.degree <= 9]

    for iname, inner in pool:
        for oname, outer in pool:
            if inner.degree * outer.degree <= 18:
                out.append((f"{iname}_wr_{oname}",
                            wreath_imprimitive(inner, outer)))

    for d, q in ((2, 4), (2, 5), (2, 7), (2, 8), (3, 2), (3, 3)):
        group = pgl(d, q)
        out.append((f"pgl({d},{q})", group))
        if prime_power(q)[1] > 1:
            out.append((f"pgammal({d},{q})", _extend_by_frobenius(group, d, q)))

    out += [("sharpness(1)", sharpness_group(1)),
            ("sharpness(2)", sharpness_group(2)),
            ("duality(3,2)", duality_extension(3, 2)),
            ("m11", load_named("m11")),
            ("psl2_11", load_named("psl2_11"))]
    if include_m23:
        out.append(("m23", load_named("m23")))
    return out
