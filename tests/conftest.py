"""Shared fixtures, test-only group builders, and slow-but-obvious oracle helpers."""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement, product

import pytest

from dedekind.errors import InvalidParameter, IsoCapExceeded, OrderCapExceeded
from dedekind.families import (
    _companion_action,
    cyclic,
    dihedral,
    elementary_abelian,
    elementary_rtimes_cq,
    generalized_quaternion,
    heisenberg,
    modular_group,
    schmidt_gpqn,
)
from dedekind.formulas import gaussian_binomial
from dedekind.numbertheory import multiplicative_order
from dedekind.groups import (
    DEFAULT_ISO_CAP,
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    _closure,
    _mask_elements,
    direct_product,
    is_isomorphic,
    quotient,
    section_group,
    section_table,
)
from dedekind.invariants import d_prime, sections, sylow_subgroups
from dedekind.specs import build_group, parse_spec
from dedekind.lattice import (
    SubgroupLattice,
    brute_force_subgroup_masks,
    maximal_subgroup_indices,
    normalizes,
    subgroup_lattice,
)
from dedekind.verify import Corpus, build_corpus


# The nine big-specs groups of the benchmark, then larger products.
LARGE_SPECS = [
    "D(256)",
    "Q(256)",
    "SD(3,13)",
    "M(2,9)",
    "D(8) x EA(2,3)",
    "H(2,3,3) x C(3)",
    "H(2,4,4)",
    "K(2,3,2) x C(2) x C(3)",
    "K(2,2,7)",
    "G(97,2,3)",
    "H(3,2,2)",
    "C27Q8",
    "He(5) x C(3)",
    "He(7)",
    "EA(2,7) x C(3)",
    "Q(8) x EA(2,5)",
]

# Specs near the caps whose report takes about 0.35 s or less: lattices of
# up to 7,420 subgroups, modular lattices that are not Dedekind (M, G), and
# groups that are not nilpotent (D(6) x EA(2,4), C27Q8, G(97,2,3)).  Which
# representatives d* skips as isomorphic depends on the labels.
RELABELLED_SPECS = [
    "D(8) x EA(2,4)",
    "He(3) x EA(3,2)",
    "Q(8) x EA(2,4)",
    "M(2,4) x EA(2,3)",
    "D(8) x EA(2,3) x C(3)",
    "D(6) x EA(2,4)",
    "H(2,3,3) x C(3)",
    "C27Q8",
    "G(97,2,3)",
    "M(2,9)",
]


class Fool:
    """An entry that equals, hashes and sums as an int but is not one."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return self.v == other

    def __hash__(self):
        return hash(self.v)

    def __radd__(self, other):
        return other + self.v

    def __repr__(self):
        return f"Fool({self.v})"


@dataclass(frozen=True)
class Perm:
    """Permutation of {0..d-1}; images[i] is where point i goes."""

    images: tuple[int, ...]

    def __post_init__(self):
        d = len(self.images)
        if sorted(self.images) != list(range(d)):
            raise InvalidParameter(f"not a permutation of 0..{d - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Perm":
        """Build a permutation from disjoint cycles, e.g. [(0, 1, 2)]."""
        images = list(range(degree))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return Perm(tuple(images))

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        if self.degree != other.degree:
            raise InvalidParameter("cannot compose permutations of different degree")
        return Perm(tuple(other.images[i] for i in self.images))


def closure_from_generators(gens, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by permutations, numbered in discovery order from the identity."""
    gens = list(gens)
    if not gens:
        raise InvalidParameter("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise InvalidParameter("generators must share one degree")
    ident = Perm.identity(degree)
    elems = [ident]
    index = {ident.images: 0}
    for p in elems:  # grows during iteration
        for g in gens:
            q = p * g
            if q.images not in index:
                if len(elems) >= max_order:
                    raise OrderCapExceeded(
                        f"closure exceeds the order cap {max_order}"
                    )
                index[q.images] = len(elems)
                elems.append(q)
    table = [[index[(a * b).images] for b in elems] for a in elems]
    return FiniteGroup(table, name=f"closure of {len(gens)} perms on {degree} points")


def alternating_5() -> FiniteGroup:
    """A5, of order 60: perfect, so its solvable residual is itself."""
    a5 = closure_from_generators(
        [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]
    )
    assert a5.order == 60
    return a5


def symmetric_5() -> FiniteGroup:
    """S5, of order 120: its solvable residual is A5, of index 2."""
    s5 = closure_from_generators(
        [Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]
    )
    assert s5.order == 120
    return s5


def assert_associative(g: FiniteGroup) -> None:
    """Certify associativity; cubic scan for small orders, and above them
    Light's test (`assert_associative_at`) on the generators and 0."""
    t = g.table
    n = g.order
    if n <= 64:
        for a in range(n):
            ra = t[a]
            for b in range(n):
                ab = ra[b]
                rb = t[b]
                for c in range(n):
                    if t[ab][c] != ra[rb[c]]:
                        raise AssertionError(f"associativity fails at ({a},{b},{c})")
        return
    assert_associative_at(t, set(g.generating_set) | {0})


def assert_associative_at(t, probes) -> None:
    """Light's test on the rows `t`: (a*s)*c == a*(s*c) for all a, c and each
    s in `probes`, which certifies full associativity when the probes reach
    every element by left-bracketed products."""
    n = len(t)
    for s in probes:
        rs = t[s]
        for a in range(n):
            ra = t[a]
            ras = t[ra[s]]
            for c in range(n):
                if ra[rs[c]] != ras[c]:
                    raise AssertionError(f"associativity fails at ({a},{s},{c})")


def power_walk_orders(g: FiniteGroup) -> tuple[int, ...]:
    """The order of each element a, by walking a, a^2, ... to the identity;
    the oracle for `FiniteGroup.element_orders`."""
    out = [1] * g.order
    t = g.table
    for a in range(1, g.order):
        k, x = 1, a
        while x != 0:
            x = t[x][a]
            k += 1
        out[a] = k
    return tuple(out)


def assert_valid_group(g: FiniteGroup) -> None:
    """Full axiom check, independent of the constructors' certificate:
    associativity, two-sided inverses and power/order coherence."""
    assert_associative(g)
    for a in range(g.order):
        assert g.mul(a, g.inverses[a]) == 0
        assert g.mul(g.inverses[a], a) == 0
    for a, k in enumerate(g.element_orders):
        assert k >= 1 and g.order % k == 0
        assert g.power(a, k) == 0
        for j in range(1, k):
            assert g.power(a, j) != 0
    assert g.exponent % max(g.element_orders) == 0


# Entry-by-entry table builders: each fills every one of the n^2 entries from
# the family's encoding, with no generator rows and no validation, as the
# constructors did before they composed rows.  `entrywise_table` is the
# oracle the composed tables must equal.


def entrywise_cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def entrywise_elementary_abelian(p, r):
    digits = list(product(range(p), repeat=r))
    # product() varies the last position fastest; flip so digit 0 is fastest
    index = {d: sum(c * p**k for k, c in enumerate(d)) for d in digits}
    table = [[0] * p**r for _ in digits]
    for d1 in digits:
        for d2 in digits:
            table[index[d1]][index[d2]] = index[tuple((a + b) % p for a, b in zip(d1, d2))]
    return table


def _entrywise_dihedral_like(two_n, quarter):
    n = two_n // 2
    table = [[0] * two_n for _ in range(two_n)]
    for i, j in product(range(n), range(2)):
        for k, l in product(range(n), range(2)):
            rot = (i + (k if j == 0 else -k) + (quarter if j and l else 0)) % n
            table[i * 2 + j][k * 2 + l] = rot * 2 + (j ^ l)
    return table


def entrywise_dihedral(two_n):
    return _entrywise_dihedral_like(two_n, 0)


def entrywise_quaternion(m):
    return _entrywise_dihedral_like(m, m // 4)


def _entrywise_metacyclic(a_order, b_order, m, m_period):
    """x of order a_order, y of order b_order, y x y^-1 = x^m, m^m_period = 1."""
    m_pows = [pow(m, j, a_order) for j in range(m_period)]
    table = [[0] * (a_order * b_order) for _ in range(a_order * b_order)]
    for i, j in product(range(a_order), range(b_order)):
        row = table[i * b_order + j]
        mj = m_pows[j % m_period]
        for k, l in product(range(a_order), range(b_order)):
            row[k * b_order + l] = ((i + k * mj) % a_order) * b_order + (j + l) % b_order
    return table


def entrywise_modular(p, n):
    return _entrywise_metacyclic(p ** (n - 1), p, p ** (n - 2) + 1, p)


def entrywise_k_pst(p, s, t):
    return _entrywise_metacyclic(p**s, p**t, p ** (s - 1) + 1, p)


def entrywise_schmidt(p, q, n):
    m = next(m for m in range(2, p) if multiplicative_order(m, p) == q)
    return _entrywise_metacyclic(p, q ** (n - 1), m, q)


def entrywise_h_pst(p, s, t):
    ps, pt = p**s, p**t
    blk = pt * p
    table = [[0] * (ps * blk) for _ in range(ps * blk)]
    for a, b, c in product(range(ps), range(pt), range(p)):
        row = table[a * blk + b * p + c]
        for d, e, f in product(range(ps), range(pt), range(p)):
            row[d * blk + e * p + f] = (
                ((a + d) % ps) * blk + ((b + e) % pt) * p + (c + f + a * e) % p
            )
    return table


def entrywise_direct_product(gt, ht):
    gn, hn = len(gt), len(ht)
    return [
        [gt[a][c] * hn + ht[b][d] for c in range(gn) for d in range(hn)]
        for a in range(gn)
        for b in range(hn)
    ]


def entrywise_semidirect_product(nt, ht, action):
    nn, hn = len(nt), len(ht)
    table = []
    for n1 in range(nn):
        for h1 in range(hn):
            row = [0] * (nn * hn)
            for n2 in range(nn):
                tn = nt[n1][action[h1][n2]] * hn
                for h2 in range(hn):
                    row[n2 * hn + h2] = tn + ht[h1][h2]
            table.append(row)
    return table


def entrywise_sd(p, q):
    r = multiplicative_order(p, q)
    return entrywise_semidirect_product(
        entrywise_elementary_abelian(p, r), entrywise_cyclic(q), _companion_action(p, q, r)
    )


def entrywise_c27q8():
    invert = [(-v) % 27 for v in range(27)]
    action = [list(range(27)) if h % 2 == 0 else invert for h in range(8)]
    return entrywise_semidirect_product(entrywise_cyclic(27), entrywise_quaternion(8), action)


ENTRYWISE_BUILDERS = {
    "C": entrywise_cyclic,
    "EA": entrywise_elementary_abelian,
    "D": entrywise_dihedral,
    "Q": entrywise_quaternion,
    "M": entrywise_modular,
    "He": lambda p: entrywise_h_pst(p, 1, 1),
    "G": entrywise_schmidt,
    "H": entrywise_h_pst,
    "K": entrywise_k_pst,
    "SD": entrywise_sd,
    "C27Q8": entrywise_c27q8,
}


def entrywise_table(spec: str) -> tuple[tuple[int, ...], ...]:
    """The table of the spec's group, every entry computed on its own."""
    atoms = [ENTRYWISE_BUILDERS[tag](*params) for tag, params in parse_spec(spec).atoms]
    return tuple(map(tuple, reduce(entrywise_direct_product, atoms)))


def central_product_q8_d8() -> FiniteGroup:
    """Q8 o D8, the extraspecial group 2^(1+4)_- of order 32: Q(8) x D(8) over
    the diagonal central involution.  Element 36 of the product is the pair of
    the two factors' central involutions."""
    return section_group(build_group("Q(8) x D(8)"), (1 << 64) - 1, 1 | 1 << 36)[0]


def conjugate_mask(g: FiniteGroup, mask: int, a: int) -> int:
    """Image of the subgroup bitmask under x -> a x a^-1, element by element."""
    t, ia = g.table, g.inverses[a]
    ra = t[a]
    out = 0
    for x in _mask_elements(mask):
        out |= 1 << t[ra[x]][ia]
    return out


def brute_force_hasse_edges(lat: SubgroupLattice) -> list[tuple[int, int]]:
    """Covering pairs by a quadratic pairwise scan; the oracle for `hasse_edges`."""
    edges: list[tuple[int, int]] = []
    masks = lat.masks
    orders = [m.bit_count() for m in masks]
    for j in range(len(masks)):
        mj, oj = masks[j], orders[j]
        below = [
            i
            for i in range(j)
            if oj % orders[i] == 0 and orders[i] < oj and masks[i] & ~mj == 0
        ]
        below.sort(key=lambda i: -orders[i])
        accepted: list[int] = []
        for i in below:
            mi = masks[i]
            if not any(mi & ~masks[k] == 0 for k in accepted):
                edges.append((i, j))
            accepted.append(i)
    return edges


def edge_pairs(lower: list[list[int]]) -> list[tuple[int, int]]:
    """The covering pairs (i, j) of `hasse_edges`' lower-cover lists, in order."""
    return [(i, j) for j, covered in enumerate(lower) for i in covered]


def lattice_json_doc(spec: str, order: int, lat: SubgroupLattice) -> dict:
    """The `lattice --json` document as dicts and lists, the oracle for the CLI's
    row writer: `json.dumps(doc, indent=2)` is the text it must write.  Its
    edges come from the pairwise oracle, in the same (j, -|i|, i) order."""
    return {
        "spec": spec,
        "order": order,
        "subgroups": [
            {
                "index": i,
                "order": m.bit_count(),
                "normal": lat.is_normal(i),
                "class": lat.class_of(i),
            }
            for i, m in enumerate(lat.masks)
        ],
        "edges": [list(e) for e in brute_force_hasse_edges(lat)],
    }


_MASK_INDEX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def mask_index(lat: SubgroupLattice) -> dict[int, int]:
    """The lattice index of each subgroup bitmask, built once per lattice from
    its sorted masks, so that the oracles share no lookup with the package."""
    index = _MASK_INDEX.get(lat)
    if index is None:
        index = _MASK_INDEX[lat] = {m: i for i, m in enumerate(lat.masks)}
    return index


def meet(lat: SubgroupLattice, i: int, j: int) -> int:
    """The lattice index of the intersection of subgroups i and j."""
    return mask_index(lat)[lat.masks[i] & lat.masks[j]]


def join(lat: SubgroupLattice, i: int, j: int) -> int:
    """The lattice index of the smallest subgroup containing subgroups i and j.

    Every subgroup containing both contains their join, so in the (order,
    mask) ordering the join is the lowest index in both up-sets.
    """
    both = lat.up(i) & lat.up(j)
    return (both & -both).bit_length() - 1


def is_cover(lat: SubgroupLattice, lo: int, hi: int) -> bool:
    """Whether subgroup hi covers subgroup lo: [lo, hi] holds the two alone."""
    return lo != hi and lat.up(lo) & lat.below(hi) == 1 << lo | 1 << hi


def assert_semimodularity_failure(lat: SubgroupLattice, failure) -> None:
    """`is_lattice_modular`'s (a, b, c, dual) is a genuine failure: b < c both
    cover a, and b v c does not cover both; or, when dual, a covers b < c, and
    b ^ c is not covered by both."""
    a, b, c, dual = failure
    assert b < c
    if dual:
        assert is_cover(lat, b, a) and is_cover(lat, c, a)
        m = meet(lat, b, c)
        assert not (is_cover(lat, m, b) and is_cover(lat, m, c))
    else:
        assert is_cover(lat, a, b) and is_cover(lat, a, c)
        j = join(lat, b, c)
        assert not (is_cover(lat, b, j) and is_cover(lat, c, j))


def brute_force_is_modular(lat: SubgroupLattice) -> tuple[int, int, int] | None:
    """The modular law checked triple by triple; the oracle for `is_lattice_modular`.

    Checks join(x, meet(y, z)) == meet(join(x, y), z) for every pair x <= z
    and every y; the first violating (x, y, z) in scan order is returned.  Triples where
    both sides agree for order reasons (x = z, y comparable with z, x <= y)
    are skipped, so only genuinely at-risk triples cost a join.  Cubic in
    |L|, so intended for lattices of a few hundred members.
    """
    n = lat.size
    masks = lat.masks
    for x in range(n):
        mx = masks[x]
        if mx == masks[0]:
            continue
        for z in range(n):
            mz = masks[z]
            if x == z or mx & ~mz:
                continue
            for y in range(n):
                my = masks[y]
                if my & ~mz == 0 or mz & ~my == 0 or mx & ~my == 0:
                    continue
                left = join(lat, x, meet(lat, y, z))
                right = meet(lat, join(lat, x, y), z)
                if left != right:
                    return x, y, z
    return None


def brute_force_subgroup_classes(g: FiniteGroup) -> list[frozenset[int]]:
    """Conjugacy classes of subgroups, from the naive-closure subgroup oracle.

    Returns one frozenset of masks per class; independent of the optimized
    lattice machinery except for single-mask conjugation.
    """
    masks = brute_force_subgroup_masks(g)
    seen: set[int] = set()
    classes: list[frozenset[int]] = []
    for m in sorted(masks):
        if m in seen:
            continue
        orbit = {conjugate_mask(g, m, a) for a in range(g.order)}
        assert orbit <= masks
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


@cache
def _sorted_subgroup_masks(g: FiniteGroup) -> list[int]:
    """`brute_force_subgroup_masks`, sorted and kept per group object for reuse."""
    return sorted(brute_force_subgroup_masks(g))


def goursat_counts(a: FiniteGroup, p: int, k: int) -> tuple[int, int, int]:
    """(|L|, k', |N|) of A x EA(p, k) by Goursat's lemma, from A's subgroups alone.

    A subgroup of A x B is a section A2 <| A1 <= A, a section B2 <= B1 <= B and
    an isomorphism A1/A2 -> B1/B2.  For B = EA(p, k) both quotients are C_p^r:
    there are N(r) = sum_d [k, d]_p [d, r]_p sections of B and |GL(r, p)|
    isomorphisms.  B is central, so a in A fixes such a subgroup under
    conjugation iff a lies in C(A1, A2): it normalizes A1 and A2 and acts
    trivially on A1/A2.  Burnside's lemma then gives k' = sum |C(A1, A2)| / |A|
    over the subgroups, and a subgroup is normal iff C(A1, A2) = A.  A's
    subgroups come from `brute_force_subgroup_masks`, not the enumeration.
    """
    t, inv, n = a.table, a.inverses, a.order
    subs = _sorted_subgroup_masks(a)
    size = fixed = normal = 0
    for a1 in subs:
        e1 = _mask_elements(a1)
        # A1/A2 is elementary abelian of exponent p iff A2 holds every x^p and [x, y]
        gens = [a.power(x, p) for x in e1] + [a.commutator(x, y) for x in e1 for y in e1]
        low = a.closure(gens)[0]
        # a in A lies in C(A1, A2) iff A2 holds every a x a^-1 x^-1 with x in A1;
        # as A2 <= A1, that also makes a normalize A1 and A2
        moved = [sum(1 << y for y in {t[a.conj(g, x)][inv[x]] for x in e1}) for g in range(n)]
        for a2 in subs:
            if a2 & ~a1 or low & ~a2:
                continue
            r = round(math.log(a1.bit_count() // a2.bit_count(), p))
            if r > k:
                continue
            sections_of_b = sum(
                gaussian_binomial(k, d, p) * gaussian_binomial(d, r, p) for d in range(r, k + 1)
            )
            count = sections_of_b * math.prod(p**r - p**i for i in range(r))
            cent = sum(not m & ~a2 for m in moved)
            size += count
            fixed += count * cent
            normal += count if cent == n else 0
    assert fixed % n == 0
    return size, fixed // n, normal


def string_below(lat: SubgroupLattice, i: int) -> int:
    """below(i) by one pass over the masks up to i, spelled as a binary string."""
    m = lat.masks[i]
    return int("".join(["0" if mj & ~m else "1" for mj in lat.masks[i::-1]]), 2)


def orbits(g: FiniteGroup, lat: SubgroupLattice, indices, gens) -> list[tuple[int, ...]]:
    """Orbits, as sorted index tuples in order of first appearance, of the
    subgroups `indices` of g's lattice (a set closed under conjugation by
    `gens`), walked breadth first with one `conjugate_mask` per conjugation."""
    masks, index = lat.masks, mask_index(lat)
    seen = bytearray(len(masks))
    out: list[tuple[int, ...]] = []
    for i in indices:
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for j in orbit:
            m = masks[j]
            for a in gens:
                k = index[conjugate_mask(g, m, a)]
                if not seen[k]:
                    seen[k] = 1
                    orbit.append(k)
        out.append(tuple(sorted(orbit)))
    return out


def orbit_d_star(g: FiniteGroup) -> Fraction:
    """d* on lattice intervals with the H-orbits walked by conjugation.

    For each class representative H, the subgroups of H are split into
    orbits under conjugation by H; K is normal in H exactly when its orbit is
    a singleton, and d'(H/K) is the number of orbits over the number of
    subgroups among those containing K.
    """
    if g.is_abelian:
        return Fraction(1)
    lat = subgroup_lattice(g)
    best = Fraction(1)
    for hi in lat.class_representatives():
        hgens = lat.gens[hi]
        if all(g.table[a][b] == g.table[b][a] for a in hgens for b in hgens):
            continue  # H is abelian: every section has d' = 1
        below_h = string_below(lat, hi)
        orbit_reps = 0
        normals: list[int] = []
        for orbit in orbits(g, lat, _mask_elements(below_h), hgens):
            orbit_reps |= 1 << orbit[0]
            if len(orbit) == 1:
                normals.append(orbit[0])
        for k in normals:
            above = lat.up(k) & below_h
            val = Fraction((above & orbit_reps).bit_count(), above.bit_count())
            if val < best:
                best = val
    return best


def literal_d_star(g: FiniteGroup) -> Fraction:
    """d* by definition: d' of every section's quotient group, minimized."""
    masks = subgroup_lattice(g).masks
    return min(_table_d_prime(section_table(g, masks[hi], masks[ki])[0]) for hi, ki in sections(g))


@cache
def _table_d_prime(table) -> Fraction:
    """d' of the group with this raw section table: equal tables are equal
    groups, so each is built and validated once."""
    return d_prime(FiniteGroup(table))


def is_dedekind(g: FiniteGroup) -> bool:
    """Whether every subgroup of g is normal, i.e. every cyclic subgroup is."""
    if g.is_abelian:
        return True
    gens = g.generating_set
    return all(normalizes(g, g.closure((x,))[0], (x,), gens) for x in range(1, g.order))


def literal_is_nilpotent(g: FiniteGroup) -> bool:
    """Nilpotency as every Sylow subgroup being normal, read off g's own lattice."""
    lat = subgroup_lattice(g)
    return all(lat.is_normal(i) for i in sylow_subgroups(g).values())


def literal_is_schmidt(g: FiniteGroup) -> bool:
    """Minimal non-nilpotency by definition: g is not nilpotent, and each
    maximal subgroup, induced as a group, is nilpotent on its own lattice."""
    if literal_is_nilpotent(g):
        return False
    lat = subgroup_lattice(g)
    return all(
        literal_is_nilpotent(section_group(g, lat.masks[i])[0])
        for i in maximal_subgroup_indices(lat)
    )


def literal_derived_mask(g: FiniteGroup) -> int:
    """G' by definition: the subgroup generated by all n^2 commutators."""
    comms = {g.commutator(a, b) for a in range(g.order) for b in range(g.order)}
    return g.closure(sorted(comms))[0]


def greedy_generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating tuple, re-closing from scratch after each pick:
    the element of largest order, lowest index among ties, outside the
    subgroup generated so far."""
    if g.order == 1:
        return ()
    orders = g.element_orders
    gens: list[int] = []
    mask, elems = 1, [0]
    while len(elems) < g.order:
        best = max(
            (x for x in range(g.order) if not mask >> x & 1),
            key=lambda x: (orders[x], -x),
        )
        gens.append(best)
        mask, elems = g.closure(gens)
    return tuple(gens)


def relabelled(g: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """g with its non-identity elements renamed by a random permutation."""
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    table = [[0] * g.order for _ in range(g.order)]
    for a, row in enumerate(g.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return FiniteGroup(table)


def conjugation_sections(g: FiniteGroup) -> list[tuple[int, int]]:
    """The lattice index pairs (H, K) of every section H/K of g, H ascending
    and then K: K runs over the subgroups inside H, and K is normal in H when
    conjugating K's whole bitset by each generator of H gives K back."""
    lat = subgroup_lattice(g)
    return [
        (hi, ki)
        for hi, (h, hgens) in enumerate(zip(lat.masks, lat.gens))
        for ki, k in enumerate(lat.masks)
        if not k & ~h and all(conjugate_mask(g, k, a) == k for a in hgens)
    ]


def two_step_section(g: FiniteGroup, hmask: int, kmask: int) -> FiniteGroup:
    """H/K in two steps: H's table by hand (elements ascending), then the
    validated quotient by K."""
    elems = [x for x in range(g.order) if hmask >> x & 1]
    index = {e: i for i, e in enumerate(elems)}
    hgrp = FiniteGroup([[index[g.mul(a, b)] for b in elems] for a in elems])
    return quotient(hgrp, sum(1 << index[e] for e in elems if kmask >> e & 1))[0]


def leaf_checked_find_isomorphism(
    g: FiniteGroup, h: FiniteGroup, cap: int = DEFAULT_ISO_CAP
) -> tuple[int, ...] | None:
    """Oracle for `groups.find_isomorphism`, with the same candidates in the
    same order: each prefix of generator images is kept while the subgroup
    it generates in h has the size of the prefix's subgroup in g, and each
    leaf map is rebuilt from a word table and checked on all |G|^2 products."""
    if g.order != h.order:
        return None
    if g.fingerprint != h.fingerprint:
        return None
    if g.order == 1:
        return (0,)
    if g.order > cap:
        raise IsoCapExceeded(f"isomorphism search above order cap {cap}")
    gens = g.generating_set
    prefix_sizes = []
    for i in range(len(gens)):
        mask, elems = _closure(g.table, gens[: i + 1])
        prefix_sizes.append(len(elems))
    # express every element as a left-bracketed word in the generators
    order_words: list[tuple[int, int]] = [(-1, -1)] * g.order
    bfs = [0]
    seen = 1
    for x in bfs:
        row = g.table[x]
        for gi, gen in enumerate(gens):
            y = row[gen]
            if not (seen >> y) & 1:
                seen |= 1 << y
                order_words[y] = (x, gi)
                bfs.append(y)
    g_orders, h_orders = g.element_orders, h.element_orders
    candidates = [
        [e for e in range(h.order) if h_orders[e] == g_orders[gen]] for gen in gens
    ]
    ht = h.table
    images: list[int] = []

    def dfs(depth: int) -> tuple[int, ...] | None:
        if depth == len(gens):
            phi = [0] * g.order
            img_mask = 1
            for x in bfs[1:]:
                parent, gi = order_words[x]
                v = ht[phi[parent]][images[gi]]
                phi[x] = v
                img_mask |= 1 << v
            if img_mask.bit_count() != g.order:
                return None
            gt = g.table
            for a in range(g.order):
                ra, pa = gt[a], phi[a]
                for b in range(g.order):
                    if phi[ra[b]] != ht[pa][phi[b]]:
                        return None
            return tuple(phi)
        for img in candidates[depth]:
            images.append(img)
            mask, elems = _closure(ht, images)
            if len(elems) == prefix_sizes[depth]:
                found = dfs(depth + 1)
                if found is not None:
                    return found
            images.pop()
        return None

    return dfs(0)


@pytest.fixture(scope="session")
def zoo() -> dict[str, FiniteGroup]:
    """Small named groups reused across test modules."""
    return {
        "c1": cyclic(1),
        "c2": cyclic(2),
        "c6": cyclic(6),
        "c12": cyclic(12),
        "ea4": elementary_abelian(2, 2),
        "ea8": elementary_abelian(2, 3),
        "ea9": elementary_abelian(3, 2),
        "s3": dihedral(6),
        "d8": dihedral(8),
        "d12": dihedral(12),
        "d16": dihedral(16),
        "q8": generalized_quaternion(8),
        "q16": generalized_quaternion(16),
        "he3": heisenberg(3),
        "m16": modular_group(2, 4),
        "m27": modular_group(3, 3),
        "a4": elementary_rtimes_cq(2, 3),
        "g12": schmidt_gpqn(3, 2, 3),
    }


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    """The standard corpus, built once; reports computed on it cache lattices."""
    return build_corpus()


@pytest.fixture(scope="session")
def beyond_corpus(corpus) -> list[FiniteGroup]:
    """30 non-abelian groups of types the corpus does not hold, in order of discovery.

    The sections H/K (H a class representative, 8 <= |H/K| <= 64) of the 19
    non-abelian corpus groups of order <= 16 and of their products of order
    <= 64, one kept per isomorphism type, found by fingerprint and then
    `is_isomorphic`.  Each is built by `section_group`, a validated table.
    """
    small = [e.group for e in corpus if e.group.order <= 16 and not e.group.is_abelian]
    assert len(small) == 19
    sources = small + [
        direct_product(a, b)
        for a, b in combinations_with_replacement(small, 2)
        if a.order * b.order <= 64
    ]
    by_fingerprint: dict = {}
    for e in corpus:
        by_fingerprint.setdefault(e.group.fingerprint, []).append(e.group)
    new = []
    for g in sources:
        lat = subgroup_lattice(g)
        masks, reps = lat.masks, set(lat.class_representatives())
        for hi, ki in sections(g):
            if hi not in reps or not 8 <= masks[hi].bit_count() // masks[ki].bit_count() <= 64:
                continue
            q = section_group(g, masks[hi], masks[ki])[0]
            same = by_fingerprint.setdefault(q.fingerprint, [])
            if q.is_abelian or any(is_isomorphic(q, h) for h in same):
                continue
            same.append(q)
            new.append(q)
    return new
