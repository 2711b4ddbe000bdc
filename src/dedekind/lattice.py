"""Subgroup lattice enumeration and lattice-level invariants.

A subgroup is a bitmask over element indices, and in a lattice it is named
by its index alone: `SubgroupLattice.masks[i]` and `gens[i]` are subgroup
i's bitmask and a generating tuple, and its order is masks[i].bit_count().
The indices run by (order, mask), and `SubgroupLattice.runs[d]` is the
range of the indices of order d, the orders ascending.  Functions that
return a subgroup return its index.  Enumeration is by cyclic extension
(J. Neubüser, Numer. Math. 2, 1960) along a series of G with prime-index
normal steps down to its solvable residual R, the last term of the derived
series: R = 1 iff G is solvable.  The subgroups of R come from the generic
closure H -> <H, x>, started at the trivial subgroup.  Above them a subgroup
H is extended only by an element x of p-power order that normalizes H, has
x^p in H and lies below H's place in the series, so that H<x> is the union
of p cosets of H, needs no closure, and has H as its one canonical parent
(B. D. McKay, J. Algorithms 26, 1998).  So each subgroup is built exactly
once, and only R's own subgroups need closures.  A direct product of blocks
of pairwise coprime order, as `groups.direct_product` records them, is not
enumerated: with gcd(|A|, |B|) = 1 the subgroups of A x B are the H x K, so
L(A x B) = L(A) x L(B) (R. Schmidt, Subgroup Lattices of Groups, 1994), and
each is put together from one subgroup per block.  A group built from a
table records no blocks, so cyclic extension stays this path's oracle.

The order is read from containment bitsets (`SubgroupLattice.up`, `below`).
`up(i)` is an AND of per-element "subgroups holding x" bitsets, and its dual
`below(i)` the complement of an OR of them over the elements outside subgroup
i.  `_upper_covers` reads the covers by one rule, for `hasse_edges` and the
modular walk alike: if G is supersolvable (decided once per lattice), by
prime index from one up-set per subgroup (B. Huppert, Math. Z. 60, 1954);
otherwise as the transitive reduction of the up-sets along the (order, mask)
index order, a linear extension (Aho, Garey and Ullman, 1972).
`hasse_edges` returns the lower covers of each subgroup as one list of
indices per subgroup, in the order `lattice --json` writes them.
L(H) is the interval [1, H] of L(G) (R. Schmidt, Subgroup Lattices of Groups,
1994), so questions about the subgroups of H are answered on that interval:
the functions that take a `top` index work on [1, top], the whole lattice by
default.  A normalizer is read off the lattice too (`normalizer_index`): by
orbit-stabilizer its order is |G| over the size of the conjugacy class.

Conjugation acts on a subgroup K = <k_1, ..., k_r> through its generators.
Whether elements a normalize K is tested by `normalizes`: a K a^-1 = K iff
every a k_i a^-1 lies in K, r table lookups instead of |K| (D. F. Holt,
B. Eick and E. A. O'Brien, Handbook of Computational Group Theory, 2005).
The conjugacy classes read the image subgroup off the holder bitsets:
a K a^-1 = <a k_1 a^-1, ..., a k_r a^-1> is the lowest index in the AND of
the holders of those r elements.

The modular law is tested on the cover graph: a finite lattice is modular iff
it is upper and lower semimodular (G. Birkhoff, Lattice Theory, 1967).  The
covers are walked lazily, and the test returns the first two covers it meets
that share no cover.  The subgroup lattice of a nilpotent group is lower
semimodular, so there only the upper half is walked.  The brute-force
enumeration stays here as the `consistency` suite's independent oracle.  The
pairwise cover scan and the triple-by-triple modular-law scan, oracles for
`hasse_edges` and `is_lattice_modular`, live with the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Callable
from functools import cached_property
from itertools import zip_longest

from .errors import InvalidParameter, LatticeBudgetExceeded
from .groups import FiniteGroup, _derived_subgroup, _mask_elements
from .numbertheory import is_prime, prime_factorization, prime_power

__all__ = [
    "DEFAULT_LATTICE_BUDGET",
    "SubgroupLattice",
    "subgroup_lattice",
    "all_subgroup_masks",
    "composition_series",
    "normalizes",
    "hasse_edges",
    "maximal_subgroup_indices",
    "frattini_subgroup",
    "is_lattice_modular",
]

DEFAULT_LATTICE_BUDGET = 100_000


def normalizes(g: FiniteGroup | SubgroupLattice, kmask: int, kgens, agens) -> bool:
    """Whether every element of agens normalizes K = <kgens>, with bitmask kmask.

    a K a^-1 is a subgroup of K's order, so it equals K iff it holds a k a^-1
    for each generator k: one table lookup per pair, not one per element of K.
    Only g's `table` and `inverses` are read, which a lattice also holds.
    """
    t, inv = g.table, g.inverses
    for a in agens:
        row, ia = t[a], inv[a]
        for x in kgens:
            if not kmask >> t[row[x]][ia] & 1:
                return False
    return True


def _prime_roots(g: FiniteGroup) -> tuple[list[int], list[int]]:
    """Roots of the prime-power elements, for cyclic extension.

    For every x of order p^k (p prime, k >= 1), prime[x] = p and bit x is set
    in roots[x^p]; all other entries of `prime` are 0.
    """
    table = g.table
    orders = g.element_orders
    prime_of_order = {k: (prime_power(k) or (0,))[0] for k in set(orders)}
    roots = [0] * g.order
    prime = [prime_of_order[k] for k in orders]
    for x, p in enumerate(prime):
        if not p:
            continue
        y = x
        for _ in range(p - 1):
            y = table[y][x]
        roots[y] |= 1 << x
    return roots, prime


def composition_series(g: FiniteGroup) -> list[int]:
    """Masks of a series G = S_0 > S_1 > ... > S_m = R, each S_j normal of
    prime index in S_{j-1}, down to the solvable residual R: the last term of
    the derived series, which is perfect.  R = 1 iff g is solvable, and then
    the series is a composition series; R = G iff g is perfect.

    The derived series is refined factor by factor.  In an abelian factor
    A/D every C with D <= C <= A is normal in A, so C climbs from D to A by one
    element x of prime order p modulo C at a time, and C<x> is the union of
    the p cosets C x^j.
    """
    table = g.table
    derived = [(1 << g.order) - 1]
    gens = g.generating_set
    while derived[-1] != 1:
        mask, gens = _derived_subgroup(g, gens)
        if mask == derived[-1]:
            break
        derived.append(mask)
    c = derived[-1]
    celems, ascending = _mask_elements(c), [c]
    for a in derived[-2::-1]:
        while c != a:
            y = a & ~c
            y = (y & -y).bit_length() - 1
            k, z = 1, y
            while not c >> z & 1:  # k = the order of y modulo C
                z = table[z][y]
                k += 1
            p = min(prime_factorization(k))
            x = g.power(y, k // p)
            xj, new = x, []
            for _ in range(p - 1):
                new += [table[h][xj] for h in celems]
                xj = table[xj][x]
            celems += new
            for z in new:
                c |= 1 << z
            ascending.append(c)
    return ascending[::-1]


def all_subgroup_masks(
    g: FiniteGroup, budget: int = DEFAULT_LATTICE_BUDGET
) -> dict[int, tuple[int, ...]]:
    """All subgroups of g as {mask: generating tuple}.

    Cyclic extension along the series G = S_0 > ... > S_m = R down to the
    solvable residual R (`composition_series`), so that each subgroup is built
    once, from a canonical parent (canonical augmentation, B. D. McKay,
    J. Algorithms 26, 1998).  Let depth(x) be the largest j with x in S_j,
    and the level of H the largest j with H <= S_j.  A subgroup K not in R
    has one canonical parent P = K n S_j, for the least j with K not in S_j:
    P is normal of prime index p in K, and K = P<x> for every x of p-power
    order in K \\ P, of depth j - 1 < level(P).  The chain of parents ends at
    K n R, a subgroup of R.  So the subgroups of R (`_generic_extension`) are
    the seeds, at level m, and H is extended only by an x of p-power order
    with depth(x) < level(H), x^p in H and x normalizing H; then K = H<x> is
    the union of the p cosets H x^j, its level is depth(x), and H is its
    canonical parent.  The elements of K \\ H give the same K, so they are
    marked as tried.  A solvable g has R = 1 and the one seed {1}.

    A direct product of coprime blocks, as `groups.direct_product` records
    them, is not enumerated: with gcd(|A|, |B|) = 1 the subgroups of A x B
    are the H x K (R. Schmidt, Subgroup Lattices of Groups, 1994), and
    `_coprime_product_masks` pairs the blocks' subgroups.
    """
    if g._blocks is not None:
        return _coprime_product_masks(g._blocks, budget)
    series = composition_series(g)
    table = g.table
    roots, prime = _prime_roots(g)
    orders = g.element_orders
    depth = [0] * g.order
    for j, s in enumerate(series):
        for x in _mask_elements(s):
            depth[x] = j
    seen = _generic_extension(g, budget, series[-1])
    # (mask, elements, generators, level, OR of the roots of the elements)
    stack = []
    for hmask, hgens in seen.items():
        helems, rooted = _mask_elements(hmask), 0
        for h in helems:
            rooted |= roots[h]
        stack.append((hmask, helems, hgens, len(series) - 1, rooted))
    while stack:
        hmask, helems, hgens, level, rooted = stack.pop()
        untried = rooted & ~series[level]
        while untried:
            x = (untried & -untried).bit_length() - 1
            if not normalizes(g, hmask, hgens, (x,)):
                # no element of Hx normalizes H either
                coset = 0
                for h in helems:
                    coset |= 1 << table[h][x]
                untried &= ~coset
                continue
            kmask, kelems, krooted = hmask, list(helems), rooted
            xj = x
            for _ in range(prime[x] - 1):
                for h in helems:
                    z = table[h][xj]
                    kmask |= 1 << z
                    kelems.append(z)
                    krooted |= roots[z]
                xj = table[xj][x]
            untried &= ~kmask
            # any element of K \ H generates K over H; one of largest order
            # replaces the generators of H among its powers, which keeps the
            # tuples that `up` and the normality tests walk short
            y = best = max(kelems[len(helems):], key=orders.__getitem__)
            powers, row_best = 1, table[best]
            while y:
                powers |= 1 << y
                y = row_best[y]
            kgens = tuple(h for h in hgens if not powers >> h & 1) + (best,)
            seen[kmask] = kgens
            if len(seen) > budget:
                raise LatticeBudgetExceeded(f"more than {budget} subgroups")
            stack.append((kmask, kelems, kgens, depth[x], krooted))
    return seen


def _coprime_product_masks(
    blocks: list[tuple[FiniteGroup, int]], budget: int
) -> dict[int, tuple[int, ...]]:
    """All subgroups of a product of coprime blocks (f, w), as {mask:
    generating tuple}.  Element x of f is element x*w of the product.

    A block's subgroups are read off its cached lattice, else enumerated
    (without caching one).  A subgroup's mask is the product of one mask per
    block, spread bit x to bit x*w, with no carries as the element sums are
    distinct.  The generators pair as (h_i, k_i, ...), padded with the
    identity: with coprime orders some power of the tuple is each component.
    """
    out: dict[int, tuple[int, ...]] = {}
    for f, w in blocks:
        lat = f._lattice
        subs = (
            list(zip(lat.masks, lat.gens)) if lat is not None
            else list(all_subgroup_masks(f, budget).items())
        )
        if w > 1:
            pad, digits = "0" * (w - 1), f"0{f.order}b"
            subs = [
                (int(pad.join(format(m, digits)), 2), tuple(x * w for x in gens))
                for m, gens in subs
            ]
        if not out:
            out = dict(subs)
            continue
        if len(out) * len(subs) > budget:
            raise LatticeBudgetExceeded(f"more than {budget} subgroups")
        out = {
            hmask * kmask: tuple(h + k for h, k in zip_longest(hgens, kgens, fillvalue=0))
            for hmask, hgens in out.items() for kmask, kgens in subs
        }
    return out


def _generic_extension(g: FiniteGroup, budget: int, r: int) -> dict[int, tuple[int, ...]]:
    """All subgroups of R, with mask r, by the generic closure H -> <H, x>,
    from the trivial subgroup.

    x runs over the prime-power elements of R outside H, and <H, x> is closed
    by `FiniteGroup.closure`.  This reaches every subgroup K of R: each strict
    extension H < K contains a prime-power element outside H (an element of
    K \\ H has some prime-power component outside H, else it would lie in H
    itself), so a chain of such steps climbs from 1 to K.  `all_subgroup_masks`
    needs it only for the solvable residual R, which is 1 iff g is solvable.
    """
    table = g.table
    orders = g.element_orders
    seen: dict[int, tuple[int, ...]] = {1: ()}
    elems_of: dict[int, list[int]] = {1: [0]}
    ppow = [x for x in _mask_elements(r) if prime_power(orders[x])]
    queue = deque(seen)
    while queue:
        hmask = queue.popleft()
        if hmask == r:
            continue
        helems = elems_of[hmask]
        hgens = seen[hmask]
        tried = hmask
        for x in ppow:
            if (tried >> x) & 1:
                continue
            kmask, kelems = g.closure(hgens + (x,))
            for h in helems:
                tried |= 1 << table[h][x]
            if kmask not in seen:
                seen[kmask] = hgens + (x,)
                elems_of[kmask] = kelems
                if len(seen) > budget:
                    raise LatticeBudgetExceeded(f"more than {budget} subgroups")
                queue.append(kmask)
    return seen


class SubgroupLattice:
    """The full subgroup lattice of a finite group.

    Subgroup i is named by its index, in a canonical order (by order, then
    bitmask), and held as two parallel entries: masks[i], its bitmask over
    the elements, and gens[i], a generating tuple.  runs[d] is the range of
    the indices of the subgroups of order d, the orders d ascending.  The
    subgroups are grouped into conjugacy classes; containment bitsets (`up`,
    `below`), normalizers, nilpotency and supersolvability are computed on
    demand.

    The lattice keeps what it reads of the group (its table, inverses,
    order, generating set and whether it is abelian), not the group itself.
    A group caches its lattice (`subgroup_lattice`), so a reference back
    would make every group with a lattice cyclic garbage, freed only by the
    cyclic collector instead of when the group is dropped.
    """

    def __init__(self, group: FiniteGroup):
        self.table, self.inverses, self.order = group.table, group.inverses, group.order
        self.generating_set, self.is_abelian = group.generating_set, group.is_abelian
        found = all_subgroup_masks(group)
        by_order: dict[int, list[int]] = {}
        for m in found:
            by_order.setdefault(m.bit_count(), []).append(m)
        self.masks: list[int] = []
        self.runs: dict[int, range] = {}
        for d in sorted(by_order):
            start = len(self.masks)
            self.masks += sorted(by_order[d])
            self.runs[d] = range(start, len(self.masks))
        self.gens = [found[m] for m in self.masks]

    @property
    def size(self) -> int:
        return len(self.masks)

    def top_index(self, top: int | None) -> int:
        """top, checked to index a subgroup; the whole group's index if None."""
        if top is None:
            return self.size - 1
        if not 0 <= top < self.size:
            raise InvalidParameter(f"subgroup index {top} is not in a lattice of size {self.size}")
        return top

    @cached_property
    def classes(self) -> list[tuple[int, ...]]:
        """Conjugacy classes of subgroups, as sorted index tuples in order of
        first appearance: the orbits under conjugation by G's generators.

        a K a^-1 is generated by the images a k a^-1 of K's generators k, and
        every subgroup holding them all contains it, so in the (order, mask)
        order its index is the lowest one in the AND of their holder bitsets.
        One row x -> a x a^-1 per generator a of G is built up front; each
        conjugation then costs r ANDs for r generators of K.  In an abelian G
        every class is a singleton.
        """
        if self.is_abelian:
            return [(i,) for i in range(self.size)]
        t, inv = self.table, self.inverses
        rows = [[t[t[a][x]][inv[a]] for x in range(self.order)] for a in self.generating_set]
        holders, subgens = self._holders, self.gens
        seen = bytearray(self.size)
        out: list[tuple[int, ...]] = []
        for i in range(self.size):
            if seen[i]:
                continue
            seen[i] = 1
            orbit = [i]
            for j in orbit:
                kgens = subgens[j]
                for row in rows:
                    both = holders[0]
                    for x in kgens:
                        both &= holders[row[x]]
                    k = (both & -both).bit_length() - 1
                    if not seen[k]:
                        seen[k] = 1
                        orbit.append(k)
            out.append(tuple(sorted(orbit)))
        return out

    @cached_property
    def _class_ids(self) -> list[int]:
        out = [0] * self.size
        for cid, cls in enumerate(self.classes):
            for j in cls:
                out[j] = cid
        return out

    def class_of(self, i: int) -> int:
        return self._class_ids[i]

    def class_representatives(self) -> list[int]:
        return [cls[0] for cls in self.classes]

    @property
    def k_prime(self) -> int:
        """Number of conjugacy classes of subgroups."""
        return len(self.classes)

    @property
    def normal_count(self) -> int:
        return sum(1 for cls in self.classes if len(cls) == 1)

    @property
    def nu(self) -> int:
        """Number of conjugacy classes of non-normal subgroups."""
        return self.k_prime - self.normal_count

    def is_normal(self, i: int) -> bool:
        return len(self.classes[self.class_of(i)]) == 1

    def is_nilpotent(self, i: int) -> bool:
        """Whether subgroup H = i is nilpotent: for each prime p dividing |H|,
        exactly one subgroup of H has order |H|_p (each Sylow subgroup is normal)."""
        masks = self.masks
        m = masks[i]
        return all(
            sum(1 for j in self.runs[p**a] if not masks[j] & ~m) == 1
            for p, a in prime_factorization(m.bit_count()).items()
        )

    @cached_property
    def is_supersolvable(self) -> bool:
        """Whether G has a normal series with factors of prime order.

        Climb from 1, stepping from normal N to the first normal M >= N (by
        index) with |M : N| prime.  Each quotient G/N of a supersolvable G has
        a normal subgroup of prime order, so the climb reaches G iff G is
        supersolvable.
        """
        masks, n = self.masks, 1
        for cls in self.classes:
            m = masks[cls[0]]
            if len(cls) == 1 and not n & ~m and is_prime(m.bit_count() // n.bit_count()):
                n = m
        return n == masks[-1]

    @cached_property
    def _windows(self) -> dict[int, tuple[int, int]]:
        """Per order d, (base, span): span marks the order runs of p*d, p a
        prime dividing |G|, and base is the first index among them (0 if none)."""
        runs, primes = self.runs, prime_factorization(self.order)
        out = {}
        for d in runs:
            span = 0
            for p in primes:
                r = runs.get(p * d)
                if r:
                    span |= (1 << r.stop) - (1 << r.start)
            out[d] = (max((span & -span).bit_length() - 1, 0), span)
        return out

    @cached_property
    def _holders(self) -> list[int]:
        """Per element x, the bitset of the indices of the subgroups holding x.

        The transpose of the masks, taken a block of at most 4,096 at a time:
        the block is written as one text of n-digit binary masks (n = |G|),
        the latest mask first, so element x's bits across the block are every
        n-th digit from n - 1 - x, read by one strided slice and `int(., 2)`.
        """
        n, masks = self.order, self.masks
        digits = f"0{n}b"
        holders = [0] * n
        for lo in range(0, len(masks), 4096):
            text = "".join([format(m, digits) for m in reversed(masks[lo : lo + 4096])])
            for x in range(n):
                holders[x] |= int(text[n - 1 - x :: n], 2) << lo
        return holders

    def up(self, i: int) -> int:
        """Bitset of the indices of the subgroups that contain subgroup i.

        The AND over i's generators x of the subgroups holding x, started
        from the first generator's holders; the trivial subgroup has no
        generator and gets holders[0] (the identity's), every subgroup.
        """
        holders = self._holders
        gens = iter(self.gens[i])
        out = holders[next(gens, 0)]
        for x in gens:
            out &= holders[x]
        return out

    def below(self, i: int) -> int:
        """Bitset of the indices of the subgroups in subgroup i, the dual of `up`.

        A subgroup lies outside i iff it holds an element outside i, so this
        is the complement of the OR of the holders of the |G| - |i| elements
        outside i.  The subgroups in i come no later than i, so it is cut to
        indices <= i.
        """
        masks = self.masks
        m = masks[i]
        holders = self._holders
        outside = 0
        for x in _mask_elements(masks[-1] ^ m):
            outside |= holders[x]
        return ~outside & ((1 << (i + 1)) - 1)

    def normalizer(self, i: int) -> int:
        """Bitmask of the normalizer of subgroup i in the whole group.

        Conjugation by a*h equals conjugation by a for h in H, so one element
        per left coset aH is tested, on H's generators (`normalizes`), and its
        verdict covers the whole coset.  The scan reads neither the classes
        nor the other subgroups, so it stays an independent check of
        `normalizer_index`.
        """
        table = self.table
        m, hgens = self.masks[i], self.gens[i]
        helems = _mask_elements(m)
        # per element: 0 until its coset is scanned, then the digit "1" if
        # the coset normalizes H and "0" if not
        digit = bytearray(self.order)
        for a in range(self.order):
            if digit[a]:
                continue
            d = 49 if normalizes(self, m, hgens, (a,)) else 48
            row = table[a]
            for h in helems:
                digit[row[h]] = d
        return int(digit[::-1], 2)

    def normalizer_index(self, i: int) -> int:
        """Index of the normalizer N_G(L) of subgroup L = i, read off the lattice.

        By orbit-stabilizer |N_G(L)| = |G| / |class of L|, and every subgroup
        normalizing L lies in N_G(L).  So N_G(L) is the one subgroup of that
        order above L whose generators conjugate L into itself, which they do
        iff they conjugate L's generators into L.  A lone candidate needs no
        conjugation.  `normalizer` scans cosets instead and stays the
        independent check of the premise.
        """
        subgens = self.gens
        run = self.runs[self.order // len(self.classes[self._class_ids[i]])]
        lo = run.start
        candidates = self.up(i) >> lo & ((1 << len(run)) - 1)
        if candidates and candidates & (candidates - 1) == 0:
            return lo + candidates.bit_length() - 1
        m, lgens = self.masks[i], subgens[i]
        for j in _mask_elements(candidates):
            if normalizes(self, m, lgens, subgens[lo + j]):
                return lo + j
        raise AssertionError("no subgroup of the orbit-stabilizer order normalizes L")


def subgroup_lattice(g: FiniteGroup) -> SubgroupLattice:
    """The (cached) subgroup lattice of g."""
    if g._lattice is None:
        g._lattice = SubgroupLattice(g)
    return g._lattice


def hasse_edges(lat: SubgroupLattice) -> list[list[int]]:
    """The lower covers of each subgroup: out[j] lists the maximal subgroups i
    of subgroup j, in (-|i|, i) order, so the covering pairs (i, j) come by
    (j, -|i|, i) as j ascends.  The subgroups are taken by descending order,
    then ascending index, and their upper covers read by `_upper_covers`, so
    each list is in order as it is built.
    """
    within = (1 << lat.size) - 1
    lower: list[list[int]] = [[] for _ in range(lat.size)]
    for run in reversed(lat.runs.values()):
        for i in run:
            for j in _upper_covers(lat, i, within):
                lower[j].append(i)
    return lower


def _upper_covers(lat: SubgroupLattice, i: int, within: int) -> list[int]:
    """The upper covers of i among the indices in the bitset `within`, ascending.

    An index-p containment, p prime, is always a cover.  If G is
    supersolvable, so are its subgroups, and every cover has prime index
    (Huppert), so the covers of i are up(i) cut to the order runs of p*|i|.
    Otherwise the index order is a linear extension: the lowest index above
    i is a cover, and dropping its up-set and repeating yields the rest.
    """
    covers = []
    if lat.is_supersolvable:
        base, span = lat._windows[lat.masks[i].bit_count()]
        hits = (lat.up(i) & (within & span)) >> base
        while hits:  # top bit first: each step shortens hits, a lowest-bit step does not
            j = hits.bit_length() - 1
            covers.append(base + j)
            hits ^= 1 << j
        covers.reverse()
        return covers
    rest = lat.up(i) & within & ~(1 << i)
    while rest:
        j = (rest & -rest).bit_length() - 1
        covers.append(j)
        rest &= ~(lat.up(j) | 1 << j)
    return covers


def maximal_subgroup_indices(lat: SubgroupLattice, top: int | None = None) -> list[int]:
    """Indices of the maximal subgroups of subgroup top, by decreasing order then index."""
    top = lat.top_index(top)
    within = lat.below(top)
    by_order = sorted(_mask_elements(within ^ (1 << top)), key=lambda i: -lat.masks[i].bit_count())
    return [i for i in by_order if lat.up(i) & within == (1 << top) | (1 << i)]


def frattini_subgroup(g: FiniteGroup, top: int | None = None) -> int:
    """The lattice index of the intersection of the maximal subgroups of
    subgroup top (top if none exist)."""
    lat = subgroup_lattice(g)
    top = lat.top_index(top)
    masks = lat.masks
    acc = masks[top]
    for i in maximal_subgroup_indices(lat, top):
        acc &= masks[i]
    run = lat.runs[acc.bit_count()]
    return bisect_left(masks, acc, run.start, run.stop)


def brute_force_subgroup_masks(g: FiniteGroup) -> set[int]:
    """Every subgroup mask, found the slow and obvious way.

    Starts from the trivial subgroup and repeatedly closes H + {x} under
    multiplication for every subgroup H found so far and every element x,
    using a quadratic fixpoint closure.  Shares nothing with the optimized
    enumeration, so it serves as an independent oracle; intended for groups
    of order <= 24 or so.
    """
    table = g.table

    def close(mask: int) -> int:
        while True:
            elems = _mask_elements(mask)
            grown = mask
            for a in elems:
                row = table[a]
                for b in elems:
                    grown |= 1 << row[b]
            if grown == mask:
                return mask
            mask = grown

    found = {1}
    frontier = [1]
    while frontier:
        hmask = frontier.pop()
        for x in range(1, g.order):
            if hmask >> x & 1:
                continue
            new = close(hmask | 1 << x)
            if new not in found:
                found.add(new)
                frontier.append(new)
    return found


def is_lattice_modular(
    lat: SubgroupLattice, top: int | None = None
) -> tuple[int, int, int, bool] | None:
    """None if the interval [1, top] is modular, else the first semimodularity
    failure found, as (a, b, c, dual).

    A finite lattice is modular iff it is upper and lower semimodular
    (Birkhoff, Lattice Theory, 1967): whenever b and c cover a, b v c covers
    both, and dually.  b v c covers both iff b and c have a common upper cover,
    so the test needs only the cover graph.  A failure has b < c covering a
    with no common upper cover, or, when dual, b < c covered by a with no
    common lower cover.  The upper covers of each element are read by
    `_upper_covers`, the rule `hasse_edges` uses, when first asked for and
    kept, and the pairs of a are checked before those of a + 1, so a
    non-modular lattice usually stops after a few covers.  Only when the
    upper half passes are the kept covers inverted into lower-cover lists for
    the dual half.  The memory is O(edges).

    The dual half is skipped when subgroup top is nilpotent: two distinct
    maximal subgroups b, c of a nilpotent a are normal of prime index, so
    bc = a, and |b : b n c| = |a : c| and |c : b n c| = |a : b| are prime, so
    b n c is covered by both.  The nilpotency test runs only after the upper
    half has passed.
    """
    top = lat.top_index(top)
    within = lat.below(top)
    up: list[list[int] | None] = [None] * (top + 1)

    def upper(i: int) -> list[int]:
        covers = up[i]
        if covers is None:
            covers = up[i] = _upper_covers(lat, i, within)
        return covers

    members = _mask_elements(within)
    failure = _semimodular_scan(members, upper)
    if failure is not None:
        return (*failure, False)
    if lat.is_nilpotent(top):
        return None
    down: list[list[int]] = [[] for _ in range(top + 1)]
    for a in members:
        for j in up[a]:
            down[j].append(a)
    failure = _semimodular_scan(members, down.__getitem__)
    return None if failure is None else (*failure, True)


def _semimodular_scan(
    members: list[int], covers: Callable[[int], list[int]]
) -> tuple[int, int, int] | None:
    """The first (a, b, c) with b < c in covers(a) and no common cover, for a
    in `members` ascending; covers(x) lists the covers of x on one side
    (upper or lower), ascending."""
    for a in members:
        above = covers(a)
        for s, b in enumerate(above[:-1]):
            cb = set(covers(b))
            for c in above[s + 1:]:
                if cb.isdisjoint(covers(c)):
                    return a, b, c
    return None
