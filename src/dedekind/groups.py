"""Concrete finite groups as explicit multiplication tables.

Elements are the integers 0..order-1 and element 0 is always the identity.
A subgroup is an int bitmask over the elements, bit x set for element x;
there is no subgroup class.  A table of order n <= 256 holds `bytes` rows,
one byte per entry, and a larger one tuples of ints; both index to the same
ints.

A group is built in one of two ways, and both end in the same certificate.
`FiniteGroup.from_generators` takes the rows of a few generators, and
`cayley_rows` composes every other row from them and certifies the result
by Light's associativity test (A. H. Clifford and G. B. Preston, The
Algebraic Theory of Semigroups I, 1961): row(x * s) must equal row(x)
composed with row(s) on every edge of the walk.  A table that passes is the
table of the permutation group the generator rows generate.
`FiniteGroup(table)` takes any other table.  It first checks the rows: for
n <= 256 by byte operations, n bytes being a permutation of the elements iff
deleting them from bytes(range(n)) leaves nothing; a row that fails that,
and every row above 256, by its set, and only a failing row entry by entry,
to name its first bad entry.  Then element 0 must be a two-sided identity.
Last, `cayley_rows` composes the table from the rows of its own generating
set, and must give the table back.  An associative table with identity 0
and every row a permutation is a left-cancellative finite monoid, so a
group; a table that got that far and fails is therefore not associative.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain
from math import gcd, prod
from operator import index, itemgetter

from .errors import (
    InvalidParameter,
    IsoCapExceeded,
    NotAnAction,
    NotAnAutomorphism,
    NotNormal,
    OrderCapExceeded,
)

__all__ = [
    "DEFAULT_ORDER_CAP",
    "DEFAULT_ISO_CAP",
    "FiniteGroup",
    "GroupFingerprint",
    "cayley_rows",
    "coprime_blocks",
    "direct_product",
    "semidirect_product",
    "section_group",
    "section_table",
    "quotient",
    "find_isomorphism",
    "is_isomorphic",
]

DEFAULT_ORDER_CAP = 512
DEFAULT_ISO_CAP = 128


@dataclass(frozen=True)
class GroupFingerprint:
    """Cheap isomorphism invariants; equal fingerprints do not imply isomorphism."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    abelian: bool
    center_order: int
    derived_order: int


class FiniteGroup:
    """A finite group given by its multiplication table (row * column)."""

    def __init__(self, table, name: str = ""):
        """The group with multiplication table `table`, whose rows may be any
        iterables of ints.  Raises InvalidParameter naming the first row or
        entry that fails, when element 0 is not a two-sided identity, and
        when the table, though its rows pass, is not a group's."""
        n = len(table)
        if n == 0:
            raise InvalidParameter("a group needs at least one element")
        rows = [row if type(row) is bytes else tuple(row) for row in table]  # one-shot rows too
        self._adopt(_checked_rows(rows, n), name)
        gens = {s: self.table[s] for s in self.generating_set}
        try:
            certified = cayley_rows(n, gens) == list(self.table)
        except InvalidParameter:
            certified = False
        if not certified:
            raise InvalidParameter("the table is not associative")

    @classmethod
    def from_generators(cls, n: int, gen_rows, name: str = "") -> FiniteGroup:
        """The group of order n generated by the rows in `gen_rows`, each
        generator s mapped to its row s * y for y in 0..n-1, as composed and
        certified by `cayley_rows`."""
        g = cls.__new__(cls)
        g._adopt(tuple(cayley_rows(n, gen_rows)), name)
        return g

    def _adopt(self, table, name: str) -> None:
        """Take `table` as this group's, with the element orders and inverses
        of one walk of its cyclic subgroups.  No lattice is cached and no
        coprime blocks are recorded (`direct_product` records them)."""
        self.order, self.table, self.name, self._lattice = len(table), table, name, None
        self._blocks = None
        self.element_orders, self.inverses = _orders_and_inverses(table)

    def __repr__(self):
        tag = self.name or "finite group"
        return f"<{tag}, order {self.order}>"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverses[a], -k
        out, row = 0, self.table
        while k:
            if k & 1:
                out = row[out][a]
            a = row[a][a]
            k >>= 1
        return out

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        t, inv = self.table, self.inverses
        return t[t[t[inv[a]][inv[b]]][a]][b]

    @cached_property
    def exponent(self) -> int:
        import math

        e = 1
        for k in set(self.element_orders):
            e = math.lcm(e, k)
        return e

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """A small generating tuple, chosen greedily by element order: each
        pick is the element of largest order, lowest index among ties, outside
        the subgroup generated so far, which `_closure` re-closes after each
        pick."""
        orders = self.element_orders
        gens: list[int] = []
        mask, elems = 1, [0]
        for a in sorted(range(self.order), key=lambda x: (-orders[x], x)):
            if len(elems) == self.order:
                break
            if not mask >> a & 1:
                gens.append(a)
                mask, elems = _closure(self.table, gens)
        return tuple(gens)

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        gens = self.generating_set
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    @cached_property
    def center_mask(self) -> int:
        t = self.table
        gens = self.generating_set
        mask = 0
        for z in range(self.order):
            if all(t[z][g] == t[g][z] for g in gens):
                mask |= 1 << z
        return mask

    @cached_property
    def derived_mask(self) -> int:
        """G' as the normal closure of the commutators of the generators."""
        return _derived_subgroup(self, self.generating_set)[0]

    @cached_property
    def fingerprint(self) -> GroupFingerprint:
        hist: dict[int, int] = {}
        for k in self.element_orders:
            hist[k] = hist.get(k, 0) + 1
        return GroupFingerprint(
            order=self.order,
            order_histogram=tuple(sorted(hist.items())),
            abelian=self.is_abelian,
            center_order=self.center_mask.bit_count(),
            derived_order=self.derived_mask.bit_count(),
        )

    def closure(self, gens) -> tuple[int, list[int]]:
        """Mask and element list of the subgroup generated by `gens`."""
        return _closure(self.table, tuple(gens))


def _orders_and_inverses(table) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The order and the inverse of every element, by one walk of the powers
    of each element whose cyclic subgroup no earlier walk covered: if a has
    order k, a^j has order k / gcd(j, k) and inverse a^(k - j)."""
    n = len(table)
    orders, inverses = [0] * n, [0] * n
    orders[0] = 1
    for a in range(1, n):
        if orders[a]:
            continue
        row, powers, x = table[a], [a], table[a][a]
        while x:  # powers[j - 1] = a^j
            powers.append(x)
            x = row[x]
        k = len(powers) + 1
        for j, x in enumerate(powers, 1):
            orders[x] = k // gcd(j, k)
            inverses[x] = powers[k - j - 1]
    return tuple(orders), tuple(inverses)


def _checked_rows(rows, n: int) -> tuple[bytes, ...] | tuple[tuple[int, ...], ...]:
    """The rows, as bytes when n <= 256 and tuples above, once each is a
    permutation of the elements and element 0 is a two-sided identity;
    otherwise raise InvalidParameter naming the first failure.  A row of
    n <= 256 exact ints is a permutation iff deleting its bytes from
    bytes(range(n)) leaves nothing.  Any other row, or one that fails that,
    is a permutation iff its set is the element set; the per-entry scan runs
    only to word a row's error."""
    ident = bytes(range(n)) if n <= 256 else tuple(range(n))
    elements = set(ident)
    checked = []
    for i, row in enumerate(rows):
        if n <= 256 and (type(row) is bytes or {*map(type, row)} == {int}):
            with suppress(ValueError):  # an entry outside 0..255
                fast = bytes(row)  # bytes() also takes __index__ objects, kept out above
                if len(fast) == n and not ident.translate(None, fast):
                    checked.append(fast)
                    continue
        if len(row) != n:
            raise InvalidParameter(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != elements:
            for j, v in enumerate(row):
                try:
                    inside = 0 <= v < n
                except TypeError:  # e.g. a string, which does not compare with ints
                    raise InvalidParameter(
                        f"entry table[{i}][{j}]={v!r} is not an integer"
                    ) from None
                if not inside:
                    raise InvalidParameter(f"entry table[{i}][{j}]={v} out of range")
            raise InvalidParameter(f"row {i} is not a permutation of the elements")
        if not all(issubclass(t, int) for t in {*map(type, row)}):
            # a float, Fraction or other object equal to an element
            j, v = next((j, v) for j, v in enumerate(row) if not isinstance(v, int))
            raise InvalidParameter(f"entry table[{i}][{j}]={v!r} is not an integer")
        checked.append(bytes(row) if n <= 256 else tuple(row))  # bool entries too
    if checked[0] != ident or any(row[0] != i for i, row in enumerate(checked)):
        raise InvalidParameter("element 0 must be a two-sided identity")
    return tuple(checked)


_BYTE_BITS = [tuple(b for b in range(8) if v >> b & 1) for v in range(256)]


def _mask_elements(mask: int) -> list[int]:
    """Set-bit indices in one pass over the bytes of mask, so in time linear in
    its length also for the lattice-sized bitsets of `SubgroupLattice.below`."""
    out = []
    for base, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if byte:
            base <<= 3
            for b in _BYTE_BITS[byte]:
                out.append(base + b)
    return out


def _closure(table, gens) -> tuple[int, list[int]]:
    mask = 1
    elems = [0]
    for x in elems:  # grows during iteration
        row = table[x]
        for g in gens:
            y = row[g]
            if not (mask >> y) & 1:
                mask |= 1 << y
                elems.append(y)
    return mask, elems


def _derived_subgroup(g: FiniteGroup, gens) -> tuple[int, list[int]]:
    """The derived subgroup of <gens> as (mask, generators): the normal closure
    in <gens> of the commutators of the generators."""
    ngens = sorted({g.commutator(a, b) for a in gens for b in gens} - {0})
    mask = _closure(g.table, ngens)[0]
    for x in ngens:  # grows during iteration
        for a in gens:
            y = g.conj(a, x)
            if not (mask >> y) & 1:
                ngens.append(y)
                mask = _closure(g.table, ngens)[0]
    return mask, ngens


def cayley_rows(n: int, gen_rows) -> list:
    """Every row of the table of a group of order n from the rows of a few
    generators, certified to be a group's table: `gen_rows` maps each
    generator s to its row, s * y for y in 0..n-1.  The rows are `bytes`
    when n <= 256 and tuples of ints above.

    In the left-regular representation row(x * s) is row(x) composed with
    row(s): entry y is row(x)[row(s)[y]].  For n <= 256 that is one
    `bytes.translate` of row(s) by row(x), padded to 256 bytes; above, one
    `itemgetter` call.  A breadth-first walk from the identity composes the
    row of each element it reaches, and on every other edge (x, s) checks
    that the composed row equals the row already held: Light's associativity
    test (Clifford and Preston, The Algebraic Theory of Semigroups I, 1961).

    With each generator row a permutation of 0..n-1 holding s at 0, a walk
    that passes gives n distinct permutations (row(x) holds x at 0), each a
    product of generator rows, closed under the generators and so a group P
    acting regularly on 0..n-1.  Row x is then the one element of P taking
    0 to x, and row(x)[y] the element that row(x) row(y) takes 0 to, so the
    table is P's: associative, with identity 0, inverses and a permutation
    in every row and column.  Raises InvalidParameter when a generator row
    is not such a permutation, when an edge fails, or when the generators
    reach fewer than n elements.
    """
    rows: list = [None] * n
    elements = set(range(n))
    if n <= 256:
        rows[0], pad, as_row = bytes(range(n)), bytes(256 - n), bytes
    else:
        rows[0], pad, as_row = tuple(range(n)), (), tuple
    pickers = []
    for s, row in gen_rows.items():
        try:
            row = as_row(map(index, row))
        except (TypeError, ValueError):  # an entry that is not an int, or past 255
            row = None
        if row is None or len(row) != n or set(row) != elements:
            raise InvalidParameter(f"the row of generator {s} is not a permutation of 0..{n - 1}")
        if row[0] != s:
            raise InvalidParameter(f"the row of generator {s} holds {row[0]} at 0, not {s}")
        pickers.append((s, row.translate if n <= 256 else itemgetter(*row)))
    reached = [0]
    for x in reached:  # grows during iteration
        rx = rows[x]
        padded = rx + pad
        for s, pick in pickers:
            y, row = rx[s], pick(padded)
            if rows[y] is None:
                rows[y] = row
                reached.append(y)
            elif rows[y] != row:
                raise InvalidParameter(
                    f"row {x} times the row of generator {s} is not row {y}: "
                    "the generator rows do not make a group's table"
                )
    if len(reached) != n:
        raise InvalidParameter(
            f"generators {sorted(gen_rows)} reach {len(reached)} of {n} elements"
        )
    return rows


def _product_rows(n_grp: FiniteGroup, h_grp: FiniteGroup, acts=None) -> dict:
    """The generator rows of N x| H, element n*|H|+h for the pair (n, h):
    those of (s, 1) and (1, t) for s and t in the factors' generating sets.
    acts[t] is the permutation of N by which t acts; None is the trivial
    action, a direct product."""
    hn = h_grp.order
    gen_rows = {}
    for s in n_grp.generating_set:  # (s, 1)(n2, h2) = (s n2, h2)
        gen_rows[s * hn] = tuple(
            chain.from_iterable(range(k * hn, k * hn + hn) for k in n_grp.table[s])
        )
    for t in h_grp.generating_set:  # (1, t)(n2, h2) = (action[t](n2), t h2)
        hrow = h_grp.table[t]
        act = range(n_grp.order) if acts is None else acts[t]
        gen_rows[t] = [k * hn + v for k in act for v in hrow]
    return gen_rows


def coprime_blocks(orders: list[int]) -> list[list[int]]:
    """The indices of orders in the finest blocks of pairwise coprime product:
    two orders that share a prime share a block.  Each block keeps the
    indices ascending, and the blocks run by their first index."""
    blocks: list[list[int]] = []
    for i, n in enumerate(orders):
        joined = [b for b in blocks if gcd(n, prod(orders[j] for j in b)) > 1]
        blocks = [b for b in blocks if b not in joined]
        blocks.append(sorted([i, *(j for b in joined for j in b)]))
    return sorted(blocks)


def direct_product(
    g: FiniteGroup, h: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Direct product; element a*|H|+b stands for the pair (a, b).  Its table
    is composed from the rows of the factors' generators (`_product_rows`).

    The parts are g's recorded blocks, each w times |H|, then h's; a group
    that records none is the part (itself, 1).  If `coprime_blocks` of their
    orders are two or more runs of adjacent parts, the product records them,
    for `lattice.all_subgroup_masks`, as `_blocks`: (the product of a run's
    parts, its last part's w), element x of which is element x*w of the
    product.  So every bracketing records the same blocks."""
    n = g.order * h.order
    if n > order_cap:
        raise OrderCapExceeded(f"product of order {n} exceeds the cap {order_cap}")
    name = f"{g.name} x {h.name}" if g.name and h.name else ""
    out = FiniteGroup.from_generators(n, _product_rows(g, h), name)
    parts = [(f, w * h.order) for f, w in g._blocks or [(g, 1)]] + (h._blocks or [(h, 1)])
    blocks = coprime_blocks([f.order for f, _ in parts])
    if len(blocks) > 1 and all(b[-1] - b[0] == len(b) - 1 for b in blocks):
        fold = partial(direct_product, order_cap=order_cap)
        out._blocks = [(reduce(fold, [parts[i][0] for i in b]), parts[b[-1]][1]) for b in blocks]
    return out


def semidirect_product(
    n_grp: FiniteGroup,
    h_grp: FiniteGroup,
    action,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Semidirect product N x| H; element n*|H|+h stands for the pair (n, h).

    `action[h]` is the permutation of N's elements by which h acts; the pair
    (n1, h1)*(n2, h2) = (n1 * action[h1](n2), h1*h2).  Every action[h] must be
    an automorphism of N and h -> action[h] must be a homomorphism; both are
    checked a whole row at a time.  The table is then composed from the rows
    of the factors' generators (`_product_rows`).
    """
    order = n_grp.order * h_grp.order
    if order > order_cap:
        raise OrderCapExceeded(f"product of order {order} exceeds the cap {order_cap}")
    if len(action) != h_grp.order:
        raise NotAnAction("need one permutation of N per element of H")
    acts = [tuple(a) if isinstance(a, Iterable) else () for a in action]
    nn = n_grp.order
    elements = set(range(nn))
    nt, ht = n_grp.table, h_grp.table
    for h, perm in enumerate(acts):
        ints = all(issubclass(t, int) for t in {*map(type, perm)})  # bool too, as in tables
        if len(perm) != nn or not ints or set(perm) != elements:
            raise NotAnAutomorphism(f"action of element {h} is not a bijection on N")
        image = perm.__getitem__
        for n1, row in enumerate(nt):  # perm(n1 n2) == perm(n1) perm(n2)
            if list(map(image, row)) != list(map(nt[perm[n1]].__getitem__, perm)):
                raise NotAnAutomorphism(
                    f"action of element {h} breaks multiplication in N"
                )
    for h1, a1 in enumerate(acts):
        hrow = ht[h1]
        for h2, a2 in enumerate(acts):  # action[h1 h2] == action[h1] o action[h2]
            if acts[hrow[h2]] != tuple(map(a1.__getitem__, a2)):
                raise NotAnAction("action map is not a homomorphism into Aut(N)")
    name = f"{n_grp.name} x| {h_grp.name}" if n_grp.name and h_grp.name else ""
    return FiniteGroup.from_generators(order, _product_rows(n_grp, h_grp, acts), name)


def section_table(
    g: FiniteGroup, hmask: int, kmask: int = 1
) -> tuple[tuple[bytes, ...] | tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The multiplication table of the section H/K read off g's table,
    unchecked (`section_group` certifies it), plus the coset number of each
    element of g (-1 outside H).
    The cosets xK are numbered in order of first appearance, x in H
    ascending, so K = 1 gives H with its elements renumbered in ascending
    order.  H must be a subgroup of g and K a normal subgroup of H; neither
    is checked.  The rows are `bytes` when |H/K| <= 256 and tuples above, as
    in `FiniteGroup.table`.  Equal tables are equal groups, so the table
    serves as a hashable key."""
    t = g.table
    kelems = _mask_elements(kmask)
    proj = [-1] * g.order
    reps: list[int] = []
    for x in _mask_elements(hmask):
        if proj[x] < 0:
            row = t[x]
            for k in kelems:
                proj[row[k]] = len(reps)
            reps.append(x)
    row_type = bytes if len(reps) <= 256 else tuple
    table = tuple(row_type([proj[t[a][b]] for b in reps]) for a in reps)
    return table, tuple(proj)


def section_group(
    g: FiniteGroup, hmask: int, kmask: int = 1
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The section H/K as a group, its table certified by `FiniteGroup`,
    plus the projection of `section_table`."""
    table, proj = section_table(g, hmask, kmask)
    k = kmask.bit_count()
    h = len(table) * k
    name = g.name and g.name + (f"|{h}" if h < g.order else "") + (f"/N{k}" if k > 1 else "")
    return FiniteGroup(table, name=name), proj


def quotient(g: FiniteGroup, normal: int) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient G/N with its projection, N given by its bitmask; raises
    NotNormal when N is not normal."""
    mask = normal
    if not isinstance(mask, int) or mask < 0 or mask >> g.order:
        raise InvalidParameter(f"{mask!r} is not a bitmask of {g.order} elements")
    if not mask & 1:
        raise InvalidParameter("normal subgroup must contain the identity")
    elems = _mask_elements(mask)
    t = g.table
    for a in elems:
        row = t[a]
        for b in elems:
            if not (mask >> row[b]) & 1:
                raise InvalidParameter("given element set is not a subgroup")
    for gen in g.generating_set:
        for x in elems:
            if not (mask >> g.conj(gen, x)) & 1:
                raise NotNormal(
                    f"subgroup of order {len(elems)} is not normal in {g.name or 'G'}"
                )
    return section_group(g, (1 << g.order) - 1, mask)


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> tuple[int, ...] | None:
    """Search for an isomorphism g -> h, as the image of each element of g;
    None when provably none exists.

    Each generator si of g takes its image among the elements of h of its
    order in turn.  The map is then walked over <s1, ..., si> along x -> x*sj,
    x*sj going to phi(x)*phi(sj), and the choice is dropped once an element
    gets two images or two elements share one.  A map consistent on every
    edge is a homomorphism (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005), so one that survives all of g's generators is an
    injective homomorphism of g into h, an isomorphism as |g| = |h|.
    """
    if g.fingerprint != h.fingerprint:
        return None
    if g.order == 1:
        return (0,)
    if g.order > DEFAULT_ISO_CAP:
        raise IsoCapExceeded(f"isomorphism search above order cap {DEFAULT_ISO_CAP}")
    gens = g.generating_set
    gt, ht = g.table, h.table
    g_orders, h_orders = g.element_orders, h.element_orders
    candidates = [
        [e for e in range(h.order) if h_orders[e] == g_orders[gen]] for gen in gens
    ]
    images: list[int] = []

    def extend() -> list[int] | None:
        """phi on <s1, ..., si>, or None if it is not an injective homomorphism."""
        phi = [-1] * g.order
        phi[0] = 0
        taken = 1
        elems = [0]
        for x in elems:  # grows during iteration
            row, img_row = gt[x], ht[phi[x]]
            for gen, img in zip(gens, images):
                y, v = row[gen], img_row[img]
                if phi[y] < 0 and not (taken >> v) & 1:
                    taken |= 1 << v
                    phi[y] = v
                    elems.append(y)
                elif phi[y] != v:
                    return None
        return phi

    def dfs(depth: int) -> tuple[int, ...] | None:
        for img in candidates[depth]:
            images.append(img)
            phi = extend()
            if phi is not None:
                found = tuple(phi) if depth + 1 == len(gens) else dfs(depth + 1)
                if found is not None:
                    return found
            images.pop()
        return None

    return dfs(0)


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Isomorphism test; abelian pairs settle by element-order histograms."""
    if g.fingerprint != h.fingerprint:
        return False
    if g.is_abelian and h.is_abelian:
        # the histogram of element orders classifies finite abelian groups
        return True
    return find_isomorphism(g, h) is not None
