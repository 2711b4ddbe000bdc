"""Concrete finite groups as explicit multiplication tables.

Elements are the integers 0..order-1 and element 0 is always the identity.
A subgroup is an int bitmask over the elements, bit x set for element x;
there is no subgroup class.  A table of order n <= 256 holds `bytes` rows,
one byte per entry, and a larger one tuples of ints; both index to the same
ints.

Construction validates the Latin-square and identity axioms of an n <= 256
table by byte operations: n bytes are a permutation of the elements iff
deleting them from bytes(range(n)) leaves nothing, and column j is the
strided slice flat[j::n] of the joined rows.  That check only accepts.  A
table it does not accept, and every table above 256, goes through one set
per row and per column, which words the first failure: n entries are a
permutation iff their set is the element set, and only a failing row, or
one holding an entry that is not an int, is scanned entry by entry, to name
its first bad entry.  Inverses are then checked on the rows of either kind.
The cubic associativity axiom is not checked: the family constructors and
products compose their tables from the rows of a few generators
(`cayley_rows`), which is only sound for a group, and the test suite
certifies each construction against an entry-by-entry oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

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
        n = len(table)
        if n == 0:
            raise InvalidParameter("a group needs at least one element")
        # each row is read once, before either check sees it
        rows = [row if type(row) is bytes else tuple(row) for row in table]
        checked = _byte_table(rows, n) if n <= 256 else None
        if checked is None:  # the set check words the first failure, or passes
            checked = _set_checked_rows(rows, n)
            if n <= 256:  # e.g. bool entries, which only the set check accepts
                checked = tuple(map(bytes, checked))
        inverses = []
        for i in range(n):
            b = checked[i].index(0)
            if checked[b][i] != 0:
                raise InvalidParameter(f"element {i} has no two-sided inverse")
            inverses.append(b)
        self.order = n
        self.table = checked
        self.inverses = tuple(inverses)
        self.name = name
        self._lattice = None

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
    def element_orders(self) -> tuple[int, ...]:
        out = [1] * self.order
        t = self.table
        for a in range(1, self.order):
            k, x = 1, a
            while x != 0:
                x = t[x][a]
                k += 1
            out[a] = k
        return tuple(out)

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


def _byte_table(rows, n: int) -> tuple[bytes, ...] | None:
    """The rows as bytes when they are a Latin square of ints with identity 0,
    else None.  n <= 256 bytes hold a permutation of the elements iff deleting
    them from bytes(range(n)) leaves nothing; column j is the strided slice
    flat[j::n] of the rows joined."""
    ident = bytes(range(n))
    out = []
    for row in rows:
        if type(row) is not bytes:
            if {*map(type, row)} != {int}:  # bytes() also takes __index__ objects
                return None
            try:
                row = bytes(row)
            except ValueError:  # an entry outside 0..255
                return None
        if len(row) != n or ident.translate(None, row):
            return None
        out.append(row)
    flat = b"".join(out)
    if out[0] != ident or flat[::n] != ident:
        return None
    if any(ident.translate(None, flat[j::n]) for j in range(1, n)):
        return None
    return tuple(out)


def _set_checked_rows(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """The rows as tuples once they pass the Latin-square and identity axioms;
    otherwise raise InvalidParameter naming the first failure.  n entries are
    a permutation of the elements iff their set is the element set; the
    per-entry scan runs only to word a row's error."""
    elements = set(range(n))
    checked = []
    for i, row in enumerate(rows):
        row = tuple(row)
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
        checked.append(row)
    # every entry is now an int in range, so n distinct entries are all of them
    if any(len(set(col)) != n for col in zip(*checked)):
        raise InvalidParameter("some column is not a permutation of the elements")
    if checked[0] != tuple(range(n)) or any(checked[i][0] != i for i in range(n)):
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
    generators: `gen_rows` maps each generator s to its row, s * y for y in
    0..n-1.  The rows are `bytes` when n <= 256 and tuples of ints above.

    The rows form the left-regular representation, so row(x * s) is row(x)
    composed with row(s): entry y is row(x)[row(s)[y]].  For n <= 256 that is
    one `bytes.translate` of row(s) by row(x), padded to 256 bytes; above,
    one `itemgetter` call per row.  A breadth-first walk from the identity
    reaches every element once.  Raises InvalidParameter when the generators
    reach fewer than n elements.  Associativity is assumed, not checked: for
    a table that is not a group's, the composed rows differ from its rows.
    """
    rows: list = [None] * n
    if n <= 256:
        rows[0], pad = bytes(range(n)), bytes(256 - n)
        pickers = [(s, bytes(row).translate) for s, row in gen_rows.items()]
    else:
        rows[0], pad = tuple(range(n)), ()
        pickers = [(s, itemgetter(*row)) for s, row in gen_rows.items()]
    reached = [0]
    for x in reached:  # grows during iteration
        rx = rows[x]
        for s, pick in pickers:
            y = rx[s]
            if rows[y] is None:
                rows[y] = pick(rx + pad)
                reached.append(y)
    if len(reached) != n:
        raise InvalidParameter(
            f"generators {sorted(gen_rows)} reach {len(reached)} of {n} elements"
        )
    return rows


def _product_rows(n_grp: FiniteGroup, h_grp: FiniteGroup, acts=None) -> list:
    """The rows of N x| H, element n*|H|+h for the pair (n, h), composed by
    `cayley_rows` from those of (s, 1) and (1, t) for s and t in the factors'
    generating sets.  acts[t] is the permutation of N by which t acts; None
    is the trivial action, a direct product."""
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
    return cayley_rows(n_grp.order * hn, gen_rows)


def direct_product(
    g: FiniteGroup, h: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Direct product; element a*|H|+b stands for the pair (a, b).  Its rows
    are composed from those of the factors' generators (`_product_rows`)."""
    n = g.order * h.order
    if n > order_cap:
        raise OrderCapExceeded(f"product of order {n} exceeds the cap {order_cap}")
    name = f"{g.name} x {h.name}" if g.name and h.name else ""
    return FiniteGroup(_product_rows(g, h), name=name)


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
    checked a whole row at a time.  The rows are then composed from those of
    the factors' generators (`_product_rows`).
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
    return FiniteGroup(_product_rows(n_grp, h_grp, acts), name=name)


def section_table(
    g: FiniteGroup, hmask: int, kmask: int = 1
) -> tuple[tuple[bytes, ...] | tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The multiplication table of the section H/K read off g's table, not
    validated, plus the coset number of each element of g (-1 outside H).
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
    """The section H/K as a validated group, plus the projection of
    `section_table`."""
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
