"""Core group machinery: tables, products, quotients, isomorphism."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    LARGE_SPECS,
    RELABELLED_SPECS,
    Fool,
    Perm,
    assert_associative_at,
    assert_valid_group,
    closure_from_generators,
    greedy_generating_set,
    leaf_checked_find_isomorphism,
    literal_derived_mask,
    power_walk_orders,
    relabelled,
)
from dedekind.errors import (
    InvalidParameter,
    IsoCapExceeded,
    NotAnAction,
    NotAnAutomorphism,
    NotNormal,
    OrderCapExceeded,
)
from dedekind.families import cyclic, dihedral, generalized_quaternion, heisenberg
from dedekind.specs import build_group
from dedekind.groups import (
    DEFAULT_ISO_CAP,
    FiniteGroup,
    _mask_elements,
    coprime_blocks,
    direct_product,
    find_isomorphism,
    is_isomorphic,
    quotient,
    section_group,
    semidirect_product,
)
from dedekind.invariants import sections
from dedekind.lattice import subgroup_lattice


# A loop (a Latin square with a two-sided identity 0) in which element 2 has
# right inverse 3 but 3 * 2 = 1.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

# A loop in which every element is its own inverse, so it passes an inverse
# scan, and that is not associative: (1 * 2) * 2 = 4 but 1 * (2 * 2) = 1.
INVOLUTION_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# C(5) with entries 1 and 2 of row 2 swapped: every row is still a
# permutation and column 0 still the identity, and generator 1's intact row
# composes C(5)'s table without a failing edge, so only comparing that table
# with the given one rejects it.
SWAPPED_C5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
SWAPPED_C5[2] = [2, 4, 3, 0, 1]


class Idx:
    """An entry that bytes() takes through __index__ but that is not an int."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    def __repr__(self):
        return f"Idx({self.v})"


BAD_TABLES = [
    ([], "a group needs at least one element"),
    ([[0, 1], [1, 0], [2, 0]], "row 0 has length 2, expected 3"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
    ([[0, 1], [2, 0]], "entry table[1][0]=2 out of range"),
    ([[0, 1], [1, 1]], "row 1 is not a permutation of the elements"),
    # every row a permutation, but column 0 is not the identity's
    ([[0, 1], [0, 1]], "element 0 must be a two-sided identity"),
    # every row a permutation and 0 an identity, but column 1 repeats 1
    ([[0, 1, 2], [1, 0, 2], [2, 1, 0]], "the table is not associative"),
    ([[1, 0], [0, 1]], "element 0 must be a two-sided identity"),
    (LOOP5, "the table is not associative"),
    (INVOLUTION_LOOP5, "the table is not associative"),
    (SWAPPED_C5, "the table is not associative"),
    # entries equal to elements pass the set checks, but are not ints
    ([[0, 1.0], [1.0, 0]], "entry table[0][1]=1.0 is not an integer"),
    ([[0, 1], [1, Fraction(0)]], "entry table[1][1]=Fraction(0, 1) is not an integer"),
    ([[0, 1], [Decimal(1), 0]], "entry table[1][0]=Decimal('1') is not an integer"),
    # an entry no int compares with is worded the same
    ([[0, "a"], ["a", 0]], "entry table[0][1]='a' is not an integer"),
    ([[0, Idx(1)], [Idx(1), 0]], "entry table[0][1]=Idx(1) is not an integer"),
    ([[0, Fool(1)], [Fool(1), 0]], "entry table[0][1]=Fool(1) is not an integer"),
    # one-shot rows are read once, and the check that words the error sees them
    ([iter([0, 1]), iter([1, 1])], "row 1 is not a permutation of the elements"),
]


def test_table_validation_rejects_bad_tables():
    for table, message in BAD_TABLES:
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            FiniteGroup(table)


def test_a_table_only_the_set_check_accepts_gets_bytes_rows():
    # bool entries are ints to the set check; the byte check leaves them to it
    g = FiniteGroup([[False, True], [True, False]])
    assert g.table == (b"\x00\x01", b"\x01\x00") and g.inverses == (0, 1)


def _entrywise_validation(table) -> None:
    """The per-entry bitmask validator of the rows and the identity, then an
    associativity check that shares no code with `cayley_rows`, kept as the
    oracle: raise InvalidParameter with its message, or return."""
    n = len(table)
    if n == 0:
        raise InvalidParameter("a group needs at least one element")
    rows = []
    full = (1 << n) - 1
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise InvalidParameter(f"row {i} has length {len(row)}, expected {n}")
        seen = 0
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise InvalidParameter(f"entry table[{i}][{j}]={v} out of range")
            seen |= 1 << v
        if seen != full:
            raise InvalidParameter(f"row {i} is not a permutation of the elements")
        rows.append(row)
    if rows[0] != tuple(range(n)) or any(rows[i][0] != i for i in range(n)):
        raise InvalidParameter("element 0 must be a two-sided identity")
    if n <= 16:
        r = range(n)
        associative = all(
            rows[rows[a][b]][c] == rows[a][rows[b][c]] for a in r for b in r for c in r
        )
    else:
        try:
            assert_associative_at(rows, _left_generators(rows))
            associative = True
        except AssertionError:
            associative = False
    if not associative:
        raise InvalidParameter("the table is not associative")


def _left_generators(rows) -> list[int]:
    """Elements whose left-bracketed products (0 * s1) * s2 ... reach every
    element, picked in index order, each one not reached by those before."""
    gens: list[int] = []
    reached = {0}
    for a in range(len(rows)):
        if a not in reached:
            gens.append(a)
            walk, reached = [0], {0}
            for x in walk:  # grows during iteration
                for s in gens:
                    y = rows[x][s]
                    if y not in reached:
                        reached.add(y)
                        walk.append(y)
    return gens


def _relabel(table, perm):
    """The table with every element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


VALID_TABLES = [
    [list(r) for r in g.table]
    for g in (cyclic(2), cyclic(5), dihedral(6), dihedral(8), generalized_quaternion(8))
]


@st.composite
def corrupted_tables(draw, bases):
    """One of `bases`, relabelled, then hit by up to two local faults.

    A relabelling that moves 0 breaks the identity; one that fixes 0 keeps a
    group a group and a loop a loop that is not associative.  The local
    faults are a swapped pair of entries, an out-of-range entry and a ragged
    row.
    """
    table = draw(st.sampled_from(bases))
    n = len(table)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
    else:
        perm = [0] + draw(st.permutations(range(1, n)))
    table = _relabel(table, perm)

    def cell():
        a = draw(st.sampled_from([i for i, row in enumerate(table) if row]))
        return a, draw(st.integers(0, len(table[a]) - 1))

    for kind in draw(st.lists(st.sampled_from(["swap", "range", "ragged"]), max_size=2)):
        if kind == "swap":
            (a, b), (c, d) = cell(), cell()
            table[a][b], table[c][d] = table[c][d], table[a][b]
        elif kind == "range":
            a, b = cell()
            table[a][b] = draw(st.one_of(st.integers(-3, -1), st.integers(n, n + 3)))
        elif draw(st.booleans()):
            table[draw(st.integers(0, n - 1))].append(draw(st.integers(0, n - 1)))
        else:
            table[cell()[0]].pop()
    return table


def _assert_validation_matches_entrywise_oracle(table):
    try:
        _entrywise_validation(table)
        expected = None
    except InvalidParameter as exc:
        expected = str(exc)
    try:
        FiniteGroup(table)
        got = None
    except InvalidParameter as exc:
        got = str(exc)
    assert got == expected


@given(table=corrupted_tables(VALID_TABLES + [LOOP5, INVOLUTION_LOOP5]))
@settings(max_examples=200, deadline=None)
def test_table_validation_matches_entrywise_oracle(table):
    _assert_validation_matches_entrywise_oracle(table)


# Above order 256 rows stay tuples and only the set check runs, and the
# oracle checks associativity by Light's test rather than the cubic loop.
@given(table=corrupted_tables([[list(r) for r in cyclic(257).table]]))
@settings(max_examples=20, deadline=None)
def test_tuple_row_validation_matches_entrywise_oracle_at_order_257(table):
    _assert_validation_matches_entrywise_oracle(table)


def test_zoo_groups_satisfy_axioms(zoo):
    for name, g in zoo.items():
        if g.order <= 32:
            assert_valid_group(g)


def test_element_orders_and_inverses_match_the_power_walk(corpus, beyond_corpus):
    # element_orders walks each cyclic subgroup once and reads order(a^j) =
    # k / gcd(j, k) off it; the oracle walks the powers of every element.
    # Built groups take their inverses from the same walk.
    rng = random.Random(44)
    groups = [(e.spec, e.group) for e in corpus]
    groups += [(f"section type {i}", q) for i, q in enumerate(beyond_corpus)]
    built = [(spec, build_group(spec)) for spec in RELABELLED_SPECS + LARGE_SPECS]
    relabel = built[: len(RELABELLED_SPECS)]
    groups += built + [(f"relabelled {spec}", relabelled(g, rng)) for spec, g in relabel]
    assert len(groups) == 433 + 30 + 36
    for name, g in groups:
        assert g.element_orders == power_walk_orders(g), name
        t, inv = g.table, g.inverses
        assert all(t[a][inv[a]] == 0 == t[inv[a]][a] for a in range(g.order)), name


def test_cyclic_basics():
    g = cyclic(12)
    assert g.order == 12
    assert g.is_abelian
    assert g.exponent == 12
    assert sorted(g.element_orders) == sorted(
        [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
    )
    assert g.center_mask == (1 << 12) - 1
    assert g.derived_mask == 1


def test_power_and_commutator(zoo):
    d8 = zoo["d8"]
    for a in range(d8.order):
        assert d8.power(a, 0) == 0
        assert d8.power(a, 1) == a
        assert d8.power(a, -1) == d8.inverses[a]
    for a in range(d8.order):
        for b in range(d8.order):
            # with [a, b] = a^-1 b^-1 a b we get (b a) [a, b] = a b
            assert d8.mul(d8.mul(b, a), d8.commutator(a, b)) == d8.mul(a, b)


def test_conjugation_is_an_automorphism(zoo):
    q8 = zoo["q8"]
    for s in range(q8.order):
        for a in range(q8.order):
            for b in range(q8.order):
                assert q8.conj(s, q8.mul(a, b)) == q8.mul(q8.conj(s, a), q8.conj(s, b))


def test_closure_method(zoo):
    d8 = zoo["d8"]
    mask, elems = d8.closure([])
    assert mask == 1 and elems == [0]
    full, _ = d8.closure(list(d8.generating_set))
    assert full == (1 << d8.order) - 1


def test_generating_set_matches_the_from_scratch_greedy(zoo, corpus):
    groups = list(zoo.items()) + [(e.spec, e.group) for e in corpus if e.group.order <= 128]
    assert len(groups) > 280
    for name, g in groups:
        assert g.generating_set == greedy_generating_set(g), name


def test_closure_from_generators_builds_symmetric_group():
    # transposition + 3-cycle on {0,1,2} generate all 6 permutations
    g = closure_from_generators([Perm((1, 0, 2)), Perm((1, 2, 0))])
    assert g.order == 6
    assert not g.is_abelian
    assert is_isomorphic(g, dihedral(6))


def test_closure_from_generators_respects_cap():
    thirty_cycle = Perm(tuple((i + 1) % 30 for i in range(30)))
    with pytest.raises(OrderCapExceeded):
        closure_from_generators([thirty_cycle], max_order=8)


def test_direct_product_structure(zoo):
    g = direct_product(zoo["c2"], zoo["s3"])
    assert g.order == 12
    assert not g.is_abelian
    h = direct_product(cyclic(3), cyclic(4))
    assert h.is_abelian
    assert is_isomorphic(h, cyclic(12))
    with pytest.raises(OrderCapExceeded):
        direct_product(cyclic(30), cyclic(30), order_cap=100)


def test_coprime_blocks_group_the_atoms_that_share_a_prime():
    assert coprime_blocks([2, 3, 8, 5, 9, 1, 35]) == [[0, 2], [1, 4], [3, 6], [5]]
    assert coprime_blocks([6, 5, 10]) == [[0, 1, 2]]
    assert coprime_blocks([7]) == [[0]]


def test_semidirect_product_dihedral():
    c4, c2 = cyclic(4), cyclic(2)
    ident = (0, 1, 2, 3)
    invert = (0, 3, 2, 1)
    g = semidirect_product(c4, c2, [ident, invert])
    assert g.order == 8
    assert is_isomorphic(g, dihedral(8))


def test_semidirect_product_rejects_bad_actions():
    c4, c2, c3 = cyclic(4), cyclic(2), cyclic(3)
    with pytest.raises(NotAnAutomorphism, match="^action of element 1 breaks multiplication in N$"):
        # swaps the identity away from 0
        semidirect_product(c4, c2, [(0, 1, 2, 3), (1, 0, 3, 2)])
    with pytest.raises(NotAnAction, match="^action map is not a homomorphism into Aut"):
        # invert has order 2 but is assigned to a generator acting like order 1
        semidirect_product(c4, c3, [(0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3)])
    # a non-numeric, repeated, missing or non-integer image
    for bad in ([0, 2, "x"], [0, 2, 2], [0, 2], [0, 2.0, 1]):
        with pytest.raises(NotAnAutomorphism, match="^action of element 1 is not a bijection"):
            semidirect_product(c3, c2, [[0, 1, 2], bad])
    with pytest.raises(NotAnAction, match="^need one permutation of N per element of H$"):
        semidirect_product(c3, c2, [[0, 1, 2]])


def test_quotient_of_quaternion_is_klein(zoo):
    q8 = zoo["q8"]
    lat = subgroup_lattice(q8)
    z = next(m for m in lat.masks if m.bit_count() == 2)
    q, proj = quotient(q8, z)
    assert q.order == 4
    assert is_isomorphic(q, zoo["ea4"])
    # proj is a surjective homomorphism with kernel z
    assert sorted(set(proj)) == list(range(4))
    for a in range(q8.order):
        for b in range(q8.order):
            assert proj[q8.mul(a, b)] == q.mul(proj[a], proj[b])
    kernel = [a for a in range(q8.order) if proj[a] == 0]
    assert sorted(kernel) == sorted(
        a for a in range(q8.order) if (z >> a) & 1
    )


def test_quotient_by_non_normal_raises(zoo):
    s3 = zoo["s3"]
    lat = subgroup_lattice(s3)
    reflection = next(
        m for i, m in enumerate(lat.masks) if m.bit_count() == 2 and not lat.is_normal(i)
    )
    with pytest.raises(NotNormal):
        quotient(s3, reflection)


def test_center_and_derived(zoo):
    assert zoo["q8"].center_mask.bit_count() == 2
    assert zoo["d8"].center_mask.bit_count() == 2
    assert zoo["s3"].center_mask.bit_count() == 1
    assert zoo["he3"].center_mask.bit_count() == 3
    assert zoo["q8"].derived_mask.bit_count() == 2
    assert zoo["d8"].derived_mask.bit_count() == 2
    assert zoo["s3"].derived_mask.bit_count() == 3
    assert zoo["c12"].derived_mask.bit_count() == 1
    assert zoo["a4"].derived_mask.bit_count() == 4


def test_induced_subgroup_embeds(zoo):
    d8 = zoo["d8"]
    lat = subgroup_lattice(d8)
    for m in lat.masks:
        h, proj = section_group(d8, m)
        emb = _mask_elements(m)
        assert [proj[x] for x in emb] == list(range(m.bit_count()))
        assert all(proj[x] == -1 for x in range(d8.order) if not m >> x & 1)
        assert h.order == m.bit_count()
        assert len(emb) == m.bit_count()
        for a in range(h.order):
            for b in range(h.order):
                assert emb[h.mul(a, b)] == d8.mul(emb[a], emb[b])


def test_section_group_projects_h_onto_h_mod_k(zoo):
    g = zoo["d12"]
    checked = 0
    masks = subgroup_lattice(g).masks
    for hi, ki in sections(g):
        q, proj = section_group(g, masks[hi], masks[ki])
        helems = _mask_elements(masks[hi])
        assert all(proj[x] == -1 for x in range(g.order) if not masks[hi] >> x & 1)
        assert [x for x in helems if proj[x] == 0] == _mask_elements(masks[ki])
        assert sorted(set(proj[x] for x in helems)) == list(range(q.order))
        for a in helems:
            for b in helems:
                assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])
        checked += 1
    assert checked == 49


def test_derived_mask_matches_the_commutator_oracle(zoo, corpus):
    groups = list(zoo.values()) + [e.group for e in corpus if e.group.order <= 64]
    for g in groups:
        assert g.derived_mask == literal_derived_mask(g), g.name
    assert any(g.derived_mask != 1 for g in groups)


def test_is_isomorphic_separates_known_groups(zoo):
    assert is_isomorphic(zoo["c6"], direct_product(cyclic(2), cyclic(3)))
    assert not is_isomorphic(cyclic(4), zoo["ea4"])
    assert not is_isomorphic(zoo["d8"], zoo["q8"])
    assert not is_isomorphic(zoo["he3"], cyclic(27))
    assert not is_isomorphic(zoo["he3"], zoo["m27"])
    assert not is_isomorphic(zoo["d16"], zoo["q16"])
    assert not is_isomorphic(zoo["d16"], zoo["m16"])


def test_find_isomorphism_returns_real_map(zoo):
    q8 = zoo["q8"]
    other = generalized_quaternion(8)
    phi = find_isomorphism(q8, other)
    assert phi is not None
    assert sorted(phi) == list(range(8))
    for a in range(8):
        for b in range(8):
            assert phi[q8.mul(a, b)] == other.mul(phi[a], phi[b])
    assert find_isomorphism(q8, zoo["d8"]) is None


def test_find_isomorphism_matches_the_leaf_checked_search(corpus):
    # the per-choice check visits a subset of the oracle's nodes, so
    # both return the same first map on every corpus pair of equal
    # fingerprints; a relabelled copy of each group, too slow for the oracle,
    # meets choices that break a relation only after the prefix subgroup has
    # been walked; every map is checked on all |G|^2 products
    by_fingerprint: dict = {}
    for e in corpus:
        g = e.group
        if g.order <= DEFAULT_ISO_CAP and not g.is_abelian:
            by_fingerprint.setdefault(g.fingerprint, []).append(g)
    pairs = [(g, h) for gs in by_fingerprint.values() for g in gs for h in gs]
    rng = random.Random(0)
    copies = [(g, relabelled(g, rng)) for gs in by_fingerprint.values() for g in gs]
    maps = []
    for g, h in pairs:
        phi = find_isomorphism(g, h)
        assert phi == leaf_checked_find_isomorphism(g, h), (g.name, h.name)
        maps.append((g, h, phi))
    maps += [(g, h, find_isomorphism(g, h)) for g, h in copies]
    found = [(g, h, phi) for g, h, phi in maps if phi is not None]
    assert (len(pairs), len(copies), len(found)) == (318, 202, 308 + 202)
    for g, h, phi in found:
        assert sorted(phi) == list(range(g.order))
        for a, row in enumerate(g.table):
            assert [phi[x] for x in row] == [h.table[phi[a]][y] for y in phi], g.name


def test_isomorphism_cap(zoo, monkeypatch):
    # fingerprint mismatches settle without search, so the cap only binds
    # when a genuine backtracking search would start
    monkeypatch.setattr("dedekind.groups.DEFAULT_ISO_CAP", 8)
    assert not is_isomorphic(zoo["d16"], zoo["q16"])
    with pytest.raises(IsoCapExceeded):
        is_isomorphic(zoo["d16"], dihedral(16))


def test_find_isomorphism_on_trivial_and_unequal_orders(zoo):
    assert find_isomorphism(cyclic(1), FiniteGroup([[0]])) == (0,)
    # the fingerprints hold the order, so no search starts, even past the cap
    assert find_isomorphism(cyclic(1), cyclic(2)) is None
    assert find_isomorphism(zoo["d8"], zoo["d16"]) is None
    assert find_isomorphism(dihedral(2 * DEFAULT_ISO_CAP), dihedral(4 * DEFAULT_ISO_CAP)) is None


def test_fingerprint_fields(zoo):
    fp = zoo["q8"].fingerprint
    assert fp.order == 8
    assert fp.abelian is False
    assert fp.center_order == 2
    assert fp.derived_order == 2
    hist = dict(fp.order_histogram)
    assert hist == {1: 1, 2: 1, 4: 6}  # unique involution
    assert zoo["he3"].fingerprint != zoo["m27"].fingerprint
