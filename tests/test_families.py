"""Constructors for the named group families: orders, structure, rejection."""

import pytest

from conftest import LARGE_SPECS, assert_valid_group, entrywise_table
from dedekind.errors import InvalidParameter, OrderCapExceeded, StructureViolation
from dedekind.families import (
    FAMILY_BUILDERS,
    c27_rtimes_q8,
    cyclic,
    dihedral,
    elementary_abelian,
    elementary_rtimes_cq,
    generalized_quaternion,
    h_pst,
    heisenberg,
    k_pst,
    modular_group,
    schmidt_gpqn,
)
from dedekind.groups import FiniteGroup, cayley_rows, is_isomorphic, section_table
from dedekind.specs import build_group

def test_cyclic():
    for n in (1, 2, 5, 12):
        g = cyclic(n)
        assert g.order == n and g.is_abelian and g.exponent == n
    with pytest.raises(InvalidParameter):
        cyclic(0)
    with pytest.raises(OrderCapExceeded):
        cyclic(600)


def test_elementary_abelian():
    g = elementary_abelian(3, 2)
    assert g.order == 9 and g.is_abelian and g.exponent == 3
    assert_valid_group(g)
    h = elementary_abelian(2, 4)
    assert h.order == 16 and h.exponent == 2
    with pytest.raises(InvalidParameter):
        elementary_abelian(4, 2)
    with pytest.raises(InvalidParameter):
        elementary_abelian(2, 0)


def test_dihedral():
    for two_n in (6, 8, 10, 12, 16):
        g = dihedral(two_n)
        assert g.order == two_n
        assert not g.is_abelian
        # exactly n rotations; reflections all have order 2
        involutions = sum(1 for k in g.element_orders if k == 2)
        assert involutions == (two_n // 2 + 1 if two_n % 4 == 0 else two_n // 2)
        assert_valid_group(g)
    assert dihedral(10).center_mask.bit_count() == 1
    assert dihedral(12).center_mask.bit_count() == 2
    with pytest.raises(InvalidParameter):
        dihedral(7)
    with pytest.raises(InvalidParameter):
        dihedral(4)  # degenerate: that is just the Klein group


def test_generalized_quaternion():
    for two_to_n in (8, 16, 32):
        g = generalized_quaternion(two_to_n)
        assert g.order == two_to_n
        assert sum(1 for k in g.element_orders if k == 2) == 1
        assert g.center_mask.bit_count() == 2
        if two_to_n <= 16:
            assert_valid_group(g)
    with pytest.raises(InvalidParameter):
        generalized_quaternion(12)
    with pytest.raises(InvalidParameter):
        generalized_quaternion(4)


def test_modular_group():
    g = modular_group(2, 4)
    assert g.order == 16 and not g.is_abelian
    assert max(g.element_orders) == 8  # cyclic maximal subgroup
    assert_valid_group(g)
    h = modular_group(3, 3)
    assert h.order == 27 and not h.is_abelian and max(h.element_orders) == 9
    assert_valid_group(h)
    assert h.center_mask.bit_count() == 3
    with pytest.raises(InvalidParameter):
        modular_group(2, 3)  # needs n >= 4 at p = 2
    with pytest.raises(InvalidParameter):
        modular_group(3, 2)
    with pytest.raises(InvalidParameter):
        modular_group(4, 3)


def test_heisenberg():
    g = heisenberg(3)
    assert g.order == 27 and not g.is_abelian and g.exponent == 3
    assert g.center_mask.bit_count() == 3
    assert g.derived_mask.bit_count() == 3
    assert_valid_group(g)
    assert heisenberg(5).order == 125
    with pytest.raises(InvalidParameter):
        heisenberg(2)
    with pytest.raises(InvalidParameter):
        heisenberg(9)


def test_schmidt_gpqn():
    s3 = schmidt_gpqn(3, 2, 2)
    assert s3.order == 6
    assert is_isomorphic(s3, dihedral(6))
    g = schmidt_gpqn(3, 2, 3)
    assert g.order == 12 and not g.is_abelian
    assert_valid_group(g)
    assert schmidt_gpqn(5, 2, 2).order == 10
    assert schmidt_gpqn(7, 3, 2).order == 21
    with pytest.raises(InvalidParameter):
        schmidt_gpqn(3, 5, 2)  # q must divide p - 1
    with pytest.raises(InvalidParameter):
        schmidt_gpqn(3, 2, 1)  # cyclic, not a two-generator extension
    with pytest.raises(InvalidParameter):
        schmidt_gpqn(4, 3, 2)


def test_hk_families():
    h = h_pst(2, 2, 1)
    assert h.order == 16 and not h.is_abelian
    assert_valid_group(h)
    assert h_pst(3, 1, 1).order == 27
    assert is_isomorphic(h_pst(3, 1, 1), heisenberg(3))
    k = k_pst(2, 3, 2)
    assert k.order == 32 and not k.is_abelian
    assert_valid_group(k)
    # t = 1 collapses to the cyclic-maximal family
    assert is_isomorphic(k_pst(3, 2, 1), modular_group(3, 3))
    assert is_isomorphic(k_pst(2, 3, 1), modular_group(2, 4))
    with pytest.raises(InvalidParameter):
        h_pst(2, 1, 2)  # needs s >= t
    with pytest.raises(InvalidParameter):
        k_pst(2, 1, 1)


def test_elementary_rtimes_cq():
    a4 = elementary_rtimes_cq(2, 3)
    assert a4.order == 12
    assert a4.derived_mask.bit_count() == 4
    assert_valid_group(a4)
    # rank is the multiplicative order of p mod q: ord_2(3) = 1, so this is just S3
    g = elementary_rtimes_cq(3, 2)
    assert g.order == 6
    assert is_isomorphic(g, dihedral(6))
    assert elementary_rtimes_cq(2, 7).order == 8 * 7  # ord_7(2) = 3
    with pytest.raises(InvalidParameter):
        elementary_rtimes_cq(2, 2)  # the primes must differ


def test_c27_rtimes_q8():
    g = c27_rtimes_q8()
    assert g.order == 216
    assert not g.is_abelian
    assert g.center_mask.bit_count() == 2


def test_corpus_tables_match_the_entrywise_oracle(corpus):
    for e in corpus.entries:
        want = entrywise_table(e.spec)
        assert tuple(map(tuple, build_group(e.spec).table)) == want, e.spec
        assert tuple(map(tuple, e.group.table)) == want, e.spec


@pytest.mark.parametrize("spec", LARGE_SPECS)
def test_large_tables_match_the_entrywise_oracle(spec):
    assert tuple(map(tuple, build_group(spec).table)) == entrywise_table(spec)


def test_every_family_at_small_orders_is_a_group(corpus):
    small = [e for e in corpus.entries if e.group.order <= 32]
    # C27Q8 has the single order 216
    assert {e.tag for e in small} == set(FAMILY_BUILDERS) - {"C27Q8"} | {"product"}
    for e in small:
        g = build_group(e.spec)
        assert_valid_group(g)
        assert tuple(map(tuple, g.table)) == entrywise_table(e.spec), e.spec


def test_table_rows_are_bytes_up_to_order_256(corpus):
    def row_types(table):
        return {type(row) for row in table}

    for e in corpus.entries:
        assert row_types(e.group.table) == {bytes if e.group.order <= 256 else tuple}
    assert row_types(build_group("D(256)").table) == {bytes}
    d8 = dihedral(8)
    assert row_types(cayley_rows(8, {2: d8.table[2], 1: d8.table[1]})) == {bytes}
    for spec in ("SD(3,13)", "M(2,9)"):
        assert row_types(build_group(spec).table) == {tuple}
    g = build_group("M(2,9)")
    cyclic_256 = g.closure(g.generating_set[:1])[0]
    assert row_types(section_table(g, cyclic_256)[0]) == {bytes}
    assert row_types(section_table(g, (1 << 512) - 1)[0]) == {tuple}


def test_cayley_rows_needs_generators_of_the_whole_group():
    d8 = dihedral(8)
    assert cayley_rows(8, {2: d8.table[2], 1: d8.table[1]}) == list(d8.table)
    with pytest.raises(InvalidParameter, match=r"^generators \[2\] reach 4 of 8 elements$"):
        cayley_rows(8, {2: d8.table[2]})  # the rotation alone


def test_cayley_rows_rejects_a_loop_that_is_not_a_group():
    # a Latin square with identity 0 that is not associative: its rows 1 and
    # 2 generate it, and composing them does not give its rows back
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidParameter, match="do not make a group's table$"):
        cayley_rows(5, {1: loop[1], 2: loop[2]})


def test_cayley_rows_checks_every_edge_of_every_generator():
    # generator 1 swaps 0 and 1 and fixes 2 and 3, and the rows it reaches
    # agree on each of its edges; only edge (1, 2) of generator 2 fails, and
    # a walk that checks only generator 1, or only the edges that first
    # reach an element, returns four rows that are not a Latin square
    gen_rows = {1: [1, 0, 2, 3], 2: [2, 3, 0, 1]}
    with pytest.raises(InvalidParameter, match=r"^row 1 times the row of generator 2 is not row 2"):
        cayley_rows(4, gen_rows)
    for g in (elementary_abelian(2, 2), build_group("SD(3,13)")):
        s, t = g.generating_set
        gens = {s: g.table[s], t: g.table[t]}
        assert cayley_rows(g.order, gens) == list(g.table)
        gens[t] = gens[s]
        with pytest.raises(InvalidParameter, match=f"^the row of generator {t} holds {s} at 0, not {t}$"):
            cayley_rows(g.order, gens)
    with pytest.raises(InvalidParameter, match=r"^the row of generator 1 is not a permutation of 0\.\.3$"):
        cayley_rows(4, {1: [1, 0, 3, 3]})
    with pytest.raises(InvalidParameter, match="is not a permutation"):
        cayley_rows(300, {1: [1.0, *range(2, 300), 0]})


# A family spec, and a valid group of the same order that is not the
# family's: the certificate accepts its table, and only the family's
# presentation check rejects it.
WRONG_GROUPS = [
    ("C(8)", "EA(2,3)"),
    ("EA(2,3)", "C(8)"),
    ("D(8)", "C(8)"),
    ("Q(8)", "D(8)"),
    ("He(3)", "EA(3,3)"),
]


@pytest.mark.parametrize("spec, wrong", WRONG_GROUPS)
def test_a_family_rejects_a_group_that_breaks_its_presentation(monkeypatch, spec, wrong):
    # explicit raises, not assert statements, so this holds under python -O too
    table = build_group(wrong).table
    monkeypatch.setattr(
        FiniteGroup, "from_generators", staticmethod(lambda n, gen_rows, name="": FiniteGroup(table, name))
    )
    with pytest.raises(StructureViolation, match="breaks its presentation"):
        build_group(spec)
