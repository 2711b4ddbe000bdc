"""Closed-form values, counting identities, and convergence sequences."""

from fractions import Fraction

import pytest

from dedekind import formulas
from dedekind.errors import BudgetExhausted, InvalidParameter, StructureViolation
from dedekind.families import (
    dihedral,
    elementary_abelian,
    elementary_rtimes_cq,
    heisenberg,
    modular_group,
    schmidt_gpqn,
)
from dedekind.formulas import (
    corollary_a_over_a_plus_one,
    d_prime_dihedral_formula,
    d_prime_heisenberg_formula,
    d_prime_modular_formula,
    d_prime_schmidt_formula,
    d_prime_schmidt_section_formula,
    density_sequence,
    dihedral_counts,
    gaussian_binomial,
    heisenberg_counts,
    limit_trend,
    modular_counts,
    num_subgroups_elem_abelian,
    schmidt_counts,
    schmidt_section_counts,
    sequence_monotonicity,
)
from dedekind.invariants import d_prime
from dedekind.lattice import subgroup_lattice
from dedekind.specs import build_group


def test_modular_formula_known_values():
    assert d_prime_modular_formula(2, 4) == Fraction(10, 11)
    assert d_prime_modular_formula(2, 5) == Fraction(13, 14)
    assert d_prime_modular_formula(3, 3) == Fraction(4, 5)
    assert d_prime_modular_formula(5, 3) == Fraction(5, 7)
    with pytest.raises(InvalidParameter):
        d_prime_modular_formula(4, 3)
    with pytest.raises(InvalidParameter):
        d_prime_modular_formula(2, 3)


def test_dihedral_formula_known_values():
    assert d_prime_dihedral_formula(3) == Fraction(4, 5)
    assert d_prime_dihedral_formula(4) == Fraction(11, 19)
    assert d_prime_dihedral_formula(5) == Fraction(7, 18)
    with pytest.raises(InvalidParameter):
        d_prime_dihedral_formula(2)


def test_heisenberg_formula_known_values():
    assert d_prime_heisenberg_formula(3) == Fraction(11, 19)
    assert d_prime_heisenberg_formula(5) == Fraction(5, 13)
    with pytest.raises(InvalidParameter):
        d_prime_heisenberg_formula(2)


def test_schmidt_formula_known_values():
    assert d_prime_schmidt_formula(3, 2) == Fraction(2, 3)
    assert d_prime_schmidt_formula(5, 2) == Fraction(1, 2)
    assert d_prime_schmidt_formula(3, 3) == Fraction(3, 4)
    with pytest.raises(InvalidParameter):
        d_prime_schmidt_formula(3, 1)


def test_formulas_match_enumeration():
    pairs = [
        (modular_group(2, 4), d_prime_modular_formula(2, 4)),
        (modular_group(3, 3), d_prime_modular_formula(3, 3)),
        (dihedral(16), d_prime_dihedral_formula(4)),
        (heisenberg(3), d_prime_heisenberg_formula(3)),
        (schmidt_gpqn(3, 2, 2), d_prime_schmidt_formula(3, 2)),
        (schmidt_gpqn(5, 2, 3), d_prime_schmidt_formula(5, 3)),
    ]
    for g, expected in pairs:
        assert d_prime(g) == expected


def test_counts_bundles_match_enumeration():
    cases = [
        (modular_counts(2, 4), modular_group(2, 4)),
        (dihedral_counts(4), dihedral(16)),
        (heisenberg_counts(3), heisenberg(3)),
        (schmidt_counts(3, 3), schmidt_gpqn(3, 2, 3)),
    ]
    for counts, g in cases:
        lat = subgroup_lattice(g)
        assert counts.lattice_size == lat.size
        assert counts.k_prime == lat.k_prime
        # some families only have closed forms for the two ratio components
        if counts.normal_count is not None:
            assert counts.normal_count == lat.normal_count
        if counts.nu is not None:
            assert counts.nu == lat.nu
    assert modular_counts(2, 4).nu == 1
    assert schmidt_counts(3, 3).normal_count == 5


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 0, 5) == 1
    for r in range(1, 6):
        for i in range(r + 1):
            assert gaussian_binomial(r, i, 3) == gaussian_binomial(r, r - i, 3)


def test_elementary_abelian_subgroup_count():
    assert num_subgroups_elem_abelian(2, 2) == 5
    assert num_subgroups_elem_abelian(2, 3) == 16
    assert num_subgroups_elem_abelian(3, 2) == 6
    for p, r in ((2, 3), (3, 2), (5, 2)):
        assert num_subgroups_elem_abelian(p, r) == subgroup_lattice(
            elementary_abelian(p, r)
        ).size


def test_schmidt_section_counts_match_enumeration():
    # acting prime 3 on rank-2 two-group: the alternating group on 4 points
    counts = schmidt_section_counts(2, 3, 2)
    a4 = elementary_rtimes_cq(2, 3)
    lat = subgroup_lattice(a4)
    assert counts.lattice_size == lat.size == 10
    assert counts.k_prime == lat.k_prime == 5
    assert d_prime_schmidt_section_formula(2, 3, 2) == Fraction(1, 2) == d_prime(a4)
    # rank-1 collapse: S3 again
    assert d_prime_schmidt_section_formula(3, 2, 1) == Fraction(2, 3)


def test_schmidt_section_counts_raise_on_an_inexact_division(monkeypatch):
    # an explicit raise, not an assert statement, so this holds under python -O too
    count = formulas.num_subgroups_elem_abelian
    monkeypatch.setattr(formulas, "num_subgroups_elem_abelian", lambda p, r: count(p, r) + 1)
    message = r"^a_\{2,2\} \+ 4q - 2 = 16 is not divisible by q = 3$"
    with pytest.raises(StructureViolation, match=message):
        schmidt_section_counts(2, 3, 2)


def test_density_sequence_behaviour():
    steps = density_sequence(1, 2, Fraction(1, 100))
    assert steps[-1].gap < Fraction(1, 100)
    values = [st.value for st in steps]
    gaps = [st.gap for st in steps]
    assert all(v > Fraction(1, 2) for v in values)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert [st.index for st in steps] == list(range(1, len(steps) + 1))
    # multi-prime targets use disjoint strictly-increasing prime columns
    steps23 = density_sequence(2, 3, "0.05")
    cols = list(zip(*(st.primes for st in steps23)))
    flat = [p for col in cols for p in col]
    assert len(set(flat)) == len(flat)
    for col in cols:
        assert list(col) == sorted(col)
    with pytest.raises(InvalidParameter):
        density_sequence(3, 2, Fraction(1, 10))
    with pytest.raises(InvalidParameter):
        density_sequence(1, 2, 0)
    with pytest.raises(BudgetExhausted):
        density_sequence(1, 2, Fraction(1, 10**9), prime_budget=20)


def test_exact_ratio_specs():
    for a in range(1, 5):
        spec, value = corollary_a_over_a_plus_one(a)
        assert value == Fraction(a, a + 1)
        assert d_prime(build_group(spec)) == value


def test_monotonicity_verdicts():
    for family, params, p, direction in (
        ("modular", tuple(range(4, 51)), 2, "strictly increasing"),
        ("modular", tuple(range(3, 51)), 3, "strictly increasing"),
        ("schmidt", tuple(range(2, 51)), 3, "strictly increasing"),
        ("dihedral", tuple(range(3, 51)), None, "strictly decreasing"),
    ):
        v = sequence_monotonicity(family, params, p=p)
        assert v.direction == direction
        assert v.first_violation is None
        assert len(v.values) == len(params)
    with pytest.raises(InvalidParameter):
        sequence_monotonicity("nonsense", (1, 2, 3))


def test_monotonicity_verdicts_that_are_not_monotone():
    # a repeated value is not strict, whichever way the rest goes; a turn is
    # caught at its first step; one value has no direction at all
    for family, params, p, first_violation in (
        ("modular", (4, 5, 5, 6), 2, 1),
        ("dihedral", (5, 4, 4, 3), None, 1),
        ("modular", (4, 6, 5), 2, 1),
        ("modular", (4,), 2, 0),
    ):
        v = sequence_monotonicity(family, params, p=p)
        assert (v.direction, v.first_violation) == ("not monotone", first_violation), params
        assert not v.ok and len(v.values) == len(params)


def test_limit_trends():
    for family, p, limit in (
        ("modular", 2, Fraction(1)),
        ("modular", 3, Fraction(1)),
        ("schmidt", 3, Fraction(1)),
        ("dihedral", None, Fraction(0)),
        ("heisenberg", None, Fraction(0)),
    ):
        v = limit_trend(family, p=p)
        assert v.ok, (family, p, v.note)
        assert v.limit == limit
        assert v.final_gap < v.epsilon
