"""Shared fixtures and slow-but-obvious oracle helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from dedekind.families import (
    cyclic,
    dihedral,
    elementary_abelian,
    elementary_rtimes_cq,
    generalized_quaternion,
    heisenberg,
    modular_group,
    schmidt_gpqn,
)
from dedekind.groups import FiniteGroup, assert_associative, induced_subgroup
from dedekind.invariants import d_prime, sections, sylow_subgroups
from dedekind.lattice import (
    brute_force_subgroup_masks,
    conjugate_mask,
    maximal_subgroup_indices,
    subgroup_lattice,
)
from dedekind.verify import Corpus, CorpusConfig, build_corpus


def assert_valid_group(g: FiniteGroup) -> None:
    """Full axiom check: the constructor enforces Latin square, identity,
    and inverses, so this adds associativity and power/order coherence."""
    assert_associative(g)
    for a in range(g.order):
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(g.inv(a), a) == 0
    for a, k in enumerate(g.element_orders):
        assert k >= 1 and g.order % k == 0
        assert g.power(a, k) == 0
        for j in range(1, k):
            assert g.power(a, j) != 0
    assert g.exponent % max(g.element_orders) == 0


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


def literal_d_star(g: FiniteGroup) -> Fraction:
    """d* by definition: d' of every section's quotient group, minimized."""
    return min(d_prime(s.quotient) for s in sections(g))


def literal_is_nilpotent(g: FiniteGroup) -> bool:
    """Nilpotency as every Sylow subgroup being normal, read off g's own lattice."""
    lat = subgroup_lattice(g)
    return all(
        lat.is_normal(lat.index_of(sylow.mask))
        for sylow in sylow_subgroups(g).values()
    )


def literal_is_schmidt(g: FiniteGroup) -> bool:
    """Minimal non-nilpotency by definition: g is not nilpotent, and each
    maximal subgroup, induced as a group, is nilpotent on its own lattice."""
    if literal_is_nilpotent(g):
        return False
    lat = subgroup_lattice(g)
    return all(
        literal_is_nilpotent(induced_subgroup(g, lat.subgroups[i])[0])
        for i in maximal_subgroup_indices(lat)
    )


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
    return build_corpus(CorpusConfig())
