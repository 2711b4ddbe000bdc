"""Subgroup enumeration, conjugacy classing, and lattice structure."""

import gc
import time
import weakref
from math import gcd

import pytest

from conftest import (
    Perm,
    alternating_5,
    assert_semimodularity_failure,
    brute_force_hasse_edges,
    brute_force_is_modular,
    brute_force_subgroup_classes,
    closure_from_generators,
    conjugate_mask,
    edge_pairs,
    goursat_counts,
    join,
    meet,
    orbits,
    string_below,
    symmetric_5,
)
from dedekind import lattice
from dedekind.errors import InvalidParameter, LatticeBudgetExceeded
from dedekind.families import cyclic, dihedral, elementary_abelian, modular_group
from dedekind.groups import (
    FiniteGroup,
    _mask_elements,
    direct_product,
    section_group,
    semidirect_product,
)
from dedekind.lattice import (
    all_subgroup_masks,
    brute_force_subgroup_masks,
    composition_series,
    frattini_subgroup,
    hasse_edges,
    is_lattice_modular,
    maximal_subgroup_indices,
    subgroup_lattice,
)
from dedekind.invariants import compute_report
from dedekind.numbertheory import is_prime
from dedekind.specs import build_group


def test_subgroup_counts_for_known_groups(zoo):
    expected = {
        "c1": 1,
        "c2": 2,
        "c12": 6,  # one per divisor
        "ea4": 5,
        "ea8": 16,
        "ea9": 6,
        "s3": 6,
        "d8": 10,
        "q8": 6,
        "m16": 11,
        "a4": 10,
        "he3": 19,
    }
    for name, count in expected.items():
        lat = subgroup_lattice(zoo[name])
        assert lat.size == count, name


def test_every_mask_is_a_subgroup(zoo):
    g = zoo["d12"]
    masks = all_subgroup_masks(g)
    for mask, gens in masks.items():
        assert mask & 1  # contains the identity
        closed, _ = g.closure(list(gens))
        assert closed == mask
        elems = [a for a in range(g.order) if (mask >> a) & 1]
        for a in elems:
            for b in elems:
                assert (mask >> g.mul(a, b)) & 1


def test_lattice_generators_close_to_their_masks(corpus):
    # the normality tests and the conjugacy classes conjugate only a
    # subgroup's generators, which is sound only if the generators give back
    # the whole subgroup
    groups = [(e.spec, e.group) for e in corpus]
    for name, g in groups + [("S4", _s4()), ("A5", alternating_5())]:
        lat = subgroup_lattice(g)
        assert len(lat.gens) == lat.size, name
        for i, (m, gens) in enumerate(zip(lat.masks, lat.gens)):
            assert g.closure(gens)[0] == m, (name, i)


def test_enumeration_matches_brute_force_oracle(zoo):
    for name in ("c12", "ea8", "s3", "d8", "d12", "q8", "a4", "d16", "g12"):
        g = zoo[name]
        assert set(all_subgroup_masks(g)) == brute_force_subgroup_masks(g), name
    g24 = direct_product(zoo["c2"], zoo["d12"])
    assert set(all_subgroup_masks(g24)) == brute_force_subgroup_masks(g24)


def _s4():
    """Derived length 3 (S4 > A4 > V4 > 1), one more than any corpus group."""
    s4 = closure_from_generators(
        [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])]
    )
    assert s4.order == 24
    return s4


def test_enumeration_matches_brute_force_on_small_corpus_groups(corpus):
    small = [(e.spec, e.group) for e in corpus if e.group.order <= 32]
    assert len({g.order for _, g in small if g.order > 24}) >= 4
    for name, g in small + [("S4", _s4())]:
        assert set(all_subgroup_masks(g)) == brute_force_subgroup_masks(g), name


def test_composition_series_steps_are_normal_of_prime_index(corpus):
    solvable = [(e.spec, e.group) for e in corpus] + [("S4", _s4())]
    a5, s5 = alternating_5(), symmetric_5()
    for name, g in solvable + [("A5", a5), ("S5", s5)]:
        series = composition_series(g)
        assert series[0] == (1 << g.order) - 1, name
        # the series stops at the solvable residual R, which is perfect (its
        # commutators generate it), and is 1 iff the group is solvable
        r = _mask_elements(series[-1])
        assert g.closure({g.commutator(a, b) for a in r for b in r})[0] == series[-1], name
        assert (series[-1] == 1) == (name not in ("A5", "S5")), name
        for upper, lower in zip(series, series[1:]):
            elems = [x for x in range(g.order) if lower >> x & 1]
            assert g.closure(elems)[0] == lower, name
            assert lower & ~upper == 0 and is_prime(upper.bit_count() // lower.bit_count()), name
            # upper is lower with one element x adjoined, so x normalizing
            # lower makes lower normal in upper
            x = (upper & ~lower).bit_length() - 1
            assert conjugate_mask(g, lower, x) == lower, name
    # A5 is perfect; in S5 the 3-cycles generate the residual A5
    assert composition_series(a5) == [(1 << 60) - 1]
    three_cycles = [x for x in range(120) if s5.element_orders[x] == 3]
    assert composition_series(s5) == [(1 << 120) - 1, s5.closure(three_cycles)[0]]


def test_non_solvable_group_enumeration():
    # the subgroups of the solvable residual R come from the generic closure,
    # and cyclic extension builds the rest above them: A5 is its own residual,
    # S5 and A5 x C(2) have residual A5, and the generic closure run over the
    # whole group is the oracle
    a5 = alternating_5()
    assert set(all_subgroup_masks(a5)) == brute_force_subgroup_masks(a5)
    lat = subgroup_lattice(a5)
    assert (lat.size, lat.k_prime, lat.normal_count) == (59, 9, 2)
    s5 = symmetric_5()
    for name, g in [("A5", a5), ("S5", s5), ("A5 x C(2)", direct_product(a5, cyclic(2)))]:
        masks = all_subgroup_masks(g)
        oracle = lattice._generic_extension(g, lattice.DEFAULT_LATTICE_BUDGET, (1 << g.order) - 1)
        assert set(masks) == set(oracle), name
        for mask, gens in masks.items():
            assert g.closure(gens)[0] == mask, name


def test_conjugacy_classes_match_brute_force(zoo):
    for name in ("s3", "d8", "d12", "q8", "a4", "he3", "m16"):
        g = zoo[name]
        lat = subgroup_lattice(g)
        oracle = brute_force_subgroup_classes(g)
        assert lat.k_prime == len(oracle), name
        assert lat.normal_count == sum(1 for c in oracle if len(c) == 1), name
        assert lat.nu == lat.k_prime - lat.normal_count, name
        # the engine's classes carry the same masks
        engine = {frozenset(lat.masks[i] for i in cls) for cls in lat.classes}
        assert engine == set(oracle), name


def test_classes_match_the_whole_bitset_orbits(corpus):
    # the engine reads each conjugate off the holder bitsets of the images of
    # a subgroup's generators; the oracle conjugates every element and looks
    # the whole bitset up
    groups = [(e.spec, e.group) for e in corpus]
    groups += [(spec, build_group(spec)) for spec in ("D(8) x EA(2,3)", "He(3) x EA(3,2)")]
    for name, g in groups + [("S4", _s4()), ("A5", alternating_5())]:
        lat = subgroup_lattice(g)
        assert lat.classes == orbits(g, lat, range(lat.size), g.generating_set), name


def test_a_dropped_group_is_freed_without_the_cyclic_collector():
    # a group caches its lattice, and the lattice keeps only what it reads of
    # the group, so dropping a group that has a report frees it at once
    gc.disable()
    try:
        g = build_group("D(8) x EA(2,3)")
        compute_report(g)
        dropped = weakref.ref(g)
        del g
        assert dropped() is None
    finally:
        gc.enable()


def test_a_lattice_outlives_its_group():
    spec = "D(8) x EA(2,3)"
    lat = subgroup_lattice(build_group(spec))
    g = build_group(spec)
    live = subgroup_lattice(g)
    assert lat.classes == live.classes == orbits(g, lat, range(lat.size), g.generating_set)
    index = [lat.normalizer_index(i) for i in range(lat.size)]
    assert index == [live.normalizer_index(i) for i in range(live.size)]
    assert [lat.masks[j] for j in index] == [lat.normalizer(i) for i in range(lat.size)]


def test_normality_and_normalizers(zoo):
    for name in ("d8", "s3", "a4", "d12"):
        g = zoo[name]
        lat = subgroup_lattice(g)
        full = (1 << g.order) - 1
        for i, m in enumerate(lat.masks):
            nz = lat.normalizer(i)
            # the coset-by-coset test agrees with conjugating by every element
            scan = sum(1 << a for a in range(g.order) if conjugate_mask(g, m, a) == m)
            assert nz == scan, name
            assert lat.is_normal(i) == (nz == full), name
            # orbit-stabilizer: class size times normalizer size is the order
            cls = next(c for c in lat.classes if i in c)
            assert len(cls) * nz.bit_count() == g.order, name


def test_normalizer_lookup_matches_the_coset_scan(zoo):
    groups = dict(zoo, d8xea8=build_group("D(8) x EA(2,3)"))
    for name, g in groups.items():
        lat = subgroup_lattice(g)
        for i in range(lat.size):
            assert lat.masks[lat.normalizer_index(i)] == lat.normalizer(i), (name, i)


@pytest.mark.parametrize(
    "spec", ["D(8) x EA(2,3)", "He(3) x EA(3,2)", "M(2,9)", "H(2,3,3) x C(3)"]
)
def test_below_matches_the_string_oracle(spec):
    lat = subgroup_lattice(build_group(spec))
    for i in range(lat.size):
        assert lat.below(i) == string_below(lat, i), (spec, i)


def test_holders_are_the_transpose_of_the_masks(corpus):
    # bit k of holders[x] is bit x of masks[k]; D(8) x EA(2,4) has 7,420
    # subgroups, so its transpose is read in two blocks of masks
    for g in [e.group for e in corpus] + [build_group("D(8) x EA(2,4)")]:
        lat = subgroup_lattice(g)
        want = [0] * g.order
        for k, m in enumerate(lat.masks):
            for x in _mask_elements(m):
                want[x] |= 1 << k
        assert lat._holders == want, g.name


def test_meet_and_join(zoo):
    for name, g in zoo.items():
        lat = subgroup_lattice(g)
        masks = lat.masks
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                assert masks[meet(lat, i, j)] == a & b, name
                jn = masks[join(lat, i, j)]
                assert jn & a == a and jn & b == b, name
                # nothing smaller contains both
                for c in masks:
                    if c & a == a and c & b == b:
                        assert c & jn == jn, name


def test_hasse_edges_are_covers(zoo):
    g = zoo["d8"]
    lat = subgroup_lattice(g)
    edges = edge_pairs(hasse_edges(lat))
    assert len(edges) == 15
    masks = lat.masks
    for i, j in edges:
        assert masks[i] != masks[j] and masks[i] & masks[j] == masks[i]
        between = [
            k
            for k, m in enumerate(masks)
            if m != masks[i] and m != masks[j] and m & masks[i] == masks[i] and masks[j] & m == m
        ]
        assert not between
    # chain lattice of a prime-power cyclic group: one cover per step
    chain = subgroup_lattice(cyclic(16))
    chain_orders = {
        (chain.masks[i].bit_count(), chain.masks[j].bit_count())
        for i, j in edge_pairs(hasse_edges(chain))
    }
    assert chain_orders == {(1, 2), (2, 4), (4, 8), (8, 16)}
    # A4 is not supersolvable: its C3s are maximal of index 4, so the covers
    # are not all of prime index
    a4 = subgroup_lattice(zoo["a4"])
    assert [a4.masks[i].bit_count() for i in hasse_edges(a4)[-1]] == [4, 3, 3, 3, 3]


# the corpus groups that are not supersolvable: A4 = SD(2,3), SD(2,7),
# SD(3,13) and coprime products with them
NOT_SUPERSOLVABLE = {
    "SD(2,3)",
    "SD(2,7)",
    "SD(3,13)",
    "C(3) x SD(2,7)",
    "C(5) x SD(2,3)",
    "C(7) x SD(2,3)",
    "C(11) x SD(2,3)",
}


def _huppert(g) -> bool:
    """Huppert's criterion: G is supersolvable iff every maximal subgroup has prime index."""
    lat = subgroup_lattice(g)
    return all(is_prime(g.order // lat.masks[i].bit_count()) for i in maximal_subgroup_indices(lat))


def test_prime_index_covers_hold_exactly_on_the_supersolvable_corpus_groups(corpus):
    # `is_supersolvable` decides Huppert's criterion by a climb through the
    # normal subgroups instead, and where it holds the covers by prime index
    # must equal the reduction, which a fresh lattice told otherwise takes
    groups = [(e.spec, e.group) for e in corpus]
    not_supersolvable = set()
    for name, g in groups + [("S4", _s4()), ("A5", alternating_5()), ("S5", symmetric_5())]:
        lat = subgroup_lattice(g)
        assert lat.is_supersolvable == _huppert(g), name
        if not lat.is_supersolvable:
            not_supersolvable.add(name)
            continue
        reduced = lattice.SubgroupLattice(g)
        reduced.is_supersolvable = False
        assert hasse_edges(reduced) == hasse_edges(lat), name
    assert not_supersolvable == NOT_SUPERSOLVABLE | {"S4", "A5", "S5"}


def test_covers_and_modularity_match_oracles_off_the_supersolvable_groups(beyond_corpus):
    # the reduction's side: hasse_edges and the modular walk against the
    # pairwise cover scan and the triple-by-triple modular law; the sections
    # beyond the corpus are all supersolvable today, so S4, A5, S5 and
    # A5 x C(2) carry this side, besides the corpus's seven
    a5 = alternating_5()
    groups = [("S4", _s4()), ("A5", a5), ("S5", symmetric_5())]
    groups.append(("A5 x C(2)", direct_product(a5, cyclic(2))))
    for i, g in enumerate(beyond_corpus):
        assert subgroup_lattice(g).is_supersolvable == _huppert(g), i
        if not subgroup_lattice(g).is_supersolvable:
            groups.append((i, g))
    for name, g in groups:
        lat = subgroup_lattice(g)
        assert not lat.is_supersolvable, name
        assert edge_pairs(hasse_edges(lat)) == brute_force_hasse_edges(lat), name
        if lat.size <= 200:
            failure = is_lattice_modular(lat)
            assert (failure is None) == (brute_force_is_modular(lat) is None), name
            if failure is not None:
                assert_semimodularity_failure(lat, failure)
    # the intervals [1, H], each against H's own lattice
    assert _check_intervals_against_induced_lattices(_s4()) == 11
    assert _check_intervals_against_induced_lattices(a5) == 9


def test_hasse_edges_match_oracle_on_corpus(corpus):
    for e in corpus:
        lat = subgroup_lattice(e.group)
        oracle = brute_force_hasse_edges(lat)
        assert edge_pairs(hasse_edges(lat)) == oracle, e.spec
        top = lat.size - 1
        assert maximal_subgroup_indices(lat) == [i for i, j in oracle if j == top], e.spec


def test_near_cap_covers_and_modularity_are_fast():
    # 7,420 subgroups, on which the pairwise cover scan takes several seconds
    lat = subgroup_lattice(build_group("D(8) x EA(2,4)"))
    start = time.perf_counter()
    edges = hasse_edges(lat)
    failure = is_lattice_modular(lat)
    elapsed = time.perf_counter() - start
    assert sum(map(len, edges)) == 64_695
    assert_semimodularity_failure(lat, failure)
    assert elapsed < 5.0


def test_maximal_subgroups(zoo):
    lat = subgroup_lattice(zoo["c12"])
    orders = sorted(lat.masks[i].bit_count() for i in maximal_subgroup_indices(lat))
    assert orders == [4, 6]
    lat8 = subgroup_lattice(zoo["d8"])
    assert sorted(lat8.masks[i].bit_count() for i in maximal_subgroup_indices(lat8)) == [4, 4, 4]


def test_frattini_subgroup(zoo):
    for g, order in (
        (zoo["d8"], 2),
        (zoo["q8"], 2),
        (zoo["ea8"], 1),
        (cyclic(16), 8),
        (zoo["s3"], 1),
        (zoo["m16"], 4),
    ):
        assert subgroup_lattice(g).masks[frattini_subgroup(g)].bit_count() == order, g


@pytest.mark.parametrize(
    "call",
    [
        # -1 must not read as an empty interval, which is modular and has no
        # maximal subgroups
        lambda g, i: is_lattice_modular(subgroup_lattice(g), i),
        lambda g, i: maximal_subgroup_indices(subgroup_lattice(g), i),
        lambda g, i: frattini_subgroup(g, i),
    ],
    ids=["is_lattice_modular", "maximal_subgroup_indices", "frattini_subgroup"],
)
def test_subgroup_indices_outside_the_lattice_are_rejected(call, zoo):
    g = zoo["d8"]
    size = subgroup_lattice(g).size
    for i in (-1, size):
        with pytest.raises(InvalidParameter, match=f"subgroup index {i} is not in a lattice of size {size}"):
            call(g, i)


def test_lattice_modularity(zoo):
    # diamond-like and chain lattices are modular
    for name in ("c12", "ea4", "ea8", "q8", "m16", "s3"):
        assert is_lattice_modular(subgroup_lattice(zoo[name])) is None, name
    # pentagons: dihedral 2-groups, the alternating group on 4 points,
    # and the exponent-p group of order 27
    for name in ("d8", "d12", "d16", "a4", "he3"):
        lat = subgroup_lattice(zoo[name])
        assert_semimodularity_failure(lat, is_lattice_modular(lat))
    # the cover-graph test agrees with the triple-by-triple oracle
    for name, g in zoo.items():
        lat = subgroup_lattice(g)
        assert (is_lattice_modular(lat) is None) == (brute_force_is_modular(lat) is None), name


def test_enumeration_and_modularity_match_oracles_beyond_corpus(beyond_corpus):
    # the sections beyond the corpus: the brute-force enumeration up to order
    # 24, and the triple-by-triple modular law up to 200 subgroups
    small = [(i, g) for i, g in enumerate(beyond_corpus) if g.order <= 24]
    assert len(small) == 11
    for i, g in small:
        assert set(all_subgroup_masks(g)) == brute_force_subgroup_masks(g), i
    lats = [(i, subgroup_lattice(g)) for i, g in enumerate(beyond_corpus)]
    lats = [(i, lat) for i, lat in lats if lat.size <= 200]
    assert len(lats) == 29
    for i, lat in lats:
        failure = is_lattice_modular(lat)
        assert (failure is None) == (brute_force_is_modular(lat) is None), i
        if failure is not None:
            assert_semimodularity_failure(lat, failure)


def test_modularity_matches_oracle_on_corpus(corpus):
    checked = 0
    for e in corpus:
        lat = subgroup_lattice(e.group)
        if lat.nu == 0 or lat.size > 200:
            continue
        failure = is_lattice_modular(lat)
        assert (failure is None) == (brute_force_is_modular(lat) is None), e.spec
        if failure is not None:
            assert_semimodularity_failure(lat, failure)
        checked += 1
    assert checked >= 300


def c5_rtimes_cyclic(m: int):
    """C5 x| C(m), the generator of C(m) acting as i -> 2i, so through C4."""
    action = [[pow(2, h, 5) * i % 5 for i in range(5)] for h in range(m)]
    return semidirect_product(cyclic(5), cyclic(m), action)


# groups no spec builds, by the name they get
NON_SPEC_GROUPS = {f"C(5) x| C({m})": m for m in (4, 8)}


@pytest.mark.parametrize(
    "spec, witness",
    [
        ("D(8) x EA(2,3)", (0, 8, 16, False)),
        ("He(3) x EA(3,2)", (0, 14, 41, False)),
        ("D(8) x EA(2,4)", (0, 16, 32, False)),
        ("M(2,6)", None),
        # upper semimodular but not lower, so only the dual scan finds a
        # failure
        ("C(5) x| C(4)", (13, 6, 7, True)),
        ("C(5) x| C(8)", (15, 8, 9, True)),
    ],
)
def test_modularity_walks_covers_without_the_edge_list(spec, witness, monkeypatch):
    # the first failure found is pinned; the covers are walked lazily, so
    # the full, sorted edge list is never built
    if spec in NON_SPEC_GROUPS:
        lat = subgroup_lattice(c5_rtimes_cyclic(NON_SPEC_GROUPS[spec]))
    else:
        lat = subgroup_lattice(build_group(spec))
    calls = []

    def counting(*args):
        calls.append(args)
        return hasse_edges(*args)

    monkeypatch.setattr(lattice, "hasse_edges", counting)
    failure = is_lattice_modular(lat)
    assert calls == []
    assert failure == witness
    if witness is None:
        # modular but not Dedekind, so the upper half runs in full; the group
        # is nilpotent, so the dual half is skipped
        assert lat.nu > 0
        assert brute_force_is_modular(lat) is None
    else:
        assert_semimodularity_failure(lat, failure)


@pytest.mark.parametrize("spec", ["SD(2,3)", "SD(2,7)"])
def test_lower_semimodular_scan_finds_a_genuine_witness(spec):
    # these lattices fail the upper half too, so the dual half is run on its
    # own here, on the oracle's lower covers
    lat = subgroup_lattice(build_group(spec))
    down = [[] for _ in range(lat.size)]
    for i, j in sorted(brute_force_hasse_edges(lat)):
        down[j].append(i)
    failure = lattice._semimodular_scan(list(range(lat.size)), down.__getitem__)
    assert failure is not None
    assert_semimodularity_failure(lat, (*failure, True))


def test_nilpotent_lattices_are_lower_semimodular(corpus):
    # the premise on which is_lattice_modular skips its dual half
    checked = 0
    for e in corpus:
        lat = subgroup_lattice(e.group)
        if lat.is_nilpotent(lat.size - 1):
            down = [sorted(covered) for covered in hasse_edges(lat)]
            failure = lattice._semimodular_scan(list(range(lat.size)), down.__getitem__)
            assert failure is None, e.spec
            checked += 1
    assert checked >= 100


def test_semimodular_scan_compares_every_pair_of_covers():
    # 1 and 2 share the cover 4, 2 and 3 share 5, but 1 and 3 share none:
    # a scan of adjacent covers alone would call this semimodular
    covers = {0: [1, 2, 3], 1: [4], 2: [4, 5], 3: [5], 4: [6], 5: [6], 6: []}
    assert lattice._semimodular_scan(list(covers), covers.__getitem__) == (0, 1, 3)


def test_intervals_match_the_induced_subgroup_oracle(corpus):
    """[1, H] of G's lattice, against H induced as a group with a lattice of its own."""
    small = [e.group for e in corpus if e.group.order <= 64]
    assert sum(map(_check_intervals_against_induced_lattices, small)) >= 1800


def _check_intervals_against_induced_lattices(g) -> int:
    """Check [1, H] for every class representative H of g's lattice against
    H's own lattice; the number of intervals checked."""
    lat = subgroup_lattice(g)
    masks = lat.masks
    edges = edge_pairs(hasse_edges(lat))
    reps = lat.class_representatives()
    for i in reps:
        assert lat.below(i) == sum(1 << j for j, m in enumerate(masks) if not m & ~masks[i]), g.name
        hgrp, emb = section_group(g, masks[i])[0], _mask_elements(masks[i])
        hlat = subgroup_lattice(hgrp)

        def mask_in_g(local):
            return sum(1 << emb[x] for x in range(hgrp.order) if local >> x & 1)

        def in_g(local_indices):
            return [masks.index(mask_in_g(hlat.masks[j])) for j in local_indices]

        # a cover in [1, H] is a cover in L(G) whose top lies in H
        within = lat.below(i)
        hedges = edge_pairs(hasse_edges(hlat))
        assert sorted((a, b) for a, b in edges if within >> b & 1) == sorted(
            zip(in_g(a for a, _ in hedges), in_g(b for _, b in hedges))
        ), g.name
        maximal = maximal_subgroup_indices(lat, i)
        assert sorted(maximal) == sorted(in_g(maximal_subgroup_indices(hlat))), g.name
        assert [masks[j].bit_count() for j in maximal] == [
            hlat.masks[j].bit_count() for j in maximal_subgroup_indices(hlat)
        ]
        assert frattini_subgroup(g, i) == in_g([frattini_subgroup(hgrp)])[0], g.name
        failure = is_lattice_modular(lat, i)
        assert (failure is None) == (is_lattice_modular(hlat) is None), g.name
        if failure is not None:
            assert_semimodularity_failure(lat, failure)
    return len(reps)


def test_lattice_budget(zoo):
    with pytest.raises(LatticeBudgetExceeded):
        all_subgroup_masks(elementary_abelian(2, 4), budget=10)
    # A5 is perfect, so the generic closure builds all 59 of its subgroups
    # and stops at any budget below that
    a5 = alternating_5()
    for budget in (10, 40, 58):
        with pytest.raises(LatticeBudgetExceeded):
            all_subgroup_masks(a5, budget=budget)
    assert len(all_subgroup_masks(a5, budget=59)) == 59
    # S5's residual is A5: a budget from 59 to 155 lets the closure on A5
    # finish and stops the cyclic extension above it
    s5 = symmetric_5()
    for budget in (59, 100, 155):
        with pytest.raises(LatticeBudgetExceeded):
            all_subgroup_masks(s5, budget=budget)
    assert len(all_subgroup_masks(s5, budget=156)) == 156


# the (order, w) of each recorded coprime block, for every atom order of two
# specs: a block is recorded only as a run of adjacent atoms, so K(2,3,2)
# and C(2) split by C(3) record none
RECORDED_BLOCKS = {
    "C(3) x K(2,3,2) x C(2)": [(3, 64), (64, 1)],
    "C(3) x C(2) x K(2,3,2)": [(3, 64), (64, 1)],
    "K(2,3,2) x C(2) x C(3)": [(64, 3), (3, 1)],
    "C(2) x K(2,3,2) x C(3)": [(64, 3), (3, 1)],
    "K(2,3,2) x C(3) x C(2)": None,
    "C(2) x C(3) x K(2,3,2)": None,
    "C(4) x C(3) x C(5)": [(4, 15), (3, 5), (5, 1)],
    "C(4) x C(5) x C(3)": [(4, 15), (5, 3), (3, 1)],
    "C(3) x C(4) x C(5)": [(3, 20), (4, 5), (5, 1)],
    "C(3) x C(5) x C(4)": [(3, 20), (5, 4), (4, 1)],
    "C(5) x C(4) x C(3)": [(5, 12), (4, 3), (3, 1)],
    "C(5) x C(3) x C(4)": [(5, 12), (3, 4), (4, 1)],
    "D(8) x C(3) x Q(8)": None,
}


def recorded_blocks(g):
    return g._blocks and [(f.order, w) for f, w in g._blocks]


def test_coprime_products_match_cyclic_extension(corpus):
    # a product of coprime blocks has as subgroups the products of one
    # subgroup per block; a copy of its table records no blocks, so cyclic
    # extension enumerates the copy, and each generating tuple must close to
    # its mask.  Every bracketing records the same blocks.
    groups = [(e.spec, e.group) for e in corpus if e.group._blocks is not None]
    assert len(groups) == 293
    for spec, blocks in RECORDED_BLOCKS.items():
        g = build_group(spec)
        assert recorded_blocks(g) == blocks, spec
        groups.append((spec, g))
    c2, c3, c4, c5, k = (build_group(s) for s in ("C(2)", "C(3)", "C(4)", "C(5)", "K(2,3,2)"))
    for name, g, blocks in [
        ("C(3) x (K(2,3,2) x C(2))", direct_product(c3, direct_product(k, c2)), [(3, 64), (64, 1)]),
        ("(C(3) x K(2,3,2)) x C(2)", direct_product(direct_product(c3, k), c2), [(3, 64), (64, 1)]),
        ("C(4) x (C(3) x C(5))", direct_product(c4, direct_product(c3, c5)), [(4, 15), (3, 5), (5, 1)]),
    ]:
        assert recorded_blocks(g) == blocks, name
        groups.append((name, g))
    for name, g in groups:
        assert all(f._blocks is None for f, _ in g._blocks or ()), name
        copy = FiniteGroup(g.table)
        assert copy._blocks is None, name
        masks = all_subgroup_masks(g)
        assert set(masks) == set(all_subgroup_masks(copy)), name
        for mask, gens in masks.items():
            assert g.closure(gens)[0] == mask, name


def test_direct_product_records_only_coprime_factors(corpus):
    groups = {e.spec: e.group for e in corpus}
    for e in corpus:
        coprime = bool(e.factors) and gcd(*(groups[f].order for f in e.factors)) == 1
        assert (e.group._blocks is not None) == coprime, e.spec
    g = build_group("D(8) x EA(2,3)")
    assert g._blocks is None
    assert len(all_subgroup_masks(g)) == 937


def test_a_cached_factor_lattice_is_not_enumerated_again(monkeypatch):
    # composition_series runs once per cyclic extension, so it counts the
    # groups enumerated: a factor with a cached lattice is read, not
    # enumerated, and one without is enumerated but gets no lattice cached
    enumerated = []
    series = lattice.composition_series

    def counted(g):
        enumerated.append(g.name)
        return series(g)

    monkeypatch.setattr(lattice, "composition_series", counted)
    he3, d8 = build_group("He(3)"), build_group("D(8)")
    subgroup_lattice(he3)
    assert enumerated == ["He(3)"]
    assert subgroup_lattice(direct_product(he3, d8)).size == 19 * 10
    assert enumerated == ["He(3)", "D(8)"]
    assert d8._lattice is None
    subgroup_lattice(d8)
    enumerated.clear()
    assert subgroup_lattice(direct_product(he3, d8)).size == 19 * 10
    assert enumerated == []
    # a nested coprime product records its atoms as blocks
    assert len(all_subgroup_masks(build_group("C(4) x C(3) x C(5)"))) == 3 * 2 * 2
    assert enumerated == ["C(4)", "C(3)", "C(5)"]


def test_coprime_product_budget():
    # He(3) has 19 subgroups and C(2) has 2, so He(3) x C(2) has 38
    assert len(all_subgroup_masks(build_group("He(3) x C(2)"), budget=38)) == 38
    with pytest.raises(LatticeBudgetExceeded, match="^more than 37 subgroups$"):
        all_subgroup_masks(build_group("He(3) x C(2)"), budget=37)
    # three blocks of 3, 2 and 2 subgroups: the check before the last product
    # sees 6 x 2
    g = build_group("C(4) x C(3) x C(5)")
    assert len(all_subgroup_masks(g, budget=12)) == 12
    with pytest.raises(LatticeBudgetExceeded, match="^more than 11 subgroups$"):
        all_subgroup_masks(g, budget=11)
    # a cached block lattice is read past the budget, and the product is not
    he3 = build_group("He(3)")
    assert subgroup_lattice(he3).size == 19
    with pytest.raises(LatticeBudgetExceeded, match="^more than 18 subgroups$"):
        all_subgroup_masks(direct_product(he3, build_group("C(2)")), budget=18)


def test_the_up_set_reduction_ends_when_up_lacks_the_subgroup(monkeypatch):
    # correct code always has j in up(j); if it did not, the reduction must
    # still find i's covers rather than take i, or a cover j it has found,
    # as a cover again forever
    lat = lattice.SubgroupLattice(_s4())
    assert not lat.is_supersolvable
    within = (1 << lat.size) - 1
    want = [lattice._upper_covers(lat, i, within) for i in range(lat.size)]
    up = lat.up
    calls = []

    def lacking(j):
        calls.append(j)
        assert len(calls) <= lat.size, "the up-set reduction does not end"
        return up(j) & ~(1 << j)

    monkeypatch.setattr(lat, "up", lacking)
    for i in range(lat.size):
        calls.clear()
        assert lattice._upper_covers(lat, i, within) == want[i], i


def test_class_representatives(zoo):
    lat = subgroup_lattice(zoo["d8"])
    reps = lat.class_representatives()
    assert len(reps) == lat.k_prime
    covered = set()
    for r in reps:
        cls = next(c for c in lat.classes if r in c)
        covered |= set(cls)
    assert covered == set(range(lat.size))


def test_index_and_contains(zoo):
    g = zoo["d8"]
    lat = subgroup_lattice(g)
    for i, a in enumerate(lat.masks):
        for j, b in enumerate(lat.masks):
            assert (lat.below(i) >> j & 1) == (a & b == b)


def test_order_runs_tile_the_index_order(zoo, corpus):
    # every "subgroups of order d" lookup reads `runs`, and `frattini_subgroup`
    # bisects inside one, so the indices must run through (order, mask)
    # without repeats and runs[d] must hold exactly the subgroups of order d
    for g in [*zoo.values(), *(e.group for e in corpus)]:
        lat = subgroup_lattice(g)
        keys = [(m.bit_count(), m) for m in lat.masks]
        assert keys == sorted(set(keys))
        orders = list(lat.runs)
        assert orders == sorted(orders)
        assert [i for run in lat.runs.values() for i in run] == list(range(lat.size))
        for d, run in lat.runs.items():
            assert {keys[i][0] for i in run} == {d}


# Goursat's lemma counts the subgroups of A x EA(p, k) from A's sections alone,
# an oracle for the lattices too large for the brute-force enumeration


def _counts(spec: str) -> tuple[int, int, int]:
    lat = subgroup_lattice(build_group(spec))
    return lat.size, lat.k_prime, lat.normal_count


@pytest.mark.parametrize(
    "a, p, k, want",
    [
        ("D(8)", 2, 4, (7420, 5276, 3132)),
        ("M(2,4)", 2, 4, (7727, 6655, 5583)),
        ("He(3)", 3, 2, (882, 450, 234)),
        ("Q(8)", 2, 3, (425, 425, 425)),
    ],
)
def test_goursat_counts_match_the_near_cap_lattices(a, p, k, want):
    assert goursat_counts(build_group(a), p, k) == _counts(f"{a} x EA({p},{k})") == want


def test_goursat_counts_match_every_small_non_abelian_atom_times_ea(corpus):
    atoms = [e for e in corpus if e.tag != "product" and e.group.order <= 16]
    atoms = [e for e in atoms if not e.group.is_abelian]
    assert len(atoms) == 19
    for e in atoms:
        for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            if (e.group.order, p, k) == (16, 2, 3):
                continue  # the six of order 128 would take the test past its 1.5 s
            spec = f"{e.spec} x EA({p},{k})"
            assert goursat_counts(e.group, p, k) == _counts(spec), spec


def test_goursat_pins_the_near_cap_lattices_too_slow_to_enumerate():
    # 79,535 and 81,986 subgroups: enumerating and classing them takes seconds
    assert goursat_counts(build_group("D(8)"), 2, 5) == (79535, 55599, 31663)
    assert goursat_counts(build_group("M(2,4)"), 2, 5) == (81986, 70018, 58050)
