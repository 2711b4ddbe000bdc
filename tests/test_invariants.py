"""Ratios, structural predicates, sections, and the report bundle."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    RELABELLED_SPECS,
    alternating_5,
    conjugation_sections,
    is_dedekind,
    literal_d_star,
    literal_is_nilpotent,
    literal_is_schmidt,
    orbit_d_star,
    relabelled,
    symmetric_5,
    two_step_section,
)
from dedekind import invariants, lattice
from dedekind.errors import InvalidParameter, OrderCapExceeded, StructureViolation
from dedekind.families import (
    cyclic,
    dihedral,
    elementary_rtimes_cq,
    generalized_quaternion,
    modular_group,
    schmidt_gpqn,
)
from dedekind.groups import FiniteGroup, direct_product, is_isomorphic, section_group
from dedekind.invariants import (
    InvariantReport,
    compute_report,
    coprime_product_report,
    d_prime,
    d_star,
    d_star_in_reach,
    has_modular_lattice,
    is_nilpotent,
    is_q_self_dual,
    is_schmidt,
    schmidt_structure_check,
    sections,
    sylow_subgroups,
)
from dedekind.lattice import SubgroupLattice, subgroup_lattice
from dedekind.specs import build_group


def test_d_prime_known_values(zoo):
    assert d_prime(zoo["c12"]) == 1
    assert d_prime(zoo["q8"]) == 1
    assert d_prime(zoo["ea8"]) == 1
    assert d_prime(zoo["d8"]) == Fraction(4, 5)
    assert d_prime(zoo["s3"]) == Fraction(2, 3)
    assert d_prime(zoo["a4"]) == Fraction(1, 2)
    assert d_prime(zoo["he3"]) == Fraction(11, 19)
    assert d_prime(zoo["m16"]) == Fraction(10, 11)
    assert d_prime(dihedral(10)) == Fraction(1, 2)


def test_dedekind_predicate(zoo):
    assert is_dedekind(zoo["c12"])
    assert is_dedekind(zoo["q8"])
    assert is_dedekind(direct_product(zoo["q8"], cyclic(3)))
    assert not is_dedekind(zoo["d8"])
    assert not is_dedekind(zoo["s3"])
    assert not is_dedekind(zoo["m16"])
    # d' = 1 exactly characterizes these groups
    for name in ("c12", "q8", "d8", "he3", "a4"):
        assert (d_prime(zoo[name]) == 1) == is_dedekind(zoo[name]), name


def test_dedekind_predicate_matches_the_lattice_on_corpus(corpus):
    verdicts = set()
    for e in corpus:
        if e.group.order > 64:
            continue
        got = is_dedekind(e.group)
        assert got == (subgroup_lattice(e.group).nu == 0), e.spec
        verdicts.add((e.group.is_abelian, got))
    # non-abelian groups on both sides, not only the abelian short cut
    assert {(False, True), (False, False)} <= verdicts


def test_sections_match_the_full_conjugation_oracle(zoo, corpus):
    groups = list(zoo.items()) + [(e.spec, e.group) for e in corpus if e.group.order <= 32]
    for name, g in groups:
        assert list(sections(g)) == conjugation_sections(g), name


def test_nilpotency(zoo):
    for name in ("c12", "q8", "d8", "he3", "m16", "ea9"):
        assert is_nilpotent(zoo[name]), name
    for name in ("s3", "d12", "a4", "g12"):
        assert not is_nilpotent(zoo[name]), name
    assert is_nilpotent(direct_product(zoo["d8"], cyclic(3)))


def test_nilpotency_flags_match_the_induced_subgroup_oracle(zoo, corpus):
    groups = list(zoo.items()) + [
        (e.spec, e.group) for e in corpus if e.group.order <= 128
    ]
    for name, g in groups:
        assert is_nilpotent(g) == literal_is_nilpotent(g), name
        assert is_schmidt(g) == literal_is_schmidt(g), name


@pytest.mark.parametrize("spec", ["C27Q8", "D(12)"])
def test_report_builds_one_lattice(spec, monkeypatch):
    built = []
    init = SubgroupLattice.__init__

    def counting(self, group):
        built.append(group.order)
        init(self, group)

    monkeypatch.setattr(SubgroupLattice, "__init__", counting)
    g = build_group(spec)
    compute_report(g, spec=spec)
    assert built == [g.order]


@pytest.mark.parametrize("spec", ["SD(2,3)", "G(7,3,3)", "D(6)"])
def test_schmidt_structure_check_builds_one_lattice(spec, monkeypatch):
    built = []
    init = SubgroupLattice.__init__

    def counting(self, group):
        built.append(group.order)
        init(self, group)

    monkeypatch.setattr(SubgroupLattice, "__init__", counting)
    g = build_group(spec)
    schmidt_structure_check(g)
    assert built == [g.order]


def test_section_quotients_match_the_two_step_oracle(corpus):
    """Each section's quotient against H built by hand and then quotiented by
    K, on every section of every corpus group of order at most 32."""
    checked = 0
    for e in corpus:
        if e.group.order > 32:
            continue
        masks = subgroup_lattice(e.group).masks
        for hi, ki in sections(e.group):
            oracle = two_step_section(e.group, masks[hi], masks[ki])
            got = section_group(e.group, masks[hi], masks[ki])[0]
            assert got.table == oracle.table, (e.spec, hi, ki)
            checked += 1
    assert checked >= 3000


@pytest.mark.parametrize("spec", ["D(12)", "He(3)", "SD(2,3)"])
def test_section_quotients_build_one_group_each(spec, monkeypatch):
    """Each section's quotient is read straight off G's table: no group is
    built for H on the way."""
    g = build_group(spec)
    masks = subgroup_lattice(g).masks
    secs = list(sections(g))
    orders = [masks[hi].bit_count() // masks[ki].bit_count() for hi, ki in secs]
    built = []
    init = FiniteGroup.__init__

    def counting(self, table, name=""):
        built.append(len(table))
        init(self, table, name)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    assert [section_group(g, masks[hi], masks[ki])[0].order for hi, ki in secs] == orders
    assert built == orders


def test_iwasawa(zoo):
    def iwasawa(name):
        return compute_report(zoo[name]).flags["iwasawa"]

    assert iwasawa("q8")
    assert iwasawa("m16")
    assert iwasawa("c12")
    assert not iwasawa("d8")  # nilpotent but pentagon in the lattice
    assert not iwasawa("s3")  # modular lattice but not nilpotent
    assert not iwasawa("he3")


def test_modular_lattice_predicate(zoo):
    assert has_modular_lattice(zoo["s3"])
    assert has_modular_lattice(zoo["m27"])
    assert not has_modular_lattice(zoo["d8"])
    assert not has_modular_lattice(zoo["a4"])


def test_q_self_duality(zoo):
    for name in ("c12", "ea8", "m16", "m27"):
        assert is_q_self_dual(zoo[name]), name
    assert not is_q_self_dual(zoo["q8"])


def test_schmidt_predicate_and_structure(zoo):
    for g in (zoo["s3"], zoo["a4"], zoo["g12"], schmidt_gpqn(5, 2, 2)):
        assert is_schmidt(g)
        # the structure check raises on any failed clause, so a returned
        # report means every clause held
        rep = schmidt_structure_check(g)
        assert subgroup_lattice(g).masks[sylow_subgroups(g)[rep.p]].bit_count() == rep.p**rep.r
    for g in (zoo["he3"], zoo["d8"], zoo["d12"], zoo["c12"]):
        assert not is_schmidt(g)
    # out-of-domain input is a parameter error; StructureViolation is
    # reserved for in-domain groups whose clause checks fail
    with pytest.raises(InvalidParameter):
        schmidt_structure_check(zoo["d12"])
    assert issubclass(StructureViolation, Exception)


def test_schmidt_structure_fields(zoo):
    rep = schmidt_structure_check(zoo["a4"])
    assert (rep.p, rep.q, rep.r) == (2, 3, 2)
    sylows, masks = sylow_subgroups(zoo["a4"]), subgroup_lattice(zoo["a4"]).masks
    assert masks[sylows[rep.p]].bit_count() == 4 and masks[sylows[rep.q]].bit_count() == 3
    rep_s3 = schmidt_structure_check(zoo["s3"])
    assert (rep_s3.p, rep_s3.q, rep_s3.r) == (3, 2, 1)


def test_sylow_subgroups(zoo):
    # each Sylow subgroup comes back as the first lattice index of its order
    for name, orders in (("d12", {2: 4, 3: 3}), ("a4", {2: 4, 3: 3}), ("q8", {2: 8})):
        masks = subgroup_lattice(zoo[name]).masks
        syl = sylow_subgroups(zoo[name])
        assert sorted(syl) == sorted(orders), name
        for p, i in syl.items():
            assert masks[i].bit_count() == orders[p] > masks[i - 1].bit_count(), name


def test_sections_census(zoo):
    for name, count in (("q8", 18), ("d12", 49), ("a4", 23), ("he3", 58)):
        g = zoo[name]
        masks = subgroup_lattice(g).masks
        secs = list(sections(g))
        assert len(secs) == count, name
        for hi, ki in secs:
            h, k = masks[hi], masks[ki]
            assert k & ~h == 0
            assert section_group(g, h, k)[0].order * k.bit_count() == h.bit_count()
    # quotient of the whole group by its center is the Klein group
    q8 = zoo["q8"]
    masks = subgroup_lattice(q8).masks
    assert any(
        masks[hi].bit_count() == 8
        and masks[ki].bit_count() == 2
        and section_group(q8, masks[hi], masks[ki])[0].is_abelian
        for hi, ki in sections(q8)
    )


def test_d_star_known_values(zoo):
    assert d_star(zoo["c12"]) == 1
    assert d_star(zoo["q8"]) == 1
    assert d_star(zoo["s3"]) == Fraction(2, 3)
    assert d_star(zoo["d8"]) == Fraction(4, 5)
    assert d_star(zoo["he3"]) == Fraction(11, 19)
    assert d_star(zoo["d16"]) == Fraction(11, 19)
    assert d_star(zoo["m16"]) == Fraction(10, 11)
    assert d_star(zoo["a4"]) == Fraction(1, 2)


def test_d_star_bounds_and_monotonicity(zoo):
    for name in ("s3", "d8", "d12", "q8", "a4", "he3", "m16", "d16"):
        g = zoo[name]
        assert d_star(g) <= d_prime(g), name
    # a section's minimum can only be larger: the order-8 dihedral group
    # sits inside the order-16 one
    assert d_star(zoo["d8"]) >= d_star(zoo["d16"])


def test_d_star_matches_section_oracle(zoo):
    for name in ("s3", "d8", "d12", "a4", "he3", "m16", "g12", "q8", "d16"):
        g = zoo[name]
        assert d_star(g) == literal_d_star(g), name


def _counting(calls: list, name: str, fn):
    """fn, appending name to calls on each call."""

    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    return wrapper


def test_d_star_reuses_only_isomorphic_subgroups():
    # the smallest group found on which d* goes wrong when a representative
    # is skipped on its order alone or on a map checked on P's first
    # generator only: its non-abelian subgroups of order 16 fall into three
    # isomorphism types
    g = build_group("D(8) x C(4)")
    assert d_star(g) == literal_d_star(g) == Fraction(17, 23)


@pytest.mark.parametrize(
    "spec, evaluated, lookups",
    [("D(8)", 1, 0), ("D(8) x EA(2,3)", 4, 158), ("D(8) x EA(2,4)", 5, 937)],
)
def test_d_star_evaluates_each_isomorphism_type_once(spec, evaluated, lookups, monkeypatch):
    # D(8) x EA(2,k) has one non-abelian type per order, D(8) x EA(2,j) for
    # j <= k; G itself reads its weights off the class sizes, so D(8), whose
    # only non-abelian representative is G, looks up no normalizer
    g = build_group(spec)
    subgroup_lattice(g).classes
    calls = []
    for name in ("below", "normalizer_index"):
        spy = _counting(calls, name, getattr(SubgroupLattice, name))
        monkeypatch.setattr(SubgroupLattice, name, spy)
    d_star(g)
    assert (calls.count("below"), calls.count("normalizer_index")) == (evaluated, lookups)


def test_d_star_matches_orbit_oracle_on_corpus(corpus):
    """Orbit counting against H-orbits walked by conjugation, past the
    literal section oracle's reach."""
    checked = 0
    for e in corpus:
        if e.group.order > 128:
            continue
        assert d_star(e.group) == orbit_d_star(e.group), e.spec
        checked += 1
    assert checked >= 280


def test_d_star_of_a_dedekind_group_needs_no_normalizer(monkeypatch):
    g = build_group("Q(8) x EA(2,4)")
    lat = subgroup_lattice(g)
    assert (lat.size, lat.nu) == (3132, 0)
    calls = []
    lookup = _counting(calls, "lookup", SubgroupLattice.normalizer_index)
    monkeypatch.setattr(SubgroupLattice, "normalizer_index", lookup)
    for module in (lattice, invariants):
        test = _counting(calls, "normality test", module.normalizes)
        monkeypatch.setattr(module, "normalizes", test)
    for name in ("up", "below"):
        walk = _counting(calls, "walk", getattr(SubgroupLattice, name))
        monkeypatch.setattr(SubgroupLattice, name, walk)
    assert d_star(g) == 1
    assert calls == []


def test_d_star_order_gate():
    big = dihedral(512)
    with pytest.raises(OrderCapExceeded):
        d_star(big)
    # the same call goes through once explicitly allowed; cyclic is cheap
    assert d_star(cyclic(300), allow_slow=True) == 1
    # the reach ends at DSTAR_ORDER_LIMIT itself
    assert invariants.DSTAR_ORDER_LIMIT == 256
    assert d_star_in_reach(256, False) and not d_star_in_reach(257, False)
    assert d_star_in_reach(257, True)


def test_compute_report_coherence(zoo):
    rep = compute_report(zoo["d8"], spec="D(8)")
    assert rep.spec == "D(8)"
    assert rep.order == 8
    assert rep.k_prime == rep.normal_count + rep.nu
    assert rep.d_prime == Fraction(rep.k_prime, rep.lattice_size)
    assert rep.d_prime == Fraction(4, 5) and rep.d_star == Fraction(4, 5)
    assert rep.flags == {
        "abelian": False,
        "dedekind": False,
        "nilpotent": True,
        "iwasawa": False,
        "modular_lattice": False,
        "schmidt": False,
    }
    assert rep.ms >= 0


def test_report_json_round_trip(zoo):
    rep = compute_report(zoo["he3"], spec="He(3)")
    data = rep.to_json_dict()
    back = InvariantReport.from_json_dict(data)
    assert back == rep
    assert back.to_json_dict() == data
    # flag keys are emitted in sorted order for byte-stable output
    assert list(data["flags"]) == sorted(data["flags"])


def test_report_without_d_star(zoo):
    rep = compute_report(zoo["d8"], want_d_star=False)
    assert rep.d_star is None
    back = InvariantReport.from_json_dict(rep.to_json_dict())
    assert back.d_star is None


def test_two_nonisomorphic_groups_share_ratio(zoo):
    c3_d8 = direct_product(cyclic(3), zoo["d8"])
    twisted = nontrivial_c3_by_c8()
    assert d_prime(c3_d8) == Fraction(4, 5)
    assert d_prime(twisted) == Fraction(4, 5)
    assert not is_isomorphic(c3_d8, twisted)


def nontrivial_c3_by_c8():
    from dedekind.groups import semidirect_product

    ident = (0, 1, 2)
    invert = (0, 2, 1)
    action = [invert if k % 2 else ident for k in range(8)]
    return semidirect_product(cyclic(3), cyclic(8), action)


def _report(g: FiniteGroup) -> InvariantReport:
    """compute_report(g) with the fields that do not describe the group blanked."""
    return replace(compute_report(g), spec="", ms=0)


def test_reports_do_not_depend_on_element_labels(corpus):
    # renaming the non-identity elements changes the generating set, the
    # composition series, the order of the subgroup list and the holder
    # bitsets, but no field of the report
    rng = random.Random(31)
    groups = [(e.spec, e.group) for e in rng.sample(list(corpus), 100)]
    groups += [(spec, build_group(spec)) for spec in RELABELLED_SPECS]
    for spec, g in groups:
        assert _report(relabelled(g, rng)) == _report(g), spec
    # two groups that are not solvable, whose subgroups start from the
    # generic closure on the residual A5
    for g, pinned in [
        (alternating_5(), (59, 9, 2, Fraction(9, 59))),
        (symmetric_5(), (156, 19, 3, Fraction(19, 156))),
    ]:
        rep = _report(relabelled(g, rng))
        assert rep == _report(g)
        assert (rep.lattice_size, rep.k_prime, rep.normal_count, rep.d_star) == pinned
        assert literal_d_star(g) == rep.d_star


@pytest.mark.parametrize("a, b", [("He(3)", "EA(3,2)"), ("Q(8)", "EA(2,4)")])
def test_direct_product_order_does_not_change_the_report(a, b):
    assert _report(build_group(f"{a} x {b}")) == _report(build_group(f"{b} x {a}"))


def test_coprime_product_report_needs_each_factors_d_star_in_reach():
    # the one-factor report passes through; a factor without d* is refused
    # within the product's d* reach and ignored past it
    d8, c3 = compute_report(build_group("D(8)"), spec="D(8)"), compute_report(cyclic(3))
    assert replace(coprime_product_report("D(8)", [d8]), ms=0) == replace(d8, ms=0)
    combined = coprime_product_report("C(3) x D(8)", [c3, d8])
    assert replace(combined, ms=0) == replace(
        compute_report(build_group("C(3) x D(8)"), spec="C(3) x D(8)"), ms=0
    )
    with pytest.raises(InvalidParameter, match="lacks the d"):
        coprime_product_report("C(3) x D(8)", [c3, replace(d8, d_star=None)])
    factors = [compute_report(cyclic(300), want_d_star=False), compute_report(cyclic(7))]
    assert coprime_product_report("C(300) x C(7)", factors).d_star is None
    with pytest.raises(InvalidParameter, match="lacks the d"):
        coprime_product_report("C(300) x C(7)", factors, allow_slow=True)


def test_a_split_products_ms_counts_its_factors_ms():
    # a product's ms counts its factors' ms, as a cold run of it would
    c3, d8 = compute_report(cyclic(3)), compute_report(build_group("D(8)"), spec="D(8)")
    timed = coprime_product_report("C(3) x D(8)", [replace(c3, ms=17), replace(d8, ms=25)])
    assert timed.ms >= 42
    assert replace(timed, ms=0) == replace(coprime_product_report("C(3) x D(8)", [c3, d8]), ms=0)
