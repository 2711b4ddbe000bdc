"""The standard corpus listing, and the verification suites on a small corpus carved from it."""

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import central_product_q8_d8, is_dedekind, literal_d_star
from dedekind import cli, verify
from dedekind.errors import InvalidParameter
from dedekind.formulas import d_prime_modular_formula
from dedekind.groups import is_isomorphic, section_group
from dedekind.invariants import compute_report, sections
from dedekind.lattice import subgroup_lattice
from dedekind.verify import (
    CORPUS_DSTAR_ORDER_LIMIT,
    Check,
    Corpus,
    CorpusEntry,
    SUITES,
    SuiteResult,
    compute_corpus_stats,
    list_corpus,
    run_suites,
    suite_dedekind_threshold,
    suite_iwasawa,
    suite_nilpotency,
)
from dedekind.specs import build_group


@pytest.fixture(scope="module")
def fast_corpus(corpus):
    """The standard corpus entries of order <= 48: 117 groups, every suite exercised."""
    return Corpus([e for e in corpus if e.group.order <= 48])


@pytest.fixture(scope="module")
def fast_stats(fast_corpus):
    return compute_corpus_stats(fast_corpus)


def test_corpus_listing_is_pinned():
    rows = list_corpus()
    assert len(rows) == 433
    assert Counter(tag for _, tag, _, _, _ in rows) == {
        "product": 293,
        "G": 66,
        "K": 18,
        "C": 14,
        "H": 11,
        "D": 8,
        "M": 6,
        "SD": 6,
        "EA": 5,
        "Q": 3,
        "He": 2,
        "C27Q8": 1,
    }
    assert (
        hashlib.sha256(repr(rows).encode()).hexdigest()
        == "0e0f85915c7940b92b38fbde5325f83af16beb5e3154a377b0efb3e4577f0818"
    )


def test_corpus_is_deterministic_and_deduplicated(corpus):
    assert list_corpus() == list_corpus()
    specs = [e.spec for e in corpus]
    assert len(specs) == len(set(specs))


def test_corpus_contents(corpus):
    specs = {e.spec for e in corpus}
    assert {"C(12)", "D(8)", "Q(8)", "M(2,5)", "He(3)", "G(3,2,2)", "SD(2,3)", "C27Q8"} <= specs
    assert max(e.group.order for e in corpus) == corpus.get("SD(3,13)").group.order == 351
    # products are coprime, nontrivial, and within caps
    for e in corpus:
        if e.factors:
            a, b = e.factors
            ga, gb = corpus.get(a).group, corpus.get(b).group
            assert ga.order > 1 and gb.order > 1
            assert gcd(ga.order, gb.order) == 1
            assert ga.order <= 64 and gb.order <= 64
            assert e.group.order == ga.order * gb.order <= 216


def test_corpus_listing_matches_the_built_corpus(corpus):
    # `sweep` builds listed specs one by one with build_group, so the listing
    # and those groups must agree with what build_corpus builds
    rows = list_corpus()
    assert [(spec, tag, params, factors) for spec, tag, params, _, factors in rows] == [
        (e.spec, e.tag, e.params, e.factors) for e in corpus
    ]
    assert [order for _, _, _, order, _ in rows] == [e.group.order for e in corpus]
    for e in corpus:
        if e.factors and e.group.order <= 48:
            assert build_group(e.spec).table == e.group.table, e.spec


def test_family_filter(fast_corpus):
    ms = fast_corpus.family("M")
    assert {e.spec for e in ms} == {"M(2,4)", "M(2,5)", "M(3,3)"}
    assert fast_corpus.get("does-not-exist") is None


def test_stats_cover_corpus(fast_corpus, fast_stats):
    assert set(fast_stats) == {e.spec for e in fast_corpus}
    for e in fast_corpus:
        r = fast_stats[e.spec]
        assert r.order == e.group.order
        assert 0 < r.d_prime <= 1
        if e.group.order <= CORPUS_DSTAR_ORDER_LIMIT:
            assert r.d_star is not None and r.d_star <= r.d_prime
        else:
            assert r.d_star is None


def test_all_suites_pass_on_reduced_corpus(fast_corpus, fast_stats):
    assert len(fast_corpus) == 117
    results = run_suites(None, corpus=fast_corpus, stats=fast_stats)
    assert [r.suite for r in results] == list(SUITES)
    for r in results:
        assert r.ok, (r.suite, [c.description for c in r.checks if not c.ok][:3])
        assert len(r.checks) > 0, r.suite
        assert any(v > 0 for v in r.antecedents.values()), r.suite


def test_verify_command_builds_its_own_corpus_and_stats(capsys, monkeypatch):
    # run_suites with no corpus builds the standard one from list_corpus
    rows = [row for row in list_corpus() if row[3] <= 12]
    monkeypatch.setattr(verify, "list_corpus", lambda: rows)
    corpus = verify.build_corpus()
    assert [e.spec for e in corpus] == [row[0] for row in rows] and len(rows) < 433
    want = run_suites(["consistency"], corpus=corpus, stats=compute_corpus_stats(corpus))
    assert cli.main(["verify", "consistency", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["suites"] == [r.to_json_dict() for r in want]
    assert want[0].passed > 0


def test_single_suite_selection(fast_corpus, fast_stats):
    results = run_suites(["self-dual"], corpus=fast_corpus, stats=fast_stats)
    assert len(results) == 1 and results[0].suite == "self-dual"
    with pytest.raises(InvalidParameter):
        run_suites(["nope"], corpus=fast_corpus, stats=fast_stats)


def test_suites_catch_corrupted_stats(fast_corpus, fast_stats):
    poisoned = dict(fast_stats)
    victim = next(e.spec for e in fast_corpus if e.factors)
    poisoned[victim] = dataclasses.replace(
        poisoned[victim], d_prime=Fraction(1, 1000), k_prime=1
    )
    results = run_suites(["consistency"], corpus=fast_corpus, stats=poisoned)
    assert not results[0].ok
    assert any(victim in c.witness or victim in c.description for c in results[0].checks if not c.ok)


def test_the_nilpotency_suite_reads_the_iwasawa_flag(fast_corpus, fast_stats):
    # M(3,3) has odd order and d* = 4/5 > 2/3; a report that calls its
    # lattice non-modular must fail the odd-order check, and only that one
    victim = "M(3,3)"
    r = fast_stats[victim]
    assert r.d_star == Fraction(4, 5) and r.flags["iwasawa"]
    poisoned = dict(fast_stats)
    flags = {**r.flags, "modular_lattice": False, "iwasawa": False}
    poisoned[victim] = dataclasses.replace(r, flags=flags)
    result = run_suites(["nilpotency"], corpus=fast_corpus, stats=poisoned)[0]
    assert [(c.description, c.witness) for c in result.checks if not c.ok] == [(
        f"{victim}: odd order and d* > 2/3 force a product of lattice-modular p-groups",
        "d* = 4/5, iwasawa = False",
    )]


def test_consistency_recount_catches_a_corrupted_normal_count(fast_corpus, fast_stats):
    # k' moves with |N|, so k' = |N| + nu still holds and only the recount of
    # the normal subgroups from the lattice can catch it
    victim = "D(8)"
    r = fast_stats[victim]
    poisoned = dict(fast_stats)
    poisoned[victim] = dataclasses.replace(
        r, normal_count=r.normal_count + 1, k_prime=r.k_prime + 1
    )
    result = run_suites(["consistency"], corpus=fast_corpus, stats=poisoned)[0]
    assert [c.description for c in result.checks if not c.ok] == [
        f"{victim}: k' = |N| + nu with |N| recounted from scratch"
    ]


def test_suite_result_json_shape(fast_corpus, fast_stats):
    r = run_suites(["ratio-equality"], corpus=fast_corpus, stats=fast_stats)[0]
    data = r.to_json_dict()
    assert data["suite"] == "ratio-equality"
    assert data["passed"] == len(r.checks) and data["failed"] == 0
    assert all(set(c) == {"description", "ok", "witness"} for c in data["checks"])


def test_check_and_result_accounting():
    r = SuiteResult(
        suite="demo",
        checks=(Check("a", True, ""), Check("b", False, "w"), Check("c", True, "")),
        antecedents={"n": 3},
    )
    assert r.passed == 2 and r.failed == 1 and not r.ok


def test_the_d_prime_threshold_fails_on_q8_o_d8():
    # the corpus holds no central product; Q8 o D8 of order 32 is a nilpotent
    # group, not Dedekind, whose d' passes d'(M(2,5)) = 13/14 while d* does not
    g = central_product_q8_d8()
    report = compute_report(g, spec="Q(8) o D(8)")
    assert (report.order, report.lattice_size, report.k_prime) == (32, 78, 73)
    assert report.d_prime == Fraction(73, 78) > Fraction(13, 14) == d_prime_modular_formula(2, 5)
    assert report.d_star == Fraction(4, 5)
    flags = report.flags
    assert flags["nilpotent"] and not flags["abelian"]
    assert not (flags["dedekind"] or flags["modular_lattice"] or flags["iwasawa"])
    assert not is_dedekind(g)
    result = suite_dedekind_threshold(
        Corpus([CorpusEntry("Q(8) o D(8)", g, "product")]), {"Q(8) o D(8)": report}
    )
    assert [(c.description, c.ok) for c in result.checks] == [
        ("Q(8) o D(8): d' > 13/14 forces a Dedekind group", False)
    ]
    assert result.antecedents == {"p_groups_n_ge_3": 1, "d_prime_antecedents": 1}


def test_find_section_matches_the_literal_sections_oracle(corpus):
    # the first section H/K isomorphic to the target, H over the class
    # representatives and K over H's normal subgroups ascending, read off the
    # literal `sections` walk.  A K of the right order that is not normal in
    # H must be skipped: D(16) has such K for a Q(8) target, and no Q(8)
    # section
    def oracle(g, target):
        lat = subgroup_lattice(g)
        masks = lat.masks
        normal_in = {}
        for hi, ki in sections(g):
            normal_in.setdefault(hi, []).append(ki)
        for hi in lat.class_representatives():
            for ki in normal_in[hi]:
                if is_isomorphic(section_group(g, masks[hi], masks[ki])[0], target):
                    return masks[hi].bit_count(), masks[ki].bit_count()
        return None

    specs = ("C(2)", "C(4)", "EA(2,2)", "C(3)", "D(6)", "D(8)", "Q(8)", "C(8)", "EA(2,3)")
    targets = [build_group(spec) for spec in specs]
    found = 0
    for e in corpus:
        if e.group.order <= 16 and not e.group.is_abelian:
            for target in targets:
                want = oracle(e.group, target)
                assert verify._find_section(e.group, target) == want, (e.spec, target.name)
                found += want is not None
    assert found == 62


def test_threshold_suites_on_groups_beyond_the_corpus_from_sections_of_products(
    corpus, beyond_corpus
):
    # the sections of small corpus groups and their products give 30
    # non-abelian types the corpus does not hold (`beyond_corpus`)
    new = beyond_corpus
    orders = Counter(q.order for q in new)
    assert sorted(orders.items()) == [
        (16, 3), (18, 2), (20, 1), (24, 5), (30, 1), (32, 11), (36, 1), (48, 2), (60, 1), (64, 3)
    ]
    # a fingerprint alone merges types: two of order 16 and two of order 32
    fresh = {q.fingerprint for q in new} - {e.group.fingerprint for e in corpus}
    assert Counter(fp.order for fp in fresh) == orders - Counter({16: 2, 32: 2})

    entries = [CorpusEntry(f"section {i}", q, "section") for i, q in enumerate(new)]
    stats = {e.spec: compute_report(e.group, spec=e.spec) for e in entries}
    for e in entries:
        assert stats[e.spec].d_star == literal_d_star(e.group), e.spec
    results = [
        suite(Corpus(entries), stats)
        for suite in (suite_nilpotency, suite_iwasawa, suite_dedekind_threshold)
    ]
    assert [r.antecedents for r in results] == [
        {"over_2_3": 13},
        {"over_4_5": 2, "over_4_5_nonabelian": 2},
        {"p_groups_n_ge_3": 17, "d_star_antecedents": 2, "d_prime_antecedents": 3},
    ]
    # every d* check holds; the d' form of the p-group threshold fails on
    # exactly one type, Q8 o D8
    (q8_d8,) = [e.spec for e in entries if is_isomorphic(e.group, central_product_q8_d8())]
    assert stats[q8_d8].lattice_size == 78
    assert [(c.description, c.witness) for r in results for c in r.checks if not c.ok] == [
        (f"{q8_d8}: d' > 13/14 forces a Dedekind group", "d' = 73/78, dedekind = False")
    ]
