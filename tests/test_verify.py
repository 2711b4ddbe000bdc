"""The standard corpus listing, and the verification suites on a small corpus carved from it."""

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import central_product_q8_d8
from dedekind import cli, verify
from dedekind.errors import InvalidParameter
from dedekind.formulas import d_prime_modular_formula
from dedekind.invariants import compute_report, is_dedekind
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
