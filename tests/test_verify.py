"""Corpus construction and the verification suites on a reduced, fast config."""

import dataclasses
from fractions import Fraction

import pytest

from dedekind.errors import InvalidParameter
from dedekind.verify import (
    Check,
    CorpusConfig,
    SUITES,
    SuiteResult,
    build_corpus,
    compute_corpus_stats,
    list_corpus,
    run_suites,
)
from dedekind.specs import build_group

FAST_CONFIG = CorpusConfig(
    cyclic_orders=(1, 2, 3, 4, 6, 8, 9, 12, 16),
    elementary_abelian_params=((2, 2), (2, 3), (3, 2)),
    dihedral_orders=(6, 8, 16, 32),
    quaternion_orders=(8,),
    modular_params=((2, 4), (2, 5), (3, 3)),
    heisenberg_primes=(3,),
    schmidt_max_order=50,
    hk_max_order=64,
    sd_params=((2, 3), (3, 2)),
    include_c27q8=False,
    product_factor_cap=16,
    product_order_cap=48,
    density_targets=((1, 2), (2, 3)),
    density_epsilon=Fraction(1, 20),
    dstar_order_limit=64,
)


@pytest.fixture(scope="module")
def fast_corpus():
    return build_corpus(FAST_CONFIG)


@pytest.fixture(scope="module")
def fast_stats(fast_corpus):
    return compute_corpus_stats(fast_corpus)


def test_corpus_is_deterministic_and_deduplicated(fast_corpus):
    again = build_corpus(FAST_CONFIG)
    assert [e.spec for e in again] == [e.spec for e in fast_corpus]
    specs = [e.spec for e in fast_corpus]
    assert len(specs) == len(set(specs))


def test_corpus_contents(fast_corpus):
    specs = {e.spec for e in fast_corpus}
    assert {"C(12)", "D(8)", "Q(8)", "M(2,5)", "He(3)", "G(3,2,2)", "SD(2,3)"} <= specs
    assert "C27Q8" not in specs
    # products are coprime, nontrivial, and within caps
    for e in fast_corpus:
        if e.factors:
            a, b = e.factors
            ga, gb = fast_corpus.get(a).group, fast_corpus.get(b).group
            assert ga.order > 1 and gb.order > 1
            from math import gcd

            assert gcd(ga.order, gb.order) == 1
            assert ga.order <= 16 and gb.order <= 16
            assert e.group.order == ga.order * gb.order <= 48


def test_corpus_skips_are_recorded():
    tight = dataclasses.replace(FAST_CONFIG, order_cap=30, dihedral_orders=(6, 8, 16, 32))
    corpus = build_corpus(tight)
    assert any("D(32)" in note for note in corpus.skipped)
    assert all(e.group.order <= 30 for e in corpus)


def test_corpus_listing_matches_the_built_corpus(corpus):
    # `sweep` builds listed specs one by one with build_group, so the listing
    # and those groups must agree with what build_corpus builds
    rows, skipped = list_corpus(corpus.config)
    assert skipped == corpus.skipped
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
        if e.group.order <= FAST_CONFIG.dstar_order_limit:
            assert r.d_star is not None and r.d_star <= r.d_prime
        else:
            assert r.d_star is None


def test_all_suites_pass_on_reduced_corpus(fast_corpus, fast_stats):
    results = run_suites(None, corpus=fast_corpus, stats=fast_stats)
    assert [r.suite for r in results] == list(SUITES)
    for r in results:
        assert r.ok, (r.suite, [c.description for c in r.checks if not c.ok][:3])
        assert len(r.checks) > 0, r.suite
        assert any(v > 0 for v in r.antecedents.values()), r.suite


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
