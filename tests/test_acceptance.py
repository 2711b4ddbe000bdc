"""Acceptance gate: every release criterion, one visible pass/fail line each.

Each test prints "ACCEPTANCE n <label>: PASS" (or FAIL) directly to the
terminal, checks exact rational equality throughout, and enforces the two
runtime budgets. Criteria that quantify over the whole standard corpus reuse
one shared in-process verification run.
"""

import hashlib
import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from dedekind import cli
from dedekind.families import (
    c27_rtimes_q8,
    cyclic,
    dihedral,
    elementary_abelian,
    elementary_rtimes_cq,
    heisenberg,
    modular_group,
)
from dedekind.groups import direct_product, is_isomorphic, semidirect_product
from dedekind.invariants import d_prime, d_star
from dedekind.lattice import subgroup_lattice
from dedekind.verify import (
    DENSITY_EPSILON,
    DENSITY_PRIME_BUDGET,
    DENSITY_TARGETS,
    compute_corpus_stats,
    run_suites,
)

MODULAR_PAIRS = ((2, 4), (2, 5), (3, 3), (3, 4), (5, 3))


@pytest.fixture(scope="module")
def stats(corpus):
    return compute_corpus_stats(corpus)


@pytest.fixture(scope="module")
def verify_all(corpus, stats):
    """`dedekind verify all` run once through the CLI, on the shared corpus.

    The spy checks that the command asks for every suite and passes nothing
    else, so `run_suites` builds the standard corpus, then runs them on the
    corpus and stats already built here.  Returns the exit code, the output
    and the results by suite.
    """
    results = []

    def spy(names):
        assert names == ["all"]
        results.extend(run_suites(names, corpus=corpus, stats=stats))
        return results

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.setattr(cli, "run_suites", spy)
        code = cli.main(["verify", "all"])
    return code, out.getvalue(), {r.suite: r for r in results}


@pytest.fixture(scope="module")
def suites(verify_all):
    return verify_all[2]


@contextmanager
def announce(capsys, n, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {label}: PASS")


def twisted_c3_by_c8():
    ident, invert = (0, 1, 2), (0, 2, 1)
    return semidirect_product(
        cyclic(3), cyclic(8), [invert if k % 2 else ident for k in range(8)]
    )


def swap_extension_of_klein():
    # rank-2 two-group extended by a 4-cycle swapping the two coordinates
    ident, swap = (0, 1, 2, 3), (0, 2, 1, 3)
    return semidirect_product(
        elementary_abelian(2, 2), cyclic(4), [ident, swap, ident, swap]
    )


def test_acceptance_1_known_value_regression(capsys):
    with announce(capsys, 1, "known-value regression"):
        t0 = time.perf_counter()
        assert d_prime(dihedral(8)) == Fraction(4, 5)
        assert d_prime(heisenberg(3)) == Fraction(11, 19)
        assert d_prime(heisenberg(5)) == Fraction(5, 13)
        assert d_prime(modular_group(2, 4)) == Fraction(10, 11)
        assert d_prime(modular_group(3, 3)) == Fraction(4, 5)
        assert d_prime(modular_group(2, 5)) == Fraction(13, 14)
        assert d_prime(dihedral(6)) == Fraction(2, 3)
        assert d_prime(elementary_rtimes_cq(2, 3)) == Fraction(1, 2)
        assert d_prime(dihedral(10)) == Fraction(1, 2)

        twisted = twisted_c3_by_c8()
        straight = direct_product(cyclic(3), dihedral(8))
        assert d_prime(twisted) == Fraction(4, 5)
        assert d_prime(straight) == Fraction(4, 5)
        assert not is_isomorphic(twisted, straight)

        for n in range(3, 8):
            lat = subgroup_lattice(dihedral(2**n))
            assert lat.k_prime == 3 * n - 1
            assert lat.size == 2**n + n - 1

        for p, n in MODULAR_PAIRS:
            lat = subgroup_lattice(modular_group(p, n))
            assert lat.normal_count == (n - 2) * (p + 1) + 3
            assert lat.nu == 1

        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"known-value regression took {elapsed:.1f}s"


def test_acceptance_2_order_216_milestone(capsys):
    with announce(capsys, 2, "order-216 milestone"):
        t0 = time.perf_counter()
        g = c27_rtimes_q8()
        assert g.order == 216
        lat = subgroup_lattice(g)
        assert Fraction(lat.k_prime, lat.size) == Fraction(2, 11)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"order-216 enumeration took {elapsed:.1f}s"


def test_acceptance_3_section_minimum_values(capsys, corpus, stats, suites):
    with announce(capsys, 3, "section-minimum values"):
        assert d_star(dihedral(8)) == Fraction(4, 5)
        assert d_star(dihedral(6)) == Fraction(2, 3)
        assert d_star(heisenberg(3)) == Fraction(11, 19)
        for p, n in MODULAR_PAIRS:
            g = modular_group(p, n)
            assert d_star(g) == d_prime(g), (p, n)
        assert d_star(swap_extension_of_klein()) == Fraction(17, 23)
        assert d_star(direct_product(cyclic(2), dihedral(8))) == Fraction(27, 35)

        # interval d* agrees with the literal section-by-section minimum over
        # the whole corpus at order <= 64, established by the shared
        # verification run
        consistency = suites["consistency"]
        assert consistency.ok
        small = sum(1 for e in corpus if e.group.order <= 64)
        assert consistency.antecedents["prune_agreement_entries"] == small


def test_acceptance_4_formula_enumeration_equivalence(capsys, corpus, suites):
    with announce(capsys, 4, "formula-enumeration equivalence"):
        formulas = suites["formulas"]
        assert formulas.ok
        ants = formulas.antecedents
        assert ants["modular_instances"] == len(corpus.family("M"))
        assert ants["schmidt_family_instances"] == len(corpus.family("G"))
        assert ants["dihedral_2power_instances"] == 5  # orders 8..128
        assert ants["heisenberg_instances"] == len(corpus.family("He"))
        assert ants["gaussian_sweeps"] == 13  # every p^r <= 128, r >= 2
        assert ants["composite_section_instances"] == 6  # all six (p, q) pairs


def test_acceptance_5_verification_suites(capsys, verify_all, suites):
    with announce(capsys, 5, "verification suites"):
        for name, result in suites.items():
            assert result.ok, name
            assert len(result.checks) > 0, name
            assert any(v > 0 for v in result.antecedents.values()), name
        assert suites["one-class"].antecedents["forward_instances"] > 0
        assert suites["one-class"].antecedents["converse_tested"] > 0
        assert suites["schmidt-structure"].antecedents["schmidt_entries"] >= 3
        assert suites["self-dual"].antecedents["modular_instances"] >= 3
        hk = suites["hk-sections"].antecedents
        assert hk["h_dihedral_targets"] >= 1
        assert hk["h_heisenberg_targets"] >= 1
        assert hk["k_eligible_2"] >= 1

        # the command-line entry point agrees end to end
        code, out, _ = verify_all
        assert code == 0
        assert out.splitlines()[-1] == "13 suites, 2686 checks, all passed"


def test_acceptance_6_structural_properties(capsys, corpus, stats, suites):
    with announce(capsys, 6, "structural properties"):
        consistency = suites["consistency"]
        assert consistency.ok
        ants = consistency.antecedents
        assert ants["coprime_products_d_prime"] >= 10
        assert ants["coprime_products_d_star"] >= 10
        assert ants["bookkeeping_entries"] == len(corpus)
        assert ants["d_star_vs_d_prime"] == sum(
            1 for r in stats.values() if r.d_star is not None
        )
        assert ants["orbit_classes"] > 0
        assert ants["oracle_entries"] == sum(1 for e in corpus if e.group.order <= 24)
        assert ants["section_monotonicity_entries"] >= 1


def test_acceptance_7_density_demonstration(capsys, corpus, suites):
    with announce(capsys, 7, "density demonstration"):
        density = suites["density"]
        assert density.ok
        assert density.antecedents["targets"] == 4
        for key in ("steps_to_1_2", "steps_to_2_3", "steps_to_2_5", "steps_to_3_7"):
            assert density.antecedents[key] >= 1, key
        assert DENSITY_TARGETS == ((1, 2), (2, 3), (2, 5), (3, 7))
        assert DENSITY_EPSILON == Fraction(1, 100)
        assert DENSITY_PRIME_BUDGET == 500

        formulas = suites["formulas"]
        assert formulas.ok
        assert formulas.antecedents["monotonicity_sequences"] == 6
        assert formulas.antecedents["limit_trends"] == 5


def test_verify_all_suite_json_is_pinned(suites):
    # every suite's checks, antecedents and witnesses, byte for byte: 13
    # suites, 2,686 checks.  A change that alters suite output on purpose
    # updates this digest and says why.
    text = json.dumps([r.to_json_dict() for r in suites.values()], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fc8d9b05d1b0ff6c98b2f93b176d04d4e5defbcde20819454067d42ceb5c8352"
    )


def test_every_corpus_report_is_pinned(stats):
    # the 433 reports in corpus order, every field but the timing `ms`, byte
    # for byte.  A change that alters a report on purpose updates this
    # digest and says why.
    reports = [{k: v for k, v in r.to_json_dict().items() if k != "ms"} for r in stats.values()]
    assert len(reports) == 433
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == (
        "699031da433f2af6b1e1749548596f7467cdc0c68bd2e763a3a896a57b97eb99"
    )
