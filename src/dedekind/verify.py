"""The standard group corpus and theorem-level verification suites.

The corpus is one fixed listing (`list_corpus`) of 433 groups: small
members of every constructible family, then coprime direct products of
them.  Each suite re-checks one of the engine's headline mathematical
claims (closed-form counts, threshold implications, structure
classifications, section existence) against exhaustive enumeration over
that corpus, or over any smaller `Corpus` a test carves from it.  Suites
aggregate failures instead of aborting, and every implication reports how
many corpus entries actually exercised its antecedent so that a pass
cannot be vacuous.  Checks whose scope the corpus cannot exhaust are
worded as evidence, not proof.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParameter, StructureViolation
from .families import (
    cyclic,
    dihedral,
    elementary_abelian,
    h_pst,
    heisenberg,
    modular_group,
    schmidt_gpqn,
)
from .formulas import (
    DENSITY_PRIME_BUDGET,
    FamilyCounts,
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
from .groups import (
    DEFAULT_ISO_CAP,
    FiniteGroup,
    direct_product,
    is_isomorphic,
    section_group,
    section_table,
    semidirect_product,
)
from .invariants import (
    InvariantReport,
    compute_report,
    d_prime,
    d_star,
    is_q_self_dual,
    schmidt_structure_check,
    sections,
    sylow_subgroups,
)
from .lattice import (
    all_subgroup_masks,
    brute_force_subgroup_masks,
    is_lattice_modular,
    normalizes,
    subgroup_lattice,
)
from .numbertheory import is_prime, multiplicative_order, nth_odd_prime
from .numbertheory import prime_factorization, prime_power
from .specs import build_group


# ---------------------------------------------------------------------------
# corpus

DENSITY_TARGETS = ((1, 2), (2, 3), (2, 5), (3, 7))  # the ratios a/b the density suite approaches
DENSITY_EPSILON = Fraction(1, 100)  # the gap each density sequence must drop below
CORPUS_DSTAR_ORDER_LIMIT = 128  # d* is computed for corpus entries up to this order


@dataclass(frozen=True, eq=False)
class CorpusEntry:
    spec: str
    group: FiniteGroup
    tag: str  # family tag, or "product"
    params: tuple[int, ...] = ()
    factors: tuple[str, ...] = ()  # the two factor specs when tag == "product"


@dataclass(eq=False)
class Corpus:
    """Built corpus entries, with lookup by spec and by family tag.

    `build_corpus()` gives the standard corpus; a test may wrap any list of
    its entries, e.g. the small ones, to run the suites on a smaller corpus.
    """

    entries: list[CorpusEntry]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, spec: str) -> CorpusEntry | None:
        return self._by_spec.get(spec)

    def family(self, tag: str) -> list[CorpusEntry]:
        return [e for e in self.entries if e.tag == tag]

    def __post_init__(self) -> None:
        self._by_spec = {e.spec: e for e in self.entries}


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


# (spec, tag, params, order, factors): a corpus entry before its group is built
CorpusRow = tuple[str, str, tuple[int, ...], int, tuple[str, ...]]


def list_corpus() -> list[CorpusRow]:
    """The standard corpus as rows (spec, tag, params, order, factors), without building a group.

    Family instances come first, family by family: the Schmidt groups
    G(p,q,n) up to order 200, the H and K families up to order 128.  Then
    come the direct products of two of them with coprime orders, each factor
    of order 2 to 64 and the product of order at most 216.  The largest entry
    is SD(3,13) at order 351.  The ordering is fixed, so corpus indices,
    suite output and witnesses are stable across runs.
    """
    rows: list[CorpusRow] = []

    def add(spec: str, tag: str, params: tuple[int, ...], order: int) -> None:
        rows.append((spec, tag, params, order, ()))

    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16, 25, 27):
        add(f"C({n})", "C", (n,), n)
    for p, r in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2)):
        add(f"EA({p},{r})", "EA", (p, r), p**r)
    for m in (6, 8, 10, 12, 16, 32, 64, 128):
        add(f"D({m})", "D", (m,), m)
    for m in (8, 16, 32):
        add(f"Q({m})", "Q", (m,), m)
    for p, n in ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)):
        add(f"M({p},{n})", "M", (p, n), p**n)
    for p in (3, 5):
        add(f"He({p})", "He", (p,), p**3)
    for p in _primes_upto(100):
        for q in _primes_upto(p - 1):
            if (p - 1) % q:
                continue
            n = 2
            while p * q ** (n - 1) <= 200:
                add(f"G({p},{q},{n})", "G", (p, q, n), p * q ** (n - 1))
                n += 1
    for p in (2, 3, 5):  # the primes with p^3 <= 128
        total = 3 if p == 2 else 2
        while p ** (total + 1) <= 128:
            for s in range((total + 1) // 2, total):
                t = total - s
                if s >= t >= 1:
                    add(f"H({p},{s},{t})", "H", (p, s, t), p ** (total + 1))
            total += 1
    for p in (2, 3, 5):
        total = 4 if p == 2 else 3
        while p**total <= 128:
            for s in range(2, total):
                t = total - s
                if t >= 1:
                    add(f"K({p},{s},{t})", "K", (p, s, t), p**total)
            total += 1
    for p, q in ((2, 3), (3, 2), (2, 7), (5, 2), (7, 2), (3, 13)):
        r = multiplicative_order(p, q)
        add(f"SD({p},{q})", "SD", (p, q), p**r * q)
    add("C27Q8", "C27Q8", (), 216)

    atoms = list(rows)
    for i, (a, _, _, na, _) in enumerate(atoms):
        for b, _, _, nb, _ in atoms[i + 1 :]:
            if 1 < na <= 64 and 1 < nb <= 64 and na * nb <= 216 and math.gcd(na, nb) == 1:
                rows.append((f"{a} x {b}", "product", (), na * nb, (a, b)))
    return rows


def build_corpus() -> Corpus:
    """The standard corpus: every `list_corpus` row built into a group, in order.

    A product is built from its two factors' groups.
    """
    groups: dict[str, FiniteGroup] = {}
    entries: list[CorpusEntry] = []
    for spec, tag, params, _, factors in list_corpus():
        if factors:
            a, b = factors
            group = direct_product(groups[a], groups[b])
        else:
            group = build_group(spec)
        groups[spec] = group
        entries.append(CorpusEntry(spec, group, tag, params, factors))
    return Corpus(entries)


def compute_corpus_stats(corpus: Corpus) -> dict[str, InvariantReport]:
    """One InvariantReport per entry, keyed by spec, in corpus order.

    d* is computed only for entries up to `CORPUS_DSTAR_ORDER_LIMIT`.
    """
    return {
        e.spec: compute_report(
            e.group,
            spec=e.spec,
            want_d_star=e.group.order <= CORPUS_DSTAR_ORDER_LIMIT,
        )
        for e in corpus.entries
    }


# ---------------------------------------------------------------------------
# suite plumbing


@dataclass(frozen=True)
class Check:
    description: str
    ok: bool
    witness: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)
    antecedents: dict[str, int] = field(default_factory=dict)

    def check(self, description: str, ok: bool, witness: str = "") -> None:
        self.checks.append(Check(description, bool(ok), str(witness)))

    def count(self, key: str, n: int = 1) -> None:
        self.antecedents[key] = self.antecedents.get(key, 0) + n

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "antecedents": dict(self.antecedents),
            "checks": [
                {"description": c.description, "ok": c.ok, "witness": c.witness}
                for c in self.checks
            ],
        }


def _fraction(r: Fraction | None) -> str:
    return "-" if r is None else str(r)


# ---------------------------------------------------------------------------
# suites


def _check_closed_forms(
    s: SuiteResult, r: InvariantReport, want: Fraction, c: FamilyCounts, form: str, counts: str
) -> None:
    """Check an M, D or He instance: its d' against the `form` closed form, then
    its (k', |L|), and (|N|, nu) where `c` has them, against the `counts` counts."""
    s.check(
        f"{r.spec}: enumerated d' equals the {form} closed form",
        r.d_prime == want,
        f"enumerated {r.d_prime}, formula {want}",
    )
    got, formula, names = (r.k_prime, r.lattice_size), (c.k_prime, c.lattice_size), "k', |L|"
    if c.normal_count is not None:
        got += (r.normal_count, r.nu)
        formula += (c.normal_count, c.nu)
        names += ", |N|, nu"
    s.check(
        f"{r.spec}: enumerated ({names}) match the {counts} counts",
        got == formula,
        f"enumerated {got}, formula {formula}",
    )


def suite_formulas(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """Closed forms versus enumeration for all four families, subgroup counts
    of elementary abelian groups, the composite-family count formula, and the
    monotonicity / limit trends of the family values."""
    s = SuiteResult("formulas")
    for e in corpus.family("M"):
        p, n = e.params
        s.count("modular_instances")
        _check_closed_forms(
            s, stats[e.spec], d_prime_modular_formula(p, n), modular_counts(p, n),
            "modular-family", "closed-form",
        )
    for e in corpus.family("D"):
        m = e.params[0]
        if m & (m - 1):
            continue  # the closed form covers 2-power orders only
        n = m.bit_length() - 1
        s.count("dihedral_2power_instances")
        _check_closed_forms(
            s, stats[e.spec], d_prime_dihedral_formula(n), dihedral_counts(n),
            "dihedral", "dihedral",
        )
    for e in corpus.family("He"):
        p = e.params[0]
        s.count("heisenberg_instances")
        _check_closed_forms(
            s, stats[e.spec], d_prime_heisenberg_formula(p), heisenberg_counts(p),
            "extraspecial", "extraspecial",
        )
    for e in corpus.family("G"):
        p, q, n = e.params
        r = stats[e.spec]
        s.count("schmidt_family_instances")
        want = d_prime_schmidt_formula(p, n)
        c = schmidt_counts(p, n)
        got = (r.k_prime, r.lattice_size, r.normal_count, r.nu)
        s.check(
            f"{e.spec}: enumerated d' and counts match the one-class closed forms",
            r.d_prime == want
            and got == (c.k_prime, c.lattice_size, c.normal_count, c.nu),
            f"enumerated d'={r.d_prime} counts={got}, "
            f"formula d'={want} counts={(c.k_prime, c.lattice_size, c.normal_count, c.nu)}",
        )
    for e in corpus.family("SD"):
        p, q = e.params
        r = stats[e.spec]
        rr = multiplicative_order(p, q)
        s.count("composite_section_instances")
        c = schmidt_section_counts(p, q, rr)
        want = d_prime_schmidt_section_formula(p, q, rr)
        s.check(
            f"{e.spec}: enumerated k', |L|, d' match the elementary-times-cyclic formulas",
            (r.k_prime, r.lattice_size) == (c.k_prime, c.lattice_size)
            and r.d_prime == want,
            f"enumerated (k'={r.k_prime}, |L|={r.lattice_size}, d'={r.d_prime}), "
            f"formula (k'={c.k_prime}, |L|={c.lattice_size}, d'={want})",
        )
    for p in (2, 3, 5, 7, 11):
        r = 2
        while p**r <= 128:
            s.count("gaussian_sweeps")
            masks = all_subgroup_masks(elementary_abelian(p, r))
            layer = {p**i: i for i in range(r + 1)}
            by_layer = Counter(layer[m.bit_count()] for m in masks)
            want_layers = {i: gaussian_binomial(r, i, p) for i in range(r + 1)}
            s.check(
                f"EA({p},{r}): per-order subgroup counts are the Gaussian binomials",
                by_layer == want_layers and len(masks) == num_subgroups_elem_abelian(p, r),
                f"enumerated {sorted(by_layer.items())}, formula {sorted(want_layers.items())}",
            )
            r += 1
    for family, p, lo, direction in (
        ("modular", 2, 4, "strictly increasing"),
        ("modular", 3, 3, "strictly increasing"),
        ("schmidt", 3, 2, "strictly increasing"),
        ("schmidt", 5, 2, "strictly increasing"),
        ("dihedral", None, 3, "strictly decreasing"),
    ):
        verdict = sequence_monotonicity(family, range(lo, 51), p=p)
        s.count("monotonicity_sequences")
        label = family if p is None else f"{family} (p={p})"
        s.check(
            f"{label}: closed form is {direction} over n = {lo}..50",
            verdict.ok and verdict.direction == direction,
            f"direction {verdict.direction}, first violation {verdict.first_violation}",
        )
    verdict = sequence_monotonicity(
        "heisenberg", [nth_odd_prime(k) for k in range(1, 51)]
    )
    s.count("monotonicity_sequences")
    s.check(
        "heisenberg: closed form is strictly decreasing over the first 50 odd primes",
        verdict.ok and verdict.direction == "strictly decreasing",
        f"direction {verdict.direction}, first violation {verdict.first_violation}",
    )
    for family, p in (
        ("modular", 2),
        ("modular", 3),
        ("schmidt", 3),
        ("dihedral", None),
        ("heisenberg", None),
    ):
        trend = limit_trend(family, p=p)
        s.count("limit_trends")
        label = family if p is None else f"{family} (p={p})"
        s.check(
            f"{label}: sampled values close in on the limit {trend.limit} ({trend.note})",
            trend.ok,
            f"final gap {trend.final_gap} vs epsilon {trend.epsilon}",
        )
    return s


def _one_class_candidates(order: int) -> list[tuple[str, tuple[int, ...]]]:
    """Family parameters that could realize a given order with one non-normal class."""
    cands: list[tuple[str, tuple[int, ...]]] = []
    pk = prime_power(order)
    if pk and pk[1] >= (4 if pk[0] == 2 else 3):
        cands.append(("M", pk))
    for p in sorted(prime_factorization(order)):
        qe = prime_power(order // p)
        if qe and qe[0] != p and (p - 1) % qe[0] == 0:  # order = p q^e with q != p
            cands.append(("G", (p, qe[0], qe[1] + 1)))
    return cands


def suite_one_class(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """Exactly one conjugacy class of non-normal subgroups characterizes the
    two one-class families: every constructed instance has nu = 1 (forward),
    and every corpus group with nu = 1 is isomorphic to an instance (converse,
    tested up to the isomorphism-search order cap)."""
    s = SuiteResult("one-class")
    for e in corpus.family("M") + corpus.family("G"):
        r = stats[e.spec]
        s.count("forward_instances")
        s.check(
            f"{e.spec}: exactly one class of non-normal subgroups",
            r.nu == 1,
            f"nu = {r.nu}",
        )
    for e in corpus:
        r = stats[e.spec]
        if r.nu != 1:
            continue
        s.count("nu_one_entries")
        if e.group.order > DEFAULT_ISO_CAP:
            s.count("converse_skipped_over_iso_cap")
            continue
        s.count("converse_tested")
        matched = ""
        for tag, params in _one_class_candidates(e.group.order):
            cand = modular_group(*params) if tag == "M" else schmidt_gpqn(*params)
            if is_isomorphic(e.group, cand):  # both within DEFAULT_ISO_CAP, checked above
                matched = cand.name
                break
        s.check(
            f"{e.spec}: one non-normal class forces membership in a one-class family",
            bool(matched),
            f"isomorphic to {matched}" if matched else "no candidate of matching order fits",
        )
    d16 = stats.get("D(16)")
    if d16 is not None:
        s.check(
            "D(16): more than one non-normal class, outside the classification",
            d16.nu > 1,
            f"nu = {d16.nu}",
        )
    return s


def suite_schmidt_structure(
    corpus: Corpus, stats: dict[str, InvariantReport]
) -> SuiteResult:
    """Every minimal non-nilpotent corpus group decomposes as a normal Sylow
    p-subgroup extended by a cyclic Sylow q-subgroup with the expected center,
    Frattini subgroup, chief factor size p^r (r the order of p mod q), and
    normal-subgroup layout."""
    s = SuiteResult("schmidt-structure")
    expected_r = {"SD(2,3)": 2, "SD(2,7)": 3, "SD(3,13)": 3}
    for e in corpus:
        r = stats[e.spec]
        if not r.flags["schmidt"]:
            continue
        s.count("schmidt_entries")
        try:
            rep = schmidt_structure_check(e.group)
            ok, wit = True, f"p={rep.p}, q={rep.q}, r={rep.r}"
            if e.spec in expected_r and rep.r != expected_r[e.spec]:
                ok, wit = False, f"r = {rep.r}, expected {expected_r[e.spec]}"
        except StructureViolation as exc:
            ok, wit = False, str(exc)
        s.check(f"{e.spec}: minimal non-nilpotent structure clauses all hold", ok, wit)
    for spec in ("D(6)", "SD(2,3)"):
        r = stats.get(spec)
        if r is not None:
            s.check(
                f"{spec}: recognized as minimal non-nilpotent",
                r.flags["schmidt"],
                f"flags: {r.flags}",
            )
    for spec in ("He(3)", "M(2,4)", "D(8)", "C27Q8"):
        r = stats.get(spec)
        if r is not None:
            s.count("non_schmidt_controls")
            s.check(
                f"{spec}: not minimal non-nilpotent",
                not r.flags["schmidt"],
                f"flags: {r.flags}",
            )
    return s


def suite_self_dual(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """Modular-family groups are quotient self-dual: every quotient is
    isomorphic to a subgroup.  A quaternion control shows the test can say no."""
    s = SuiteResult("self-dual")
    for e in corpus.family("M"):
        s.count("modular_instances")
        ok = is_q_self_dual(e.group)
        s.check(f"{e.spec}: every quotient appears as a subgroup", ok)
    q8 = corpus.get("Q(8)")
    if q8 is not None:
        s.count("negative_controls")
        s.check(
            "Q(8): not quotient self-dual (its four-element quotient is not a subgroup)",
            not is_q_self_dual(q8.group),
        )
    return s


def suite_ratio_equality(
    corpus: Corpus, stats: dict[str, InvariantReport]
) -> SuiteResult:
    """The subgroup-class ratio and its section minimum coincide on the
    modular and extraspecial families."""
    s = SuiteResult("ratio-equality")
    for e in corpus.family("M") + corpus.family("He"):
        r = stats[e.spec]
        s.count("instances")
        s.check(
            f"{e.spec}: d' = d*",
            r.d_star is not None and r.d_star == r.d_prime,
            f"d' = {r.d_prime}, d* = {_fraction(r.d_star)}",
        )
    return s


def _witness(r: InvariantReport, flag: str, ratio: str = "d_star") -> str:
    """A threshold check's detail: the report's ratio (d_star or d_prime) and flag."""
    name = "d*" if ratio == "d_star" else "d'"
    return f"{name} = {_fraction(getattr(r, ratio))}, {flag} = {r.flags[flag]}"


def _sharp(
    s: SuiteResult, r: InvariantReport | None, text: str, thr: Fraction, flag: str
) -> None:
    """If r is in the stats, check that it attains d* = thr without flag, so the
    threshold that forces flag cannot be lowered."""
    if r is not None:
        s.count("boundary_witnesses")
        s.check(text, r.d_star == thr and not r.flags[flag], _witness(r, flag))


def suite_modularity(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """For p-groups, d* above 4/5 forces a modular subgroup lattice, and for
    odd p the threshold drops to 11/19; D(8) and He(3) sit exactly on the
    respective thresholds without modular lattices, so both are sharp."""
    s = SuiteResult("modularity")
    for e in corpus:
        r = stats[e.spec]
        pk = prime_power(e.group.order)
        if pk is None or r.d_star is None:
            continue
        s.count("p_groups_with_d_star")
        if r.d_star > Fraction(4, 5):
            s.count("over_4_5")
            text = f"{e.spec}: d* > 4/5 forces a modular lattice"
            s.check(text, r.flags["modular_lattice"], _witness(r, "modular_lattice"))
        if pk[0] % 2 and r.d_star > Fraction(11, 19):
            s.count("odd_over_11_19")
            text = f"{e.spec}: odd order and d* > 11/19 force a modular lattice"
            s.check(text, r.flags["modular_lattice"], _witness(r, "modular_lattice"))
    for spec, thr in (("D(8)", Fraction(4, 5)), ("He(3)", Fraction(11, 19))):
        text = f"{spec}: attains the threshold {thr} with a non-modular lattice (sharp)"
        _sharp(s, stats.get(spec), text, thr, "modular_lattice")
    return s


def suite_nilpotency(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """d* above 2/3 forces nilpotency, and for odd-order groups it forces a
    direct product of p-groups with modular lattices; the threshold is sharp
    at the order-6 dihedral group."""
    s = SuiteResult("nilpotency")
    for e in corpus:
        r = stats[e.spec]
        if r.d_star is None or r.d_star <= Fraction(2, 3):
            continue
        s.count("over_2_3")
        text = f"{e.spec}: d* > 2/3 forces nilpotency"
        s.check(text, r.flags["nilpotent"], _witness(r, "nilpotent"))
        if e.group.order % 2:
            s.count("odd_order_over_2_3")
            lat = subgroup_lattice(e.group)
            sylows = sylow_subgroups(e.group)
            bad = ""
            for p, i in sorted(sylows.items()):
                if is_lattice_modular(lat, i) is not None:
                    bad = f"Sylow {p}-subgroup has a non-modular lattice"
                    break
            s.check(
                f"{e.spec}: odd order and d* > 2/3 force a product of lattice-modular p-groups",
                r.flags["nilpotent"] and not bad,
                bad or f"Sylow primes {sorted(sylows)} all lattice-modular",
            )
    text = "D(6): attains d* = 2/3 yet is not nilpotent (threshold sharp)"
    _sharp(s, stats.get("D(6)"), text, Fraction(2, 3), "nilpotent")
    return s


def suite_iwasawa(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """d* above 4/5 forces a nilpotent group with modular lattice; sharp at
    D(8), and exercised by at least one non-abelian group."""
    s = SuiteResult("iwasawa")
    nonabelian = 0
    for e in corpus:
        r = stats[e.spec]
        if r.d_star is None or r.d_star <= Fraction(4, 5):
            continue
        s.count("over_4_5")
        if not r.flags["abelian"]:
            nonabelian += 1
            s.count("over_4_5_nonabelian")
        text = f"{e.spec}: d* > 4/5 forces nilpotency with a modular lattice"
        s.check(text, r.flags["iwasawa"], _witness(r, "iwasawa"))
    s.check(
        "at least one non-abelian group exercises the antecedent",
        nonabelian >= 1,
        f"{nonabelian} non-abelian entries with d* > 4/5",
    )
    m32 = stats.get("M(2,5)")
    if m32 is not None:
        s.check(
            "M(2,5): d* = 13/14 > 4/5 with the implied structure",
            m32.d_star == Fraction(13, 14) and m32.flags["iwasawa"],
            _witness(m32, "iwasawa"),
        )
    text = "D(8): attains d* = 4/5 yet fails the conclusion (threshold sharp)"
    _sharp(s, stats.get("D(8)"), text, Fraction(4, 5), "iwasawa")
    return s


def suite_dedekind_threshold(
    corpus: Corpus, stats: dict[str, InvariantReport]
) -> SuiteResult:
    """For p-groups of order p^n (n >= 3), d* above the order's modular
    threshold (4/5 at order 8) forces every subgroup normal; each modular-family
    group sits exactly on its threshold without being Dedekind, and at order 8
    the d' form is two-sided.  Above order 8 the d' form is evidence over the
    corpus only: it is false at order 32, where Q8 o D8 (not in the corpus)
    has d' = 73/78 > 13/14 without being Dedekind."""
    s = SuiteResult("dedekind-threshold")
    for e in corpus:
        pk = prime_power(e.group.order)
        if pk is None or pk[1] < 3:
            continue
        p, n = pk
        r = stats[e.spec]
        thr = Fraction(4, 5) if (p, n) == (2, 3) else d_prime_modular_formula(p, n)
        s.count("p_groups_n_ge_3")
        if r.d_star is not None and r.d_star > thr:
            s.count("d_star_antecedents")
            text = f"{e.spec}: d* > {thr} forces a Dedekind group"
            s.check(text, r.flags["dedekind"], _witness(r, "dedekind"))
        if r.d_prime > thr:
            s.count("d_prime_antecedents")
            text = f"{e.spec}: d' > {thr} forces a Dedekind group"
            s.check(text, r.flags["dedekind"], _witness(r, "dedekind", ratio="d_prime"))
    for e in corpus.family("M"):
        p, n = e.params
        r = stats[e.spec]
        thr = d_prime_modular_formula(p, n)
        s.count("threshold_witnesses")
        text = f"{e.spec}: attains its threshold {thr} without being Dedekind (sharp)"
        s.check(text, r.d_star == thr and not r.flags["dedekind"], _witness(r, "dedekind"))
    order8 = [e for e in corpus if e.group.order == 8 and e.tag != "product"]
    for e in order8:
        r = stats[e.spec]
        s.count("order8_entries")
        s.check(
            f"{e.spec}: at order 8, d' > 4/5 holds exactly for Dedekind groups",
            (r.d_prime > Fraction(4, 5)) == r.flags["dedekind"],
            _witness(r, "dedekind", ratio="d_prime"),
        )
    return s


def _find_section(g: FiniteGroup, target: FiniteGroup) -> tuple[int, int] | None:
    """Orders (|H|, |K|) of the first section H/K of g isomorphic to target.

    H runs over the class representatives of g's lattice and K, ascending,
    over the subgroups of H in the order run of |H|/|target| normal in H.
    """
    tno = target.order
    lat = subgroup_lattice(g)
    masks, gens = lat.masks, lat.gens
    for hi in lat.class_representatives():
        hmask = masks[hi]
        horder = hmask.bit_count()
        if horder % tno:
            continue
        for ki in lat.runs.get(horder // tno, ()):
            kmask = masks[ki]
            if kmask & ~hmask or not normalizes(g, kmask, gens[ki], gens[hi]):
                continue
            if is_isomorphic(section_group(g, hmask, kmask)[0], target):
                return (horder, kmask.bit_count())
    return None


def suite_hk_sections(
    corpus: Corpus, stats: dict[str, InvariantReport]
) -> SuiteResult:
    """Section existence in the two-generator p-group families: the H family
    always contains a D(8) section (p = 2) or an He(p) section (p odd), and
    every large-enough K-family group that is not itself modular contains a
    smaller modular-family section.  Both order-32 readings of an ambiguously
    labeled K instance are checked explicitly."""
    s = SuiteResult("hk-sections")
    for e in corpus.family("H"):
        p = e.params[0]
        target, name = (dihedral(8), "a D(8)") if p == 2 else (heisenberg(p), f"an He({p})")
        s.count("h_dihedral_targets" if p == 2 else "h_heisenberg_targets")
        found = _find_section(e.group, target)
        s.check(
            f"{e.spec}: contains {name} section",
            found is not None,
            f"H of order {found[0]}, K of order {found[1]}" if found else "no section found",
        )
    for e in corpus.family("K"):
        p, st_, t = e.params
        n = st_ + t
        modular_iso = is_isomorphic(e.group, modular_group(p, n))
        if t == 1:
            s.count("k_modular_collapse")
            s.check(
                f"{e.spec}: with t = 1 the K family collapses to M({p},{n})",
                modular_iso,
                "isomorphic" if modular_iso else "not isomorphic",
            )
            continue
        eligible = (n >= 5 if p == 2 else n >= 4) and not modular_iso
        if not eligible:
            s.count("k_below_threshold")
            continue
        s.count("k_eligible_2" if p == 2 else "k_eligible_odd")
        lo = 4 if p == 2 else 3
        found, at_k = None, None
        for k_exp in range(n - 1, lo - 1, -1):
            found = _find_section(e.group, modular_group(p, k_exp))
            if found is not None:
                at_k = k_exp
                break
        s.check(
            f"{e.spec}: non-modular K group contains a smaller M({p},k) section",
            found is not None,
            f"M({p},{at_k}) section with H of order {found[0]}, K of order {found[1]}"
            if found
            else "no modular-family section found",
        )
    for spec in ("K(2,3,2)", "K(2,2,3)"):
        e = corpus.get(spec)
        if e is None:
            continue
        s.count("ambiguous_label_candidates")
        found = _find_section(e.group, modular_group(2, 4))
        s.check(
            f"{spec}: order-32 reading of the ambiguously labeled instance has an M(2,4) section",
            found is not None,
            f"H of order {found[0]}, K of order {found[1]}" if found else "no section found",
        )
    return s


def suite_extremal_values(
    corpus: Corpus, stats: dict[str, InvariantReport]
) -> SuiteResult:
    """The two order-16 extremal candidates attain 17/23 and 27/35, the
    2-power dihedral groups satisfy d' = d*, and no corpus 2-group of matching
    order dips below the dihedral value (evidence for minimality, not proof)."""
    s = SuiteResult("extremal-values")
    ea = elementary_abelian(2, 2)
    swap = (0, 2, 1, 3)  # exchange the two basis coordinates
    ident = (0, 1, 2, 3)
    p_group = semidirect_product(ea, cyclic(4), [ident, swap, ident, swap])
    ds = d_star(p_group)
    dp = d_prime(p_group)
    s.count("order16_candidates")
    s.check(
        "order-16 semidirect candidate attains d' = d* = 17/23 "
        "(a mismatch would mean the construction is not the intended group)",
        ds == Fraction(17, 23) and dp == Fraction(17, 23),
        f"d' = {dp}, d* = {ds}",
    )
    s.check(
        "the semidirect candidate is the H(2,2,1) family member",
        is_isomorphic(p_group, h_pst(2, 2, 1)),
    )
    h221 = stats.get("H(2,2,1)")
    if h221 is not None:
        s.check(
            "H(2,2,1): corpus entry agrees with d* = 17/23",
            h221.d_star == Fraction(17, 23),
            f"d* = {_fraction(h221.d_star)}",
        )
    c2d8 = direct_product(cyclic(2), dihedral(8))
    ds2 = d_star(c2d8)
    s.count("order16_candidates")
    s.check(
        "C(2) x D(8) attains d* = 27/35",
        ds2 == Fraction(27, 35),
        f"d* = {ds2}",
    )
    for n in range(3, 8):
        r = stats.get(f"D({2 ** n})")
        if r is None or r.d_star is None:
            continue
        s.count("dihedral_equalities")
        s.check(
            f"D({2 ** n}): d' = d* (every section is abelian or dihedral)",
            r.d_star == r.d_prime,
            f"d' = {r.d_prime}, d* = {_fraction(r.d_star)}",
        )
        floor = r.d_star
        violators = []
        matching = 0
        for e in corpus:
            if e.group.order != 2**n:
                continue
            rr = stats[e.spec]
            if rr.d_star is None:
                continue
            matching += 1
            if rr.d_star < floor:
                violators.append(f"{e.spec} (d* = {rr.d_star})")
        s.count(f"two_groups_order_{2 ** n}", matching)
        s.check(
            f"no corpus 2-group of order {2 ** n} has d* below d*(D({2 ** n})) = {floor} "
            "(evidence over the corpus, not an exhaustive claim)",
            not violators,
            "; ".join(violators) if violators else f"{matching} groups checked",
        )
    d32 = stats.get("D(32)")
    if d32 is not None:
        s.check(
            "D(32): d' = d* = 7/18",
            d32.d_prime == Fraction(7, 18) and d32.d_star == Fraction(7, 18),
            f"d' = {d32.d_prime}, d* = {_fraction(d32.d_star)}",
        )
    return s


def suite_density(corpus: Corpus, stats: dict[str, InvariantReport]) -> SuiteResult:
    """Products of modular-family values reach each target ratio within the
    prime budget, with exact rational gaps strictly decreasing, disjoint
    strictly increasing prime subsequences, and values rebuilt from the closed
    form; small targets are also realized exactly by one-class groups."""
    s = SuiteResult("density")
    for a, b in DENSITY_TARGETS:
        target = Fraction(a, b)
        steps = density_sequence(a, b, DENSITY_EPSILON, DENSITY_PRIME_BUDGET)
        s.count("targets")
        s.count(f"steps_to_{a}_{b}", len(steps))
        s.check(
            f"target {a}/{b}: gap drops below {DENSITY_EPSILON} within "
            f"{DENSITY_PRIME_BUDGET} odd primes",
            bool(steps) and steps[-1].gap < DENSITY_EPSILON,
            f"{len(steps)} steps, final gap {steps[-1].gap if steps else '-'}",
        )
        gaps = [st.gap for st in steps]
        s.check(
            f"target {a}/{b}: gaps strictly decrease along the whole sequence",
            all(x > y for x, y in zip(gaps, gaps[1:])),
            f"first two gaps {gaps[:2]}, last two {gaps[-2:]}",
        )
        s.check(
            f"target {a}/{b}: every step value exceeds the target exactly",
            all(st.value > target and st.value - target == st.gap for st in steps),
        )
        width = b - a
        cols = [[st.primes[i] for st in steps] for i in range(width)]
        increasing = all(
            all(x < y for x, y in zip(col, col[1:])) for col in cols
        )
        all_primes = [p for st in steps for p in st.primes]
        s.check(
            f"target {a}/{b}: prime subsequences are strictly increasing and disjoint",
            increasing and len(set(all_primes)) == len(all_primes),
        )
        rebuilt = all(
            st.value
            == math.prod(
                d_prime_modular_formula(pr, a + i + 2) for i, pr in enumerate(st.primes)
            )
            for st in steps
        )
        s.check(
            f"target {a}/{b}: step values rebuild from the modular closed form",
            rebuilt,
        )
    for a in range(1, 6):
        spec, value = corollary_a_over_a_plus_one(a)
        s.count("exact_ratio_specs")
        ok = value == Fraction(a, a + 1)
        wit = f"{spec} promises {value}"
        if a <= 4:
            grp = build_group(spec)
            got = d_prime(grp)
            ok = ok and got == value
            wit += f", enumeration gives {got}"
        s.check(f"a/(a+1) = {a}/{a + 1} is realized by {spec}", ok, wit)
    return s


def suite_consistency(
    corpus: Corpus, stats: dict[str, InvariantReport]
) -> SuiteResult:
    """Structural invariants of the computation itself: multiplicativity over
    coprime products, d* <= d', class/normal bookkeeping, orbit-stabilizer
    sizes, agreement with a brute-force subgroup oracle, agreement between
    the interval d* and the literal section-by-section minimum, and
    monotonicity of d* under taking sections.  The last two walk the same
    sections and share one group per distinct section table."""
    s = SuiteResult("consistency")
    for e in corpus:
        if e.tag != "product":
            continue
        r = stats[e.spec]
        f1, f2 = (stats[f] for f in e.factors)
        s.count("coprime_products_d_prime")
        s.check(
            f"{e.spec}: d' multiplies over the coprime product",
            r.d_prime == f1.d_prime * f2.d_prime,
            f"{r.d_prime} vs {f1.d_prime} * {f2.d_prime}",
        )
        if None not in (r.d_star, f1.d_star, f2.d_star):
            s.count("coprime_products_d_star")
            s.check(
                f"{e.spec}: d* multiplies over the coprime product",
                r.d_star == f1.d_star * f2.d_star,
                f"{_fraction(r.d_star)} vs {_fraction(f1.d_star)} * {_fraction(f2.d_star)}",
            )
    for e in corpus:
        r = stats[e.spec]
        if r.d_star is not None:
            s.count("d_star_vs_d_prime")
            s.check(
                f"{e.spec}: d* <= d'",
                r.d_star <= r.d_prime,
                f"d* = {r.d_star}, d' = {r.d_prime}",
            )
    for e in corpus:
        r = stats[e.spec]
        g = e.group
        lat = subgroup_lattice(g)
        gens = g.generating_set
        normal = sum(1 for m, mgens in zip(lat.masks, lat.gens) if normalizes(g, m, mgens, gens))
        s.count("bookkeeping_entries")
        s.check(
            f"{e.spec}: k' = |N| + nu with |N| recounted from scratch",
            r.normal_count == normal and r.k_prime == normal + r.nu,
            f"recounted |N| = {normal}, report (k'={r.k_prime}, |N|={r.normal_count}, nu={r.nu})",
        )
        bad = ""
        for cls in lat.classes:
            norm = lat.normalizer(cls[0])
            size = norm.bit_count()
            if len(cls) * size != g.order:
                bad = f"class of size {len(cls)} has normalizer of order {size}"
                break
        s.count("orbit_classes", len(lat.classes))
        s.check(
            f"{e.spec}: class size x normalizer order = |G| on every class",
            not bad,
            bad or f"{len(lat.classes)} classes checked",
        )
    for e in corpus:
        if e.group.order > 24:
            continue
        lat = subgroup_lattice(e.group)
        oracle = brute_force_subgroup_masks(e.group)
        s.count("oracle_entries")
        s.check(
            f"{e.spec}: optimized enumeration equals the brute-force subgroup oracle",
            oracle == set(lat.masks),
            f"oracle {len(oracle)}, enumeration {lat.size}",
        )
    # the literal oracle's quotients repeat: few distinct tables among many
    # sections, so each raw table is built into a group once, for both checks
    group_by_table: dict[tuple, FiniteGroup] = {}

    def quotient_of(g: FiniteGroup, hi: int, ki: int) -> FiniteGroup:
        masks = subgroup_lattice(g).masks
        table = section_table(g, masks[hi], masks[ki])[0]
        if table not in group_by_table:
            group_by_table[table] = FiniteGroup(table)
        return group_by_table[table]

    for e in corpus:
        if e.group.order > 64:
            continue
        r = stats[e.spec]
        if r.d_star is None:
            continue
        literal = min(d_prime(quotient_of(e.group, hi, ki)) for hi, ki in sections(e.group))
        s.count("prune_agreement_entries")
        s.check(
            f"{e.spec}: pruned and literal d* agree",
            literal == r.d_star,
            f"literal {literal}, pruned {_fraction(r.d_star)}",
        )
    for e in corpus:
        g = e.group
        if g.order > 48 or g.is_abelian:
            continue
        r = stats[e.spec]
        if r.d_star is None:
            continue
        masks = subgroup_lattice(g).masks
        seen_fp = set()
        bad = ""
        tested = 0
        for hi, ki in sections(g):
            horder, korder = masks[hi].bit_count(), masks[ki].bit_count()
            if horder // korder in (1, g.order):
                continue
            q = quotient_of(g, hi, ki)
            if q.fingerprint in seen_fp:
                continue
            seen_fp.add(q.fingerprint)
            tested += 1
            sub_val = d_star(q)
            if sub_val < r.d_star:
                bad = f"section {horder}/{korder} has d* = {sub_val} < {r.d_star}"
                break
        s.count("section_monotonicity_entries")
        s.count("sections_tested", tested)
        s.check(
            f"{e.spec}: no proper section has d* below the group's d*",
            not bad,
            bad or f"{tested} section shapes tested",
        )
    return s


# ---------------------------------------------------------------------------
# driver

SUITES: dict[str, object] = {
    "formulas": suite_formulas,
    "one-class": suite_one_class,
    "schmidt-structure": suite_schmidt_structure,
    "self-dual": suite_self_dual,
    "ratio-equality": suite_ratio_equality,
    "modularity": suite_modularity,
    "nilpotency": suite_nilpotency,
    "iwasawa": suite_iwasawa,
    "dedekind-threshold": suite_dedekind_threshold,
    "hk-sections": suite_hk_sections,
    "extremal-values": suite_extremal_values,
    "density": suite_density,
    "consistency": suite_consistency,
}


def run_suites(
    names=None,
    corpus: Corpus | None = None,
    stats: dict[str, InvariantReport] | None = None,
) -> list[SuiteResult]:
    """Run the named suites (all of them for None or ["all"]) over one shared corpus.

    The corpus defaults to the standard one and the stats to its reports.
    """
    if names is None or list(names) == ["all"]:
        names = list(SUITES)
    if "all" in names:
        raise InvalidParameter("'all' runs every suite and takes no other suite names")
    for i, name in enumerate(names):
        if name not in SUITES:
            raise InvalidParameter(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        if name in names[:i]:
            raise InvalidParameter(f"suite {name!r} is named more than once")
    if corpus is None:
        corpus = build_corpus()
    if stats is None:
        stats = compute_corpus_stats(corpus)
    return [SUITES[name](corpus, stats) for name in names]
