"""Exact normality ratios and structural predicates.

d'(G) is the number of conjugacy classes of subgroups over the number of
subgroups; it equals 1 exactly for the groups in which every subgroup is
normal.  d*(G) is the minimum of d' over all sections H/K of G, which turns
the ratio into a section-monotone quantity suitable for threshold criteria.

Subgroups are named by their index in g's lattice, as there: a section H/K
is the index pair (hi, ki), and `section_group` builds its quotient from the
lattice's masks when a caller needs it as a group.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from math import prod

from .errors import InvalidParameter, OrderCapExceeded, StructureViolation
from .groups import FiniteGroup, _mask_elements, is_isomorphic, section_group
from .lattice import (
    is_lattice_modular,
    frattini_subgroup,
    maximal_subgroup_indices,
    normalizes,
    subgroup_lattice,
)
from .numbertheory import multiplicative_order, prime_factorization

__all__ = [
    "DSTAR_ORDER_LIMIT",
    "InvariantReport",
    "SchmidtStructureReport",
    "d_prime",
    "sections",
    "d_star",
    "d_star_in_reach",
    "has_modular_lattice",
    "sylow_subgroups",
    "is_nilpotent",
    "is_schmidt",
    "schmidt_structure_check",
    "is_q_self_dual",
    "compute_report",
    "coprime_product_report",
]

DSTAR_ORDER_LIMIT = 256


def d_star_in_reach(order: int, allow_slow: bool = False) -> bool:
    """Whether d* is computed at this order: up to DSTAR_ORDER_LIMIT, or past it with allow_slow."""
    return order <= DSTAR_ORDER_LIMIT or allow_slow


def d_prime(g: FiniteGroup) -> Fraction:
    """k'(G) / |L(G)| as an exact reduced fraction."""
    lat = subgroup_lattice(g)
    return Fraction(lat.k_prime, lat.size)


def sections(g: FiniteGroup) -> Iterator[tuple[int, int]]:
    """Yield every section H/K of g as the lattice indices (hi, ki): one per
    pair (H, K <| H), including (G, 1) and (H, H), H ascending and then K;
    the literal oracle for `d_star`.  `section_group` builds the quotient."""
    lat = subgroup_lattice(g)
    masks, gens = lat.masks, lat.gens
    for hi in range(lat.size):
        hgens = gens[hi]
        for ki in _mask_elements(lat.below(hi)):
            if normalizes(g, masks[ki], gens[ki], hgens):
                yield hi, ki


def d_star(g: FiniteGroup, allow_slow: bool = False) -> Fraction:
    """Minimum of d' over all sections of g, read off intervals of L(g).

    L(H/K) is the interval [K, H] of L(g), and H/K-conjugacy on it is
    H-conjugacy (R. Schmidt, Subgroup Lattices of Groups, 1994, Sec. 1), so
    no quotient group is built.  Conjugate subgroups H give isomorphic
    sections, so one H per conjugacy class suffices, and a Dedekind H (every
    subgroup normal) has d' = 1 on every section.  If g itself is Dedekind
    (nu = 0), so is every section, and d* = 1 at once.

    The H-orbits are counted, not walked.  By the orbit-counting
    (Cauchy-Frobenius) lemma the number of H-orbits on a set S of subgroups
    closed under H-conjugation is (1/|H|) sum over L in S of w(L), where
    w(L) = |H n N_G(L)| is the order of L's stabilizer.  N_G(L) is read off
    the lattice (`SubgroupLattice.normalizer_index`) once per L.  K is
    normal in H exactly when w(K) = |H|; then [K, H] is closed under
    H-conjugation, so d'(H/K) is that orbit count over |[K, H]|.  The
    subgroups of H are bucketed by w, so each count is a few popcounts.  For
    H = G, w(L) = |N_G(L)| = |G| / |class of L| is read off the classes, so
    the top H looks up no normalizer.

    The minimum over the sections of H depends only on H's isomorphism type,
    so each non-abelian H is first tested against the representatives P of
    its order already evaluated: if P's i-th smallest element -> H's i-th
    smallest is an isomorphism (`_ascending_map_is_isomorphism`), H adds
    nothing new and is skipped.  The test is exact, so a miss costs one
    ordinary evaluation and never a wrong value; which H hit depends on the
    element labels.
    """
    if not d_star_in_reach(g.order, allow_slow):
        raise OrderCapExceeded(
            f"d* on order {g.order} > {DSTAR_ORDER_LIMIT} needs allow_slow=True"
        )
    if g.is_abelian:
        return Fraction(1)
    lat = subgroup_lattice(g)
    if lat.nu == 0:
        return Fraction(1)
    masks, t = lat.masks, g.table
    top = lat.size - 1
    normalizer: dict[int, int] = {}
    evaluated: dict[int, list[list[tuple[int, list[int]]]]] = {}
    best_num, best_den = 1, 1
    for hi in lat.class_representatives():
        hgens = lat.gens[hi]
        if all(t[a][b] == t[b][a] for a in hgens for b in hgens):
            continue  # H is abelian: every section has d' = 1
        hmask = masks[hi]
        horder = hmask.bit_count()
        helems = _mask_elements(hmask)
        same_order = evaluated.setdefault(horder, [])
        if any(_ascending_map_is_isomorphism(t, action, helems) for action in same_order):
            continue  # H is isomorphic to an evaluated P, and f(H) = f(P)
        same_order.append(_generator_action(t, helems, hgens))
        below_h = lat.below(hi)
        by_weight: dict[int, list[int]] = {}
        if hi == top:
            for cls in lat.classes:
                by_weight.setdefault(horder // len(cls), []).extend(cls)
        else:
            for li in _mask_elements(below_h):
                n = normalizer.get(li)
                if n is None:
                    n = normalizer[li] = masks[lat.normalizer_index(li)]
                by_weight.setdefault((hmask & n).bit_count(), []).append(li)
        normals = by_weight.pop(horder)
        if not by_weight:
            continue  # H is Dedekind
        buckets = [(w, sum(1 << li for li in ls)) for w, ls in by_weight.items()]
        buckets.append((horder, sum(1 << k for k in normals)))
        for k in normals:
            above = lat.up(k) & below_h
            orbits = sum(w * (above & b).bit_count() for w, b in buckets) // horder
            size = above.bit_count()
            if orbits * best_den < best_num * size:
                best_num, best_den = orbits, size
    return Fraction(best_num, best_den)


def _generator_action(table, pelems, pgens) -> list[tuple[int, list[int]]]:
    """Right multiplication by each generator s of P, on positions in P's
    ascending element list: (position of s, position of x s for each x)."""
    pos = {x: i for i, x in enumerate(pelems)}
    return [(pos[s], [pos[table[x][s]] for x in pelems]) for s in pgens]


def _ascending_map_is_isomorphism(table, action, helems) -> bool:
    """Whether the map P -> H sending P's i-th smallest element to H's i-th
    smallest is an isomorphism, for P given by its `_generator_action`.  Both
    lists start at the identity 0, and phi(x s) = phi(x) phi(s) for every x
    in P and generator s of P extends to every product, so |P| r lookups
    decide it for r generators."""
    for k, moves in action:
        s = helems[k]
        for x, j in zip(helems, moves):
            if table[x][s] != helems[j]:
                return False
    return True


def has_modular_lattice(g: FiniteGroup) -> bool:
    lat = subgroup_lattice(g)
    return lat.nu == 0 or is_lattice_modular(lat) is None


def sylow_subgroups(g: FiniteGroup) -> dict[int, int]:
    """The lattice index of one Sylow p-subgroup per prime p of |g|, the first of its order."""
    lat = subgroup_lattice(g)
    return {p: lat.runs[p**a].start for p, a in sorted(prime_factorization(g.order).items())}


def is_nilpotent(g: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is normal (the unique one of its order)."""
    if g.is_abelian:
        return True
    lat = subgroup_lattice(g)
    return lat.is_nilpotent(lat.size - 1)


def is_schmidt(g: FiniteGroup) -> bool:
    """Non-nilpotent with every proper subgroup nilpotent.

    It suffices to test the maximal subgroups (subgroups of nilpotent groups
    are nilpotent), each on g's own lattice.
    """
    if is_nilpotent(g):
        return False
    lat = subgroup_lattice(g)
    return all(lat.is_nilpotent(i) for i in maximal_subgroup_indices(lat))


@dataclass(frozen=True)
class SchmidtStructureReport:
    """Outcome of the structural checks on a minimal non-nilpotent group."""

    p: int
    q: int
    r: int


def schmidt_structure_check(g: FiniteGroup) -> SchmidtStructureReport:
    """Verify the structure a minimal non-nilpotent group must have.

    Checks: G = P x| Q with P the normal Sylow p-subgroup and Q a cyclic
    Sylow q-subgroup; Z(G) = Phi(G) = Phi(P) x Phi(Q); P/Phi(P) elementary
    abelian of rank r = the multiplicative order of p mod q; and every proper
    normal subgroup avoids Q and either contains P or sits inside Z(G).
    Raises StructureViolation naming the first failing clause.
    """
    if not is_schmidt(g):
        raise InvalidParameter("group is not minimal non-nilpotent")
    factors = prime_factorization(g.order)
    if len(factors) != 2:
        raise StructureViolation("order must have exactly two prime divisors")
    lat = subgroup_lattice(g)
    sylows = sylow_subgroups(g)
    normal_primes = [p for p, i in sylows.items() if lat.is_normal(i)]
    if len(normal_primes) != 1:
        raise StructureViolation(
            f"expected exactly one normal Sylow subgroup, found {len(normal_primes)}"
        )
    p = normal_primes[0]
    (q,) = [r for r in factors if r != p]
    masks = lat.masks
    pmask, qmask = masks[sylows[p]], masks[sylows[q]]
    if max(g.element_orders[x] for x in _mask_elements(qmask)) != qmask.bit_count():
        raise StructureViolation(f"Sylow {q}-subgroup is not cyclic")

    zmask = g.center_mask
    phi_g = masks[frattini_subgroup(g)]
    if zmask != phi_g:
        raise StructureViolation("Z(G) != Phi(G)")
    # L(P) and L(Q) are the intervals [1, P] and [1, Q] of L(G)
    phi_p = masks[frattini_subgroup(g, sylows[p])]
    phi_q = masks[frattini_subgroup(g, sylows[q])]
    prod_mask = 0
    for a in _mask_elements(phi_p):
        row = g.table[a]
        for b in _mask_elements(phi_q):
            prod_mask |= 1 << row[b]
    if prod_mask != phi_g or prod_mask.bit_count() != phi_p.bit_count() * phi_q.bit_count():
        raise StructureViolation("Phi(G) != Phi(P) x Phi(Q)")

    r = multiplicative_order(p, q)
    top_order = pmask.bit_count() // phi_p.bit_count()
    if top_order != p**r:
        raise StructureViolation(f"|P/Phi(P)| = {top_order}, expected p^r = {p**r}")
    # P/Phi(P) is generated by the images of P's generators: it is elementary
    # abelian iff their p-th powers and commutators all lie in Phi(P)
    gens = lat.gens[sylows[p]]
    words = [g.power(a, p) for a in gens] + [g.commutator(a, b) for a in gens for b in gens]
    if not all(phi_p >> x & 1 for x in words):
        raise StructureViolation("P/Phi(P) is not elementary abelian")

    for cls in lat.classes[:-1]:  # the last class is G's own
        if len(cls) != 1:
            continue
        n = masks[cls[0]]
        if qmask & ~n == 0:
            raise StructureViolation(
                f"proper normal subgroup of order {n.bit_count()} contains the Sylow {q}-subgroup"
            )
        if pmask & ~n != 0 and n & ~zmask != 0:
            raise StructureViolation(
                f"proper normal subgroup of order {n.bit_count()} neither contains P "
                "nor lies in Z(G)"
            )
    return SchmidtStructureReport(p=p, q=q, r=r)


def is_q_self_dual(g: FiniteGroup) -> bool:
    """Whether every quotient of g is isomorphic to some subgroup of g."""
    lat = subgroup_lattice(g)
    masks = lat.masks
    reps_by_order: dict[int, list[int]] = {}
    for i in lat.class_representatives():
        reps_by_order.setdefault(masks[i].bit_count(), []).append(i)
    for cls in lat.classes[1:-1]:  # the first and last classes are 1 and G
        if len(cls) != 1:
            continue
        q, _ = section_group(g, masks[-1], masks[cls[0]])  # normal: its class is itself
        if not any(
            is_isomorphic(q, section_group(g, masks[i])[0])
            for i in reps_by_order.get(q.order, [])
        ):
            return False
    return True


@dataclass
class InvariantReport:
    """Everything the engine reports about one group, JSON-stable."""

    spec: str
    order: int
    lattice_size: int
    k_prime: int
    normal_count: int
    nu: int
    d_prime: Fraction
    d_star: Fraction | None
    flags: dict[str, bool]
    ms: int

    def to_json_dict(self) -> dict:
        """The fields in order, each Fraction as {"num", "den"} and the flags sorted."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("d_prime", "d_star"):
            x = data[name]
            data[name] = None if x is None else {"num": x.numerator, "den": x.denominator}
        data["flags"] = dict(sorted(self.flags.items()))
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "InvariantReport":
        """The inverse of to_json_dict."""
        report = InvariantReport(**data)
        for name in ("d_prime", "d_star"):
            x = getattr(report, name)
            if x is not None:
                setattr(report, name, Fraction(x["num"], x["den"]))
        return report

    @staticmethod
    def derive(
        spec: str, order: int, lattice_size: int, k_prime: int, normal_count: int,
        d_star: Fraction | None, ms: int,
        *, abelian: bool, nilpotent: bool, modular: bool, schmidt: bool,
    ) -> "InvariantReport":
        """The report with the fields the others determine: nu = k' - |N|,
        d' = k'/|L|, Dedekind iff nu = 0, and Iwasawa iff nilpotent with a
        modular lattice."""
        nu = k_prime - normal_count
        flags = {
            "abelian": abelian,
            "dedekind": nu == 0,
            "nilpotent": nilpotent,
            "iwasawa": nilpotent and modular,
            "modular_lattice": modular,
            "schmidt": schmidt,
        }
        return InvariantReport(
            spec, order, lattice_size, k_prime, normal_count, nu,
            Fraction(k_prime, lattice_size), d_star, flags, ms,
        )


def compute_report(
    g: FiniteGroup,
    spec: str | None = None,
    want_d_star: bool = True,
    allow_slow: bool = False,
) -> InvariantReport:
    """Full invariant report; d_star is None when skipped for size."""
    t0 = time.perf_counter()
    lat = subgroup_lattice(g)
    ds: Fraction | None = None
    if want_d_star and d_star_in_reach(g.order, allow_slow):
        ds = d_star(g, allow_slow=allow_slow)
    nilpotent, modular, schmidt = is_nilpotent(g), has_modular_lattice(g), is_schmidt(g)
    return InvariantReport.derive(
        spec if spec is not None else (g.name or f"order{g.order}"),
        g.order, lat.size, lat.k_prime, lat.normal_count, ds,
        int(round((time.perf_counter() - t0) * 1000)),
        abelian=g.is_abelian, nilpotent=nilpotent, modular=modular, schmidt=schmidt,
    )


def coprime_product_report(
    spec: str, reports: list[InvariantReport], allow_slow: bool = False
) -> InvariantReport:
    """The report of the direct product of groups of pairwise coprime orders, from theirs.

    With gcd(|A|, |B|) = 1 every subgroup of A x B is H x K for H <= A and
    K <= B, conjugate or normal exactly when both factors are, so
    L(A x B) ~ L(A) x L(B): |L|, k' and |N| multiply, and so do d' and, as
    every section of A x B is a product of sections of A and B, d*.  The
    product is abelian, nilpotent or has a modular lattice iff every factor
    does.  It is minimal non-nilpotent only as the one non-trivial factor:
    with two, A x 1 is a proper subgroup, nilpotent only if A is.  d* is
    None out of `d_star_in_reach`.  ms is the factors' ms plus this call's
    own time, what a cold run of the product took.
    """
    t0 = time.perf_counter()
    order = prod(r.order for r in reports)
    ds: Fraction | None = None
    if d_star_in_reach(order, allow_slow):
        if any(r.d_star is None for r in reports):
            raise InvalidParameter("a factor's report lacks the d* its product needs")
        ds = prod((r.d_star for r in reports), start=Fraction(1))
    nontrivial = [r for r in reports if r.order > 1]
    return InvariantReport.derive(
        spec, order,
        prod(r.lattice_size for r in reports),
        prod(r.k_prime for r in reports),
        prod(r.normal_count for r in reports),
        ds,
        sum(r.ms for r in reports) + int(round((time.perf_counter() - t0) * 1000)),
        abelian=all(r.flags["abelian"] for r in reports),
        nilpotent=all(r.flags["nilpotent"] for r in reports),
        modular=all(r.flags["modular_lattice"] for r in reports),
        schmidt=len(nontrivial) == 1 and nontrivial[0].flags["schmidt"],
    )
