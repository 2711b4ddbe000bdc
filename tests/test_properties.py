"""Property-based checks of the algebraic invariants the engine relies on."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_semimodularity_failure,
    brute_force_hasse_edges,
    brute_force_is_modular,
    brute_force_subgroup_classes,
    edge_pairs,
    literal_d_star,
)
from dedekind.errors import BudgetExhausted
from dedekind.families import (
    cyclic,
    dihedral,
    elementary_abelian,
    generalized_quaternion,
    h_pst,
    heisenberg,
    k_pst,
    modular_group,
    schmidt_gpqn,
)
from dedekind.formulas import gaussian_binomial
from dedekind.groups import direct_product, is_isomorphic
from dedekind.invariants import d_prime, d_star
from dedekind.lattice import (
    all_subgroup_masks,
    brute_force_subgroup_masks,
    hasse_edges,
    is_lattice_modular,
    subgroup_lattice,
)
from dedekind import numbertheory
from dedekind.numbertheory import (
    is_order_mod_prime,
    is_prime,
    multiplicative_order,
    nth_odd_prime,
    prime_factorization,
    prime_power,
)

# builders for a pool of groups of order <= 48, by name for readable failures
GROUP_POOL = {
    "C(15)": lambda: cyclic(15),
    "C(16)": lambda: cyclic(16),
    "C(24)": lambda: cyclic(24),
    "C(30)": lambda: cyclic(30),
    "EA(2,3)": lambda: elementary_abelian(2, 3),
    "EA(2,4)": lambda: elementary_abelian(2, 4),
    "EA(3,2)": lambda: elementary_abelian(3, 2),
    "EA(5,2)": lambda: elementary_abelian(5, 2),
    "D(6)": lambda: dihedral(6),
    "D(8)": lambda: dihedral(8),
    "D(12)": lambda: dihedral(12),
    "D(16)": lambda: dihedral(16),
    "D(20)": lambda: dihedral(20),
    "D(32)": lambda: dihedral(32),
    "Q(8)": lambda: generalized_quaternion(8),
    "Q(16)": lambda: generalized_quaternion(16),
    "Q(32)": lambda: generalized_quaternion(32),
    "M(2,4)": lambda: modular_group(2, 4),
    "M(2,5)": lambda: modular_group(2, 5),
    "M(3,3)": lambda: modular_group(3, 3),
    "He(3)": lambda: heisenberg(3),
    "G(3,2,3)": lambda: schmidt_gpqn(3, 2, 3),
    "G(3,2,4)": lambda: schmidt_gpqn(3, 2, 4),
    "G(5,2,3)": lambda: schmidt_gpqn(5, 2, 3),
    "G(7,3,2)": lambda: schmidt_gpqn(7, 3, 2),
    "H(2,2,1)": lambda: h_pst(2, 2, 1),
    "H(2,2,2)": lambda: h_pst(2, 2, 2),
    "H(3,1,1)": lambda: h_pst(3, 1, 1),
    "K(2,3,2)": lambda: k_pst(2, 3, 2),
    "K(3,2,1)": lambda: k_pst(3, 2, 1),
    "C(3) x D(8)": lambda: direct_product(cyclic(3), dihedral(8)),
    "C(5) x D(8)": lambda: direct_product(cyclic(5), dihedral(8)),
    "C(3) x Q(8)": lambda: direct_product(cyclic(3), generalized_quaternion(8)),
    "C(2) x G(21)": lambda: direct_product(cyclic(2), schmidt_gpqn(7, 3, 2)),
}

pool_names = st.sampled_from(sorted(GROUP_POOL))


@given(n=st.integers(min_value=1, max_value=96))
@settings(max_examples=40, deadline=None)
def test_cyclic_lattice_counts_divisors(n):
    lat = subgroup_lattice(cyclic(n))
    divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    assert lat.size == divisors
    assert lat.k_prime == divisors  # abelian: every subgroup its own class
    assert lat.normal_count == divisors and lat.nu == 0
    assert d_prime(cyclic(n)) == 1


@given(m=st.integers(2, 16), n=st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_coprime_cyclic_products(m, n):
    if gcd(m, n) != 1:
        return
    prod = direct_product(cyclic(m), cyclic(n))
    assert is_isomorphic(prod, cyclic(m * n))
    assert subgroup_lattice(prod).size == subgroup_lattice(cyclic(m * n)).size


@given(name=pool_names)
@settings(max_examples=33, deadline=None)
def test_invariant_bundle(name):
    g = GROUP_POOL[name]()
    lat = subgroup_lattice(g)
    # counting identities
    assert 1 <= lat.k_prime <= lat.size
    assert lat.k_prime == lat.normal_count + lat.nu
    assert lat.normal_count >= (2 if g.order > 1 else 1)
    # orbit-stabilizer on every class, and class members share an order
    full = (1 << g.order) - 1
    for cls in lat.classes:
        sizes = {lat.masks[i].bit_count() for i in cls}
        assert len(sizes) == 1
        nz = lat.normalizer(cls[0])
        assert len(cls) * bin(nz).count("1") == g.order
        assert (len(cls) == 1) == lat.is_normal(cls[0])
    # trivial and full subgroups present and normal
    assert lat.masks[0] == 1 and lat.masks[-1] == full
    assert lat.is_normal(0) and lat.is_normal(lat.size - 1)
    # the up-set covers and the cover-graph modularity test agree with the
    # pairwise and triple-by-triple oracles
    assert edge_pairs(hasse_edges(lat)) == brute_force_hasse_edges(lat)
    failure = is_lattice_modular(lat)
    assert (failure is None) == (brute_force_is_modular(lat) is None)
    if failure is not None:
        assert_semimodularity_failure(lat, failure)
    # ratio bounds
    dp = d_prime(g)
    assert 0 < dp <= 1
    ds = d_star(g)
    assert ds <= dp
    assert ds == literal_d_star(g)


@given(name=pool_names)
@settings(max_examples=12, deadline=None)
def test_enumeration_against_oracle(name):
    g = GROUP_POOL[name]()
    if g.order > 24:
        return
    assert set(all_subgroup_masks(g)) == brute_force_subgroup_masks(g)
    oracle = brute_force_subgroup_classes(g)
    lat = subgroup_lattice(g)
    assert lat.k_prime == len(oracle)


@given(a=pool_names, b=pool_names)
@settings(max_examples=25, deadline=None)
def test_multiplicativity_on_coprime_pairs(a, b):
    ga, gb = GROUP_POOL[a](), GROUP_POOL[b]()
    if gcd(ga.order, gb.order) != 1 or ga.order * gb.order > 96:
        return
    prod = direct_product(ga, gb)
    assert d_prime(prod) == d_prime(ga) * d_prime(gb)
    assert d_star(prod) == d_star(ga) * d_star(gb)


@given(a=pool_names, b=pool_names)
@settings(max_examples=10, deadline=None)
def test_direct_product_commutes_up_to_isomorphism(a, b):
    ga, gb = GROUP_POOL[a](), GROUP_POOL[b]()
    if ga.order * gb.order > 64:
        return
    assert is_isomorphic(direct_product(ga, gb), direct_product(gb, ga))


@given(
    r=st.integers(1, 6),
    i=st.integers(0, 6),
    p=st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=60, deadline=None)
def test_gaussian_binomial_recurrence(r, i, p):
    if i > r:
        return
    value = gaussian_binomial(r, i, p)
    assert value >= 1
    assert value == gaussian_binomial(r, r - i, p)
    if 0 < i < r:
        assert value == gaussian_binomial(r - 1, i, p) + p ** (r - i) * gaussian_binomial(
            r - 1, i - 1, p
        )


@given(n=st.integers(2, 120), a=st.integers(2, 120))
@settings(max_examples=60, deadline=None)
def test_multiplicative_order_property(n, a):
    if gcd(a, n) != 1:
        return
    k = multiplicative_order(a, n)
    assert pow(a, k, n) == 1
    assert all(pow(a, j, n) != 1 for j in range(1, k))


def test_is_order_mod_prime_matches_the_power_loop():
    for q in filter(is_prime, range(3, 100)):
        for a in range(1, q):
            found = [r for r in range(-1, q + 1) if is_order_mod_prime(r, a, q)]
            assert found == [multiplicative_order(a, q)], (a, q)


def test_is_order_mod_prime_past_its_trial_division():
    # r = q - 1 = 2P with P a prime near 5 * 10^19: P is proved prime by
    # Miller-Rabin, not trial-divided up to its square root
    q = 100000000000000000763
    assert is_order_mod_prime(q - 1, 2, q)
    assert not is_order_mod_prime(q - 1, 4, q)
    # r = 1000003 * 1000033 has no factor up to the trial bound and is not
    # prime: Pollard's rho splits it.  The oracle tests a^(r/s) over the known primes s.
    s1, s2 = 1000003, 1000033
    r = s1 * s2
    q = 24 * r + 1
    assert is_prime(s1) and is_prime(s2) and is_prime(q)

    def oracle(a):
        return pow(a, r, q) == 1 and all(pow(a, r // s, q) != 1 for s in (s1, s2))

    for a, want in ((pow(2, 24, q), True), (pow(2, 24 * s1, q), False)):
        assert oracle(a) == want
        assert is_order_mod_prime(r, a, q) == want


def test_is_order_mod_prime_splits_every_cofactor_shape(monkeypatch):
    # cofactors past the trial division: a square, and three primes; each r
    # is checked against the oracle over its known prime factors
    p1, p2, p3 = 1000003, 1000033, 1000037
    for primes in ((p1, p1), (p1, p2, p3)):
        r = prod(primes)
        q = next(k * r + 1 for k in range(2, 10**4, 2) if is_prime(k * r + 1))
        wants = []
        for m in (1, *set(primes)):
            a = pow(2, (q - 1) // r * m, q)
            want = pow(a, r, q) == 1 and all(pow(a, r // p, q) != 1 for p in set(primes))
            assert is_order_mod_prime(r, a, q) == want, (primes, m)
            wants.append(want)
        assert wants == [True] + [False] * len(set(primes)), primes
    # past its fixed step count the split gives up rather than running on
    monkeypatch.setattr(numbertheory, "_RHO_STEPS", 64)
    r = p1 * p2
    with pytest.raises(BudgetExhausted):
        is_order_mod_prime(r, pow(2, 24, 24 * r + 1), 24 * r + 1)


@pytest.mark.parametrize(
    "n, want",
    [
        (1000003 * 1000033, {1000003: 1, 1000033: 1}),
        (10007 * 10009, {10007: 1, 10009: 1}),
        (10007**2, {10007: 2}),
        (2 * 3**5 * 10007**2, {2: 1, 3: 5, 10007: 2}),
        (9973 * 10007, {9973: 1, 10007: 1}),
        (100000000000000000762, {2: 1, 50000000000000000381: 1}),
    ],
)
def test_prime_factorization_past_its_trial_division(n, want):
    # cofactors above the bound's square are split by rho; each part is prime
    fac = prime_factorization(n)
    assert fac == want
    assert all(is_prime(p) for p in fac) and prod(p**e for p, e in fac.items()) == n


def test_prime_power_agrees_with_the_factorization():
    for n in range(1, 10**4 + 1):
        fac = prime_factorization(n)
        assert prime_power(n) == (next(iter(fac.items())) if len(fac) == 1 else None), n


@pytest.mark.parametrize(
    "n, want",
    [
        (2**61, (2, 61)),
        (3**40, (3, 40)),
        ((10**6 + 3) ** 2, (1000003, 2)),
        (1000003 * 1000033, None),
        (0, None),
        (-8, None),
    ],
)
def test_prime_power_past_the_trial_division(n, want):
    assert prime_power(n) == want


@given(n=st.integers(2, 10_000))
@settings(max_examples=60, deadline=None)
def test_prime_factorization_reconstructs(n):
    fac = prime_factorization(n)
    out = 1
    for p, e in fac.items():
        assert is_prime(p) and e >= 1
        out *= p**e
    assert out == n


@given(k=st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_nth_odd_prime(k):
    p = nth_odd_prime(k)
    assert p % 2 == 1 and is_prime(p)
    assert nth_odd_prime(k + 1) > p
    # exactly k odd primes up to and including p
    assert sum(1 for m in range(3, p + 1) if is_prime(m)) == k


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial(n)]
    # Carmichael and strong pseudoprimes to small bases are still composite
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(100000000000000000039) and not is_prime(100000000000000000041)


def test_is_prime_past_its_exact_range():
    # a small factor or a failed round still decides; a number the rounds cannot
    # prove composite is a budget error
    assert not is_prime(2**89 + 1)  # divisible by 3
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    with pytest.raises(BudgetExhausted):
        is_prime(2**89 - 1)  # a Mersenne prime above 3.3e24
    with pytest.raises(BudgetExhausted):
        is_prime(3317044064679887385961981)  # composite, strong pseudoprime to 2..41
