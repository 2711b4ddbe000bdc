"""Small number-theoretic helpers: primality, factoring, prime powers and orders."""

from __future__ import annotations

from itertools import count
from math import gcd

from .errors import BudgetExhausted, InvalidParameter

__all__ = [
    "is_prime",
    "nth_odd_prime",
    "prime_factorization",
    "multiplicative_order",
    "is_order_mod_prime",
    "prime_power",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all 13 bases (Sorenson and Webster, 2017)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin over the 13 prime bases 2..41, exact below _MR_EXACT_BELOW.

    Above it, a number those rounds cannot prove composite raises
    BudgetExhausted instead of being trial-divided up to sqrt(n).
    """
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    if n < 43 * 43:  # no prime factor up to its square root
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    if n >= _MR_EXACT_BELOW:
        raise BudgetExhausted(
            f"cannot prove {n} prime: Miller-Rabin to the bases 2..41 is exact only below "
            f"{_MR_EXACT_BELOW}"
        )
    return True


_ODD_PRIME_CACHE: list[int] = []


def nth_odd_prime(k: int) -> int:
    """The k-th odd prime, 1-based (nth_odd_prime(1) == 3)."""
    if k < 1:
        raise InvalidParameter(f"odd-prime index must be >= 1, got {k}")
    while len(_ODD_PRIME_CACHE) < k:
        n = _ODD_PRIME_CACHE[-1] + 2 if _ODD_PRIME_CACHE else 3
        while not is_prime(n):
            n += 2
        _ODD_PRIME_CACHE.append(n)
    return _ODD_PRIME_CACHE[k - 1]


_TRIAL_DIVISION_BOUND = 10**4


def prime_factorization(n: int) -> dict[int, int]:
    """Map each prime divisor of n to its exponent.

    Trial division stops at _TRIAL_DIVISION_BOUND.  A cofactor left at or
    below its square has no prime factor up to its square root, so it is
    prime; one above it is split by `_rho_divisor` until `is_prime` proves
    each part prime.
    """
    if n < 1:
        raise InvalidParameter(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_DIVISION_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    parts = [n] if n > 1 else []
    while parts:
        s = parts.pop()
        if s > _TRIAL_DIVISION_BOUND**2 and not is_prime(s):
            d = _rho_divisor(s)
            parts += [d, s // d]
        else:
            out[s] = out.get(s, 0) + 1
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; requires gcd(a, n) == 1."""
    if n < 2 or gcd(a, n) != 1:
        raise InvalidParameter(f"{a} is not a unit mod {n}")
    a %= n
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


# Rho steps per split, 10 s at 0.6 us a step.  The worst cofactor below
# _MR_EXACT_BELOW, two primes near 1.8 * 10^12, took 0.13 to 4.2 M steps (36 runs).
_RHO_STEPS = 1 << 24


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard's rho in Brent's form.

    Iterates y -> y^2 + c mod n from y = 2, for c = 1, 2, ..., in blocks of
    doubling length, comparing y at a block's start with y over its second half
    (J. M. Pollard, BIT 15, 1975; R. P. Brent, BIT 20, 1980).  A block that
    would pass _RHO_STEPS steps raises BudgetExhausted.
    """
    steps = 0
    for c in count(1):
        y, power, g = 2, 1, 1
        while g == 1:
            steps += 2 * power
            if steps > _RHO_STEPS:
                raise BudgetExhausted(f"cannot factor {n} within {_RHO_STEPS} rho steps")
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            for _ in range(power):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            power *= 2
        if g != n:  # else x = y mod n: the next c starts afresh
            return g


def is_order_mod_prime(r: int, a: int, q: int) -> bool:
    """Whether r is the multiplicative order of a mod the prime q.

    True iff r divides q - 1, a^r = 1 and a^(r/s) != 1 (mod q) for each prime
    s dividing r.  r is factored only once the first two tests pass, so a
    wrong r costs no loop over the powers of a, as `multiplicative_order` does.
    `is_prime` is exact on the parts of r, as r < q and q passed it.
    """
    if r < 1 or (q - 1) % r or pow(a, r, q) != 1:
        return False
    return all(pow(a, r // s, q) != 1 for s in prime_factorization(r))


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) when n = p^k with p prime and k >= 1, else None (also for n < 2)."""
    if n < 2:
        return None
    fact = prime_factorization(n)
    return next(iter(fact.items())) if len(fact) == 1 else None
