"""Closed-form d' values, subgroup counts, and the density-sequence builder.

Everything here is exact rational arithmetic; these formulas double as the
oracle against which lattice enumeration is tested, and vice versa.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhausted, InvalidParameter, StructureViolation
from .numbertheory import is_order_mod_prime, is_prime, nth_odd_prime

__all__ = [
    "d_prime_modular_formula",
    "d_prime_schmidt_formula",
    "d_prime_dihedral_formula",
    "d_prime_heisenberg_formula",
    "modular_counts",
    "dihedral_counts",
    "schmidt_counts",
    "heisenberg_counts",
    "gaussian_binomial",
    "num_subgroups_elem_abelian",
    "d_prime_schmidt_section_formula",
    "schmidt_section_counts",
    "MonotonicityVerdict",
    "sequence_monotonicity",
    "LimitTrendVerdict",
    "limit_trend",
    "DensityStep",
    "DENSITY_PRIME_BUDGET",
    "density_sequence",
    "corollary_a_over_a_plus_one",
]


@dataclass(frozen=True)
class FamilyCounts:
    """Closed-form subgroup-lattice counts for one family instance."""

    k_prime: int
    lattice_size: int
    normal_count: int | None = None
    nu: int | None = None


def modular_counts(p: int, n: int) -> FamilyCounts:
    if not is_prime(p):
        raise InvalidParameter(f"p must be prime, got {p}")
    if (p == 2 and n < 4) or (p != 2 and n < 3):
        raise InvalidParameter(f"no modular group for (p, n) = ({p}, {n})")
    normal = (n - 2) * (p + 1) + 3
    return FamilyCounts(
        k_prime=normal + 1,
        lattice_size=(n - 1) * (p + 1) + 2,
        normal_count=normal,
        nu=1,
    )


def dihedral_counts(n: int) -> FamilyCounts:
    if n < 3:
        raise InvalidParameter(f"need n >= 3, got {n}")
    return FamilyCounts(k_prime=3 * n - 1, lattice_size=2**n + n - 1)


def schmidt_counts(p: int, n: int) -> FamilyCounts:
    if not is_prime(p):
        raise InvalidParameter(f"p must be prime, got {p}")
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    return FamilyCounts(
        k_prime=2 * n, lattice_size=2 * n + p - 1, normal_count=2 * n - 1, nu=1
    )


def heisenberg_counts(p: int) -> FamilyCounts:
    if not is_prime(p) or p == 2:
        raise InvalidParameter(f"p must be an odd prime, got {p}")
    return FamilyCounts(k_prime=2 * p + 5, lattice_size=p * p + 2 * p + 4)


def _ratio(counts: FamilyCounts) -> Fraction:
    return Fraction(counts.k_prime, counts.lattice_size)


def d_prime_modular_formula(p: int, n: int) -> Fraction:
    """d' of the modular group of order p^n: ((n-2)(p+1)+4) / ((n-1)(p+1)+2)."""
    return _ratio(modular_counts(p, n))


def d_prime_schmidt_formula(p: int, n: int) -> Fraction:
    """d' of C_p x| C_(q^(n-1)): 2n / (2n + p - 1), independent of q."""
    return _ratio(schmidt_counts(p, n))


def d_prime_dihedral_formula(n: int) -> Fraction:
    """d' of the dihedral group of order 2^n: (3n - 1) / (2^n + n - 1)."""
    return _ratio(dihedral_counts(n))


def d_prime_heisenberg_formula(p: int) -> Fraction:
    """d' of the order-p^3 exponent-p group: (2p + 5) / (p^2 + 2p + 4)."""
    return _ratio(heisenberg_counts(p))


def gaussian_binomial(r: int, i: int, p: int) -> int:
    """Number of i-dimensional subspaces of an r-dimensional space over F_p."""
    if not 0 <= i <= r:
        raise InvalidParameter(f"need 0 <= i <= r, got i={i}, r={r}")
    if p < 2:
        raise InvalidParameter(f"need p >= 2, got {p}")
    result = 1
    # [r, i] = [r, r - i]; the partial products [r, k] grow up to k = r/2, so
    # taking the smaller side keeps every one of them below the result
    for k in range(min(i, r - i)):
        result, rem = divmod(result * (p ** (r - k) - 1), p ** (k + 1) - 1)
        if rem:
            raise StructureViolation(f"[{r}, {k + 1}]_{p} is not an integer")
    return result


def num_subgroups_elem_abelian(p: int, r: int) -> int:
    """Total subgroup count of C_p^r (sum of Gaussian binomials)."""
    if r < 0:
        raise InvalidParameter(f"need r >= 0, got {r}")
    return sum(gaussian_binomial(r, i, p) for i in range(r + 1))


def schmidt_section_counts(p: int, q: int, r: int) -> FamilyCounts:
    """k' and |L| for C_p^r x| C_q with faithful action, r = ord_q(p).

    k' = (a_{p,r} + 4q - 2)/q is an integer because q divides every Gaussian
    binomial strictly between the ends, so a_{p,r} is 2 mod q.
    """
    if not is_prime(p) or not is_prime(q) or p == q:
        raise InvalidParameter(f"p, q must be distinct primes, got {p}, {q}")
    if not is_order_mod_prime(r, p, q):
        raise InvalidParameter(
            f"r = {r} is not the multiplicative order of {p} mod {q}"
        )
    a = num_subgroups_elem_abelian(p, r)
    k_prime, rem = divmod(a + 4 * q - 2, q)
    if rem:
        raise StructureViolation(
            f"a_{{{p},{r}}} + 4q - 2 = {a + 4 * q - 2} is not divisible by q = {q}"
        )
    return FamilyCounts(k_prime=k_prime, lattice_size=a + p**r + 1)


def d_prime_schmidt_section_formula(p: int, q: int, r: int) -> Fraction:
    """d' of C_p^r x| C_q with faithful action: (a_{p,r}+4q-2) / (q(a_{p,r}+p^r+1))."""
    return _ratio(schmidt_section_counts(p, q, r))


# per family: the closed form at (parameter, p), its limit, and the parameters
# at which `limit_trend` samples it
_FAMILIES = {
    "modular": (
        lambda n, p: d_prime_modular_formula(p, n),
        Fraction(1),
        (4, 5, 6, 8, 12, 20, 50, 200, 1000, 10_000),
    ),
    "schmidt": (
        lambda n, p: d_prime_schmidt_formula(p, n),
        Fraction(1),
        (2, 3, 4, 6, 10, 20, 50, 200, 1000, 10_000),
    ),
    "dihedral": (
        lambda n, p: d_prime_dihedral_formula(n),
        Fraction(0),
        (3, 4, 5, 6, 8, 10, 15, 20, 25, 30),
    ),
    "heisenberg": (
        lambda v, p: d_prime_heisenberg_formula(v),
        Fraction(0),
        (3, 5, 7, 11, 17, 29, 53, 101, 211, 401, 809, 1601, 2503),
    ),
}


@dataclass(frozen=True)
class MonotonicityVerdict:
    direction: str  # "strictly increasing" | "strictly decreasing" | "not monotone"
    first_violation: int | None
    values: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def sequence_monotonicity(family: str, params, p: int | None = None) -> MonotonicityVerdict:
    """Evaluate a family's closed form along params and classify monotonicity.

    For "modular" and "schmidt", params are the exponents n (p fixed); for
    "dihedral", the exponents n; for "heisenberg", the primes themselves.
    """
    if family not in _FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    evaluate = _FAMILIES[family][0]
    values = tuple(evaluate(v, p) for v in params)
    if len(values) < 2:
        return MonotonicityVerdict("not monotone", 0, values)
    increasing = all(a < b for a, b in zip(values, values[1:]))
    if increasing:
        return MonotonicityVerdict("strictly increasing", None, values)
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    if decreasing:
        return MonotonicityVerdict("strictly decreasing", None, values)
    # the first step that breaks the direction of the first step
    up = values[0] < values[1]
    i = next(i for i, (a, b) in enumerate(zip(values, values[1:])) if (a >= b if up else a <= b))
    return MonotonicityVerdict("not monotone", i, values)


@dataclass(frozen=True)
class LimitTrendVerdict:
    limit: Fraction
    final_gap: Fraction
    epsilon: Fraction
    ok: bool
    note: str = "numerical trend check, not a proof"


_LIMIT_EPSILON = Fraction(1, 1000)


def limit_trend(family: str, p: int | None = None) -> LimitTrendVerdict:
    """Check that the closed form approaches its limit over the sampled parameters.

    Confirms |value - limit| decreases strictly along the family's samples
    and ends below 1/1000.  This is a numerical trend check, not a proof.
    """
    if family not in _FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}")
    evaluate, limit, samples = _FAMILIES[family]
    gaps = [abs(evaluate(v, p) - limit) for v in samples]
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < _LIMIT_EPSILON
    return LimitTrendVerdict(limit, gaps[-1], _LIMIT_EPSILON, ok)


DENSITY_PRIME_BUDGET = 500  # odd primes a density sequence may use


@dataclass(frozen=True)
class DensityStep:
    """One term of the sequence approaching a/b: a product of modular values."""

    index: int
    primes: tuple[int, ...]
    value: Fraction
    gap: Fraction


def density_sequence(
    a: int, b: int, epsilon, prime_budget: int = DENSITY_PRIME_BUDGET
) -> list[DensityStep]:
    """Products of modular-group d' values converging to a/b.

    Step n multiplies the closed form at (p, a+i+1) for i = 1..b-a, where p is
    the (n(b-a)+i)-th odd prime; the b-a prime subsequences are disjoint and
    strictly increasing (round-robin over consecutive odd primes).  Returns
    the steps up to and including the first with gap < epsilon, or raises
    BudgetExhausted when that would need an odd prime beyond prime_budget.
    """
    if not 1 <= a < b:
        raise InvalidParameter(f"need 1 <= a < b, got a={a}, b={b}")
    if prime_budget < 1:
        raise InvalidParameter(f"prime budget must be at least 1, got {prime_budget}")
    try:
        eps = Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    except (TypeError, ValueError, OverflowError):  # not a number, nan / inf, or too long
        digits = sum(map(str.isdigit, epsilon)) if isinstance(epsilon, str) else 0
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if 0 < limit < digits:
            msg = f"epsilon has {digits} digits, past Python's int-to-str limit of {limit}"
            raise InvalidParameter(msg) from None
        raise InvalidParameter(f"epsilon must be a positive number, got {epsilon!r}") from None
    if eps <= 0:
        raise InvalidParameter("epsilon must be positive")
    k = b - a
    target = Fraction(a, b)
    steps: list[DensityStep] = []
    n = 1
    while True:
        if n * k + k > prime_budget:
            shown = "epsilon"
            with suppress(ValueError):  # longer than Python's int-to-str digit limit
                shown = str(eps)
            raise BudgetExhausted(
                f"gap < {shown} not reached within the first {prime_budget} odd primes"
            )
        primes = tuple(nth_odd_prime(n * k + i) for i in range(1, k + 1))
        value = Fraction(1)
        for i in range(1, k + 1):
            value *= d_prime_modular_formula(primes[i - 1], a + i + 1)
        gap = abs(value - target)
        steps.append(DensityStep(n, primes, value, gap))
        if gap < eps:
            return steps
        n += 1


def corollary_a_over_a_plus_one(a: int) -> tuple[str, Fraction]:
    """A group spec with d' = a/(a+1) for each a >= 1.

    For a >= 2 this is G(3,2,a); the a = 1 value is delivered by G(5,2,2),
    the dihedral group of order 10.
    """
    if a < 1:
        raise InvalidParameter(f"need a >= 1, got {a}")
    if a == 1:
        return "G(5,2,2)", Fraction(1, 2)
    return f"G(3,2,{a})", Fraction(a, a + 1)
