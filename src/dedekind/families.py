"""Constructors for the group families the engine knows by name.

Every constructor names an explicit element encoding and computes, from its
formula, only the rows of the generators it names (x, y and z).
`FiniteGroup.from_generators` composes every other row from those and
certifies the table as a group's by Light's associativity test, so no table
is filled or scanned entry by entry.  That proves a group, not the family's
group, so the defining relations are then checked on the same generators
and a break raises StructureViolation at build time, also under `python -O`.
Each encoding is mixed-radix with the identity at index 0.

Two builders serve seven families.  `_metacyclic` builds
<x, y | x^a = 1, y^b = x^c, y x y^-1 = x^m>, with x^i y^j at index i * b + j,
for D, Q, M, K and G.  `_central` builds x, y of orders p^s, p^t with central
commutator z of order p, x^a y^b z^c at index (a * p^t + b) * p + c, for H
and for He(p) = H(p,1,1).  Each checks its presentation; a constructor adds
only its family's own relations (the H and K centres, G's least m, He's
exponent).
"""

from __future__ import annotations

from contextlib import suppress
from itertools import product
from math import gcd

from .errors import InvalidParameter, OrderCapExceeded, StructureViolation
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, semidirect_product
from .numbertheory import is_order_mod_prime, is_prime, multiplicative_order

__all__ = [
    "cyclic",
    "elementary_abelian",
    "dihedral",
    "generalized_quaternion",
    "modular_group",
    "heisenberg",
    "schmidt_gpqn",
    "h_pst",
    "k_pst",
    "elementary_rtimes_cq",
    "c27_rtimes_q8",
    "FAMILY_BUILDERS",
]


_EXACT_ORDER_BITS = 1 << 16


def _check_cap(what: str, cap: int, base: int, exp: int = 1, factor: int = 1) -> int:
    """The order factor * base**exp, or OrderCapExceeded above the cap.

    When the lower bound 2**(exp * (bits(base) - 1)) on base**exp already
    passes both the cap and 2**_EXACT_ORDER_BITS, the power is not computed.
    An order too long to print is written as a power, e.g. 3^100000000.
    """
    shown = f"{base}^{exp}" if factor == 1 else f"{factor} * {base}^{exp}"
    if exp * (base.bit_length() - 1) <= max(cap.bit_length(), _EXACT_ORDER_BITS):
        order = factor * base**exp
        if order <= cap:
            return order
        with suppress(ValueError):  # longer than Python's int-to-str digit limit
            shown = str(order)
    raise OrderCapExceeded(f"{what} has order {shown}, above the cap {cap}")


def _require(holds: bool, g: FiniteGroup, relation: str) -> None:
    """Raise StructureViolation unless the relation holds in the built group."""
    if not holds:
        raise StructureViolation(f"{g.name} breaks its presentation: {relation}")


def _require_prime(p: int, name: str) -> None:
    if not is_prime(p):
        raise InvalidParameter(f"{name} must be prime, got {p}")


def cyclic(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Cyclic group of order n."""
    if n < 1:
        raise InvalidParameter(f"cyclic group order must be >= 1, got {n}")
    _check_cap(f"C({n})", order_cap, n)
    gen_rows = {1: (*range(1, n), 0)} if n > 1 else {}
    g = FiniteGroup.from_generators(n, gen_rows, f"C({n})")
    _require(n == 1 or g.element_orders[1] == n, g, f"x has order {n}")
    return g


def elementary_abelian(p: int, r: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_p^r; element index sums digit_k * p^k over base-p digits."""
    _require_prime(p, "p")
    if r < 1:
        raise InvalidParameter(f"rank must be >= 1, got {r}")
    order = _check_cap(f"EA({p},{r})", order_cap, p, r)
    gen_rows = {}
    for k in range(r):  # p^k adds 1 to digit k of v
        pk = p**k
        gen_rows[pk] = [v + pk if v // pk % p < p - 1 else v - (p - 1) * pk for v in range(order)]
    g = FiniteGroup.from_generators(order, gen_rows, f"EA({p},{r})")
    _require(all(g.element_orders[p**k] == p for k in range(r)), g, f"each x_k has order {p}")
    return g


def _metacyclic(name: str, a: int, b: int, m: int, c: int = 0) -> FiniteGroup:
    """<x, y | x^a = 1, y^b = x^c, y x y^-1 = x^m>, x^i y^j at index i * b + j.

    x^i y^j * x^k y^l = x^(i + k m^j) y^(j + l), where y^(j + l) carries x^c
    once j + l reaches b.
    """

    def row(i: int, j: int) -> list[int]:
        mj = pow(m, j, a)
        return [
            ((i + k * mj + (c if j + l >= b else 0)) % a) * b + (j + l) % b
            for k, l in product(range(a), range(b))
        ]

    x, y = b, 1
    g = FiniteGroup.from_generators(a * b, {x: row(1, 0), y: row(0, 1)}, name)
    orders = g.element_orders
    _require(orders[x] == a and orders[y] == b * (a // gcd(a, c)), g, "the orders of x and y")
    _require(g.power(y, b) == g.power(x, c), g, f"y^{b} = x^{c}")
    _require(g.mul(y, x) == g.mul(g.power(x, m), y), g, f"y x y^-1 = x^{m}")
    return g


def _central(name: str, p: int, s: int, t: int) -> FiniteGroup:
    """x of order p^s, y of order p^t and z = [x, y] of order p, z central.

    x^a y^b z^c sits at index (a * p^t + b) * p + c, and
    x^a y^b z^c * x^d y^e z^f = x^(a + d) y^(b + e) z^(c + f + a e).
    """
    ps, pt = p**s, p**t
    blk = pt * p

    def row(a: int, b: int, c: int) -> list[int]:
        return [
            ((a + d) % ps) * blk + ((b + e) % pt) * p + (c + f + a * e) % p
            for d, e, f in product(range(ps), range(pt), range(p))
        ]

    x, y, z = blk, p, 1
    gen_rows = {x: row(1, 0, 0), y: row(0, 1, 0), z: row(0, 0, 1)}
    g = FiniteGroup.from_generators(ps * blk, gen_rows, name)
    orders = g.element_orders
    _require((orders[x], orders[y], orders[z]) == (ps, pt, p), g, "the orders of x, y and z")
    _require(g.commutator(x, y) == z, g, "[x, y] = z")
    _require(g.commutator(x, z) == 0 and g.commutator(y, z) == 0, g, "z is central")
    return g


def dihedral(two_n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of order two_n (rotations x, reflection y)."""
    if two_n < 6 or two_n % 2:
        raise InvalidParameter(f"dihedral order must be even and >= 6, got {two_n}")
    _check_cap(f"D({two_n})", order_cap, two_n)
    n = two_n // 2
    return _metacyclic(f"D({two_n})", n, 2, n - 1)


def generalized_quaternion(two_to_n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Generalized quaternion group of order 2^n, n >= 3."""
    m = two_to_n
    if m < 8 or m & (m - 1):
        raise InvalidParameter(f"quaternion order must be a power of two >= 8, got {m}")
    _check_cap(f"Q({m})", order_cap, m)
    return _metacyclic(f"Q({m})", m // 2, 2, m // 2 - 1, m // 4)


def modular_group(p: int, n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Modular p-group of order p^n: x of order p^(n-1), y x y^-1 = x^(p^(n-2)+1)."""
    _require_prime(p, "p")
    if (p == 2 and n < 4) or (p != 2 and n < 3):
        raise InvalidParameter(
            f"modular group needs n >= 4 for p = 2 and n >= 3 otherwise, got ({p},{n})"
        )
    _check_cap(f"M({p},{n})", order_cap, p, n)
    return _metacyclic(f"M({p},{n})", p ** (n - 1), p, p ** (n - 2) + 1)


def heisenberg(p: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group of upper unitriangular 3x3 matrices over F_p, p odd; exponent p."""
    _require_prime(p, "p")
    if p == 2:
        raise InvalidParameter("the Heisenberg family here is for odd p (p = 2 gives D(8))")
    _check_cap(f"He({p})", order_cap, p, 3)
    g = _central(f"He({p})", p, 1, 1)
    _require(g.exponent == p, g, f"exponent {p}")
    return g


def h_pst(p: int, s: int, t: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Order p^(s+t+1): x, y with central [x, y] = z of order p.

    Requires s >= t >= 1, and s + t >= 3 when p = 2 (the excluded case is D(8)).
    """
    _require_prime(p, "p")
    if not (s >= t >= 1):
        raise InvalidParameter(f"need s >= t >= 1, got s={s}, t={t}")
    if p == 2 and s + t < 3:
        raise InvalidParameter("p = 2 needs s + t >= 3")
    _check_cap(f"H({p},{s},{t})", order_cap, p, s + t + 1)
    g = _central(f"H({p},{s},{t})", p, s, t)
    ps, pt = p**s, p**t
    blk = pt * p
    # centre must be <x^p> * <y^p> * <z>
    want = 0
    for a, b in product(range(ps // p), range(pt // p)):
        for c in range(p):
            want |= 1 << ((a * p) * blk + (b * p) * p + c)
    _require(g.center_mask == want, g, "Z(G) = <x^p, y^p, z>")
    return g


def k_pst(p: int, s: int, t: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Order p^(s+t): x of order p^s, y of order p^t, y x y^-1 = x^(p^(s-1)+1).

    Requires s >= 2, t >= 1, and s + t >= 4 when p = 2.  k_pst(p, n-1, 1) is
    the modular group of order p^n.
    """
    _require_prime(p, "p")
    if s < 2 or t < 1:
        raise InvalidParameter(f"need s >= 2 and t >= 1, got s={s}, t={t}")
    if p == 2 and s + t < 4:
        raise InvalidParameter("p = 2 needs s + t >= 4")
    _check_cap(f"K({p},{s},{t})", order_cap, p, s + t)
    ps, pt = p**s, p**t
    g = _metacyclic(f"K({p},{s},{t})", ps, pt, p ** (s - 1) + 1)
    want = 0
    for a, b in product(range(ps // p), range(pt // p)):
        want |= 1 << ((a * p) * pt + b * p)
    _require(g.center_mask == want, g, "Z(G) = <x^p, y^p>")
    return g


def schmidt_gpqn(p: int, q: int, n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_p x| C_(q^(n-1)) with the generator acting by x -> x^m, m of order q mod p.

    Requires q | p - 1 and n >= 2; m is the smallest integer > 1 whose
    multiplicative order mod p is exactly q.
    """
    _require_prime(p, "p")
    _require_prime(q, "q")
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    if (p - 1) % q:
        hint = ""
        if (q - 1) % p == 0:
            hint = f"; parameters look swapped, try ({q},{p},{n})"
        raise InvalidParameter(f"q = {q} must divide p - 1 = {p - 1}{hint}")
    _check_cap(f"G({p},{q},{n})", order_cap, q, n - 1, factor=p)
    m = next(m for m in range(2, p) if is_order_mod_prime(q, m, p))
    return _metacyclic(f"G({p},{q},{n})", p, q ** (n - 1), m)


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, coefficients mod p."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            shift = i - dd
            for k in range(dd + 1):
                num[shift + k] = (num[shift + k] - c * den[k]) % p
    return num[:dd]


def _companion_action(p: int, q: int, r: int) -> list[list[int]]:
    """The action of C_q on C_p^r in `elementary_rtimes_cq`: element h acts as
    the h-th power of the companion matrix of the first (by ascending
    coefficient tuples, constant term first) monic degree-r divisor of
    1 + x + ... + x^(q-1) over F_p, on the base-p digits of each element."""
    phi = [1] * q  # 1 + x + ... + x^(q-1)
    factor = None
    for coeffs in product(range(p), repeat=r):
        cand = list(coeffs) + [1]
        if not any(_poly_rem(phi, cand, p)):
            factor = cand
            break
    if factor is None:
        raise StructureViolation(f"1 + x + ... + x^{q - 1} has no degree-{r} divisor over F_{p}")
    pr = p**r

    def apply_matrix(v: int) -> int:
        digits = [(v // p**k) % p for k in range(r)]
        top = digits[r - 1]
        new = [(-top * factor[0]) % p]
        for k in range(1, r):
            new.append((digits[k - 1] - top * factor[k]) % p)
        return sum(c * p**k for k, c in enumerate(new))

    step = [apply_matrix(v) for v in range(pr)]
    action = [list(range(pr))]
    for _ in range(1, q):
        action.append([step[v] for v in action[-1]])
    return action


def elementary_rtimes_cq(p: int, q: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_p^r x| C_q acting faithfully, r the multiplicative order of p mod q.

    The generator of C_q acts as the companion matrix of the first (by
    ascending coefficient tuples, constant term first) monic degree-r divisor
    of 1 + x + ... + x^(q-1) over F_p; any degree-r divisor is irreducible.
    """
    _require_prime(p, "p")
    _require_prime(q, "q")
    if p == q:
        raise InvalidParameter("p and q must be distinct primes")
    if q > order_cap:  # r may take q steps to find, and q * p^r is past the cap anyway
        raise OrderCapExceeded(f"SD({p},{q}) has order {q} * {p}^r, above the cap {order_cap}")
    r = multiplicative_order(p, q)
    _check_cap(f"SD({p},{q})", order_cap, p, r, factor=q)
    action = _companion_action(p, q, r)
    if any(action[j] == action[0] for j in range(1, q)):
        raise StructureViolation(f"SD({p},{q}): the action of C_{q} is not faithful")
    ea = elementary_abelian(p, r, order_cap=order_cap)
    g = semidirect_product(ea, cyclic(q, order_cap=order_cap), action, order_cap=order_cap)
    g.name = f"SD({p},{q})"
    return g


def c27_rtimes_q8(order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_27 x| Q(8): the index-2 cyclic subgroup <x> acts trivially, the rest invert."""
    n = cyclic(27, order_cap=order_cap)
    q8 = generalized_quaternion(8, order_cap=order_cap)
    ident = list(range(27))
    invert = [(-v) % 27 for v in range(27)]
    # q8 elements are pairs (i, j) at index i*2 + j; <x> is exactly j == 0
    action = [ident if h % 2 == 0 else invert for h in range(8)]
    g = semidirect_product(n, q8, action, order_cap=order_cap)
    g.name = "C27Q8"
    _require(g.order == 216, g, "order 216")
    return g


FAMILY_BUILDERS = {
    "C": (cyclic, 1),
    "EA": (elementary_abelian, 2),
    "D": (dihedral, 1),
    "Q": (generalized_quaternion, 1),
    "M": (modular_group, 2),
    "He": (heisenberg, 1),
    "G": (schmidt_gpqn, 3),
    "H": (h_pst, 3),
    "K": (k_pst, 3),
    "SD": (elementary_rtimes_cq, 2),
    "C27Q8": (c27_rtimes_q8, 0),
}
