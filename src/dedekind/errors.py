"""Exception types shared across the package.

Each class carries the exit status `dedekind` returns when it escapes a
command, as `exit_code`; a subclass inherits its parent's unless it sets one.
"""


class DedekindError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InvalidParameter(DedekindError, ValueError):
    """A constructor or operation received parameters outside its domain."""


class OrderCapExceeded(DedekindError):
    """A construction would produce a group larger than the order cap."""

    exit_code = 4


class LatticeBudgetExceeded(DedekindError):
    """Subgroup enumeration passed the configured subgroup-count budget."""

    exit_code = 4


class IsoCapExceeded(DedekindError):
    """Isomorphism search was requested above DEFAULT_ISO_CAP."""

    exit_code = 4


class NotNormal(DedekindError):
    """Quotient construction was attempted by a non-normal subgroup."""


class NotAnAutomorphism(DedekindError):
    """A semidirect-product action map fails the automorphism axioms."""


class NotAnAction(DedekindError):
    """A semidirect-product action is not a homomorphism into Aut(N)."""


class StructureViolation(DedekindError):
    """A structural check (e.g. on a Schmidt group) found a failing clause."""


class BudgetExhausted(DedekindError):
    """A search ran past its budget: the rho steps of a factorization, the range
    where Miller-Rabin is exact, the odd primes of a density sequence
    (DENSITY_PRIME_BUDGET by default), or Python's int-to-str digit limit."""

    exit_code = 4


class ParseError(DedekindError, ValueError):
    """A group-spec string could not be parsed; the message names the offset."""

    exit_code = 2
