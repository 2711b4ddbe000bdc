"""Exception types shared across the package."""


class DedekindError(Exception):
    """Base class for all package errors."""


class InvalidParameter(DedekindError, ValueError):
    """A constructor or operation received parameters outside its domain."""


class OrderCapExceeded(DedekindError):
    """A construction would produce a group larger than the order cap."""


class LatticeBudgetExceeded(DedekindError):
    """Subgroup enumeration passed the configured subgroup-count budget."""


class IsoCapExceeded(DedekindError):
    """Isomorphism search was requested above the configured order cap."""


class NotNormal(DedekindError):
    """Quotient construction was attempted by a non-normal subgroup."""


class NotAnAutomorphism(DedekindError):
    """A semidirect-product action map fails the automorphism axioms."""


class NotAnAction(DedekindError):
    """A semidirect-product action is not a homomorphism into Aut(N)."""


class StructureViolation(DedekindError):
    """A structural check (e.g. on a Schmidt group) found a failing clause."""


class BudgetExhausted(DedekindError):
    """An iterative search ran out of its configured budget."""


class ParseError(DedekindError, ValueError):
    """A group-spec string could not be parsed; the message names the offset."""
