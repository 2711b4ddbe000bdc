"""Exact subgroup-lattice closeness ratios for finite groups.

d'(G) = k'(G) / |L(G)| compares the number of conjugacy classes of subgroups
against the number of subgroups, so d' = 1 exactly for the groups in which
every subgroup is normal; d*(G) minimizes d' over all sections H/K of G.
This package builds group families from explicit multiplication tables,
enumerates subgroup lattices exactly over rational arithmetic, and verifies
the closed formulas, classifications, and threshold theorems these ratios
satisfy on a deterministic corpus of groups.

The package exports the names below; everything else is imported from its
submodule (`dedekind.groups`, `dedekind.lattice`, `dedekind.invariants`,
`dedekind.verify`, ...).
"""

__version__ = "0.1.0"

from .errors import DedekindError
from .invariants import compute_report, d_prime, d_star
from .lattice import subgroup_lattice
from .specs import build_group

__all__ = [
    "__version__",
    "DedekindError",
    "build_group",
    "compute_report",
    "d_prime",
    "d_star",
    "subgroup_lattice",
]
