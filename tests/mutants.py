"""Mutants of the source and the tests that must kill them.

Each record names one deliberate fault: in the file at `path`, the text `old`
(which must occur there exactly once) replaced by `new`.  With the fault in
place, running the tests `killed_by` (pytest node ids) must fail.
`tests/run_mutants.py` applies each mutant to a copy of the tree and runs its
tests; Tier-1 checks only that each `old` still occurs once and that each id
names a test.  A mutant that survives stays in the table, so the runner keeps
reporting it until a test kills it.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: tuple[str, ...]


COPRIME_PRODUCTS = "tests/test_lattice.py::test_coprime_products_match_cyclic_extension"

MUTANTS = [
    Mutant(
        "direct_product records blocks that are not runs of adjacent parts",
        "src/dedekind/groups.py",
        "if len(blocks) > 1 and all(b[-1] - b[0] == len(b) - 1 for b in blocks):",
        "if len(blocks) > 1:",
        (COPRIME_PRODUCTS,),
    ),
    Mutant(
        "a block's w taken from its first part",
        "src/dedekind/groups.py",
        "parts[b[-1]][1]",
        "parts[b[0]][1]",
        (
            COPRIME_PRODUCTS,
            "tests/test_specs_cli.py::test_lattice_and_sections_output_is_pinned[C(3) x K(2,3,2) x C(2)]",
        ),
    ),
    Mutant(
        "no block's masks are spread to the product's elements",
        "src/dedekind/lattice.py",
        "        if w > 1:\n",
        "        if False:\n",
        (COPRIME_PRODUCTS,),
    ),
    Mutant(
        "coprime_blocks joins only the first block that shares a prime",
        "src/dedekind/groups.py",
        "joined = [b for b in blocks if gcd(n, prod(orders[j] for j in b)) > 1]",
        "joined = [b for b in blocks if gcd(n, prod(orders[j] for j in b)) > 1][:1]",
        ("tests/test_groups.py::test_coprime_blocks_group_the_atoms_that_share_a_prime",),
    ),
    Mutant(
        "the nilpotency suite's odd-order check reads the nilpotent flag",
        "src/dedekind/verify.py",
        '                r.flags["iwasawa"],\n                f"Sylow primes',
        '                r.flags["nilpotent"],\n                f"Sylow primes',
        ("tests/test_verify.py::test_the_nilpotency_suite_reads_the_iwasawa_flag",),
    ),
    Mutant(
        "the up-set reduction leaves each cover's own bit set",
        "src/dedekind/lattice.py",
        "rest &= ~(lat.up(j) | 1 << j)",
        "rest &= ~lat.up(j)",
        ("tests/test_lattice.py::test_the_up_set_reduction_ends_when_up_lacks_the_subgroup",),
    ),
    Mutant(
        "the modular walk skips the dual half for every group",
        "src/dedekind/lattice.py",
        "    if lat.is_nilpotent(lat.size - 1):\n        return None\n",
        "    if True:\n        return None\n",
        ("tests/test_lattice.py::test_modularity_walks_covers_without_the_edge_list[C(5) x| C(4)-witness4]",),
    ),
]
