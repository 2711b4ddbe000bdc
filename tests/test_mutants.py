"""The cheap half of the mutant table's checks; `tests/run_mutants.py` applies
the mutants and runs the tests that must kill them."""

import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_replaces_text_that_occurs_once():
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name


def test_each_mutant_names_tests_that_exist():
    ids = sorted({i for m in MUTANTS for i in m.killed_by})
    assert all(m.killed_by for m in MUTANTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(line for line in proc.stdout.splitlines() if "::" in line) == ids
