"""Apply each mutant of `tests/mutants.py` to a copy of the tree and run the
tests that must kill it.

    python3 tests/run_mutants.py

For each mutant the tree is copied, without `.git` and caches, to a
temporary directory; the mutant's old text, which must occur exactly once in
its file, is replaced there, and `python -m pytest -x -q -p no:cacheprovider
<ids>` runs in the copy with PYTHONPATH=src.  The child runs under an
address-space limit and a CPU-time limit, and the runner stops it after a
wall-clock timeout, so a mutant that makes a test run away is stopped.  Such
a mutant counts as killed, and the report says which limit killed it.
First the unmutated copy must pass every named test under the same limits.
Nothing is written inside the tree.  The exit status is 0 only if every
mutant is killed.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_BYTES = 1 << 30
CPU_SECONDS = 120
WALL_SECONDS = 300
UNCOPIED = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".dedekind_cache", ".perfbench_tmp"
)


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    # SIGXCPU at the soft limit; the kernel sends SIGKILL at the hard one
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS + 5))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_mutant(m: Mutant | None, ids: tuple[str, ...]) -> tuple[str, str]:
    """The verdict on mutant m (the unmutated tree if None) under the tests
    `ids`, and the tail of their pytest output.

    The verdict is "killed", "killed by <limit>", "SURVIVED", or "ERROR" when
    pytest found no test to run (exit status 4 or 5)."""
    with tempfile.TemporaryDirectory(prefix="dedekind-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=UNCOPIED)
        if m is not None:
            target = copy / m.path
            text = target.read_text()
            found = text.count(m.old)
            if found != 1:
                return "ERROR", f"the old text occurs {found} times in {m.path}, not once"
            target.write_text(text.replace(m.old, m.new))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
        try:
            proc = subprocess.run(
                cmd, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=WALL_SECONDS, preexec_fn=_limit_child,
            )
        except subprocess.TimeoutExpired:
            return f"killed by the {WALL_SECONDS} s wall-clock limit", ""
    tail = "\n".join(proc.stdout.splitlines()[-15:])
    code = proc.returncode
    if code == 0:
        return "SURVIVED", tail
    if code in (4, 5):
        return "ERROR", tail
    if "MemoryError" in proc.stdout:
        return f"killed by the {ADDRESS_SPACE_BYTES >> 20} MiB address-space limit", tail
    if code == -signal.SIGXCPU:
        return f"killed by the {CPU_SECONDS} s CPU-time limit", tail
    if code < 0:
        return f"killed by {signal.Signals(-code).name}", tail
    return "killed", tail


def main() -> int:
    # the named tests must pass on the unmutated tree under the same limits,
    # or a failure under a mutant says nothing about the mutant
    every_id = tuple(dict.fromkeys(i for m in MUTANTS for i in m.killed_by))
    verdict, tail = run_mutant(None, every_id)
    if verdict != "SURVIVED":
        print(f"the unmutated tree fails its tests ({verdict}):\n{tail}")
        return 1
    verdicts = []
    for m in MUTANTS:
        start = time.monotonic()
        verdict, tail = run_mutant(m, m.killed_by)
        verdicts.append(verdict)
        print(f"{verdict:<44} {time.monotonic() - start:6.1f} s  {m.name}", flush=True)
        if not verdict.startswith("killed"):
            print(tail, flush=True)
    killed = sum(v.startswith("killed") for v in verdicts)
    by_limit = sum(v.startswith("killed by") for v in verdicts)
    print(f"{killed} of {len(MUTANTS)} mutants killed, {by_limit} of them by a limit")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
