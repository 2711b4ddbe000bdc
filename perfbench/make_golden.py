#!/usr/bin/env python3
"""Regenerate the golden answers in perfbench/golden/ from the current sources.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts every op whose answer differs from these files as failed.  It writes
every corpus report and per-suite check and antecedent counts (verify-all),
every big-specs pool report, and a digest of the output of every
(command, spec) pair that a cli-mix stream can issue.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dedekind import invariants, specs, verify  # noqa: E402
from workloads import (  # noqa: E402
    BIG_SPEC_STRATA,
    CACHED_COMMANDS,
    CLI_POOL_MAX_ORDER,
    GOLDEN_DIR,
    LARGE_LATTICES,
    cli_answer,
    cli_argv,
    cli_call,
    report_answer,
)


def write(name: str, data: dict) -> None:
    """One golden answer per line, so a changed answer is a one-line diff."""
    parts = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            body = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(value.items())
            )
            parts.append(f"{json.dumps(key)}: {{\n{body}\n }}")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n " + ",\n ".join(parts) + "\n}\n")
    print(f"wrote {name}.json")


def answer(command: str, spec: str) -> str:
    code, stdout = cli_call(cli_argv(command, spec, None))
    if code != 0:
        raise SystemExit(f"dedekind {command} {spec!r} exited {code}")
    return cli_answer(command, stdout)


def main() -> None:
    corpus = verify.build_corpus()
    stats = verify.compute_corpus_stats(corpus)
    suites = {}
    for name, suite in verify.SUITES.items():
        result = suite(corpus, stats)
        if not result.ok:
            raise SystemExit(f"suite {name} fails {result.failed} checks; not writing golden")
        suites[name] = {"checks": len(result.checks), "antecedents": result.antecedents}
    write("verify_all", {
        "reports": {spec: report_answer(r) for spec, r in stats.items()},
        "suites": suites,
    })

    big = {}
    for members in BIG_SPEC_STRATA.values():
        for spec in members:
            report = invariants.compute_report(
                specs.build_group(spec), spec=spec, want_d_star=True, allow_slow=True
            )
            big[spec] = report_answer(report)
    write("big_specs", {"reports": big})

    pool = [e.spec for e in corpus if e.group.order <= CLI_POOL_MAX_ORDER]
    outputs = {}
    for spec in pool:
        for command in CACHED_COMMANDS + ("lattice",):
            outputs[f"{command} {spec}"] = answer(command, spec)
    for spec in LARGE_LATTICES:
        outputs[f"lattice {spec}"] = answer("lattice", spec)
    write("cli_mix", {"pool": pool, "outputs": outputs})


if __name__ == "__main__":
    main()
