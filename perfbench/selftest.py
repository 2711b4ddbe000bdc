#!/usr/bin/env python3
"""Check that the benchmark's answer checks catch a wrong answer.

    python3 perfbench/selftest.py

For each workload, ops computed at the current sources must match the golden
answers, and the same ops scored against a golden file with one corrupted
value must count as failed.  Also checks that BENCHMARK.json names exactly
the metrics that run.py prints.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dedekind import invariants, specs  # noqa: E402
from dedekind.invariants import InvariantReport  # noqa: E402
from dedekind.verify import SUITES, Check, SuiteResult  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS, BigSpecs, CliMix, VerifyAll  # noqa: E402


class WallClock:
    """Stands in for HostSpeed: plain wall seconds."""

    def seconds(self, start: float, end: float) -> float:
        return end - start


def expect(what: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"selftest FAILED: {what}: got {got!r}, want {want!r}")
    print(f"ok: {what}")


def check_verify_all() -> None:
    wl = VerifyAll(seed=0)
    golden = wl.golden
    computed = invariants.compute_report(specs.build_group("D(8)"), spec="D(8)")
    expect("a computed corpus report matches its golden answer",
           computed.to_json_dict() | {"ms": 0}, golden["reports"]["D(8)"] | {"ms": 0})
    stats = {
        spec: InvariantReport.from_json_dict(answer | {"ms": 0})
        for spec, answer in golden["reports"].items()
    }
    results = {
        name: SuiteResult(name, [Check(f"check {i}", True) for i in range(want["checks"])],
                          dict(want["antecedents"]))
        for name, want in golden["suites"].items()
    }
    expect("golden verify-all answers score no failures", wl.score(stats, results)[1], 0)
    wl.golden = copy.deepcopy(golden)
    wl.golden["reports"]["D(8)"]["k_prime"] += 1
    expect("a corrupted corpus report counts one failure", wl.score(stats, results)[1], 1)
    wl.golden = copy.deepcopy(golden)
    name, want = next(iter(golden["suites"].items()))
    key = next(iter(want["antecedents"]))
    wl.golden["suites"][name]["antecedents"][key] += 1
    expect("a corrupted antecedent count fails the whole suite",
           wl.score(stats, results)[1], want["checks"])


def check_big_specs() -> None:
    wl = BigSpecs(seed=0)
    groups = [("He(5) x C(3)", specs.build_group("He(5) x C(3)"))]
    expect("a big-specs report matches its golden answer", wl.run(groups, WallClock()).failed, 0)
    wl.golden = copy.deepcopy(wl.golden)
    wl.golden["reports"]["He(5) x C(3)"]["d_star"]["num"] += 1
    groups = [("He(5) x C(3)", specs.build_group("He(5) x C(3)"))]
    expect("a corrupted big-specs d* counts one failure", wl.run(groups, WallClock()).failed, 1)


def check_cli_mix() -> None:
    wl = CliMix(seed=0)
    wl.stream = [("info", "C(4)"), ("dstar", "D(8)"), ("info", "C(4)"), ("lattice", "D(8)")]
    expect("cli-mix outputs match their golden digests", wl.run(wl.build(), WallClock()).failed, 0)
    wl.golden = copy.deepcopy(wl.golden)
    wl.golden["outputs"]["info C(4)"] = "0" * 32
    expect("a corrupted cli-mix digest fails both calls that print it",
           wl.run(wl.build(), WallClock()).failed, 2)


def check_benchmark_json() -> None:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect("BENCHMARK.json end_to_end names match run.py",
           {m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
    expect("BENCHMARK.json per_layer names match run.py",
           {m["name"]: m["unit"] for m in bench["per_layer"]},
           {name: unit for name, (unit, _) in run.PER_LAYER.items()})
    expect("BENCHMARK.json workloads match run.py",
           tuple(w["name"] for w in bench["workloads"]), run.WORKLOAD_NAMES)
    expect("run.py workloads match workloads.py", tuple(WORKLOADS), run.WORKLOAD_NAMES)
    expect("run.py suite names match verify.SUITES", tuple(SUITES), run.SUITE_NAMES)


if __name__ == "__main__":
    check_verify_all()
    check_big_specs()
    check_cli_mix()
    check_benchmark_json()
    print("selftest passed")
