#!/usr/bin/env python3
"""Benchmark for dedekind: one workload per run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 12 --trace 0

Workloads: verify-all, big-specs, cli-mix (see perfbench/README.md).  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of one traced pass, plus the tracing overhead
against one untraced pass of the same run.  The last line of standard output
is the JSON result; the lines before it give the run conditions and the
metrics under the names used in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verify-all", "big-specs", "cli-mix")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

SUITE_NAMES = (
    "formulas", "one-class", "schmidt-structure", "self-dual", "ratio-equality",
    "modularity", "nilpotency", "iwasawa", "dedekind-threshold", "hk-sections",
    "extremal-values", "density", "consistency",
)

# per-layer metric -> (unit, span name whose self time it is, or None)
PER_LAYER = {
    "specs.build_group_s": ("s", "specs.build_group"),
    "verify.build_corpus_s": ("s", "verify.build_corpus"),
    "lattice.enumerate_s": ("s", "lattice.enumerate"),
    "lattice.subgroups": ("count", None),
    "lattice.classes_s": ("s", "lattice.classes"),
    "lattice.classes": ("count", None),
    "lattice.modular_scan_s": ("s", "lattice.modular_scan"),
    "lattice.modular_scans": ("count", None),
    "lattice.hasse_edges_s": ("s", "lattice.hasse_edges"),
    "lattice.hasse_edges": ("count", None),
    "invariants.d_star_s": ("s", "invariants.d_star"),
    "invariants.d_prime_calls": ("count", None),
    "groups.quotient_s": ("s", "groups.quotient"),
    "groups.quotient_calls": ("count", None),
    "groups.is_isomorphic_s": ("s", "groups.is_isomorphic"),
    "groups.is_isomorphic_calls": ("count", None),
    "invariants.d_star.evaluated_frac": ("ratio", None),
    "invariants.flags_s": ("s", "invariants.flags"),
    "invariants.report_s": ("s", "invariants.report"),
    "verify.stats_s": ("s", "verify.stats"),
    **{f"verify.suite.{n}_s": ("s", f"verify.suite.{n}") for n in SUITE_NAMES},
    "verify.checks": ("count", None),
    "cli.hit_ms_p50": ("ms", None),
    "cli.miss_ms_p50": ("ms", None),
    "cli.cache_hit_frac": ("ratio", None),
    "cli.cache_bytes": ("bytes", None),
    "trace.spans": ("count", None),
    "trace.overhead_s": ("s", None),
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[8]


def import_seconds(speed) -> float:
    """Median time to import dedekind and its CLI, each time from scratch.

    The package is dropped from `sys.modules` before every import, so its
    modules run again; the interpreter and the standard library stay loaded,
    so the first, colder import is outvoted by the median.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "dedekind" or m.startswith("dedekind.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("dedekind")
        importlib.import_module("dedekind.cli")
        times.append(speed.seconds(start, time.perf_counter()))
    return median(times)


def conditions(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def setup(workload, speed):
    """Build the workload's inputs SETUP_REPEATS times; (last inputs, median seconds)."""
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            workload.discard(inputs)
        start = time.perf_counter()
        inputs = workload.build()
        times.append(speed.seconds(start, time.perf_counter()))
    return inputs, median(times)


def measure(workload, inputs, seconds: float, speed) -> list:
    """As many whole passes as fit `seconds` at the workload's nominal pass length.

    The count depends on `seconds` only, never on how fast the passes run,
    so two commits measured with the same `seconds` do the same work.
    """
    passes = []
    for i in range(max(1, round(seconds / workload.nominal_pass_s))):
        start = time.perf_counter()
        passes.append(workload.run(inputs if i == 0 else workload.build(), speed))
        print(f"pass {i + 1}: {time.perf_counter() - start:.3f} s wall, "
              f"{passes[-1].seconds:.3f} s reference")
    return passes


def fastest(passes) -> tuple[list[float], list[float]]:
    """Each op's and each other part's fastest time over the passes of a run.

    Other tenants of the host slow it down in episodes of a few seconds; the
    fastest of several passes far apart in time is the sample least touched
    by them.
    """
    ops = [min(times) for times in zip(*(p.op_ms for p in passes))]
    other = [min(times) for times in zip(*(p.other_ms for p in passes))]
    return ops, other


def end_to_end(workload, passes, setup_s: float) -> tuple[dict, int, int]:
    ops, other = fastest(passes)
    pass_s = (sum(ops) + sum(other)) / 1000
    values = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "op_ms_p50": median(ops),
        "op_ms_p90": p90(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # the same figures under the names of the per-workload metrics
    named = {"setup_s": f"{setup_s:.4f} s", "peak_rss_mb": f"{values['peak_rss_mb']:.1f} MB"}
    if workload.name == "verify-all":
        named["verify_s"] = f"{values['pass_s']:.4f} s"
    elif workload.name == "big-specs":
        named["reports_s"] = f"{values['pass_s']:.4f} s"
    else:
        named["call_ms_p50"] = f"{values['op_ms_p50']:.4f} ms"
        named["call_ms_p90"] = f"{values['op_ms_p90']:.4f} ms"
        named["calls_per_s"] = f"{len(ops) / pass_s:.2f} 1/s"
    named["ops_failed_frac"] = f"{failed / attempted:.6f} ({failed}/{attempted})"
    named["timed_ops"] = f"{len(ops)} per pass, fastest of {len(passes)} pass(es) each"
    for key, text in named.items():
        print(f"{key} = {text}")
    return values, attempted, failed


def per_layer(untraced, traced, tracer, speed) -> dict:
    self_s = tracer.self_times(speed.seconds)
    counts = tracer.counts
    values = {}
    for name, (unit, span) in PER_LAYER.items():
        if span is not None:
            values[name] = self_s.get(span, 0.0)
        elif unit == "count":
            values[name] = counts.get(name, 0)
    quotients = counts.get("groups.quotient_calls", 0)
    values["invariants.d_star.evaluated_frac"] = (
        counts.get("invariants.d_prime_calls", 0) / quotients if quotients else 0.0
    )
    values["verify.checks"] = traced.extra.get("checks", 0)
    hits, misses = traced.extra.get("hit_ms", []), traced.extra.get("miss_ms", [])
    values["cli.hit_ms_p50"] = median(hits)
    values["cli.miss_ms_p50"] = median(misses)
    values["cli.cache_hit_frac"] = len(hits) / (len(hits) + len(misses)) if hits or misses else 0.0
    values["cli.cache_bytes"] = traced.extra.get("cache_bytes", 0)
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_s"] = traced.seconds - untraced.seconds
    print(f"traced pass {traced.seconds:.4f} s, untraced pass {untraced.seconds:.4f} s, "
          f"tracing overhead {values['trace.overhead_s']:.4f} s over {len(tracer.spans)} spans")
    for name, value in values.items():
        print(f"{name} = {value} {PER_LAYER[name][0]}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dedekind" / "__init__.py").is_file():
        print(f"error: no dedekind sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostspeed import REFERENCE_KERNEL_S, HostSpeed

    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    print("conditions = " + json.dumps(conditions(args)))
    speed = HostSpeed()
    speed.start()
    try:
        import_s = import_seconds(speed)
        from tracing import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        inputs, build_s = setup(workload, speed)
        setup_s = import_s + build_s

        if args.trace == 0:
            passes = measure(workload, inputs, args.seconds, speed)
            metrics, attempted, failed = end_to_end(workload, passes, setup_s)
            units = END_TO_END
        else:
            untraced = workload.run(inputs, speed)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(workload.build(), speed, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(untraced, traced, tracer, speed)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    finally:
        speed.stop()
    kernel_ms = [(e - s) * 1000 for s, e in zip(speed.starts, speed.ends)]
    print(f"host_speed = reference kernel {median(kernel_ms):.3f} ms median over "
          f"{len(kernel_ms)} samples (min {min(kernel_ms):.3f}, max {max(kernel_ms):.3f}; "
          f"{REFERENCE_KERNEL_S * 1000:.3f} ms unloaded)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
