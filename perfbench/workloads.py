"""The three benchmark workloads and the golden answers they are checked against.

Each workload has `build()`, which makes fresh inputs (the part timed as
set-up), and `run(inputs, speed, tracer)`, which runs one pass over them and
returns a `PassResult`.  Durations are converted to reference seconds by
`speed` (a `hostspeed.HostSpeed`).  Every op's answer is compared with the committed golden
file, ignoring only the `ms` timing field, so a change that alters an exact
value counts as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from dedekind import cli, invariants, specs, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
TMP_ROOT = ROOT / ".perfbench_tmp"

_clock = time.perf_counter


@dataclass
class PassResult:
    """One pass of a workload.

    The timed phase of a pass is the sum of `op_ms` and `other_ms`; each list
    holds the same items in the same order in every pass of a run.  Latency
    percentiles are taken over `op_ms` only.
    """

    op_ms: list[float]  # latency of each op, in reference milliseconds
    other_ms: list[float]  # the rest of the timed phase, in parts
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (sum(self.op_ms) + sum(self.other_ms)) / 1000


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_answer(report) -> dict:
    """An InvariantReport as JSON, minus the `ms` timing field."""
    data = report.to_json_dict()
    del data["ms"]
    return data


def _log_failure(what: str) -> None:
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll:
    """`dedekind verify all` after the corpus is built: corpus stats + 13 suites.

    The corpus is fixed, so the seed is ignored.  The pass reuses the corpus
    built in set-up, so the lattices cached on its groups are shared between
    the stats and the suites exactly as `dedekind verify` shares them.
    Ops are the 433 corpus reports and every suite check; op latency is
    measured on the reports.
    """

    name = "verify-all"
    nominal_pass_s = 30.0

    def __init__(self, seed: int):
        self.golden = load_golden("verify_all")

    def build(self):
        return verify.build_corpus()

    def discard(self, corpus) -> None:
        pass

    def run(self, corpus, speed, tracer=None) -> PassResult:
        op_ms: list[float] = []
        real = verify.compute_report

        def timed(*args, **kwargs):
            start = _clock()
            try:
                return real(*args, **kwargs)
            finally:
                op_ms.append(speed.seconds(start, _clock()) * 1000)

        results: dict = {}
        start = _clock()
        verify.compute_report = timed
        try:
            stats = verify.compute_corpus_stats(corpus)
        except Exception:
            _log_failure("compute_corpus_stats")
            stats = None
        finally:
            verify.compute_report = real
        # the stats' own time outside the reports, then one part per suite
        other_ms = [speed.seconds(start, _clock()) * 1000 - sum(op_ms)]
        for name, suite in verify.SUITES.items():
            start = _clock()
            try:
                results[name] = suite(corpus, stats) if stats is not None else None
            except Exception:
                _log_failure(f"suite {name}")
            other_ms.append(speed.seconds(start, _clock()) * 1000)

        attempted, failed = self.score(stats, results)
        checks = sum(len(r.checks) for r in results.values() if r is not None)
        return PassResult(op_ms, other_ms, attempted, failed, {"checks": checks})

    def score(self, stats, results) -> tuple[int, int]:
        """(attempted, failed) ops against the golden answers."""
        golden_reports = self.golden["reports"]
        golden_suites = self.golden["suites"]
        attempted = len(golden_reports) + sum(s["checks"] for s in golden_suites.values())
        failed = 0
        stats = stats or {}
        for spec, want in golden_reports.items():
            got = stats.get(spec)
            if got is None or report_answer(got) != want:
                failed += 1
        failed += len(set(stats) - set(golden_reports))
        for name, want in golden_suites.items():
            got = results.get(name)
            if (
                got is None
                or len(got.checks) != want["checks"]
                or got.antecedents != want["antecedents"]
            ):
                failed += want["checks"]
            else:
                failed += got.failed
        return attempted, failed


# ---------------------------------------------------------------------------
# big-specs

# One stratum per layer that dominates its members' reports.
BIG_SPEC_STRATA = {
    "enumeration": ("D(256)", "SD(3,13)", "M(2,9)"),
    "modular-scan": ("D(8) x EA(2,3)", "H(2,3,3) x C(3)", "K(2,3,2) x C(2) x C(3)"),
    "d*": ("H(3,2,2)", "C27Q8", "He(5) x C(3)"),
}


class BigSpecs:
    """One cold `compute_report(g, want_d_star=True, allow_slow=True)` per large group.

    This is what `dedekind info --allow-slow` does on a cache miss, without
    the CLI and its cache.  A pass takes every spec of the pool, three from
    each stratum, so its work is the same for every seed; the seed is
    ignored because the only thing left for it to draw, the order, changes
    which groups are alive at the memory peak.  Groups are built fresh for
    every pass, so no cached lattice, induced subgroup or cached property
    carries over between passes.  The timed phase is the sum of the reports.
    """

    name = "big-specs"
    nominal_pass_s = 12.0

    def __init__(self, seed: int):
        self.golden = load_golden("big_specs")
        self.order = [spec for members in BIG_SPEC_STRATA.values() for spec in members]

    def build(self):
        return [(spec, specs.build_group(spec)) for spec in self.order]

    def discard(self, groups) -> None:
        pass

    def run(self, groups, speed, tracer=None) -> PassResult:
        """Report on each group in turn, dropping it (and its lattice) after."""
        op_ms: list[float] = []
        failed = 0
        attempted = len(groups)
        while groups:
            spec, g = groups.pop(0)
            start = _clock()
            try:
                report = invariants.compute_report(g, spec=spec, want_d_star=True, allow_slow=True)
            except Exception:
                _log_failure(spec)
                report = None
            op_ms.append(speed.seconds(start, _clock()) * 1000)
            if report is None or report_answer(report) != self.golden["reports"][spec]:
                failed += 1
        return PassResult(op_ms, [], attempted, failed)


# ---------------------------------------------------------------------------
# cli-mix

# The pool is every corpus spec up to this order; the heavier order-101..128
# specs would double a pass's compute without adding anything the cli and
# cache layers do differently.
CLI_POOL_MAX_ORDER = 100
# Specs whose lattices are large enough for `hasse_edges` to dominate a call.
LARGE_LATTICES = ("EA(2,6)", "D(8) x EA(2,3)", "EA(2,5)")
REPEATS = 600  # Zipf-drawn cached calls on top of two calls per pool spec
ZIPF_S = 1.1
CACHED_COMMANDS = ("info", "dprime", "dstar")


def cli_argv(command: str, spec: str, cache_path: str | None) -> list[str]:
    argv = [command, spec, "--json"]
    if command in CACHED_COMMANDS:
        argv += ["--cache-path", cache_path] if cache_path else ["--no-cache"]
    return argv


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run `dedekind <argv>` in process; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            code = 1
    if code != 0:
        print(f"op failed: dedekind {' '.join(argv)} exited {code}: {err.getvalue()}",
              file=sys.stderr)
    return code, out.getvalue()


def cli_answer(command: str, stdout: str) -> str:
    """Digest of a call's stdout, with `ms` zeroed in `info --json` output."""
    if command == "info":
        data = json.loads(stdout)
        data["ms"] = 0
        stdout = json.dumps(data, indent=2) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()[:32]


def _root_cache_state():
    path = ROOT / cli.DEFAULT_CACHE_PATH
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return (st.st_size, st.st_mtime_ns)


class CliMix:
    """A closed-loop client issuing in-process `cli.main` calls.

    The stream has one info/dprime/dstar call and one `lattice --json` call
    per pool spec, one `lattice --json` call per large lattice, and
    Zipf-distributed repeats of the cached commands.  So whatever the seed,
    each pass misses the cache exactly once per pool spec and draws every
    lattice once; the seed sets the order and which specs repeat.  A pass
    starts from an empty cache file in a fresh temporary directory and never
    touches the tracked cache at the repository root; if that file changes
    anyway, every op counts as failed.
    """

    name = "cli-mix"
    nominal_pass_s = 12.0

    def __init__(self, seed: int):
        self.golden = load_golden("cli_mix")
        pool = list(self.golden["pool"])
        rng = random.Random(seed)
        ranked = pool[:]
        rng.shuffle(ranked)
        weights = [1 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
        stream = [(rng.choice(CACHED_COMMANDS), spec) for spec in pool]
        stream += [("lattice", spec) for spec in pool + list(LARGE_LATTICES)]
        stream += zip(
            rng.choices(CACHED_COMMANDS, k=REPEATS),
            rng.choices(ranked, weights, k=REPEATS),
        )
        rng.shuffle(stream)
        self.stream = stream

    def build(self):
        TMP_ROOT.mkdir(exist_ok=True)
        return tempfile.mkdtemp(prefix="cli-mix-", dir=TMP_ROOT)

    def discard(self, cache_dir) -> None:
        shutil.rmtree(cache_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    def run(self, cache_dir, speed, tracer=None) -> PassResult:
        cache_path = os.path.join(cache_dir, "cache.json")
        root_before = _root_cache_state()
        op_ms: list[float] = []
        hit_ms: list[float] = []
        miss_ms: list[float] = []
        failed = 0
        try:
            for command, spec in self.stream:
                computed = tracer.counts["invariants.reports"] if tracer else 0
                t0 = _clock()
                code, stdout = cli_call(cli_argv(command, spec, cache_path))
                ms = speed.seconds(t0, _clock()) * 1000
                op_ms.append(ms)
                if tracer and command in CACHED_COMMANDS:
                    miss = tracer.counts["invariants.reports"] > computed
                    (miss_ms if miss else hit_ms).append(ms)
                try:
                    ok = code == 0 and (
                        cli_answer(command, stdout) == self.golden["outputs"][f"{command} {spec}"]
                    )
                except (ValueError, KeyError):
                    ok = False
                failed += not ok
            cache_bytes = os.path.getsize(cache_path) if os.path.exists(cache_path) else 0
        finally:
            self.discard(cache_dir)
        if _root_cache_state() != root_before:
            print("the tracked root cache file changed during cli-mix", file=sys.stderr)
            failed = len(self.stream)
        extra = {"hit_ms": hit_ms, "miss_ms": miss_ms, "cache_bytes": cache_bytes}
        return PassResult(op_ms, [], len(self.stream), failed, extra)


WORKLOADS = {w.name: w for w in (VerifyAll, BigSpecs, CliMix)}
