"""Per-layer tracing of dedekind from outside the package.

`Tracer.install()` rebinds the module-level names through which dedekind's
modules call each other (``invariants.d_star``, ``groups.quotient``,
``verify.SUITES[...]`` and so on) to wrappers that record one span per call.
Nothing under ``src/`` is edited: the wrappers replace every binding of the
original function object in every loaded ``dedekind`` module, and
``uninstall()`` puts the originals back.

Spans are kept in memory as (name, start, end, parent) tuples.  A span's
self time is its duration minus the time its child spans cover; calls are
strictly nested (one thread), so that is the total of the gaps between its
children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Nested span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, count: str | None = None):
        """A stand-in for fn that records a span, and bumps count if given."""

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def count_only(self, name: str, fn):
        """A stand-in for fn that bumps a counter and records no span."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def self_times(self, seconds) -> dict[str, float]:
        """Self time per span name, with seconds(start, end) giving durations.

        A span's self time is the sum of the gaps its children leave in it.
        """
        children: list[list[int]] = [[] for _ in self.spans]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            t = start
            for c in children[i]:
                out[name] += seconds(t, self.spans[c][1])
                t = self.spans[c][2]
            out[name] += seconds(t, end)
        return out

    # -- installation ------------------------------------------------------

    def _lattice_wrapper(self, subgroup_lattice):
        """Enumeration span with the conjugacy classes forced in a child span.

        A group caches its lattice, so only the call that builds it is traced.
        """

        def traced(g, *args, **kwargs):
            if g._lattice is not None:
                return g._lattice
            return self.call("lattice.enumerate", build, g, *args, **kwargs)

        def build(g, *args, **kwargs):
            lat = subgroup_lattice(g, *args, **kwargs)
            classes = self.call("lattice.classes", lambda: lat.classes)
            self.counts["lattice.subgroups"] += lat.size
            self.counts["lattice.classes"] += len(classes)
            return lat

        traced.__wrapped__ = subgroup_lattice
        return traced

    def install(self) -> None:
        """Rebind dedekind's cross-module call targets to traced wrappers."""
        # cli is imported only so that its bindings are loaded and rebound
        from dedekind import cli, groups, invariants, lattice, specs, verify  # noqa: F401

        replace = {
            lattice.subgroup_lattice: self._lattice_wrapper(lattice.subgroup_lattice),
            lattice.is_lattice_modular: self.wrap(
                "lattice.modular_scan", lattice.is_lattice_modular, "lattice.modular_scans"
            ),
            lattice.hasse_edges: self.wrap(
                "lattice.hasse_edges", lattice.hasse_edges, "lattice.hasse_edges"
            ),
            invariants.d_star: self.wrap("invariants.d_star", invariants.d_star),
            invariants.d_prime: self.count_only("invariants.d_prime_calls", invariants.d_prime),
            groups.quotient: self.wrap("groups.quotient", groups.quotient, "groups.quotient_calls"),
            groups.is_isomorphic: self.wrap(
                "groups.is_isomorphic", groups.is_isomorphic, "groups.is_isomorphic_calls"
            ),
            invariants.is_nilpotent: self.wrap("invariants.flags", invariants.is_nilpotent),
            invariants.has_modular_lattice: self.wrap(
                "invariants.flags", invariants.has_modular_lattice
            ),
            invariants.is_schmidt: self.wrap("invariants.flags", invariants.is_schmidt),
            invariants.compute_report: self.wrap(
                "invariants.report", invariants.compute_report, "invariants.reports"
            ),
            verify.build_corpus: self.wrap("verify.build_corpus", verify.build_corpus),
            verify.compute_corpus_stats: self.wrap("verify.stats", verify.compute_corpus_stats),
        }
        by_id = {id(fn): wrapper for fn, wrapper in replace.items()}
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "dedekind" or name.startswith("dedekind."))
        ]
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._rebind(module, name, wrapper)
        for name, fn in list(verify.SUITES.items()):
            self._restore.append((verify.SUITES, name, fn))
            verify.SUITES[name] = self.wrap(f"verify.suite.{name}", fn)
        build = self.wrap("specs.build_group", specs.GroupSpec.build)
        self._rebind(specs.GroupSpec, "build", build)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
