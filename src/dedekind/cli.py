"""Command-line front end.

Subcommands parse a group spec such as "M(2,5)" or "C(3) x D(8)", run the
requested computation, and print either a human-readable table or, with
--json, a machine format with a fixed key order so identical invocations
produce byte-identical output.  Invariant reports are cached in a local
directory, one file per spec written by an atomic rename: a sha256 line,
then the JSON entry.  An entry is served only when that line matches the
bytes after it, its engine revision (the package version plus a hash of the
package's module sources) is this one, and its spec is the requested one;
any other entry is recomputed.  A cold report of a product whose atoms fall
into two or more blocks of pairwise coprime order (`groups.coprime_blocks`)
is combined from the blocks' reports (`invariants.coprime_product_report`),
each read from the cache or computed and cached under the block's own spec,
so no lattice of the product is built.  Verification failures, parameter
errors, and budget caps map to distinct exit codes.  The argument parser is
built on the first `main` call and reused by every later call in the process.

`lattice --json` is written row by row, one f-string per subgroup record and
per cover edge, and gives the same bytes as `json.dumps(..., indent=2)` of
the document.  The stdlib encoder has no C path when `indent` is set, and
its pure-Python encoder cost as much as building the group and its lattice;
every other `--json` output keeps `json.dumps`.  The document is streamed to
stdout, the subgroup records in one chunk and the edges in one chunk per
upper subgroup, so the whole text is never held at once.

Exit codes: 0 success, 5 verification failure, and for a package error the
`exit_code` its class in `errors` carries: 2 spec parse error, 3 invalid
parameter or structure (`StructureViolation` too), 4 order/budget/isomorphism
cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import threading
from collections.abc import Iterator
from contextlib import suppress
from fractions import Fraction
from math import prod

from . import __version__
from .errors import BudgetExhausted, DedekindError, InvalidParameter, OrderCapExceeded
from .families import FAMILY_BUILDERS
from .formulas import (
    DENSITY_PRIME_BUDGET,
    d_prime_dihedral_formula,
    d_prime_heisenberg_formula,
    d_prime_modular_formula,
    d_prime_schmidt_formula,
    d_prime_schmidt_section_formula,
    density_sequence,
    gaussian_binomial,
)
from .groups import DEFAULT_ORDER_CAP, coprime_blocks
from .invariants import (
    DSTAR_ORDER_LIMIT,
    InvariantReport,
    compute_report,
    coprime_product_report,
    d_star_in_reach,
    sections,
)
from .lattice import hasse_edges, subgroup_lattice
from .numbertheory import is_order_mod_prime, is_prime
from .specs import GroupSpec, parse_spec
from .verify import list_corpus, run_suites, SUITES

DEFAULT_CACHE_PATH = ".dedekind_cache"
_CACHE_PATH_HELP = f"cache directory, one file per report (default {DEFAULT_CACHE_PATH})"


# ---------------------------------------------------------------------------
# cache

@functools.cache
def engine_revision() -> str:
    """The package version plus a short sha256 of its module sources, sorted by name.

    Computed on the first cache access, not at import, so a process that never
    reads or writes the cache never pays for it.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            source = fh.read()
        digest.update(f"{name}\0{len(source)}\0".encode())
        digest.update(source)
    return f"{__version__}+{digest.hexdigest()[:12]}"


def _entry_path(cache_dir: str, spec: str) -> str:
    """The file that holds the cached report for a canonical spec."""
    return os.path.join(cache_dir, hashlib.sha256(spec.encode()).hexdigest()[:32] + ".json")


def _cache_get(cache_dir: str, spec: str) -> InvariantReport | None:
    """The cached report for spec, if its entry passes three checks, else None.

    The entry's first line must be the sha256 of the bytes after it (the
    entry is as it was written), its engine must be this engine revision, and
    its spec must be the requested one.
    """
    try:
        with open(_entry_path(cache_dir, spec), "rb") as fh:
            digest, _, body = fh.read().partition(b"\n")
        if digest != hashlib.sha256(body).hexdigest().encode():
            return None
        hit = json.loads(body)
        if hit["engine"] != engine_revision() or hit["spec"] != spec:
            return None
        return InvariantReport.from_json_dict(hit["report"])
    except (OSError, KeyError, TypeError, ValueError):
        return None


def _cache_put(cache_dir: str, report: InvariantReport) -> None:
    """Store report in its own entry file; on any OSError, cache nothing.

    The entry is the sha256 of its JSON body on one line, then that body.
    It is written to a temp file whose name is unique to this process and
    thread, then renamed onto the entry path.  A rename is atomic and no
    writer reads what another wrote, so no lock is needed: two writers of one
    spec store equal reports, and the last rename wins.
    """
    path = _entry_path(cache_dir, report.spec)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    entry = {
        "spec": report.spec,
        "engine": engine_revision(),
        "report": report.to_json_dict(),
    }
    body = (json.dumps(entry, indent=2, sort_keys=True) + "\n").encode()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
        os.replace(tmp, path)
    except OSError:
        with suppress(OSError):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# shared helpers

def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _spec_report(args, text: str, need_d_star: bool = False, atoms=None) -> InvariantReport:
    """The InvariantReport of spec text, served from the cache only as a cold run prints it.

    That is, within --max-order, and with d* exactly where this call computes
    it (`d_star_in_reach`): a cached d* out of that reach is dropped from the
    served copy, and a d* request out of it runs cold.

    A cold run first builds each atom as a one-atom spec, or takes atoms,
    the groups of spec's atoms as a caller built them.  If the atoms fall
    into two or more blocks of pairwise coprime order, each block's report is
    this function's on the block's canonical spec and atoms, read from the
    cache or computed and cached there, and `coprime_product_report` combines
    them, so no lattice of the product is built.  Otherwise the report is
    computed on the whole group: the atom itself, or the product of the atoms
    by `GroupSpec.build`, which also raises the cap error of a product past
    --max-order as it always has.
    """
    spec = parse_spec(text)
    canonical = str(spec)
    cached = None if args.no_cache else _cache_get(args.cache_path, canonical)
    if cached is not None and cached.order <= args.max_order:
        if d_star_in_reach(cached.order, args.allow_slow):
            if cached.d_star is not None:
                return cached
        elif not need_d_star:
            cached.d_star = None
            return cached
    if atoms is None:
        atoms = [GroupSpec((atom,)).build(order_cap=args.max_order) for atom in spec.atoms]
    order = prod(g.order for g in atoms)
    blocks = coprime_blocks([g.order for g in atoms])
    group = None
    if len(blocks) == 1 or order > args.max_order:
        group = atoms[0] if len(atoms) == 1 else spec.build(args.max_order, atoms)
    if need_d_star and not d_star_in_reach(order, args.allow_slow):
        # surface the cap before doing any heavy enumeration
        raise OrderCapExceeded(f"d* on order {order} > {DSTAR_ORDER_LIMIT} needs --allow-slow")
    if group is None:
        reports = [
            _spec_report(
                args,
                str(GroupSpec(tuple(spec.atoms[i] for i in block))),
                atoms=[atoms[i] for i in block],
            )
            for block in blocks
        ]
        report = coprime_product_report(canonical, reports, allow_slow=args.allow_slow)
    else:
        report = compute_report(group, spec=canonical, allow_slow=args.allow_slow)
    if not args.no_cache:
        _cache_put(args.cache_path, report)
    return report


def _flag_line(flags: dict) -> str:
    return ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(flags.items()))


# ---------------------------------------------------------------------------
# subcommands

def cmd_info(args) -> int:
    report = _spec_report(args, args.spec)
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    ds = "-" if report.d_star is None else str(report.d_star)
    lines = [
        f"spec:     {report.spec}",
        f"order:    {report.order}",
        f"|L(G)|:   {report.lattice_size}",
        f"k'(G):    {report.k_prime}",
        f"|N(G)|:   {report.normal_count}",
        f"nu(G):    {report.nu}",
        f"d'(G):    {report.d_prime}",
        f"d*(G):    {ds}",
        f"flags:    {_flag_line(report.flags)}",
        f"time:     {report.ms} ms",
    ]
    _emit("\n".join(lines))
    return 0


def cmd_ratio(args) -> int:
    """dprime and dstar: the report's field args.ratio, d_prime or d_star."""
    report = _spec_report(args, args.spec, need_d_star=args.ratio == "d_star")
    value = str(getattr(report, args.ratio))
    if args.json:
        _emit_json({"spec": report.spec, args.ratio: value})
    else:
        _emit(value)
    return 0


def _lattice_dot(spec: str, lat) -> Iterator[str]:
    """The `lattice --dot` document, in chunks: the header and the node
    records as one chunk, then the edges as one chunk per upper subgroup j."""
    reps = set(lat.class_representatives())
    nodes = []
    for i, m in enumerate(lat.masks):
        shape = "doublecircle" if lat.is_normal(i) else "circle"
        style = ", style=filled, fillcolor=lightgray" if i in reps else ""
        nodes.append(f'  s{i} [label="{i}: {m.bit_count()}", shape={shape}{style}];\n')
    yield (
        f'digraph subgroup_lattice {{\n  rankdir=BT;\n  label="{spec}";\n'
        "  node [shape=circle, fontsize=10];\n" + "".join(nodes)
    )
    del nodes
    for j, covered in enumerate(hasse_edges(lat)):
        if covered:
            yield "".join(f"  s{i} -> s{j};\n" for i in covered)
    yield "}\n"


def _lattice_json(spec: str, order: int, lat) -> Iterator[str]:
    """The `lattice --json` document, written row by row, in chunks.

    The same text, with its final newline, as `json.dumps` of the document
    with indent=2: a dict per subgroup (index, order, normal, class) and an
    [i, j] list per cover edge, one f-string each.  The subgroup records come
    as one chunk, then the edges as one chunk per upper subgroup j.
    """
    masks = lat.masks
    rows = [""] * lat.size
    for cid, cls in enumerate(lat.classes):
        normal = "true" if len(cls) == 1 else "false"
        for i in cls:
            rows[i] = (
                f'    {{\n      "index": {i},\n      "order": {masks[i].bit_count()},\n'
                f'      "normal": {normal},\n      "class": {cid}\n    }}'
            )
    yield (
        f'{{\n  "spec": {json.dumps(spec)},\n  "order": {order},\n  "subgroups": [\n'
        + ",\n".join(rows)
        + '\n  ],\n  "edges": ['
    )
    del rows
    sep = "\n"
    for j, covered in enumerate(hasse_edges(lat)):
        if covered:
            yield sep + ",\n".join(f"    [\n      {i},\n      {j}\n    ]" for i in covered)
            sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def cmd_lattice(args) -> int:
    spec = parse_spec(args.spec)
    group = spec.build(order_cap=args.max_order)
    lat = subgroup_lattice(group)
    if args.dot:
        sys.stdout.writelines(_lattice_dot(str(spec), lat))
        return 0
    if args.json:
        sys.stdout.writelines(_lattice_json(str(spec), group.order, lat))
        return 0
    edges = hasse_edges(lat)
    _emit(
        f"subgroup lattice of {spec}: {lat.size} subgroups in {lat.k_prime} classes, "
        f"{lat.normal_count} normal"
    )
    for i, m in enumerate(lat.masks):
        marker = "normal" if lat.is_normal(i) else f"class {lat.class_of(i)}"
        _emit(f"  #{i:<3d} order {m.bit_count():<5d} {marker}")
    _emit(f"covering edges: {sum(map(len, edges))}")
    return 0


def cmd_sections(args) -> int:
    spec = parse_spec(args.spec)
    group = spec.build(order_cap=args.max_order)
    orders = [m.bit_count() for m in subgroup_lattice(group).masks]
    shapes: dict[tuple[int, int], int] = {}
    total = 0
    for hi, ki in sections(group):
        total += 1
        key = (orders[hi], orders[hi] // orders[ki])
        shapes[key] = shapes.get(key, 0) + 1
    rows = [
        {"h_order": h, "quotient_order": q, "count": c}
        for (h, q), c in sorted(shapes.items())
    ]
    if args.json:
        _emit_json({"spec": str(spec), "total": total, "shapes": rows})
        return 0
    _emit(f"sections of {spec}: {total} pairs (H, K normal in H)")
    for row in rows:
        _emit(
            f"  |H| = {row['h_order']:<5d} |H/K| = {row['quotient_order']:<5d} "
            f"count {row['count']}"
        )
    return 0


def cmd_verify(args) -> int:
    names = args.suites if args.suites else ["all"]
    results = run_suites(names)
    if args.json:
        _emit_json(
            {
                "engine": __version__,
                "ok": all(r.ok for r in results),
                "suites": [r.to_json_dict() for r in results],
            }
        )
    else:
        for r in results:
            status = "ok " if r.ok else "FAIL"
            _emit(
                f"[{status}] {r.suite}: {len(r.checks)} checks, "
                f"{r.passed} passed, {r.failed} failed"
            )
            ants = ", ".join(f"{k}={v}" for k, v in sorted(r.antecedents.items()))
            _emit(f"       antecedents: {ants}")
        failures = [(r.suite, c) for r in results for c in r.checks if not c.ok]
        if failures:
            _emit("failures:")
            for suite, c in failures:
                _emit(f"  [{suite}] {c.description}")
                if c.witness:
                    _emit(f"      witness: {c.witness}")
        total = sum(len(r.checks) for r in results)
        failed = sum(r.failed for r in results)
        _emit(
            f"{len(results)} suites, {total} checks, {failed} failed"
            if failed
            else f"{len(results)} suites, {total} checks, all passed"
        )
    return 0 if all(r.ok for r in results) else 5


def cmd_density(args) -> int:
    steps = density_sequence(args.a, args.b, args.epsilon, args.prime_budget)
    if args.json:
        _emit_json(
            {
                "target": f"{args.a}/{args.b}",
                "epsilon": str(Fraction(str(args.epsilon))),
                "steps": [
                    {
                        "index": st.index,
                        "primes": list(st.primes),
                        "value": str(st.value),
                        "gap": str(st.gap),
                    }
                    for st in steps
                ],
            }
        )
        return 0
    _emit(f"d' products approaching {args.a}/{args.b} (epsilon {args.epsilon}):")
    for st in steps:
        primes = ",".join(str(p) for p in st.primes)
        _emit(
            f"  step {st.index:<3d} primes ({primes}) value {st.value} "
            f"gap {st.gap} ~ {float(st.gap):.6f}"
        )
    _emit(f"reached gap {steps[-1].gap} < {args.epsilon} in {len(steps)} steps")
    return 0


_FORMULA_DISPATCH = {
    "modular": (d_prime_modular_formula, 2, "p n"),
    "schmidt": (d_prime_schmidt_formula, 2, "p n"),
    "dihedral": (d_prime_dihedral_formula, 1, "n"),
    "heisenberg": (d_prime_heisenberg_formula, 1, "p"),
    "schmidt-section": (d_prime_schmidt_section_formula, 3, "p q r"),
    "gaussian": (gaussian_binomial, 3, "r i p"),
}


def _formula_bits(family: str, params: list[int]) -> int:
    """A lower bound on the bit length of the larger term of the family's value in lowest terms.

    Only the dihedral, gaussian and schmidt-section values grow exponentially
    with a parameter.  The bound is 0 for the other families and for
    parameters the formula rejects, so the formula reports those itself.
    """
    if family == "dihedral":
        (n,) = params
        # (3n - 1) / (2^n + n - 1): reduction divides the denominator by at most 3n - 1
        return n - (3 * n).bit_length()
    if family == "gaussian":
        r, i, p = params
        # at least p^(i(r-i)), its term for the full i x (r-i) box of partitions
        return i * (r - i) * (p.bit_length() - 1) if 0 <= i <= r and p >= 2 else 0
    if family == "schmidt-section":
        p, q, r = params
        if is_prime(p) and is_prime(q) and p != q and is_order_mod_prime(r, p, q):
            # |L| = a + p^r + 1 with a >= [r, r//2]_p >= p^(r//2 (r - r//2)); reducing
            # k'/|L| divides |L| by a divisor of p^r + 3 - 4q, and q < p^r, so by < 4p^r
            return (r // 2) * (r - r // 2) * (p.bit_length() - 1) - r * p.bit_length() - 2
    return 0


def _formula_text(family: str, params: list[int], fn) -> str:
    """The family's value as text, or BudgetExhausted if it passes Python's int-to-str limit.

    A value that `_formula_bits` shows to be too long is refused before it is
    computed, so a huge parameter cannot hang the command.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    # 2^bits > 10^limit once bits * 1000 > limit * 3322, as log2(10) < 3.322
    if not limit or _formula_bits(family, params) * 1000 <= limit * 3322:
        value = fn(*params)
        with suppress(ValueError):  # a term longer than the digit limit
            return str(value)
    raise BudgetExhausted(
        f"the {family} value has a term past Python's int-to-str limit of {limit} digits"
    )


def cmd_formula(args) -> int:
    if args.family not in _FORMULA_DISPATCH:
        raise InvalidParameter(
            f"unknown family {args.family!r}; choose from {', '.join(_FORMULA_DISPATCH)}"
        )
    fn, arity, names = _FORMULA_DISPATCH[args.family]
    if len(args.params) != arity:
        raise InvalidParameter(
            f"family {args.family!r} takes {arity} parameters ({names}), "
            f"got {len(args.params)}"
        )
    text = _formula_text(args.family, args.params, fn)
    if args.json:
        _emit_json({"family": args.family, "params": list(args.params), "value": text})
    else:
        _emit(text)
    return 0


def cmd_sweep(args) -> int:
    tags = [*FAMILY_BUILDERS, "product"]
    if args.family is not None and args.family not in tags:
        raise InvalidParameter(
            f"unknown family tag {args.family!r}; choose from {', '.join(tags)}"
        )
    reports = [
        _spec_report(args, spec)
        for spec, tag, _, order, _ in list_corpus()
        if order <= args.max_order and (args.family is None or tag == args.family)
    ]
    if args.json:
        _emit_json([r.to_json_dict() for r in reports])
        return 0
    _emit(f"{'spec':<24s} {'order':>5s} {'|L|':>6s} {'k_':>6s} {'nu':>4s} {'d_':>10s} {'d*':>10s}")
    for r in reports:
        ds = "-" if r.d_star is None else str(r.d_star)
        _emit(
            f"{r.spec:<24s} {r.order:>5d} {r.lattice_size:>6d} {r.k_prime:>6d} "
            f"{r.nu:>4d} {str(r.d_prime):>10s} {ds:>10s}"
        )
    _emit(f"{len(reports)} groups")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_spec_flags(sp, report: bool = True) -> None:
    sp.add_argument("spec", help="group spec, e.g. 'M(2,5)' or 'C(3) x D(8)'")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument(
        "--max-order",
        type=int,
        default=DEFAULT_ORDER_CAP,
        help=f"construction order cap (default {DEFAULT_ORDER_CAP})",
    )
    if report:
        sp.add_argument(
            "--allow-slow",
            action="store_true",
            help=f"compute d* above order {DSTAR_ORDER_LIMIT}",
        )
        sp.add_argument("--no-cache", action="store_true", help="bypass the report cache")
        sp.add_argument("--cache-path", default=DEFAULT_CACHE_PATH, help=_CACHE_PATH_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedekind",
        description="Exact subgroup-lattice closeness ratios for finite groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="full invariant report for a group spec")
    _add_spec_flags(sp)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("dprime", help="subgroup-class ratio d'")
    _add_spec_flags(sp)
    sp.set_defaults(func=cmd_ratio, ratio="d_prime")

    sp = sub.add_parser("dstar", help="minimum of d' over all sections")
    _add_spec_flags(sp)
    sp.set_defaults(func=cmd_ratio, ratio="d_star")

    sp = sub.add_parser("lattice", help="subgroup lattice listing or DOT diagram")
    _add_spec_flags(sp, report=False)
    sp.add_argument("--dot", action="store_true", help="emit a Graphviz digraph")
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("sections", help="census of sections H/K")
    _add_spec_flags(sp, report=False)
    sp.set_defaults(func=cmd_sections)

    sp = sub.add_parser("verify", help="run theorem verification suites")
    sp.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help=f"suite names or 'all' (default); known: {', '.join(SUITES)}",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("density", help="d' products approaching a target ratio")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    sp.add_argument("epsilon", help="stop once the gap drops below this, e.g. 0.01")
    sp.add_argument("--prime-budget", type=int, default=DENSITY_PRIME_BUDGET)
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("formula", help="evaluate a closed-form family value")
    sp.add_argument("family", help=", ".join(_FORMULA_DISPATCH))
    sp.add_argument("params", type=int, nargs="*")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=cmd_formula)

    sp = sub.add_parser("sweep", help="invariant table over the standard corpus")
    sp.add_argument("--family", help="restrict to one family tag, e.g. M or D, or to product")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument(
        "--max-order", type=int, default=DEFAULT_ORDER_CAP, help="skip larger groups"
    )
    sp.add_argument("--no-cache", action="store_true", help="bypass the report cache")
    sp.add_argument("--cache-path", default=DEFAULT_CACHE_PATH, help=_CACHE_PATH_HELP)
    sp.set_defaults(func=cmd_sweep, allow_slow=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call, built on the first one, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DedekindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
