"""Spec mini-language and the command-line front end, including the cache."""

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Fool, lattice_json_doc
from dedekind import __version__, cli, errors, formulas, groups, numbertheory, specs
from dedekind.errors import InvalidParameter, NotAnAutomorphism, OrderCapExceeded, ParseError
from dedekind.invariants import compute_report
from dedekind.lattice import subgroup_lattice
from dedekind.specs import build_group, parse_spec
from dedekind.verify import Check, SuiteResult, list_corpus


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec language


def test_parse_round_trip():
    for text, canonical in [
        ("C(12)", "C(12)"),
        ("  He( 3 )", "He(3)"),
        ("C(2)xD(8)", "C(2) x D(8)"),
        ("C(3)  x  Q(8)", "C(3) x Q(8)"),
        ("G(3,2,2)", "G(3,2,2)"),
        ("K(2, 3, 2)", "K(2,3,2)"),
        ("SD(2,3)", "SD(2,3)"),
        ("C27Q8", "C27Q8"),
    ]:
        assert str(parse_spec(text)) == canonical


def test_parse_products_build():
    g = build_group("C(2) x C(3) x C(5)")
    assert g.order == 30
    assert build_group("D(8) x C(3)").order == 24


def test_parse_errors():
    # tags are case-sensitive canonical names
    for bad in (
        "",
        "M(2",
        "Foo(3)",
        "C()",
        "C(2) y C(3)",
        "C(2,)",
        "D(8) x",
        "3",
        "he(3)",
        "C(2) X C(3)",
        "C(²)",
        "C(٣)",
        "C(３) x D(８)",
    ):
        with pytest.raises(ParseError):
            parse_spec(bad)


@pytest.mark.parametrize(
    "spec, char, pos",
    [("C(²)", "²", 2), ("C(3٣)", "٣", 3)],
    ids=["superscript", "after-ascii"],
)
def test_non_ascii_digits_are_a_parse_error(capsys, spec, char, pos):
    # str.isdigit accepts these; int() reads some of them and rejects "²"
    code, out, err = run_cli(capsys, ["info", spec, "--no-cache"])
    assert (code, out) == (2, "")
    assert err == f"error: {char!r} is not an ASCII digit at position {pos}\n"


def test_build_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        build_group("M(4,3)")
    with pytest.raises(InvalidParameter):
        build_group("He(2)")


# ---------------------------------------------------------------------------
# CLI output paths


def test_info_human(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, ["info", "He(3)", "--cache-path", str(tmp_path / "cache")]
    )
    assert code == 0
    assert "spec:     He(3)" in out
    assert "d'(G):    11/19" in out
    assert "nilpotent=yes" in out


def test_dprime_and_dstar_plain(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    assert run_cli(capsys, ["dprime", "D(8)", "--cache-path", cp])[:2] == (0, "4/5\n")
    assert run_cli(capsys, ["dstar", "C(2) x D(8)", "--cache-path", cp])[:2] == (
        0,
        "27/35\n",
    )


def test_json_output_is_machine_readable(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        ["info", "M(2,5)", "--json", "--cache-path", str(tmp_path / "cache")],
    )
    assert code == 0
    data = json.loads(out)
    assert data["spec"] == "M(2,5)"
    assert data["d_prime"] == {"num": 13, "den": 14}
    assert data["d_star"] == {"num": 13, "den": 14}
    assert data["flags"]["iwasawa"] is True


def test_lattice_listing_and_dot(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "D(8)"])
    assert code == 0
    assert "10 subgroups in 8 classes" in out
    assert "covering edges: 15" in out

    code, dot, _ = run_cli(capsys, ["lattice", "D(8)", "--dot"])
    assert code == 0
    assert dot.startswith("digraph subgroup_lattice {")
    assert "rankdir=BT;" in dot
    assert dot.count("->") == 15
    assert "doublecircle" in dot and "fillcolor=lightgray" in dot

    code, js, _ = run_cli(capsys, ["lattice", "Q(8)", "--json"])
    data = json.loads(js)
    assert len(data["subgroups"]) == 6
    assert all(s["normal"] for s in data["subgroups"])


def test_allow_slow_only_on_report_commands(capsys):
    for command in ("lattice", "sections"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "D(8)", "--allow-slow"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-slow" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["dstar", "D(8)", "--allow-slow", "--no-cache"])
    assert (code, out) == (0, "4/5\n")


def test_sections_command(capsys):
    code, out, _ = run_cli(capsys, ["sections", "Q(8)", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 18


# sha256 of the output of `lattice`, `lattice --json`, `lattice --dot`,
# `sections` and `sections --json`, in that order: the listings name each
# subgroup by its lattice index, so any change to the index order, the
# classes, the edges or the section walk shows here
LISTING_DIGESTS = {
    # one subgroup, no edges: `"edges": []` and a one-record `subgroups` list
    "C(1)": (
        "9ec15f57b8a1a8b38d6b471df731a0a9490951d3cd46913b99050080351bd159",
        "732a3a4333ae680542ca441fdf4bee839ce5a205daeb67be399d9aab2b227027",
        "c9936688f52aef7997194ac91e5d40eb4bf805bc5c16e411133c06d35c9e972c",
        "8d1defccb025478190dfa99d913d9ef22e1f4a7eda92031ff96298f1b14d10d9",
        "ca15b250c78ecc5017da26c5d0e94c315d479f706616fdb6899c224b7b7a4abf",
    ),
    "Q(8)": (
        "04c0fd8dec7f3dd420f4f55d6b4a6f5693784126e8609c9550cfce0570f16869",
        "fa54d4e5cfb790a557d2d00d87072eddf1848a0f43b865ce53a56e6ca79c56e5",
        "bd52f973293330bc70109ce5bb4001e4ec9eba2fc77b38cb59f45966408c12b1",
        "6947fe5b7ea4c9dd335af2d90e5a252b927b19b09b56fc3581a85d1098db7a1e",
        "cdcb36e9f61b27c9ab30c7c7175ad882254679262c49d3f0e83bfec4cfceff1f",
    ),
    "D(12)": (
        "f1021ad3f19046885611e37945218b8e038d400e62f68ae1cdb6e91f31667c5a",
        "8c72d4ebbe50512e4e879cc95021d5d0063101c4f55c91e5cc05bbbe80339604",
        "90dd8c525366473baaa20afef8fc1f4f833733d7518a635efecdd384375c9528",
        "dabf1310312279568c95de21c686ab39afa8668fbd059fa9cf3aaec04ebd1a5e",
        "7a270459e04dbb3c1918b345e51e0550d2d92f7b292ad44539c6bfd66ec88eea",
    ),
    "He(3) x C(2)": (
        "d20d5c89cc62aa6c3d869794072a12658c5f4b031cc5a5307532398c701d1f6f",
        "07a4e050054af21be565041c816cda1c33f55728f7d07c5abc489181a4a1019c",
        "a302a5e60fe98ce7065cc45f18f14d7fdc4a442da02c4f9ca7ec3e92d70329b5",
        "93324b7bdd5bfe0464f0565b9b51d5c91de7b3f52c4e70a4e9e1fc1beafe7a8a",
        "063272463640bdcc93e777b4ab5af5cec7e12a9a9d3cea0e203fef18e41ad08c",
    ),
    "D(8) x EA(2,3)": (
        "c467a7be8a647e40f44997b2ac512fca5a87f0f3ba208e86faedab3865b58ddc",
        "af8150be53f69465736392271b1de0b66efd07ce58f7ab2cb16aa4a170a545a9",
        "949775dee2fb0964d48df01cd83971025aa55317743531d3bdce4ed65c3130d4",
        "15e555772702e0e27e16f37a5bf6bf4447b27b8230e5c2c5393065ead9ca1d9a",
        "d0c10f996fec9e0c0bd9a9e611a941d834ec6e85272e9ecbf3ba22aeefeb54b8",
    ),
    "SD(2,7)": (
        "a9869ac8ec872c8e6b94d6ea69c3a2a1281d25c5992f7d10da3c7d572e474744",
        "f1d778bf3395e1358db8a14a6690c77d020bbeabf5367451372c0f9bd475eaec",
        "fcca9ebf92928f10e2f45008dbd5da355fd2784b5d922d695c252072cf03c163",
        "ed00b21ae7a574b74d63faae102ef21059210b8f10694932e0f900a96fa7c2e7",
        "d5eeadb25a38ddef7f0a4bd3d13b830ce66a46844cba1068bed8f1c7b15e00cd",
    ),
    # paired from two coprime blocks, C(3) and K(2,3,2) x C(2); the digests
    # were taken when the product was enumerated whole, by cyclic extension
    "C(3) x K(2,3,2) x C(2)": (
        "12094c1a5b11e76db6a10c0db173e4aaf4ec75b41283d8bab9b8b24007ec0809",
        "e3f0143ab12a9cd459aaa510f58fb98d35d815ecbaa3b87975c527341bcded69",
        "b65d81d0a3b6474770b6c70f85ca2ae3e85bd88e714c1dc49e963952a489691a",
        "2aa943927ff1991bd298d7960a71a183df9666047dfaf61f43e989889a6173f3",
        "055bb15040ab4e0e8de67c041fd3b9a3fb005641d003815794f17ee35cfaa33a",
    ),
}


@pytest.mark.parametrize("spec", LISTING_DIGESTS)
def test_lattice_and_sections_output_is_pinned(capsys, spec):
    argvs = [
        ["lattice", spec],
        ["lattice", spec, "--json"],
        ["lattice", spec, "--dot"],
        ["sections", spec],
        ["sections", spec, "--json"],
    ]
    got = []
    for argv in argvs:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == LISTING_DIGESTS[spec]


def test_lattice_json_matches_the_dict_oracle(capsys):
    """`lattice --json` writes row by row; its text must be json.dumps of the
    dict-built document with indent=2, on every corpus spec of order <= 100,
    on the one-subgroup lattice and on D(8) x EA(2,3) (937 subgroups, 5,546
    edges)."""
    small = [row[0] for row in list_corpus() if row[3] <= 100]
    for spec in [*small, "C(1)", "D(8) x EA(2,3)"]:
        code, out, _ = run_cli(capsys, ["lattice", spec, "--json"])
        group = build_group(spec)
        doc = lattice_json_doc(spec, group.order, subgroup_lattice(group))
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n"), spec


def test_lattice_json_is_streamed():
    """`lattice --json` and `lattice --dot` on D(8) x EA(2,4) (7,420
    subgroups, 64,695 edges, a 3.0 MB JSON document) never hold their whole
    text: with stdout discarding what it is given, the traced peak of each
    call, lattice build included, stays within 6 MiB (4.1 MiB for --json and
    3.6 MiB for --dot streamed, 7.6 and 8.9 MiB if the text is joined)."""
    for flag in ("--json", "--dot"):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(["lattice", "D(8) x EA(2,4)", flag])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0, flag
        assert peak <= 6 * 2**20, (flag, peak)


def test_formula_command(capsys):
    assert run_cli(capsys, ["formula", "modular", "2", "5"])[:2] == (0, "13/14\n")
    assert run_cli(capsys, ["formula", "dihedral", "4"])[:2] == (0, "11/19\n")
    code, out, _ = run_cli(capsys, ["formula", "gaussian", "4", "2", "2", "--json"])
    assert code == 0 and json.loads(out)["value"] == "35"
    # wrong arity and unknown family are parameter errors
    assert run_cli(capsys, ["formula", "modular", "2"])[0] == 3
    assert run_cli(capsys, ["formula", "nonsense", "1"])[0] == 3
    # parameters the formula rejects are parameter errors, however large
    assert run_cli(capsys, ["formula", "gaussian", "3000", "5000", "2"])[0] == 3
    assert run_cli(capsys, ["formula", "schmidt-section", "2", "10007", "5004"])[0] == 3


def _too_long(family: str) -> str:
    limit = sys.get_int_max_str_digits()
    return (
        f"error: the {family} value has a term past Python's int-to-str limit of {limit} digits\n"
    )


@pytest.mark.parametrize(
    "params, want",
    [
        pytest.param(["dihedral", "20000"], (4, "", _too_long("dihedral")), id="dihedral-20000"),
        pytest.param(
            ["gaussian", "3000", "1500", "2"],
            (4, "", _too_long("gaussian")),
            id="gaussian-3000-1500-2",
        ),
        pytest.param(
            ["schmidt-section", "2", "10007", "5003"],
            (4, "", _too_long("schmidt-section")),
            id="schmidt-section-2-10007-5003",
        ),
        # refused only once computed: 2^14290 has 4,302 digits
        pytest.param(["dihedral", "14290"], (4, "", _too_long("dihedral")), id="dihedral-14290"),
        # a linear family with a 4,300-digit parameter
        pytest.param(
            ["modular", "2", "9" * 4300], (4, "", _too_long("modular")), id="modular-2-huge-n"
        ),
        # 2^14000 + 13999 has 4,215 digits
        pytest.param(
            ["dihedral", "14000"],
            (0, f"{Fraction(41999, 2**14000 + 13999)}\n", ""),
            id="dihedral-14000",
        ),
        # [3000, 2999]_2 = [3000, 1]_2, without passing through [3000, 1500]_2
        pytest.param(
            ["gaussian", "3000", "2999", "2"], (0, f"{2**3000 - 1}\n", ""), id="gaussian-3000-2999-2"
        ),
    ],
)
def test_formula_answers_large_parameters_within_a_second(capsys, params, want):
    start = time.perf_counter()
    got = run_cli(capsys, ["formula", *params])
    assert time.perf_counter() - start < 1.0
    assert got == want


@pytest.mark.parametrize(
    "q, r, want",
    [
        pytest.param(
            "1000000000039",
            "5",
            (3, "error: r = 5 is not the multiplicative order of 2 mod 1000000000039\n"),
            id="5-want0",
        ),
        pytest.param(  # the true order
            "1000000000039",
            "500000000019",
            (4, _too_long("schmidt-section")),
            id="500000000019-want1",
        ),
        pytest.param(  # q - 1 = 2P with P prime, so r = q - 1 is the true order
            "100000000000000000763",
            "100000000000000000762",
            (4, _too_long("schmidt-section")),
            id="safe-prime-q",
        ),
    ],
)
def test_schmidt_section_checks_r_without_stepping_through_powers(q, r, want):
    # stepping 2^k mod q one k at a time would take 5 * 10^11 steps, and
    # trial division of the last r up to the square root of its prime factor
    # 5 * 10^19 about 3.5 * 10^9; the timeout turns such a hang into a failure
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["formula", "schmidt-section", "2", q, r]
    done = subprocess.run(
        [sys.executable, "-m", "dedekind.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (done.returncode, done.stdout, done.stderr) == (want[0], "", want[1])


def test_density_command(capsys):
    code, out, _ = run_cli(capsys, ["density", "1", "2", "0.05"])
    assert code == 0
    assert "reached gap" in out
    code, js, _ = run_cli(capsys, ["density", "2", "3", "0.1", "--json"])
    data = json.loads(js)
    assert data["target"] == "2/3"
    assert len(data["steps"]) >= 1
    # unreachable epsilon within a tiny budget is a budget error
    assert run_cli(capsys, ["density", "1", "2", "1e-9", "--prime-budget", "10"])[0] == 4
    # an epsilon too long to print is still a budget error, not a traceback
    code, _, err = run_cli(capsys, ["density", "1", "2", "1e-5000", "--prime-budget", "10"])
    assert code == 4
    assert err == "error: gap < epsilon not reached within the first 10 odd primes\n"
    # an epsilon that is not a finite number is a parameter error, not a traceback
    for eps in ("abc", "nan", "inf"):
        code, _, err = run_cli(capsys, ["density", "1", "2", eps])
        assert code == 3 and "epsilon must be a positive number" in err, eps


def test_density_names_the_digit_limit_for_an_over_long_epsilon(capsys):
    # a positive number that Fraction refuses at Python's int-to-str limit; the
    # message gives the length and does not repeat the input
    limit = sys.get_int_max_str_digits()
    eps = "0." + "3" * (limit + 700)
    code, out, err = run_cli(capsys, ["density", "1", "2", eps])
    assert (code, out) == (3, "")
    assert err == (
        f"error: epsilon has {limit + 701} digits, past Python's int-to-str limit of {limit}\n"
    )


def test_density_rejects_a_prime_budget_below_one(capsys):
    # a parameter error (exit 3), not a budget that ran out (exit 4)
    for budget in ("0", "-1"):
        code, _, err = run_cli(capsys, ["density", "1", "2", "0.5", "--prime-budget", budget])
        assert (code, err) == (3, f"error: prime budget must be at least 1, got {budget}\n")


def test_sweep_command(capsys, tmp_path, monkeypatch):
    cp = str(tmp_path / "cache")
    built = []
    build = specs.GroupSpec.build

    def counting(spec, *args, **kwargs):
        built.append(str(spec))
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(specs.GroupSpec, "build", counting)
    code, out, _ = run_cli(capsys, ["sweep", "--family", "M", "--cache-path", cp])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("M(")]
    assert len(lines) == 6
    assert any("M(3,3)" in l and "4/5" in l for l in lines)
    # only the chosen groups are built, not the whole corpus
    assert built == [l.split()[0] for l in lines]
    # the sweep populated the cache; a repeat serves identical bytes from it
    code2, out2, _ = run_cli(capsys, ["sweep", "--family", "M", "--cache-path", cp])
    assert out2 == out and len(built) == 6


def test_sweep_unknown_family_tag_is_a_parameter_error(capsys, tmp_path):
    # tags are case-sensitive, as in the spec language; "product" selects the products
    code, out, err = run_cli(
        capsys, ["sweep", "--family", "m", "--cache-path", str(tmp_path / "cache")]
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: unknown family tag 'm'; "
        "choose from C, EA, D, Q, M, He, G, H, K, SD, C27Q8, product\n"
    )


def test_sweep_json_is_the_cold_report_of_each_spec(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    argv = ["sweep", "--family", "Q", "--json", "--cache-path", cp]
    runs = [json.loads(run_cli(capsys, argv)[1]) for _ in range(2)]  # cold, then warm
    want = [
        compute_report(build_group(e["spec"]), spec=e["spec"]).to_json_dict() for e in runs[0]
    ]
    assert [e["spec"] for e in want] == ["Q(8)", "Q(16)", "Q(32)"]
    for got in (*runs, want):
        for e in got:
            e.pop("ms")
    assert runs[0] == runs[1] == want


def test_sweep_cache_serves_the_same_d_star_as_a_cold_info(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    assert run_cli(capsys, ["sweep", "--family", "C27Q8", "--cache-path", cp])[0] == 0
    _, out, _ = run_cli(capsys, ["info", "C27Q8", "--cache-path", cp])
    _, cold, _ = run_cli(capsys, ["info", "C27Q8", "--no-cache"])
    assert "d*(G):    5/32" in out and "d*(G):    5/32" in cold


# ---------------------------------------------------------------------------
# reports of coprime products, combined from their blocks' reports

# beyond the corpus, whose products are all coprime pairs: a trivial block, a
# non-coprime pair inside a coprime product, a non-nilpotent block, and a
# Schmidt group times the trivial group (still Schmidt) and times C(5) (not)
SPLIT_EDGE_SPECS = [
    "C(1) x D(6)",
    "C(2) x C(3) x D(8)",
    "G(7,3,2) x D(8)",
    "G(3,2,2) x C(1)",
    "G(3,2,2) x C(5)",
]


@pytest.mark.parametrize("allow_slow", [False, True])
def test_split_reports_match_the_whole_lattice(capsys, allow_slow):
    # every corpus product, each cold through info, dprime and dstar, against
    # compute_report on the whole product's lattice; order 270 is past d*'s
    # reach without --allow-slow and within it with
    products = [spec for spec, *_ in list_corpus() if " x " in spec]
    assert len(products) == 293
    slow = ["--allow-slow"] if allow_slow else []
    for spec in [*products, *SPLIT_EDGE_SPECS, "He(3) x C(2) x C(5)"]:
        want = compute_report(build_group(spec), spec=spec, allow_slow=allow_slow)
        report = want.to_json_dict()
        report["ms"] = 0
        code, out, _ = run_cli(capsys, ["info", spec, "--json", "--no-cache", *slow])
        got = json.loads(out)
        got["ms"] = 0
        assert (code, got) == (0, report), spec
        assert run_cli(capsys, ["dprime", spec, "--no-cache", *slow])[:2] == (
            0, f"{want.d_prime}\n"
        ), spec
        code, out, _ = run_cli(capsys, ["dstar", spec, "--json", "--no-cache", *slow])
        if want.d_star is None:
            assert (code, out) == (4, ""), spec
        else:
            assert (code, json.loads(out)) == (0, {"spec": spec, "d_star": str(want.d_star)}), spec


def test_each_atom_is_built_once(capsys, monkeypatch):
    built = []
    for tag in ("C", "D"):
        builder, arity = specs.FAMILY_BUILDERS[tag]

        def counting(*params, builder=builder, tag=tag, **kwargs):
            built.append(tag)
            return builder(*params, **kwargs)

        monkeypatch.setitem(specs.FAMILY_BUILDERS, tag, (counting, arity))
    # split into C(2) x D(8) and C(3); one block; one atom
    for spec, atoms in (("C(2) x C(3) x D(8)", "CCD"), ("C(2) x D(8)", "CD"), ("D(8)", "D")):
        built.clear()
        assert run_cli(capsys, ["info", spec, "--no-cache"])[0] == 0
        assert "".join(sorted(built)) == atoms, spec


def test_split_keeps_the_cap_errors(capsys, tmp_path):
    # the d* refusal comes before any block is reported, and a product past
    # the order cap fails as its whole build does
    for cache in (["--no-cache"], ["--cache-path", str(tmp_path / "cache")]):
        code, out, err = run_cli(capsys, ["dstar", "He(3) x C(2) x C(5)", *cache])
        assert (code, out, err) == (4, "", "error: d* on order 270 > 256 needs --allow-slow\n")
        code, out, err = run_cli(capsys, ["info", "D(256) x C(3)", *cache])
        assert (code, out, err) == (4, "", "error: product of order 768 exceeds the cap 512\n")
    assert not (tmp_path / "cache").exists()


def test_exit_codes(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    assert run_cli(capsys, ["info", "M(2", "--cache-path", cp])[0] == 2
    assert run_cli(capsys, ["info", "M(4,3)", "--cache-path", cp])[0] == 3
    assert run_cli(capsys, ["info", "D(1024)", "--cache-path", cp])[0] == 4
    assert run_cli(capsys, ["dstar", "D(512)", "--max-order", "600", "--cache-path", cp])[0] == 4


EXIT_CODE_OF = {
    "DedekindError": 3,
    "ParseError": 2,
    "InvalidParameter": 3,
    "NotNormal": 3,
    "NotAnAutomorphism": 3,
    "NotAnAction": 3,
    "StructureViolation": 3,
    "OrderCapExceeded": 4,
    "LatticeBudgetExceeded": 4,
    "IsoCapExceeded": 4,
    "BudgetExhausted": 4,
}


def _error_classes(cls=errors.DedekindError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_has_a_chosen_exit_code():
    # a new error class fails here until it is given a code in the table
    assert sorted(c.__name__ for c in _error_classes()) == sorted(EXIT_CODE_OF)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_own_code(capsys, monkeypatch, cls):
    def fail(text):
        raise cls(f"{cls.__name__} from {text}")

    monkeypatch.setattr(cli, "parse_spec", fail)
    code, out, err = run_cli(capsys, ["info", "D(8)", "--no-cache"])
    assert (code, out) == (EXIT_CODE_OF[cls.__name__], "")
    assert err == f"error: {cls.__name__} from D(8)\n"


@pytest.mark.parametrize(
    "spec, shown",
    [
        ("EA(2,100000)", "2^100000"),
        ("EA(3,100000000)", "3^100000000"),
        ("K(3,100000000,2)", "3^100000002"),
        ("EA(2,20)", "1048576"),
    ],
)
def test_huge_exponents_hit_the_cap_at_once(capsys, spec, shown):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, ["dprime", spec, "--no-cache"])
    assert time.perf_counter() - start < 5
    assert code == 4
    assert err == f"error: {spec} has order {shown}, above the cap 512\n"


@pytest.mark.parametrize("spec", ["He(100000000000000000039)", "SD(2,100000000000000000039)"])
def test_huge_primes_hit_the_cap_at_once(capsys, spec):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, ["dprime", spec, "--no-cache"])
    assert time.perf_counter() - start < 1
    assert code == 4 and "above the cap 512" in err


def test_prime_past_the_cap_names_the_order_by_r(capsys):
    # q > cap fails before the multiplicative order r of p mod q is found
    code, _, err = run_cli(capsys, ["dprime", "SD(2,521)", "--no-cache"])
    assert code == 4
    assert err == "error: SD(2,521) has order 521 * 2^r, above the cap 512\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--no-cache"],
        ["dprime", "--no-cache"],
        ["dstar", "--no-cache"],
        ["lattice"],
        ["sections"],
    ],
    ids=lambda argv: argv[0],
)
def test_integer_past_the_digit_limit_is_a_parse_error(capsys, argv):
    # int() refuses a decimal string longer than Python's int-to-str digit limit
    spec = "C(" + "9" * 5000 + ")"
    code, out, err = run_cli(capsys, [argv[0], spec, *argv[1:]])
    assert (code, out) == (2, "")
    assert err == "error: integer of 5000 digits is past Python's int-to-str limit at position 2\n"
    with pytest.raises(ParseError):
        build_group(spec)


def test_integer_inside_the_digit_limit_still_hits_the_cap(capsys):
    n = "9" * 4000
    code, _, err = run_cli(capsys, ["dprime", f"C({n})", "--no-cache"])
    assert code == 4
    assert err == f"error: C({n}) has order {n}, above the cap 512\n"


def test_huge_composite_is_a_parameter_error(capsys):
    code, _, err = run_cli(capsys, ["dprime", "He(100000000000000000041)", "--no-cache"])
    assert code == 3
    assert err == "error: p must be prime, got 100000000000000000041\n"


# parameter checks that neither Tier-1's other tests nor `verify all` reach:
# (CLI argv or a call, the error class, its exact message)
UNREACHED_CHECKS = [
    (["info", "H(2,1,1)", "--no-cache"], InvalidParameter, "p = 2 needs s + t >= 3"),
    (["info", "K(2,2,1)", "--no-cache"], InvalidParameter, "p = 2 needs s + t >= 4"),
    (
        ["info", "G(2,3,2)", "--no-cache"],
        InvalidParameter,
        "q = 3 must divide p - 1 = 1; parameters look swapped, try (3,2,2)",
    ),
    (["formula", "schmidt", "4", "2"], InvalidParameter, "p must be prime, got 4"),
    (["formula", "gaussian", "3", "1", "1"], InvalidParameter, "need p >= 2, got 1"),
    (
        ["formula", "schmidt-section", "2", "2", "1"],
        InvalidParameter,
        "p, q must be distinct primes, got 2, 2",
    ),
    (
        lambda: groups.semidirect_product(
            build_group("C(3)"), build_group("C(2)"), [(0, 1, 2), (0, 2, 1)], order_cap=4
        ),
        OrderCapExceeded,
        "product of order 6 exceeds the cap 4",
    ),
    # an action entry that equals, hashes and sums as an int but is not one
    (
        lambda: groups.semidirect_product(
            build_group("C(3)"), build_group("C(2)"), [[0, 1, 2], [0, Fool(2), Fool(1)]]
        ),
        NotAnAutomorphism,
        "action of element 1 is not a bijection on N",
    ),
    # an action row that is not iterable
    (
        lambda: groups.semidirect_product(build_group("C(3)"), build_group("C(2)"), [None, None]),
        NotAnAutomorphism,
        "action of element 0 is not a bijection on N",
    ),
    # a subgroup is passed as its bitmask over the elements
    (
        lambda: groups.quotient(build_group("C(4)"), 0b100001),
        InvalidParameter,
        "33 is not a bitmask of 4 elements",
    ),
    (
        lambda: groups.quotient(build_group("C(4)"), -1),
        InvalidParameter,
        "-1 is not a bitmask of 4 elements",
    ),
    (
        lambda: groups.quotient(build_group("C(4)"), 1.5),
        InvalidParameter,
        "1.5 is not a bitmask of 4 elements",
    ),
    (
        lambda: groups.quotient(build_group("C(4)"), 0b10),
        InvalidParameter,
        "normal subgroup must contain the identity",
    ),
    (
        lambda: groups.quotient(build_group("Q(8)"), 0b111),
        InvalidParameter,
        "given element set is not a subgroup",
    ),
    (lambda: formulas.num_subgroups_elem_abelian(2, -1), InvalidParameter, "need r >= 0, got -1"),
    (lambda: formulas.limit_trend("nope"), InvalidParameter, "unknown family 'nope'"),
    (lambda: formulas.corollary_a_over_a_plus_one(0), InvalidParameter, "need a >= 1, got 0"),
    (lambda: numbertheory.nth_odd_prime(0), InvalidParameter, "odd-prime index must be >= 1, got 0"),
    (lambda: numbertheory.prime_factorization(0), InvalidParameter, "cannot factor 0"),
    (lambda: numbertheory.multiplicative_order(2, 4), InvalidParameter, "2 is not a unit mod 4"),
]


@pytest.mark.parametrize("call, cls, message", UNREACHED_CHECKS, ids=[c[2] for c in UNREACHED_CHECKS])
def test_parameter_checks_raise_their_class_and_message(capsys, call, cls, message):
    if isinstance(call, list):  # through the CLI, which prints the message
        assert run_cli(capsys, call) == (cls.exit_code, "", f"error: {message}\n")
    else:
        with pytest.raises(cls) as info:
            call()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# cache behaviour


# An entry file is the sha256 of its body on the first line, then the JSON
# body.  write_entry keeps the old digest line, so the entry reads as changed
# after it was written; seal_entry stores it under its true digest, as the
# writer would.


def read_entry(cache_dir, spec):
    with open(cli._entry_path(str(cache_dir), spec), "rb") as fh:
        return json.loads(fh.read().partition(b"\n")[2])


def write_entry(cache_dir, spec, entry):
    path = cli._entry_path(str(cache_dir), spec)
    with open(path, "rb") as fh:
        digest = fh.read().partition(b"\n")[0]
    with open(path, "wb") as fh:
        fh.write(digest + b"\n" + json.dumps(entry).encode())


def seal_entry(cache_dir, spec, entry):
    body = json.dumps(entry).encode()
    with open(cli._entry_path(str(cache_dir), spec), "wb") as fh:
        fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    _, fresh, _ = run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", cp])
    _, hit, _ = run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", cp])
    _, hit2, _ = run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", cp])
    assert fresh == hit == hit2

    assert os.listdir(cp) == [os.path.basename(cli._entry_path(cp, "D(16)"))]
    entry = read_entry(cp, "D(16)")
    assert entry["spec"] == "D(16)" and entry["engine"] == cli.engine_revision()
    assert sorted(entry) == ["engine", "report", "spec"]


def test_cache_transparent_up_to_timing(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    run_cli(capsys, ["info", "Q(16)", "--json", "--cache-path", cp])
    _, cached, _ = run_cli(capsys, ["info", "Q(16)", "--json", "--cache-path", cp])
    _, fresh, _ = run_cli(capsys, ["info", "Q(16)", "--json", "--no-cache"])
    a, b = json.loads(cached), json.loads(fresh)
    a.pop("ms"), b.pop("ms")
    assert a == b


def test_no_cache_leaves_no_file(capsys, tmp_path):
    cp = tmp_path / "cache"
    run_cli(capsys, ["info", "D(8)", "--json", "--no-cache", "--cache-path", str(cp)])
    assert not cp.exists()


def test_stale_engine_entries_are_recomputed(capsys, tmp_path):
    cp = tmp_path / "cache"
    run_cli(capsys, ["info", "D(8)", "--cache-path", str(cp)])
    entry = read_entry(cp, "D(8)")
    entry["engine"] = "0.0.0"
    entry["report"]["d_prime"] = {"num": 1, "den": 7}
    write_entry(cp, "D(8)", entry)
    # the poisoned stale entry is ignored, recomputed, and overwritten
    code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
    assert code == 0 and out == "4/5\n"
    assert read_entry(cp, "D(8)")["engine"] == cli.engine_revision()


def test_entries_stamped_with_the_bare_version_are_recomputed(capsys, tmp_path):
    cp = tmp_path / "cache"
    run_cli(capsys, ["info", "D(8)", "--cache-path", str(cp)])
    entry = read_entry(cp, "D(8)")
    assert entry["engine"].startswith(__version__ + "+")
    # an entry under its true digest is served as it is, marked timing and all ...
    entry["report"]["ms"] = 424242
    seal_entry(cp, "D(8)", entry)
    _, out, _ = run_cli(capsys, ["info", "D(8)", "--json", "--cache-path", str(cp)])
    assert json.loads(out)["ms"] == 424242
    # ... but not when it carries the bare version, as older engines wrote it
    entry["engine"] = __version__
    seal_entry(cp, "D(8)", entry)
    _, out, _ = run_cli(capsys, ["info", "D(8)", "--json", "--cache-path", str(cp)])
    assert json.loads(out)["ms"] != 424242
    assert read_entry(cp, "D(8)")["engine"] == cli.engine_revision()


def _engine_revision_of(package_dir: Path) -> str:
    code = "from dedekind import cli; print(cli.engine_revision())"
    env = {**os.environ, "PYTHONPATH": str(package_dir.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_engine_revision_follows_the_module_sources(tmp_path):
    package = tmp_path / "dedekind"
    shutil.copytree(
        Path(cli.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    before = _engine_revision_of(package)
    assert before == cli.engine_revision()
    with open(package / "invariants.py", "a") as fh:
        fh.write("# an edit that changes no value still changes the revision\n")
    after = _engine_revision_of(package)
    assert after != before and after.startswith(__version__ + "+")


def test_inconsistent_cached_entries_are_recomputed(capsys, tmp_path):
    cp = tmp_path / "cache"
    _, cold, _ = run_cli(capsys, ["info", "D(8)", "--json", "--no-cache"])
    want = json.loads(cold)
    want.pop("ms")
    tampered = {
        "d_prime": {"num": 1, "den": 7},
        "spec": "Q(8)",
        "nu": 5,
        "d_star": {"num": 1, "den": 1},
        "lattice_size": 0,
    }
    for field, value in tampered.items():
        run_cli(capsys, ["info", "D(8)", "--cache-path", str(cp)])
        entry = read_entry(cp, "D(8)")
        entry["report"][field] = value
        write_entry(cp, "D(8)", entry)
        code, out, _ = run_cli(capsys, ["info", "D(8)", "--json", "--cache-path", str(cp)])
        got = json.loads(out)
        got.pop("ms")
        assert code == 0 and got == want, field
        assert read_entry(cp, "D(8)")["report"][field] == want[field], field


def _assert_each_command_prints_cold(capsys, cp, edit):
    """Each of four commands, run on D(8)'s entry just after edit() changes it, prints
    what it prints with --no-cache."""

    def output(command, *cache):
        code, out, err = run_cli(capsys, [*command, "D(8)", *cache])
        out = _without_ms(out) if command == ["info", "--json"] else out.split("time:")[0]
        return code, out, err

    for command in (["info"], ["info", "--json"], ["dprime"], ["dstar", "--json"]):
        run_cli(capsys, ["dprime", "D(8)", "--cache-path", cp])
        edit()
        assert output(command, "--cache-path", cp) == output(command, "--no-cache"), command


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", "8"),
        ("order", None),
        ("order", True),
        ("nu", 2.0),
        ("d_prime", {"num": 4.0, "den": 5}),
        ("d_star", {"num": True, "den": 1}),
        ("abelian", 1),
        ("abelian", True),
        ("dedekind", True),
        ("iwasawa", True),
        ("modular_lattice", True),
        ("schmidt", True),
        ("schmidt", None),
        ("order", 16),
        ("nilpotent", False),
    ],
)
def test_wrong_typed_or_contradictory_entries_are_recomputed(capsys, tmp_path, field, value):
    # a field changed after the entry was written, to a wrong type, to flags
    # that no group has together or to a well-typed wrong value, makes the
    # entry a miss: each command prints its cold output
    cp = str(tmp_path / "cache")

    def edit():
        entry = read_entry(cp, "D(8)")
        report = entry["report"]
        (report if field in report else report["flags"])[field] = value
        write_entry(cp, "D(8)", entry)

    _assert_each_command_prints_cold(capsys, cp, edit)


@pytest.mark.parametrize("change", ["cut-short", "byte-flipped", "other-spec"])
def test_entry_files_changed_or_moved_are_recomputed(capsys, tmp_path, change):
    # the last byte is the body's final newline and the flipped one is a digit
    # of nu, so the JSON still parses and only the digest line tells; Q(8)'s
    # entry copied over D(8)'s passes the digest and fails the spec check
    cp = str(tmp_path / "cache")
    path = cli._entry_path(cp, "D(8)")

    def edit():
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        if change == "cut-short":
            del data[-1]
        elif change == "byte-flipped":
            data[data.index(b'"nu": ') + 6] ^= 1
        else:
            run_cli(capsys, ["dprime", "Q(8)", "--cache-path", cp])
            with open(cli._entry_path(cp, "Q(8)"), "rb") as fh:
                data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data)

    _assert_each_command_prints_cold(capsys, cp, edit)


def test_concurrent_writers_keep_each_others_entries(capsys, tmp_path, monkeypatch):
    cp = str(tmp_path / "cache")
    compute = cli.compute_report

    def racing(g, spec=None, **kwargs):
        if spec == "D(8)":
            # another writer caches Q(8) while this call computes D(8)
            assert cli.main(["dprime", "Q(8)", "--cache-path", cp]) == 0
        return compute(g, spec=spec, **kwargs)

    monkeypatch.setattr(cli, "compute_report", racing)
    assert run_cli(capsys, ["dprime", "D(8)", "--cache-path", cp])[0] == 0
    run_cli(capsys, ["dprime", "D(16)", "--cache-path", cp])
    for spec in ("D(8)", "Q(8)", "D(16)"):
        assert read_entry(cp, spec)["spec"] == spec
    assert len(os.listdir(cp)) == 3


def test_cache_writer_stress_loses_no_written_entry(capsys, tmp_path, monkeypatch):
    # 4 threads each request all 32 specs in the same order, so several
    # writers race on one entry; no write may fail or be lost
    cp = str(tmp_path / "cache")
    failed, codes = [], []
    replace = os.replace

    def recording(src, dst):
        try:
            replace(src, dst)
        except OSError as exc:
            failed.append(exc)
            raise

    monkeypatch.setattr(os, "replace", recording)
    specs = [f"C({n})" for n in range(1, 33)]

    def worker():
        for spec in specs:
            codes.append(cli.main(["dprime", spec, "--cache-path", cp]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert codes == [0] * (4 * len(specs)) and not failed
    assert sorted(os.listdir(cp)) == sorted(
        os.path.basename(cli._entry_path(cp, spec)) for spec in specs
    )
    for spec in specs:
        assert cli._cache_get(cp, spec).spec == spec


def test_cached_entry_missing_d_star_is_upgraded(capsys, tmp_path):
    # whichever command reads the entry, a missing reachable d* is computed
    for command, line in (("info", "d*(G):    11/19\n"), ("dstar", "11/19\n")):
        cp = tmp_path / command
        run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", str(cp)])
        entry = read_entry(cp, "D(16)")
        entry["report"]["d_star"] = None
        write_entry(cp, "D(16)", entry)
        code, out, _ = run_cli(capsys, [command, "D(16)", "--cache-path", str(cp)])
        assert code == 0 and line in out, command
        assert read_entry(cp, "D(16)")["report"]["d_star"] == {"num": 11, "den": 19}


def test_dstar_reach_ends_at_order_256(capsys):
    assert run_cli(capsys, ["dstar", "C(256)", "--no-cache"]) == (0, "1\n", "")
    assert run_cli(capsys, ["dstar", "C(257)", "--no-cache"]) == (
        4, "", "error: d* on order 257 > 256 needs --allow-slow\n"
    )


def test_cached_report_keeps_the_d_star_size_gate(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    # info caches C(300) without d*; dstar must still refuse, as it does cold
    assert run_cli(capsys, ["info", "C(300)", "--cache-path", cp])[0] == 0
    assert run_cli(capsys, ["dstar", "C(300)", "--cache-path", cp])[0] == 4
    assert run_cli(capsys, ["dstar", "C(300)", "--no-cache"])[0] == 4
    # and the other way: an entry with d* from --allow-slow serves it only to
    # a call that computes d* itself
    assert run_cli(capsys, ["dstar", "C(300)", "--allow-slow", "--cache-path", cp])[1] == "1\n"
    assert read_entry(cp, "C(300)")["report"]["d_star"] == {"num": 1, "den": 1}
    code, _, err = run_cli(capsys, ["dstar", "C(300)", "--cache-path", cp])
    assert code == 4 and err == "error: d* on order 300 > 256 needs --allow-slow\n"
    _, cold, _ = run_cli(capsys, ["info", "C(300)", "--no-cache"])
    _, warm, _ = run_cli(capsys, ["info", "C(300)", "--cache-path", cp])
    assert "d*(G):    -\n" in cold and "d*(G):    -\n" in warm
    assert run_cli(capsys, ["dstar", "SD(3,13)", "--allow-slow", "--cache-path", cp])[0] == 0
    for argv in (["info", "C(300)", "--json"], ["sweep", "--family", "SD", "--json"]):
        _, cold, _ = run_cli(capsys, [*argv, "--no-cache"])
        _, warm, _ = run_cli(capsys, [*argv, "--cache-path", cp])
        assert _without_ms(warm) == _without_ms(cold), argv
    # the entry keeps its d*, and --allow-slow serves it without recomputing
    assert read_entry(cp, "C(300)")["report"]["d_star"] == {"num": 1, "den": 1}
    entry = read_entry(cp, "C(300)")
    entry["report"]["ms"] = 424242
    seal_entry(cp, "C(300)", entry)
    _, out, _ = run_cli(capsys, ["info", "C(300)", "--allow-slow", "--json", "--cache-path", cp])
    assert json.loads(out)["ms"] == 424242 and json.loads(out)["d_star"] == {"num": 1, "den": 1}


def test_cached_report_keeps_the_order_cap(capsys, tmp_path):
    cp = str(tmp_path / "cache")
    spec = "D(8) x EA(2,3)"
    assert run_cli(capsys, ["dprime", spec, "--cache-path", cp])[1] == "681/937\n"
    for cache in (["--no-cache"], ["--cache-path", cp]):
        for command in ("info", "dprime", "dstar"):
            code, out, err = run_cli(capsys, [command, spec, "--max-order", "8", *cache])
            assert (code, out) == (4, ""), (command, cache)
            assert err == "error: product of order 64 exceeds the cap 8\n"
    # a cap the group is within still serves the entry
    assert run_cli(capsys, ["dprime", spec, "--max-order", "64", "--cache-path", cp])[1] == "681/937\n"


def test_a_split_product_caches_its_blocks_and_reads_them_back(capsys, tmp_path, monkeypatch):
    cp = str(tmp_path / "cache")
    computed = []
    compute = cli.compute_report

    def counting(g, spec=None, **kwargs):
        computed.append(spec)
        return compute(g, spec=spec, **kwargs)

    monkeypatch.setattr(cli, "compute_report", counting)
    _, cold, _ = run_cli(capsys, ["info", "C(3) x D(8)", "--json", "--no-cache"])
    assert run_cli(capsys, ["info", "C(3) x D(8)", "--json", "--cache-path", cp])[0] == 0
    assert sorted(computed) == ["C(3)", "C(3)", "D(8)", "D(8)"]
    assert sorted(os.listdir(cp)) == sorted(
        os.path.basename(cli._entry_path(cp, s)) for s in ("C(3) x D(8)", "C(3)", "D(8)")
    )
    for spec in ("C(3) x D(8)", "C(3)", "D(8)"):
        assert read_entry(cp, spec)["spec"] == spec
    # a block's entry serves the block itself, and the next product holding it
    computed.clear()
    assert run_cli(capsys, ["dprime", "D(8)", "--cache-path", cp])[:2] == (0, "4/5\n")
    assert computed == []
    _, out, _ = run_cli(capsys, ["info", "C(5) x D(8)", "--json", "--cache-path", cp])
    assert computed == ["C(5)"] and json.loads(out)["d_prime"] == {"num": 4, "den": 5}
    # a block entry changed after it was written is recomputed, not served
    computed.clear()
    entry = read_entry(cp, "D(8)")
    entry["report"]["nu"] = 5
    write_entry(cp, "D(8)", entry)
    _, out, _ = run_cli(capsys, ["info", "C(7) x D(8)", "--json", "--cache-path", cp])
    assert sorted(computed) == ["C(7)", "D(8)"]
    assert json.loads(out)["nu"] == 4
    assert read_entry(cp, "D(8)")["report"]["nu"] == 2
    _, warm, _ = run_cli(capsys, ["info", "C(3) x D(8)", "--json", "--cache-path", cp])
    assert _without_ms(warm) == _without_ms(cold)


def _without_ms(text: str):
    data = json.loads(text)
    for report in data if isinstance(data, list) else [data]:
        report.pop("ms")
    return data


def test_corrupt_cache_file_is_ignored(capsys, tmp_path):
    cp = tmp_path / "cache"
    cp.mkdir()
    entry = cli._entry_path(str(cp), "D(8)")
    for corrupt in ("{ not json", "", "[1, 2]", '{"engine": "%s", "report": "x"}' % cli.engine_revision()):
        with open(entry, "w") as fh:
            fh.write(corrupt)
        code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
        assert code == 0 and out == "4/5\n", corrupt
        assert read_entry(cp, "D(8)")["spec"] == "D(8)", corrupt


def test_cache_path_that_is_a_regular_file_is_left_alone(capsys, tmp_path):
    cp = tmp_path / "not-a-dir"
    cp.write_text("keep me\n")
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
        assert code == 0 and out == "4/5\n"
    code, out, _ = run_cli(capsys, ["sweep", "--family", "Q", "--cache-path", str(cp)])
    assert code == 0 and out.endswith("3 groups\n")
    assert cp.read_text() == "keep me\n"
    assert os.listdir(tmp_path) == ["not-a-dir"]


def test_stray_files_in_the_cache_directory_are_ignored(capsys, tmp_path):
    cp = tmp_path / "cache"
    cp.mkdir()
    entry = cli._entry_path(str(cp), "D(8)")
    # a writer killed between its write and its rename leaves a temp file
    stray = {
        entry + ".1.2.tmp": json.dumps({"spec": "D(8)", "engine": __version__}),
        str(cp / "notes.txt"): "foreign\n",
        str(cp / ".dedekind_cache.json"): "{}\n",
    }
    for path, text in stray.items():
        with open(path, "w") as fh:
            fh.write(text)
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
        assert code == 0 and out == "4/5\n"
    assert read_entry(cp, "D(8)")["spec"] == "D(8)"
    for path, text in stray.items():
        with open(path) as fh:
            assert fh.read() == text


# ---------------------------------------------------------------------------
# the parser, built once per process


def test_parser_is_built_at_most_once(capsys, tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    cp = str(tmp_path / "cache")
    for argv in (
        ["info", "D(8)", "--cache-path", cp],
        ["dprime", "D(8)", "--cache-path", cp],
        ["dstar", "Q(8)", "--json", "--no-cache"],
        ["lattice", "D(8)", "--dot"],
        ["sections", "C(4)"],
        ["formula", "dihedral", "4"],
        ["density", "1", "2", "0.05"],
        ["sweep", "--family", "Q", "--max-order", "16", "--no-cache"],
    ):
        assert run_cli(capsys, argv)[0] == 0, argv
    with pytest.raises(SystemExit):
        cli.main(["info"])
    assert len(builds) == 1


def test_no_state_leaks_between_calls(capsys, tmp_path):
    cp = tmp_path / "cache"
    assert run_cli(capsys, ["info", "D(8)", "--no-cache"])[0] == 0
    assert run_cli(capsys, ["info", "D(8)", "--cache-path", str(cp)])[0] == 0
    assert os.path.exists(cli._entry_path(str(cp), "D(8)"))

    big = ["dprime", "D(8) x EA(2,3)", "--no-cache"]
    assert run_cli(capsys, big + ["--max-order", "8"])[0] == 4
    assert run_cli(capsys, big) == (0, "681/937\n", "")


def _fresh_process_output(argv) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "dedekind.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_usage_errors_and_version_leave_later_output_unchanged(capsys):
    argv = ["lattice", "D(8)", "--json"]
    fresh = _fresh_process_output(argv)
    with pytest.raises(SystemExit) as exc:
        cli.main(["lattice", "D(8)", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run_cli(capsys, argv) == (0, fresh, "")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"dedekind {__version__}\n"
    assert run_cli(capsys, argv) == (0, fresh, "")


# ---------------------------------------------------------------------------
# verify subcommand plumbing (full corpus runs live in the acceptance module)


def _fake_results(ok: bool):
    checks = (Check("demo check", True, ""),) if ok else (
        Check("demo check", False, "witness text"),
    )
    return [SuiteResult(suite="demo", checks=checks, antecedents={"instances": 1})]


def test_verify_exit_codes_via_stub(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: _fake_results(True))
    code, out, _ = run_cli(capsys, ["verify", "demo"])
    assert code == 0
    assert "[ok ] demo" in out and "all passed" in out

    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: _fake_results(False))
    code, out, _ = run_cli(capsys, ["verify", "demo"])
    assert code == 5
    assert "[FAIL] demo" in out
    assert "witness text" in out

    code, js, _ = run_cli(capsys, ["verify", "demo", "--json"])
    data = json.loads(js)
    assert data["ok"] is False
    assert data["suites"][0]["failed"] == 1


def test_verify_unknown_suite_is_parameter_error(capsys):
    assert run_cli(capsys, ["verify", "definitely-not-a-suite"])[0] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["all", "formulas"], "'all' runs every suite and takes no other suite names"),
        (["formulas", "all"], "'all' runs every suite and takes no other suite names"),
        (["formulas", "formulas"], "suite 'formulas' is named more than once"),
    ],
    ids=["all-first", "all-last", "repeated"],
)
def test_verify_rejects_a_repeated_suite_or_all_among_names(capsys, argv, message):
    # rejected before the corpus is built: exit 3 and no output
    assert run_cli(capsys, ["verify", *argv]) == (3, "", f"error: {message}\n")
    assert run_cli(capsys, ["verify", *argv, "--json"]) == (3, "", f"error: {message}\n")
