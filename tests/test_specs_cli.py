"""Spec mini-language and the command-line front end, including the cache."""

import json
import os
import sys
import threading
import time

import pytest

from dedekind import __version__, cli
from dedekind.errors import InvalidParameter, ParseError
from dedekind.specs import build_group, parse_spec
from dedekind.verify import Check, SuiteResult


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
    ):
        with pytest.raises(ParseError):
            parse_spec(bad)


def test_build_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        build_group("M(4,3)")
    with pytest.raises(InvalidParameter):
        build_group("He(2)")


# ---------------------------------------------------------------------------
# CLI output paths


def test_info_human(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, ["info", "He(3)", "--cache-path", str(tmp_path / "c.json")]
    )
    assert code == 0
    assert "spec:     He(3)" in out
    assert "d'(G):    11/19" in out
    assert "nilpotent=yes" in out


def test_dprime_and_dstar_plain(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    assert run_cli(capsys, ["dprime", "D(8)", "--cache-path", cp])[:2] == (0, "4/5\n")
    assert run_cli(capsys, ["dstar", "C(2) x D(8)", "--cache-path", cp])[:2] == (
        0,
        "27/35\n",
    )


def test_json_output_is_machine_readable(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        ["info", "M(2,5)", "--json", "--cache-path", str(tmp_path / "c.json")],
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


def test_sections_command(capsys):
    code, out, _ = run_cli(capsys, ["sections", "Q(8)", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 18


def test_formula_command(capsys):
    assert run_cli(capsys, ["formula", "modular", "2", "5"])[:2] == (0, "13/14\n")
    assert run_cli(capsys, ["formula", "dihedral", "4"])[:2] == (0, "11/19\n")
    code, out, _ = run_cli(capsys, ["formula", "gaussian", "4", "2", "2", "--json"])
    assert code == 0 and json.loads(out)["value"] == "35"
    # wrong arity and unknown family are parameter errors
    assert run_cli(capsys, ["formula", "modular", "2"])[0] == 3
    assert run_cli(capsys, ["formula", "nonsense", "1"])[0] == 3


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


def test_sweep_command(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    code, out, _ = run_cli(capsys, ["sweep", "--family", "M", "--cache-path", cp])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("M(")]
    assert len(lines) == 6
    assert any("M(3,3)" in l and "4/5" in l for l in lines)
    # the sweep populated the cache; a repeat serves identical bytes from it
    code2, out2, _ = run_cli(capsys, ["sweep", "--family", "M", "--cache-path", cp])
    assert out2 == out


def test_sweep_cache_serves_the_same_d_star_as_a_cold_info(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    assert run_cli(capsys, ["sweep", "--family", "C27Q8", "--cache-path", cp])[0] == 0
    _, out, _ = run_cli(capsys, ["info", "C27Q8", "--cache-path", cp])
    _, cold, _ = run_cli(capsys, ["info", "C27Q8", "--no-cache"])
    assert "d*(G):    5/32" in out and "d*(G):    5/32" in cold


def test_exit_codes(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    assert run_cli(capsys, ["info", "M(2", "--cache-path", cp])[0] == 2
    assert run_cli(capsys, ["info", "M(4,3)", "--cache-path", cp])[0] == 3
    assert run_cli(capsys, ["info", "D(1024)", "--cache-path", cp])[0] == 4
    assert run_cli(capsys, ["dstar", "D(512)", "--max-order", "600", "--cache-path", cp])[0] == 4


# ---------------------------------------------------------------------------
# cache behaviour


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    _, fresh, _ = run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", cp])
    _, hit, _ = run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", cp])
    _, hit2, _ = run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", cp])
    assert fresh == hit == hit2

    entries = json.load(open(cp))["entries"]
    assert set(entries) == {"D(16)"}
    assert entries["D(16)"]["engine"] == __version__


def test_cache_transparent_up_to_timing(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    run_cli(capsys, ["info", "Q(16)", "--json", "--cache-path", cp])
    _, cached, _ = run_cli(capsys, ["info", "Q(16)", "--json", "--cache-path", cp])
    _, fresh, _ = run_cli(capsys, ["info", "Q(16)", "--json", "--no-cache"])
    a, b = json.loads(cached), json.loads(fresh)
    a.pop("ms"), b.pop("ms")
    assert a == b


def test_no_cache_leaves_no_file(capsys, tmp_path):
    cp = tmp_path / "c.json"
    run_cli(capsys, ["info", "D(8)", "--json", "--no-cache", "--cache-path", str(cp)])
    assert not cp.exists()


def test_stale_engine_entries_are_recomputed(capsys, tmp_path):
    cp = tmp_path / "c.json"
    run_cli(capsys, ["info", "D(8)", "--cache-path", str(cp)])
    data = json.load(open(cp))
    data["entries"]["D(8)"]["engine"] = "0.0.0"
    data["entries"]["D(8)"]["report"]["d_prime"] = {"num": 1, "den": 7}
    json.dump(data, open(cp, "w"))
    # the poisoned stale entry is ignored, recomputed, and overwritten
    code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
    assert code == 0 and out == "4/5\n"
    assert json.load(open(cp))["entries"]["D(8)"]["engine"] == __version__


def test_inconsistent_cached_entries_are_recomputed(capsys, tmp_path):
    cp = tmp_path / "c.json"
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
        data = json.load(open(cp))
        data["entries"]["D(8)"]["report"][field] = value
        json.dump(data, open(cp, "w"))
        code, out, _ = run_cli(capsys, ["info", "D(8)", "--json", "--cache-path", str(cp)])
        got = json.loads(out)
        got.pop("ms")
        assert code == 0 and got == want, field
        assert json.load(open(cp))["entries"]["D(8)"]["report"][field] == want[field], field


def test_concurrent_writers_keep_each_others_entries(capsys, tmp_path, monkeypatch):
    cp = str(tmp_path / "c.json")
    compute = cli.compute_report

    def racing(g, spec=None, **kwargs):
        if spec == "D(8)":
            # another writer caches Q(8) after this call has read the file
            assert cli.main(["dprime", "Q(8)", "--cache-path", cp]) == 0
        return compute(g, spec=spec, **kwargs)

    monkeypatch.setattr(cli, "compute_report", racing)
    assert run_cli(capsys, ["dprime", "D(8)", "--cache-path", cp])[0] == 0
    assert set(json.load(open(cp))["entries"]) == {"D(8)", "Q(8)"}
    run_cli(capsys, ["dprime", "D(16)", "--cache-path", cp])
    assert set(json.load(open(cp))["entries"]) == {"D(8)", "Q(8)", "D(16)"}


def test_rewrite_with_the_same_inode_size_and_mtime_is_merged(capsys, tmp_path):
    # a freed inode reused within one timestamp tick gives a new cache file
    # the old (inode, size, mtime); the merge must still see the new entries
    cp = tmp_path / "c.json"
    run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
    loaded = cli._load_cache(str(cp))
    before = os.stat(cp)
    other = cp.read_text().replace('"D(8)"', '"Q(8)"')
    with open(cp, "r+") as fh:
        fh.write(other)
    os.utime(cp, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(cp)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns
    )
    assert cli._cache_write(str(cp), loaded, {"D(16)": {"spec": "D(16)"}})
    assert set(json.loads(cp.read_text())["entries"]) == {"Q(8)", "D(16)"}


def test_cache_writer_stress_loses_no_written_entry(capsys, tmp_path, monkeypatch):
    cp = str(tmp_path / "c.json")
    written, codes = [], []
    write = cli._cache_write

    def recording(path, loaded, fresh):
        ok = write(path, loaded, fresh)
        if ok:
            written.extend(fresh)
        return ok

    monkeypatch.setattr(cli, "_cache_write", recording)
    specs = [f"C({n})" for n in range(1, 33)]

    def worker(chunk):
        for spec in chunk:
            codes.append(cli.main(["dprime", spec, "--cache-path", cp]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(specs[i::4],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert codes == [0] * len(specs)
    # a writer that finds the lock taken skips its write; every write that
    # went through must survive the writers that came after it
    assert written and set(written) <= set(json.load(open(cp))["entries"])


def test_cached_entry_missing_d_star_is_upgraded(capsys, tmp_path):
    # whichever command reads the entry, a missing reachable d* is computed
    for command, line in (("info", "d*(G):    11/19\n"), ("dstar", "11/19\n")):
        cp = tmp_path / f"{command}.json"
        run_cli(capsys, ["info", "D(16)", "--json", "--cache-path", str(cp)])
        data = json.load(open(cp))
        data["entries"]["D(16)"]["report"]["d_star"] = None
        json.dump(data, open(cp, "w"))
        code, out, _ = run_cli(capsys, [command, "D(16)", "--cache-path", str(cp)])
        assert code == 0 and line in out, command
        assert json.load(open(cp))["entries"]["D(16)"]["report"]["d_star"] == {
            "num": 11,
            "den": 19,
        }


def test_cached_report_keeps_the_d_star_size_gate(capsys, tmp_path):
    cp = str(tmp_path / "c.json")
    # info caches C(300) without d*; dstar must still refuse, as it does cold
    assert run_cli(capsys, ["info", "C(300)", "--cache-path", cp])[0] == 0
    assert run_cli(capsys, ["dstar", "C(300)", "--cache-path", cp])[0] == 4
    assert run_cli(capsys, ["dstar", "C(300)", "--no-cache"])[0] == 4


def test_lock_contention_skips_write(capsys, tmp_path):
    cp = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.touch()
    code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
    # computation succeeds, caching is skipped rather than blocking
    assert code == 0 and out == "4/5\n"
    assert not cp.exists()
    lock.unlink()


def test_stale_lock_is_cleared(capsys, tmp_path):
    # a day-old lock was left by a killed writer, as a write takes milliseconds
    cp = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.touch()
    old = time.time() - 24 * 3600
    os.utime(lock, (old, old))
    code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
    assert code == 0 and out == "4/5\n"
    assert json.loads(cp.read_text())["entries"]["D(8)"]["spec"] == "D(8)"
    assert not lock.exists()


def test_corrupt_cache_file_is_ignored(capsys, tmp_path):
    cp = tmp_path / "c.json"
    cp.write_text("{ not json")
    code, out, _ = run_cli(capsys, ["dprime", "D(8)", "--cache-path", str(cp)])
    assert code == 0 and out == "4/5\n"
    assert json.load(open(cp))["entries"]["D(8)"]["spec"] == "D(8)"


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
