"""The package's public surface: the names README's Library section documents."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import dedekind

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_public_api():
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    exports = re.search(r"The package exports (.*?);", library, re.S).group(1)
    documented = set(re.findall(r"`(\w+)`", exports))
    assert set(dedekind.__all__) == documented
    assert len(dedekind.__all__) == len(documented)
    namespace: dict = {}
    exec("from dedekind import *", namespace)
    assert set(dedekind.__all__) <= namespace.keys()
    # the package import stays light: no corpus or command-line machinery
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, dedekind; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(dedekind.__file__).resolve().parents[1])},
    ).stdout
    assert "'dedekind'" in loaded
    assert "'dedekind.verify'" not in loaded
    assert "'dedekind.cli'" not in loaded


def test_runtime_imports_only_the_standard_library():
    package = Path(dedekind.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".", 1)[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_every_submodule_all_names_exist():
    package = Path(dedekind.__file__).resolve().parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    checked = 0
    for name in modules:
        module = importlib.import_module(f"dedekind.{name}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"dedekind.{name}.__all__ names missing {missing}"
        namespace: dict = {}
        exec(f"from dedekind.{name} import *", namespace)
        assert set(exported) <= namespace.keys()
        checked += 1
    assert checked >= 7


def test_every_module_function_is_used_or_exported():
    """Each module-level function and class in the package is referenced
    elsewhere in the package or named in its module's `__all__`; test-only
    code belongs in the tests."""
    package = Path(dedekind.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    names: list[tuple[str, ast.AST]] = []  # every identifier use, with its node
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                names.append((node.attr, node))
    unused = []
    for module, tree in sorted(trees.items()):
        qualified = "dedekind" if module == "__init__" else f"dedekind.{module}"
        exported = set(getattr(importlib.import_module(qualified), "__all__", ()))
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.ClassDef)) or fn.name in exported:
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not any(name == fn.name and id(node) not in own for name, node in names):
                unused.append(f"{module}.{fn.name}")
    assert not unused, f"module-level functions and classes unused in the package: {unused}"


def test_the_benchmark_tracer_still_fits_the_sources(capsys):
    # perfbench/tracing.py rebinds module-level names of dedekind; a renamed
    # or deleted name would break `perfbench/run.py --trace 1` without notice
    from dedekind import cli, invariants, verify
    from dedekind.specs import parse_spec

    spec = importlib.util.spec_from_file_location("_dedekind_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        replaced = list(tracer._restore)
        g = parse_spec("D(8)").build()
        verify.compute_report(g, spec="D(8)")
        assert {name for name, *_ in tracer.spans} >= {"invariants.report", "lattice.enumerate"}
        # a coprime product is reported from its factors, each built once
        # through GroupSpec.build, so the build span still times every build
        before = len(tracer.spans)
        assert cli.main(["info", "C(3) x D(8)", "--no-cache"]) == 0
        assert "d'(G):    4/5" in capsys.readouterr().out
        built = [name for name, *_ in tracer.spans[before:] if name == "specs.build_group"]
        assert len(built) == 2
    finally:
        tracer.uninstall()
    assert len(replaced) > len(verify.SUITES)
    for owner, name, original in replaced:
        now = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        assert now is original, name
    # VerifyAll wraps the compute_report that verify calls
    assert verify.compute_report is invariants.compute_report
