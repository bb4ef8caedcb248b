import ast
import json
import os
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest
from conftest import _clear_memos

import modtwist
from modtwist import cli, necklace


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(modtwist.__file__).parent.parent))
    code = "import modtwist, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_the_cli_import_loads_no_heavy_module():
    # records are namedtuple subclasses and fractions loads on the
    # disjoint-axes path only, so start-up pays for none of these
    env = dict(os.environ, PYTHONPATH=str(Path(modtwist.__file__).parent.parent))
    heavy = ["numpy", "dataclasses", "inspect", "fractions", "decimal"]
    code = f"import modtwist.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project.get("dependencies", []) == []


def test_the_console_script_answers(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["modtwist"]
    module, _, name = target.partition(":")
    main = getattr(import_module(module), name)
    assert main(["classify", "R^3 L R^2"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "hyperbolic"


def test_no_asserts_in_the_package():
    # python -O strips assert statements, so result checks raise instead
    for path in sorted(Path(modtwist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None)
                assert name != "AssertionError", f"{path.name}:{node.lineno}"


def test_no_unused_imports_in_the_package():
    # every module-level import is referenced; __init__ re-exports by design
    for path in sorted(Path(modtwist.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, lineno in imported.items():
            assert name in used, f"{path.name}:{lineno} imports {name} unused"


def test_every_package_record_is_a_namedtuple():
    # one record idiom: a value type subclasses a namedtuple, never a bare tuple
    for path in sorted(Path(modtwist.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = [getattr(base, "id", None) for base in node.bases]
                assert "tuple" not in bases, f"{path.name}:{node.lineno} {node.name}"


def _modules():
    names = sorted(p.stem for p in Path(modtwist.__file__).parent.glob("*.py"))
    return [import_module(f"modtwist.{name}") for name in names if name != "__init__"]


# every lru_cache of the package; all but the per-modulus, the half-table
# (levels and keys) and the block-table ones are keyed by an element or a
# word, and conftest's _clear_memos empties those.  The kept ones depend
# only on the modulus or on the stone alphabet.
MEMOS = {
    "modtwist.psl2._classify_full",
    "modtwist.factorization.analyze",
    "modtwist.mcurve._cutting_diagram",
    "modtwist.obstructions._twist_class_mod",
    "modtwist.necklace._stone_histograms",
    "modtwist.necklace._block_monodromies",
}
KEPT = {
    "modtwist.obstructions._twist_class_mod",
    "modtwist.necklace._stone_histograms",
    "modtwist.necklace._block_monodromies",
}


def _memos():
    return {
        f"{module.__name__}.{name}": value
        for module in _modules()
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }


def test_the_package_keeps_exactly_its_memos():
    assert set(_memos()) == MEMOS
    # each lru_cache decorates a module-level function, so no call builds one
    for path in sorted(Path(modtwist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        decorating = {
            id(getattr(d, "func", d))
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for d in node.decorator_list
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "lru_cache":
                assert id(node) in decorating, f"{path.name}:{node.lineno}"


def test_clear_memos_empties_every_per_element_memo(capsys):
    assert cli.main(["classify", "R^3 L R^2"]) == 0
    assert cli.main(["factorize", "R^3 L R^2", "--check-obstructions"]) == 0
    assert cli.main(["mcurve", "*ud*"]) == 0
    assert cli.main(["necklace", "enumerate", "--k", "1", "--w", "0"]) == 0
    necklace.monodromy("OOOOOSSSSS")  # fills the block table
    capsys.readouterr()
    memos = _memos()
    assert all(memo.cache_info().currsize for memo in memos.values())
    _clear_memos()
    assert {name for name, memo in memos.items() if memo.cache_info().currsize} == KEPT


def test_every_module_declares_its_public_names():
    for module in _modules():
        assert isinstance(getattr(module, "__all__", None), list), module.__name__
        assert all(hasattr(module, name) for name in module.__all__), module.__name__


def test_the_package_exports_exactly_what_its_modules_declare():
    # the command line's main is reached as modtwist.cli.main, not re-exported
    declared = {name for m in _modules() if m.__name__ != "modtwist.cli" for name in m.__all__}
    public = {
        name
        for name, value in vars(modtwist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == declared


def test_ci_runs_tier1_from_the_declared_python_floor():
    yaml = pytest.importorskip("yaml")
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    floor = tomllib.loads((root / "pyproject.toml").read_text())["project"]["requires-python"]
    assert floor == ">=" + versions[0]
    assert versions == ["3.10", "3.11", "3.12"]
