"""Names that tooling outside the package relies on."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from hdrkit import cli

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "perfbench" / "launcher.py"


def test_benchmark_traced_names_exist():
    # the traced benchmark run looks up every TRACED name with getattr, so
    # a renamed or removed function breaks each traced run
    spec = importlib.util.spec_from_file_location("perfbench_launcher", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    missing = [f"{layer}.{name}" for layer, names in launcher.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"hdrkit.{layer}"), name, None))]
    assert missing == []


def test_package_imports_no_scipy():
    found = []
    for path in sorted((ROOT / "src" / "hdrkit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_every_declared_path_reaches_the_claims_or_the_inputs():
    # a path's argparse attribute is derived from its last name; one that
    # missed would drop the path from the claims or the sidecars' inputs
    parser = cli._build_parser()
    for name, command in cli._COMMANDS.items():
        argv, outputs, inputs = [name], [], []
        for names, _, writes, _ in command.paths:
            value = f"{names[-1].strip('-')}.pfm"
            argv += [names[0], value] if names[0].startswith("-") else [value]
            (inputs if writes is None else outputs).append(value)
        claims, got = cli._roles(command, parser.parse_args(argv))
        assert got == inputs, name
        assert [str(out) for _, out, _ in claims] == outputs, name
