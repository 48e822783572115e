"""Names that tooling outside the package relies on."""

import ast
import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdrkit import cli
from hdrkit.fileio import write_ppm, write_rgbe
from hdrkit.image import HdrImage, LinearLdr, linear_to_srgb
from hdrkit.render import OrthoCamera, parse_scene

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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the python block under "## Library", run as documented on a 64x32 scene
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    hdr = np.random.default_rng(5).lognormal(-1.0, 1.0, (32, 64, 3)).astype(np.float32)
    (tmp_path / "scene.hdr").write_bytes(write_rgbe(HdrImage(hdr)))
    (tmp_path / "scene.ppm").write_bytes(write_ppm(linear_to_srgb(LinearLdr(np.minimum(hdr, 1)))))
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_scene_file_parses():
    # the block under "### Scene files", parsed as the scene file it shows
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^### Scene files\n\n```\n(.*?)^```", readme, re.S | re.M).group(1)
    scene = parse_scene(block)
    assert scene.camera == OrthoCamera(160, 120, 4.5, 0.0, 0.9)
    assert [s.material.kind for s in scene.spheres] == ["diffuse", "mirror", "glossy"]


def test_readme_cli_lines_resolve(tmp_path, monkeypatch):
    # each documented invocation parses, resolves its options and claims its
    # outputs; run in an empty directory, so none of its files can be read
    readme = (ROOT / "README.md").read_text()
    lines = [line.split("#")[0].split()
             for block in re.findall(r"^```bash\n(.*?)^```", readme, re.S | re.M)
             for line in block.splitlines() if line.startswith("hdrkit ")]
    assert sorted({argv[1] for argv in lines}) == sorted(cli._COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        *_, manifest, _ = cli._plan(argv[1:])
        assert manifest["inputs"], argv


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


def test_package_has_no_unused_imports_or_private_names():
    # every name a module imports is used there (the package's re-exports
    # and __future__ features aside), and every module-level _private
    # function, class or constant is referenced in the package beyond its
    # definition, so a helper that lost its last caller shows up here
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "hdrkit").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unused, unreferenced = [], []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if module == "__init__.py" or not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{module}:{node.lineno} {name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unreferenced += [f"{module}:{node.lineno} {name}" for name in names
                             if name.startswith("_") and not name.startswith("__")
                             and name not in referenced]
    assert (unused, unreferenced) == ([], [])


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_every_declared_path_reaches_the_claims_or_the_inputs(tmp_path, monkeypatch):
    # a path's argparse attribute is derived from its last name; one that
    # missed would drop the path from the claims or the sidecars' inputs.
    # --output and --out-dir exclude each other, so a command with both is
    # planned once without each; without --output a batch file is claimed in
    # --out-dir, and crop-set's view files follow its directory. Run in an
    # empty directory, so no output's place is taken
    monkeypatch.chdir(tmp_path)
    views = [(yaw, 0) for yaw in range(0, 360, 60)] + [(yaw, 45) for yaw in (0, 120, 240)]
    for name, command in cli._COMMANDS.items():
        declared = {names[-1] for names, *_ in command.paths}
        both = {"--output", "--out-dir"} <= declared
        for left_out in ("--out-dir", "--output") if both else (None,):
            argv, outputs, inputs = [name], [], []
            for names, _, writes, batch, _ in command.paths:
                if names[-1] == left_out:
                    continue
                value = f"{names[-1].strip('-')}.pfm"
                argv += [names[0], value] if names[0].startswith("-") else [value]
                (inputs if writes is None else outputs).append(value)
                if batch and left_out == "--output":
                    outputs.append(f"out-dir.pfm/{Path(value).stem}{batch}")
                if name == "crop-set" and writes is not None:
                    outputs += [f"{value}/pano_yaw{yaw:03d}_pitch{pitch:02d}.pfm"
                                for yaw, pitch in views]
            *_, manifest, outs = cli._plan(argv)
            assert manifest["inputs"] == inputs, name
            assert [str(out) for out in outs] == outputs, name


def test_a_failing_hypothesis_example_names_its_test(tmp_path):
    # a failing @given test under the repository's pytest settings and
    # conftest reports a FAILED line; without the conftest, the warning
    # filters turned Hypothesis's failure report into an INTERNALERROR
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED tests/test_probe.py::test_fails" in run.stdout
    assert run.returncode == 1
