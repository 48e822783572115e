"""Names that tooling outside the package relies on."""

import importlib
import importlib.util
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


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
