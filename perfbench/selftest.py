"""The benchmark's own test: ``python3 perfbench/selftest.py`` (about a minute).

1. Every workload, in tiny mode, untraced and traced, runs to its end with
   correct outputs, no failed operation, and exactly the metrics that
   BENCHMARK.json names.
2. Each workload's checks reject a deliberately damaged output.
3. Without the hdrkit source next to it, run.py exits non-zero and prints
   no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import imgio
import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def check_runs(spec: dict) -> None:
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert want[1] == set(run.PER_LAYER)
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert set(result["metrics"]) == want[trace], (name, trace)
            print(f"ok   {name} --trace {trace}: {result['attempted']} operations")


def damage(name: str, out: Path, stdout: list) -> list:
    if name == "dataset-synth":
        path = out / "ldr" / "A.ppm"
        codes = imgio.decode_ppm(path.read_bytes()).copy()
        codes[0, 0, 0] ^= 1
        path.write_bytes(imgio.encode_ppm(codes))
    elif name == "pano-merge":
        path = out / "merged.pfm"
        merged = imgio.decode_pfm(path.read_bytes())
        merged[-1, 0] *= 1.5  # below the horizon, where the mask is 0
        path.write_bytes(imgio.encode_pfm(merged))
    else:
        report = json.loads(stdout[0])
        stdout = [json.dumps(dict(report, mse=1e-9))]
    return stdout


def check_damage() -> None:
    work = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    children = run.Children(work)
    try:
        for name, cls in WORKLOADS.items():
            (work / name).mkdir()
            wl = cls(work / name, 5, tiny=True)
            out = work / name / "item"
            stdout = [children.invoke(a)[1] for a in wl.item(0, out)]
            assert wl.check(0, out, stdout) == [], name
            assert wl.check(0, out, damage(name, out, stdout)), f"{name}: damage not caught"
            print(f"ok   {name}: checks reject a damaged output")
        assert children.failed == 0
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)


def check_no_source() -> None:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ibl-eval",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
        print("ok   without the hdrkit source: exit", proc.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_runs(json.loads((run.ROOT / "BENCHMARK.json").read_text()))
    check_damage()
    check_no_source()
    print("selftest passed")
