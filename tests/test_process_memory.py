"""Peak resident memory of whole CLI processes at dataset size.

Each command runs in a fresh Python that reports its own VmHWM: the kernel
resets that figure at exec, while a child's ru_maxrss would start from the
peak of the pytest process that spawned it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdrkit.fileio import write_pfm, write_ppm, write_rgbe
from hdrkit.image import HdrImage, LdrImage
from hdrkit.render import default_scene_text

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
from hdrkit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "hwm_kib": hwm}))
"""

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="needs /proc/self/status for VmHWM")


def peak_mib(args) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    return result["hwm_kib"] / 1024


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("dataset_size")
    rng = np.random.default_rng(41)
    pano = rng.lognormal(0.0, 1.0, (512, 1024, 3)).astype(np.float32)
    pred = pano * rng.lognormal(0.0, 0.1, pano.shape).astype(np.float32)
    ceil = rng.lognormal(0.0, 1.0, (512, 512, 3)).astype(np.float32)
    ldr = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
    (d / "pano.pfm").write_bytes(write_pfm(HdrImage(pano)))
    (d / "pred.pfm").write_bytes(write_pfm(HdrImage(pred)))
    (d / "pano.hdr").write_bytes(write_rgbe(HdrImage(pano)))
    (d / "pred.hdr").write_bytes(write_rgbe(HdrImage(pred)))
    (d / "ceil.pfm").write_bytes(write_pfm(HdrImage(ceil)))
    (d / "ceil.ppm").write_bytes(write_ppm(LdrImage(ldr)))
    pano_ldr = rng.integers(0, 256, (512, 1024, 3), dtype=np.uint8)
    (d / "pano.ppm").write_bytes(write_ppm(LdrImage(pano_ldr)))
    env = rng.lognormal(0.0, 1.0, (256, 512, 3)).astype(np.float32)
    env_pred = env * rng.lognormal(0.0, 0.1, env.shape).astype(np.float32)
    (d / "env_gt.hdr").write_bytes(write_rgbe(HdrImage(env)))
    (d / "env_pred.hdr").write_bytes(write_rgbe(HdrImage(env_pred)))
    env_ldr = rng.integers(0, 256, (256, 512, 3), dtype=np.uint8)
    (d / "env.ppm").write_bytes(write_ppm(LdrImage(env_ldr)))
    (d / "scene.txt").write_text(default_scene_text())
    return d


# Measured with numpy 2.4 and Python 3.11 on Linux x86-64, of which about
# 29 MiB is the interpreter with numpy and hdrkit imported: synth --jobs 2
# of two RGBE panoramas peaks at 60.5 MiB and calibrate of an RGBE panorama
# against a PPM at 58 MiB, against 79.4 and 62 MiB while auto-exposure held
# a float64 copy of each image and calibration a float64 rescale of it.
# synth --jobs 1 of four RGBE
# panoramas peaks at 48.6 MiB, against 66.1 MiB while a reference cycle in
# image._exact_sum kept each finished sum's leaf, and the image it read,
# alive until the cyclic collector ran. Each bound leaves 15% over the peak.
@pytest.mark.parametrize("command, bound_mib",
                         [("synth", 70), ("calibrate", 67), ("synth 4 files --jobs 1", 56)])
def test_label_process_peak_at_dataset_size(inputs, tmp_path, command, bound_mib):
    d = inputs
    four = [tmp_path / f"{name}{i}.hdr" for i in range(2) for name in ("pano", "pred")]
    for path in four:
        path.write_bytes((d / f"{path.stem[:-1]}.hdr").read_bytes())
    args = {
        "synth": ["synth", d / "pano.hdr", d / "pred.hdr", "--seed", 7, "--jobs", 2,
                  "--out-dir", tmp_path / "ldr"],
        "calibrate": ["calibrate", d / "pano.hdr", d / "pano.ppm", "-o", tmp_path / "cal.hdr"],
        "synth 4 files --jobs 1": ["synth", *four, "--seed", 7, "--jobs", 1,
                                   "--out-dir", tmp_path / "ldr"],
    }[command]
    assert peak_mib(args) < bound_mib


# Measured as above: eval-ibl of a 512x256 RGBE pair against a PPM under the
# default 160x120 scene peaks at 40.2-40.4 MiB with each sphere shaded whole
# on the calling thread, against 45.8-46.4 MiB with 512-pixel tasks on a
# shading thread pool (six runs each), 58.5 MiB with a table of every
# texel's direction and weighted radiance, and about 73 MiB while each
# glossy chunk was shaded with whole-chunk (512, 256, 3) float64
# temporaries. The bound leaves 15% over the peak.
def test_eval_ibl_process_peak_at_dataset_size(inputs):
    d = inputs
    args = ["eval-ibl", d / "env_pred.hdr", d / "env_gt.hdr", d / "env.ppm", d / "scene.txt"]
    assert peak_mib(args) < 47


# Measured as above, with the resampling plans stored compactly, the merge
# cast to float32 band by band, metric_report's sums made band by band and
# the crops written one at a time: merge 61.1, metrics 63.8, metrics --ldr
# 70.0, crop-set 53.3 and p2c 54.5 MiB, against 81.2, 75.3, 94.0, 65.6 and
# 62.1 MiB before. c2p, filling its float32 panorama and validity from the
# gathered bands, peaks at 56.6 MiB, and 57.3 MiB with --validity-out,
# against 67.2 and 67.0 MiB through float64 results cast afterwards. Each
# bound leaves 15% or more over the measured peak.
@pytest.mark.parametrize("command, bound_mib",
                         [("merge", 72), ("metrics", 74), ("metrics --ldr", 81), ("crop-set", 62),
                          ("p2c", 65), ("c2p", 65), ("c2p --validity-out", 66)])
def test_pano_process_peak_at_dataset_size(inputs, tmp_path, command, bound_mib):
    d = inputs
    args = {
        "merge": ["merge", d / "ceil.pfm", d / "pano.pfm", "--ceil-ldr", d / "ceil.ppm",
                  "-o", tmp_path / "merged.pfm"],
        "metrics": ["metrics", d / "pred.pfm", d / "pano.pfm"],
        "metrics --ldr": ["metrics", d / "pred.pfm", d / "pano.pfm", "--ldr", d / "pano.ppm"],
        "crop-set": ["crop-set", d / "pano.pfm", "--out-dir", tmp_path / "crops"],
        "p2c": ["p2c", d / "pano.pfm", "-o", tmp_path / "ceil.pfm", "--ceil-size", 512],
        "c2p": ["c2p", d / "ceil.pfm", "-o", tmp_path / "pano.pfm", "--pano-width", 1024],
        "c2p --validity-out": ["c2p", d / "ceil.pfm", "-o", tmp_path / "pano.pfm",
                               "--pano-width", 1024, "--validity-out", tmp_path / "valid.pfm"],
    }[command]
    assert peak_mib(args) < bound_mib
