"""Pinned outputs of the calibration, comparison and resampling commands.

Each test runs one subcommand on small fixed inputs and compares its
metric JSON, or the SHA-256 of its output image bytes, with literals. A
refactor that keeps the outputs byte-identical keeps these passing; any
change to what the commands compute shows here first.
"""

import hashlib
import json

import numpy as np
import pytest

from hdrkit.cli import EXIT_OK, main
from hdrkit.fileio import write_pfm, write_ppm
from hdrkit.image import HdrImage, linear_to_srgb
from hdrkit.render import default_scene_text


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return out


def digest(*paths):
    """SHA-256 over the bytes of the given files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def save_pfm(path, arr):
    path.write_bytes(write_pfm(HdrImage(np.asarray(arr, dtype=np.float32))))
    return path


def save_srgb_ppm(path, linear):
    path.write_bytes(write_ppm(linear_to_srgb(np.clip(linear, 0.0, 1.0))))
    return path


def metric_inputs(d):
    rng = np.random.default_rng(601)
    gt = rng.lognormal(0.0, 1.0, (24, 32, 3))
    pred = 1.7 * gt * rng.uniform(0.6, 1.4, gt.shape)
    return (save_pfm(d / "pred.pfm", pred), save_pfm(d / "gt.pfm", gt),
            save_srgb_ppm(d / "anchor.ppm", gt / 4.0))


def environment(seed):
    """A 64x32 environment with a bright sun patch."""
    rng = np.random.default_rng(seed)
    env = rng.uniform(0.02, 0.3, (32, 64, 3))
    env[4:7, 40:45] = 30.0
    return env


def large_environment(seed):
    """A 512x256 lognormal environment with a bright sun patch, the size of
    a render-based evaluation."""
    rng = np.random.default_rng(seed)
    env = rng.lognormal(-1.0, 1.0, (256, 512, 3))
    env[30:38, 300:312] = 400.0
    return env


def panorama():
    ys, xs = np.mgrid[0:32, 0:64]
    rng = np.random.default_rng(602)
    base = 1.0 + 0.5 * np.sin(np.pi * (ys + 0.5) / 32)[..., None] * np.cos(
        2 * np.pi * (xs + 0.5) / 64)[..., None]
    return base * rng.uniform(0.8, 1.2, (32, 64, 3))


def test_metrics_pinned(workdir, capsys):
    pred, gt, anchor = metric_inputs(workdir)
    assert json.loads(run(capsys, "metrics", pred, gt)) == {
        "kappa": 0.5998671928402419,
        "log_psnr": 28.187318720029037,
        "si_mse": 0.054998610431751103,
        "ssim": 0.970171118094315,
    }
    assert json.loads(run(capsys, "metrics", pred, gt, "--ldr", anchor)) == {
        "kappa": 0.5998671928402419,
        "log_psnr": 28.187332231933638,
        "si_mse": 0.054998610431751103,
        "ssim": 0.970171118094315,
    }


def test_eval_ibl_pinned(workdir, capsys):
    gt = environment(603)
    pred = gt * np.random.default_rng(604).uniform(0.5, 2.0, gt.shape)
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text())
    out = run(capsys, "eval-ibl", save_pfm(workdir / "pred.pfm", pred),
              save_pfm(workdir / "gt.pfm", gt),
              save_srgb_ppm(workdir / "env.ppm", gt / 2.0), scene)
    assert json.loads(out) == {
        "log_psnr": 29.99719064876131,
        "mse": 0.0022789506543255036,
        "ssim": 0.9971492640222127,
    }


def test_render_pinned(workdir, capsys):
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text())
    env = save_pfm(workdir / "env.pfm", environment(605))
    ref_env = save_pfm(workdir / "ref_env.pfm", environment(606))
    ref = workdir / "ref.pfm"
    run(capsys, "render", scene, ref_env, "-o", ref)
    out = workdir / "render.pfm"
    report = json.loads(run(capsys, "render", scene, env, "-o", out, "--reference", ref))
    assert digest(out) == "1ed111c6806f4bd9f7fae924a7818a951ef55a1cc9d0f25a6d1c0e425981f886"
    assert report == {
        "log_psnr": 29.334229915308725,
        "mse": 0.001525044305596903,
        "ssim": 0.9764926051400008,
    }


def test_render_pinned_at_evaluation_size(workdir, capsys):
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text())
    env = save_pfm(workdir / "env.pfm", large_environment(608))
    out = workdir / "render.pfm"
    run(capsys, "render", scene, env, "-o", out)
    assert digest(out) == "aa5ba96a9102497c671cc33ffedf682391258ea88389815b29c01a974e466937"


def test_eval_ibl_pinned_at_evaluation_size(workdir, capsys):
    gt = large_environment(609)
    pred = gt * np.random.default_rng(610).lognormal(0.3, 0.4, gt.shape)
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text())
    out = run(capsys, "eval-ibl", save_pfm(workdir / "pred.pfm", pred),
              save_pfm(workdir / "gt.pfm", gt),
              save_srgb_ppm(workdir / "env.ppm", gt / 8.0), scene)
    assert json.loads(out) == {
        "log_psnr": 27.541129511427023,
        "mse": 0.005388112769645099,
        "ssim": 0.9986798308552359,
    }


def test_pano_resampling_pinned(workdir, capsys):
    pano = save_pfm(workdir / "pano.pfm", panorama())
    ceil = workdir / "ceil.pfm"
    run(capsys, "p2c", pano, "-o", ceil)
    assert digest(ceil) == "a3be3f049bef030fda9635f4955988366d42284dbc6e2ffd068b8fd69af9f9d4"
    back, validity = workdir / "back.pfm", workdir / "validity.pfm"
    run(capsys, "c2p", ceil, "-o", back, "--pano-width", 64, "--validity-out", validity)
    assert digest(back) == "d7830a5820ea7b2cf571d5ef7ce0c7436775113e05c30fadc2458d17a6eec2e9"
    assert digest(validity) == "2008092bea7b843062ca4509c842b2f4fb60565623b879390cfa80434165d291"
    crops = workdir / "crops"
    run(capsys, "crop-set", pano, "--out-dir", crops, "--width", 16, "--height", 12)
    assert digest(*sorted(crops.glob("*.pfm"))) == (
        "4c4f124eb5497f8ca1c23079cbbb91751f91be699b169fea6a31ee4539319902")


def test_merge_pinned(workdir, capsys):
    pano = save_pfm(workdir / "pano.pfm", panorama())
    rng = np.random.default_rng(607)
    ceil = save_pfm(workdir / "ceil.pfm", rng.lognormal(0.0, 1.0, (32, 32, 3)))
    ceil_ldr = save_srgb_ppm(workdir / "ceil.ppm", rng.uniform(0.0, 1.0, (32, 32, 3)))
    merged = workdir / "merged.pfm"
    run(capsys, "merge", ceil, pano, "--ceil-ldr", ceil_ldr, "-o", merged)
    assert digest(merged) == (
        "fa016ce8a751dd22413412d94ae02369aee9b1c69ab02887c4d6a1e1c48d1c62")


def test_calibrate_pinned(workdir, capsys):
    hdr = panorama()
    pano = save_pfm(workdir / "pano.pfm", hdr)
    anchor = save_srgb_ppm(workdir / "anchor.ppm", hdr / 2.5)
    calibrated = workdir / "calibrated.pfm"
    out = run(capsys, "calibrate", pano, anchor, "-o", calibrated)
    assert digest(calibrated) == (
        "0d9761858ce8d86d084e9b5c5b8e36963de0bb90ca83a2f922d352e82702614b")
    assert json.loads(out) == {"scale_factor": 0.39999931668655336}
