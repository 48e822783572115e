import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdrkit
from hdrkit import cli
from hdrkit.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from hdrkit.fileio import read_image, write_pfm, write_ppm, write_rgbe
from hdrkit.image import HdrImage, LdrImage
from hdrkit.render import default_scene_text


# 81 bytes whose header claims 10^12 pixels
OVERSIZED_RGBE = (b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1000000 +X 1000000\n"
                  + bytes(24))


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def save_hdr(path, arr):
    data = write_rgbe(HdrImage(np.asarray(arr, dtype=np.float32)))
    path.write_bytes(data)
    return path


def save_pfm(path, arr):
    path.write_bytes(write_pfm(HdrImage(np.asarray(arr, dtype=np.float32))))
    return path


def save_ppm(path, arr):
    path.write_bytes(write_ppm(LdrImage(np.asarray(arr, dtype=np.uint8))))
    return path


def load(path):
    return read_image(path.read_bytes())


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calibrate_idempotent(workdir, capsys):
    rng = np.random.default_rng(0)
    hdr = rng.uniform(0.5, 4.0, (16, 16, 3))
    ldr_codes = np.clip(rng.uniform(0, 0.8, (16, 16, 3)) * 255, 0, 255).astype(np.uint8)
    hdr_path = save_hdr(workdir / "a.hdr", hdr)
    ldr_path = save_ppm(workdir / "a.ppm", ldr_codes)
    out1 = workdir / "cal.pfm"
    code, out, _ = run(capsys, "calibrate", hdr_path, ldr_path, "-o", out1)
    assert code == EXIT_OK
    first = json.loads(out)["scale_factor"]
    assert first > 0
    code, out, _ = run(capsys, "calibrate", out1, ldr_path, "-o", workdir / "cal2.pfm")
    assert code == EXIT_OK
    second = json.loads(out)["scale_factor"]
    assert second == pytest.approx(1.0, abs=1e-6)
    # manifest sidecar exists and records the parameters
    manifest = json.loads((workdir / "cal.pfm.json").read_text())
    assert manifest["subcommand"] == "calibrate"
    assert manifest["params"]["tau"] == 0.83
    assert manifest["result"]["scale_factor"] == first


def test_calibrate_uncalibratable_exit_code(workdir, capsys):
    hdr_path = save_hdr(workdir / "a.hdr", np.ones((4, 4, 3)))
    ldr_path = save_ppm(workdir / "a.ppm", np.full((4, 4, 3), 255, dtype=np.uint8))
    code, _, err = run(capsys, "calibrate", hdr_path, ldr_path, "-o", workdir / "x.pfm")
    assert code == EXIT_NUMERIC
    assert json.loads(err.strip())["error"]["type"] == "UncalibratableError"


def test_missing_file_is_io_error(workdir, capsys):
    code, _, err = run(capsys, "calibrate", workdir / "none.hdr", workdir / "none.ppm",
                       "-o", workdir / "x.pfm")
    assert code == EXIT_IO
    assert "error" in json.loads(err.strip())


def test_usage_error(workdir, capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE
    assert json.loads(err.strip())["error"]["type"] == "UsageError"


def test_segment_output(workdir, capsys):
    vals = np.array([[[0.001] * 3, [1.0] * 3, [3.0] * 3]])
    hdr_path = save_hdr(workdir / "cal.hdr", vals)
    out = workdir / "seg.ppm"
    code, _, _ = run(capsys, "segment", hdr_path, "-o", out)
    assert code == EXIT_OK
    seg = load(out)
    assert list(seg.data.argmax(axis=2)[0]) == [0, 1, 2]
    assert set(np.unique(seg.data)) == {0, 255}


def test_synth_deterministic(workdir, capsys):
    rng = np.random.default_rng(1)
    hdr_path = save_hdr(workdir / "h.hdr", rng.lognormal(0, 1.2, (16, 24, 3)))
    out1, out2 = workdir / "l1.ppm", workdir / "l2.ppm"
    assert run(capsys, "synth", hdr_path, "--seed", 7, "-o", out1)[0] == EXIT_OK
    assert run(capsys, "synth", hdr_path, "--seed", 7, "-o", out2)[0] == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    man = json.loads((workdir / "l1.ppm.json").read_text())
    assert man["seed"] == 7
    assert man["exposure"] > 0
    assert man["rng"] == "pcg64"


def test_synth_batch_jobs_identical(workdir, capsys):
    rng = np.random.default_rng(2)
    paths = [save_hdr(workdir / f"h{i}.hdr", rng.lognormal(0, 1.0, (12, 16, 3)))
             for i in range(5)]
    d1, d8 = workdir / "j1", workdir / "j8"
    code, _, _ = run(capsys, "synth", *paths, "--seed", 3, "--out-dir", d1, "--jobs", 1)
    assert code == EXIT_OK
    code, _, _ = run(capsys, "synth", *paths, "--seed", 3, "--out-dir", d8, "--jobs", 8)
    assert code == EXIT_OK
    for i in range(5):
        a = (d1 / f"h{i}.ppm").read_bytes()
        b = (d8 / f"h{i}.ppm").read_bytes()
        assert a == b
    # distinct files get distinct seeds
    seeds = {json.loads((d1 / f"h{i}.ppm.json").read_text())["seed"] for i in range(5)}
    assert len(seeds) == 5


def test_synth_jobs_identical_on_multi_band_images(workdir, capsys):
    # 48 rows of 700 pixels are three row bands of the camera's stages
    rng = np.random.default_rng(21)
    paths = [save_hdr(workdir / f"h{i}.hdr", rng.lognormal(-1.0, 2.5, (48, 700, 3)))
             for i in range(3)]
    d1, d2 = workdir / "j1", workdir / "j2"
    assert run(capsys, "synth", *paths, "--seed", 5, "--out-dir", d1, "--jobs", 1)[0] == EXIT_OK
    assert run(capsys, "synth", *paths, "--seed", 5, "--out-dir", d2, "--jobs", 2)[0] == EXIT_OK
    for i in range(3):
        assert (d1 / f"h{i}.ppm").read_bytes() == (d2 / f"h{i}.ppm").read_bytes()
        m1, m2 = (json.loads((d / f"h{i}.ppm.json").read_text()) for d in (d1, d2))
        assert m1.pop("output") != m2.pop("output") and m1 == m2


def test_synth_batch_partial_failure(workdir, capsys):
    rng = np.random.default_rng(3)
    good = save_hdr(workdir / "good.hdr", rng.lognormal(0, 1.0, (8, 8, 3)))
    bad = workdir / "bad.hdr"
    bad.write_bytes(b"not an image")
    out = workdir / "outs"
    code, _, err = run(capsys, "synth", good, bad, "--seed", 1, "--out-dir", out)
    assert code == EXIT_IO
    assert (out / "good.ppm").exists()
    errors = [json.loads(line) for line in err.strip().splitlines()]
    assert any(e["error"]["file"] == str(bad) for e in errors)


def test_synth_oversized_rgbe_header_does_not_abort_batch(workdir, capsys):
    big = workdir / "big.hdr"
    big.write_bytes(OVERSIZED_RGBE)
    ok = save_hdr(workdir / "ok.hdr", np.random.default_rng(4).lognormal(0, 1.0, (8, 8, 3)))
    out = workdir / "o"
    code, _, err = run(capsys, "synth", big, ok, "--out-dir", out)
    assert code == EXIT_IO
    assert (out / "ok.ppm").exists()
    errors = [json.loads(line) for line in err.strip().splitlines()]
    assert [e["error"]["file"] for e in errors] == [str(big)]
    assert errors[0]["error"]["type"] == "TruncatedDataError"


def test_synth_output_collision_writes_nothing(workdir, capsys):
    rng = np.random.default_rng(5)
    (workdir / "a").mkdir()
    (workdir / "b").mkdir()
    a = save_hdr(workdir / "a" / "x.hdr", rng.lognormal(0, 1.0, (8, 8, 3)))
    b = save_hdr(workdir / "b" / "x.hdr", rng.lognormal(0, 1.0, (8, 8, 3)))
    out = workdir / "o"
    code, _, err = run(capsys, "synth", a, b, "--out-dir", out)
    assert code == EXIT_USAGE
    (line,) = err.strip().splitlines()
    message = json.loads(line)["error"]["message"]
    assert str(a) in message and str(b) in message
    assert not out.exists()


def test_metrics_json(workdir, capsys):
    rng = np.random.default_rng(4)
    gt = rng.uniform(0.5, 2.0, (24, 24, 3))
    pred = gt * 2.0
    p1 = save_pfm(workdir / "pred.pfm", pred)
    p2 = save_pfm(workdir / "gt.pfm", gt)
    code, out, _ = run(capsys, "metrics", p1, p2)
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) == {"si_mse", "log_psnr", "ssim", "kappa"}
    assert report["kappa"] == pytest.approx(0.5, rel=1e-4)
    assert report["si_mse"] == pytest.approx(0.0, abs=1e-9)


def test_p2c_c2p_cycle(workdir, capsys):
    ys, xs = np.mgrid[0:32, 0:64]
    pat = 1.5 + 0.3 * np.sin(np.pi * (ys + 0.5) / 32) * np.cos(2 * np.pi * (xs + 0.5) / 64)
    pano = np.repeat(pat[..., None], 3, axis=2)
    pano_path = save_pfm(workdir / "pano.pfm", pano)
    ceil_path = workdir / "ceil.pfm"
    back_path = workdir / "back.pfm"
    assert run(capsys, "p2c", pano_path, "-o", ceil_path, "--ceil-size", 128)[0] == EXIT_OK
    assert run(capsys, "c2p", ceil_path, "-o", back_path, "--pano-width", 64)[0] == EXIT_OK
    back = load(back_path).data
    upper = slice(0, 16)
    rel = np.abs(back[upper] - pano[upper]) / pano[upper]
    assert rel.max() < 0.05
    man = json.loads((ceil_path.name and (workdir / "ceil.pfm.json")).read_text())
    assert man["params"]["camera_d"] == 1.0


def test_merge_cli(workdir, capsys):
    rng = np.random.default_rng(5)
    ceil_hdr = save_pfm(workdir / "c.pfm", rng.uniform(0.1, 2.0, (32, 32, 3)))
    pano_hdr = save_pfm(workdir / "p.pfm", rng.uniform(0.1, 2.0, (16, 32, 3)))
    ceil_ldr = save_ppm(workdir / "c.ppm", np.zeros((32, 32, 3), dtype=np.uint8))
    out = workdir / "merged.pfm"
    code, _, _ = run(capsys, "merge", ceil_hdr, pano_hdr, "--ceil-ldr", ceil_ldr, "-o", out)
    assert code == EXIT_OK
    # black ceiling LDR -> zero mask -> merge is the identity on the panorama
    assert np.array_equal(load(out).data, load(pano_hdr).data)


def test_merge_cli_is_merge_panorama_cast_to_float32(workdir, capsys):
    # the CLI casts each band of the blend as it is made; a 256x128
    # panorama has two row bands
    from hdrkit.image import srgb_to_linear
    from hdrkit.pano import PanoProjection, merge_mask, merge_panorama

    rng = np.random.default_rng(51)
    ceil = rng.lognormal(0.0, 1.0, (64, 64, 3)).astype(np.float32)
    pano = rng.lognormal(0.0, 1.0, (128, 256, 3)).astype(np.float32)
    ldr = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    out = workdir / "merged.pfm"
    code, _, _ = run(capsys, "merge", save_pfm(workdir / "c.pfm", ceil),
                     save_pfm(workdir / "p.pfm", pano), "--ceil-ldr",
                     save_ppm(workdir / "c.ppm", ldr), "-o", out)
    assert code == EXIT_OK
    proj = PanoProjection(256, 128, 64, 64)
    m = merge_mask(srgb_to_linear(LdrImage(ldr)), proj)
    want = merge_panorama(ceil, pano, m, proj).astype(np.float32)
    got = load(out).data
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


# Each input is held to its command's geometry: a ceiling that is not
# square, a ceiling LDR of another size than the ceiling HDR, or a panorama
# that is not twice as wide as high, is a numeric failure naming that file,
# and nothing is written.
@pytest.mark.parametrize("argv, refused", [
    (["merge", "c32.pfm", "p.pfm", "--ceil-ldr", "l16.ppm", "-o", "out/m.pfm"], "l16.ppm"),
    (["merge", "c32x16.pfm", "p.pfm", "--ceil-ldr", "l32x16.ppm", "-o", "out/m.pfm"],
     "c32x16.pfm"),
    (["c2p", "c32x16.pfm", "-o", "out/p.pfm", "--pano-width", "64", "--validity-out",
      "out/v.pfm"], "c32x16.pfm"),
    (["p2c", "p60x32.pfm", "-o", "out/c.pfm"], "p60x32.pfm"),
    (["merge", "c32.pfm", "p60x32.pfm", "--ceil-ldr", "l32.ppm", "-o", "out/m.pfm"],
     "p60x32.pfm"),
], ids=["merge-ldr-size", "merge-non-square", "c2p-non-square", "p2c-pano-not-2-to-1",
        "merge-pano-not-2-to-1"])
def test_ceiling_off_the_geometry_exits_3(workdir, capsys, monkeypatch, argv, refused):
    monkeypatch.chdir(workdir)
    rng = np.random.default_rng(24)
    save_pfm(workdir / "p.pfm", rng.uniform(0.1, 2.0, (32, 64, 3)))
    save_pfm(workdir / "c32.pfm", rng.uniform(0.1, 2.0, (32, 32, 3)))
    save_pfm(workdir / "c32x16.pfm", rng.uniform(0.1, 2.0, (16, 32, 3)))
    save_ppm(workdir / "l16.ppm", rng.integers(0, 256, (16, 16, 3)))
    save_ppm(workdir / "l32x16.ppm", rng.integers(0, 256, (16, 32, 3)))
    save_pfm(workdir / "p60x32.pfm", rng.uniform(0.1, 2.0, (32, 60, 3)))
    save_ppm(workdir / "l32.ppm", rng.integers(0, 256, (32, 32, 3)))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERIC and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["file"] == refused
    assert not (workdir / "out").exists()


# A calibration, metric, eval-ibl or render input whose size differs from
# its counterpart's fails with the library's shape message, naming that
# file: calibrate's LDR, metrics' gt (checked first) or anchor, the
# environment that eval-ibl calibrates, or a render's reference, which is
# checked against the camera before any render is written.
@pytest.mark.parametrize("argv, refused", [
    (["calibrate", "p.pfm", "l16.ppm", "-o", "out/c.pfm"], "l16.ppm"),
    (["metrics", "p.pfm", "q16.pfm"], "q16.pfm"),
    (["metrics", "p.pfm", "p.pfm", "--ldr", "l16.ppm"], "l16.ppm"),
    (["metrics", "p.pfm", "q16.pfm", "--ldr", "l16.ppm"], "q16.pfm"),
    (["eval-ibl", "q16.pfm", "p.pfm", "l32.ppm", "scene.txt"], "q16.pfm"),
    (["eval-ibl", "p.pfm", "q16.pfm", "l32.ppm", "scene.txt"], "q16.pfm"),
    (["render", "scene.txt", "p.pfm", "-o", "out/r.pfm", "--reference", "q16.pfm"], "q16.pfm"),
], ids=["calibrate-ldr", "metrics-gt", "metrics-anchor", "metrics-gt-and-anchor",
        "eval-ibl-pred", "eval-ibl-gt", "render-reference"])
def test_shape_mismatch_names_the_input(workdir, capsys, monkeypatch, argv, refused):
    monkeypatch.chdir(workdir)
    rng = np.random.default_rng(28)
    save_pfm(workdir / "p.pfm", rng.uniform(0.1, 2.0, (32, 64, 3)))
    save_pfm(workdir / "q16.pfm", rng.uniform(0.1, 2.0, (16, 32, 3)))
    save_ppm(workdir / "l16.ppm", rng.integers(0, 256, (16, 32, 3)))
    save_ppm(workdir / "l32.ppm", rng.integers(0, 256, (32, 64, 3)))
    (workdir / "scene.txt").write_text(default_scene_text(8, 6))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERIC and out == ""
    (line,) = err.strip().splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ValueError" and error["file"] == refused
    assert "shape" in error["message"]
    assert not (workdir / "out").exists()


def test_crop_set_cli(workdir, capsys):
    pano = np.full((32, 64, 3), 2.0)
    pano_path = save_pfm(workdir / "pano.pfm", pano)
    out_dir = workdir / "crops"
    code, out, _ = run(capsys, "crop-set", pano_path, "--out-dir", out_dir,
                       "--width", 40, "--height", 30)
    assert code == EXIT_OK
    assert json.loads(out)["crops"] == 9
    files = sorted(out_dir.glob("*.pfm"))
    assert len(files) == 9
    man = json.loads((out_dir / "pano_yaw060_pitch00.pfm.json").read_text())
    assert man["params"]["hfov_deg"] == 60.0


@pytest.mark.parametrize("outdoor", [False, True])
def test_crop_set_cli_is_crop_set_cast_to_float32(workdir, capsys, outdoor):
    # the CLI makes and writes one view at a time, without crop_set
    from hdrkit.pano import crop_set

    pano = np.random.default_rng(27).lognormal(0.0, 1.0, (32, 64, 3)).astype(np.float32)
    out_dir = workdir / "crops"
    argv = ["crop-set", save_pfm(workdir / "pano.pfm", pano), "--out-dir", out_dir,
            "--width", 24, "--height", 18, "--hfov-deg", 75] + (["--outdoor"] if outdoor else [])
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    views = crop_set(pano, 24, 18, 75.0, outdoor)
    assert json.loads(out)["crops"] == len(views) == len(list(out_dir.glob("*.pfm")))
    for img, params in views:
        yaw, pitch = int(params["yaw_deg"]), int(params["pitch_deg"])
        path = out_dir / f"pano_yaw{yaw:03d}_pitch{pitch:02d}.pfm"
        assert path.read_bytes() == write_pfm(HdrImage(img.astype(np.float32)))
        man = json.loads(path.with_name(path.name + ".json").read_text())
        assert man["params"] == {**params, "outdoor": outdoor}


def test_render_and_eval_ibl(workdir, capsys):
    rng = np.random.default_rng(6)
    env_arr = rng.uniform(0.02, 0.2, (32, 64, 3))
    env_arr[0:3, 10:20] = 40.0
    gt_path = save_hdr(workdir / "gt.hdr", env_arr)
    scene_path = workdir / "scene.txt"
    scene_path.write_text(default_scene_text(48, 36))

    out1, out2 = workdir / "r1.pfm", workdir / "r2.pfm"
    assert run(capsys, "render", scene_path, gt_path, "-o", out1)[0] == EXIT_OK
    assert run(capsys, "render", scene_path, gt_path, "-o", out2)[0] == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    # reference comparison prints metrics
    code, out, _ = run(capsys, "render", scene_path, gt_path, "-o", workdir / "r3.pfm",
                       "--reference", out1)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mse"] == 0.0 and report["ssim"] == pytest.approx(1.0, abs=1e-12)

    # self comparison through eval-ibl: perfect scores
    ldr = np.clip(env_arr * 2.0, 0, 1)
    ldr_path = save_ppm(workdir / "env.ppm", (ldr * 255).astype(np.uint8))
    code, out, _ = run(capsys, "eval-ibl", gt_path, gt_path, ldr_path, scene_path)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mse"] == 0.0
    assert report["ssim"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [-3, 1, 6])
def test_eval_ibl_scale_invariant(workdir, capsys, k):
    # calibration cancels an exact power-of-two scale of the prediction
    rng = np.random.default_rng(9)
    env_arr = rng.uniform(0.02, 0.3, (32, 64, 3))
    env_arr[1:4, 40:48] = 25.0
    gt_path = save_hdr(workdir / "gt.hdr", env_arr)
    pred_path = save_hdr(workdir / "pred.hdr", env_arr * 2.0 ** k)
    ldr = np.clip(env_arr * 1.5, 0, 1)
    ldr_path = save_ppm(workdir / "env.ppm", (ldr * 255).astype(np.uint8))
    scene_path = workdir / "scene.txt"
    scene_path.write_text(default_scene_text(40, 30))
    code, out, _ = run(capsys, "eval-ibl", pred_path, gt_path, ldr_path, scene_path)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mse"] == 0.0
    assert report["ssim"] == 1.0


def test_render_output_collision_writes_nothing(workdir, capsys):
    rng = np.random.default_rng(10)
    (workdir / "a").mkdir()
    (workdir / "b").mkdir()
    a = save_hdr(workdir / "a" / "x.hdr", rng.uniform(0.05, 3.0, (16, 32, 3)))
    b = save_hdr(workdir / "b" / "x.hdr", rng.uniform(0.05, 3.0, (16, 32, 3)))
    scene_path = workdir / "scene.txt"
    scene_path.write_text(default_scene_text(32, 24))
    out = workdir / "o"
    code, _, err = run(capsys, "render", scene_path, a, b, "--out-dir", out)
    assert code == EXIT_USAGE
    (line,) = err.strip().splitlines()
    message = json.loads(line)["error"]["message"]
    assert str(a) in message and str(b) in message
    assert not out.exists()


def test_render_batch_jobs_identical(workdir, capsys):
    rng = np.random.default_rng(7)
    envs = [save_hdr(workdir / f"e{i}.hdr", rng.uniform(0.05, 3.0, (16, 32, 3)))
            for i in range(3)]
    scene_path = workdir / "scene.txt"
    scene_path.write_text(default_scene_text(32, 24))
    d1, d8 = workdir / "r1", workdir / "r8"
    assert run(capsys, "render", scene_path, *envs, "--out-dir", d1, "--jobs", 1)[0] == EXIT_OK
    assert run(capsys, "render", scene_path, *envs, "--out-dir", d8, "--jobs", 8)[0] == EXIT_OK
    for i in range(3):
        assert (d1 / f"e{i}_render.pfm").read_bytes() == (d8 / f"e{i}_render.pfm").read_bytes()


def test_render_jobs_identical_on_multi_chunk_scene(workdir, capsys):
    # every sphere spans more than one 512-pixel shading chunk
    rng = np.random.default_rng(17)
    envs = [save_hdr(workdir / f"e{i}.hdr", rng.uniform(0.05, 3.0, (32, 64, 3)))
            for i in range(4)]
    scene_path = workdir / "scene.txt"
    scene_path.write_text("camera 96 72 3 0 1\n"
                          "sphere -1.9 0 0.1 1 diffuse 0.8 0.7 0.6\n"
                          "sphere 0 0 0.1 1 glossy 16 0.9 0.9 0.9\n"
                          "sphere 1.9 0 0.1 1 mirror\n"
                          "sphere -1.1 1 2.1 1 diffuse 0.5 0.6 0.7\n"
                          "sphere 0.3 0 2.1 1 glossy 4 0.7 0.8 0.9\n")
    d1, d4 = workdir / "r1", workdir / "r4"
    assert run(capsys, "render", scene_path, *envs, "--out-dir", d1, "--jobs", 1)[0] == EXIT_OK
    assert run(capsys, "render", scene_path, *envs, "--out-dir", d4, "--jobs", 4)[0] == EXIT_OK
    for i in range(4):
        assert (d1 / f"e{i}_render.pfm").read_bytes() == (d4 / f"e{i}_render.pfm").read_bytes()


@pytest.mark.parametrize("line", ["sphere 0 0 0.9 0.9 velvet",
                                  "sphere 0 0 0.9 0.9 glossy nan 0.9 0.9 0.9",
                                  "sphere 1.1 0 0.9 nan diffuse 0.5 0.5 0.5"])
def test_render_bad_scene_is_one_error_naming_the_scene(workdir, capsys, line):
    rng = np.random.default_rng(18)
    envs = [save_hdr(workdir / f"e{i}.hdr", rng.uniform(0.05, 3.0, (16, 32, 3)))
            for i in range(2)]
    scene_path = workdir / "scene.txt"
    scene_path.write_text(f"camera 16 12 4.5 0 0.9\n{line}\n")
    out = workdir / "o"
    code, _, err = run(capsys, "render", scene_path, *envs, "--out-dir", out)
    assert code == EXIT_NUMERIC
    (error_line,) = err.strip().splitlines()
    error = json.loads(error_line)["error"]
    assert error["type"] == "SceneParseError" and error["file"] == str(scene_path)
    assert error["message"].startswith("line 2: ")
    assert not out.exists()


@pytest.mark.parametrize("line", ["sphere 0 0 0.9 0.9 velvet", "sphere 0 0 0.9 1e200 mirror"])
def test_eval_ibl_bad_scene_is_one_error_naming_the_scene(workdir, capsys, line):
    rng = np.random.default_rng(20)
    env = rng.uniform(0.05, 3.0, (16, 32, 3))
    gt_path = save_hdr(workdir / "gt.hdr", env)
    ldr_path = save_ppm(workdir / "env.ppm", (np.clip(env, 0, 1) * 255).astype(np.uint8))
    scene_path = workdir / "scene.txt"
    scene_path.write_text(f"camera 16 12 4.5 0 0.9\n{line}\n")
    code, out, err = run(capsys, "eval-ibl", gt_path, gt_path, ldr_path, scene_path)
    assert code == EXIT_NUMERIC and out == ""
    (error_line,) = err.strip().splitlines()
    error = json.loads(error_line)["error"]
    assert error["type"] == "SceneParseError" and error["file"] == str(scene_path)
    assert error["message"].startswith("line 2: ")


@pytest.mark.parametrize("exc_type, code", [
    (MemoryError, EXIT_IO),
    (OverflowError, EXIT_NUMERIC),
    (ZeroDivisionError, EXIT_NUMERIC),
    (FloatingPointError, EXIT_NUMERIC),
])
def test_main_reports_memory_and_arithmetic_errors(workdir, capsys, monkeypatch, exc_type, code):
    from hdrkit import cli

    rng = np.random.default_rng(22)
    path = save_pfm(workdir / "a.pfm", rng.uniform(0.5, 2.0, (12, 12, 3)))

    def failing(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "metric_report", failing)
    got, out, err = run(capsys, "metrics", path, path)
    assert got == code and out == ""
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == {"type": exc_type.__name__, "message": "boom",
                                         "file": None}


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyError, AssertionError])
def test_main_reports_unforeseen_errors_as_numeric(workdir, capsys, monkeypatch, exc_type):
    # the rule the batch workers follow: any other exception exits 3
    from hdrkit import cli

    rng = np.random.default_rng(23)
    path = save_pfm(workdir / "a.pfm", rng.uniform(0.5, 2.0, (12, 12, 3)))

    def failing(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "metric_report", failing)
    got, out, err = run(capsys, "metrics", path, path)
    assert got == EXIT_NUMERIC and out == ""
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == exc_type.__name__


@pytest.mark.parametrize("name, data, kind", [
    ("bad.pfm", b"PF\n2 2\n.\n" + bytes(48), "MalformedHeaderError"),
    ("short.hdr", b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 2 +X 16\n" + bytes(40),
     "TruncatedDataError"),
    ("missing.pfm", None, "FileNotFoundError"),
])
def test_convert_io_error_names_the_file(workdir, capsys, name, data, kind):
    path = workdir / name
    if data is not None:
        path.write_bytes(data)
    code, out, err = run(capsys, "convert", path, "-o", workdir / "x.ppm")
    assert code == EXIT_IO and out == ""
    (line,) = err.strip().splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == kind and error["file"] == str(path)
    assert not (workdir / "x.ppm").exists()


def test_wrong_kind_of_input_names_the_file(workdir, capsys):
    hdr_path = save_hdr(workdir / "a.hdr", np.ones((4, 4, 3)))
    ppm_path = save_ppm(workdir / "a.ppm", np.full((4, 4, 3), 100, dtype=np.uint8))
    code, _, err = run(capsys, "calibrate", hdr_path, hdr_path, "-o", workdir / "x.pfm")
    assert code == EXIT_IO
    error = json.loads(err.strip())["error"]
    assert error["file"] == str(hdr_path) and "expected an 8-bit LDR image" in error["message"]
    code, _, err = run(capsys, "segment", ppm_path, "-o", workdir / "s.ppm")
    assert code == EXIT_IO
    error = json.loads(err.strip())["error"]
    assert error["file"] == str(ppm_path) and "expected an HDR image" in error["message"]


@pytest.mark.parametrize("command", ["convert", "c2p"])
def test_output_that_cannot_be_written_names_the_file(workdir, capsys, command):
    # the output's parent is a file, so the write fails
    src = save_pfm(workdir / "a.pfm", np.ones((8, 8, 3)))
    blocked = workdir / "a.pfm" / "x.pfm"
    if command == "convert":
        argv = ["convert", src, "-o", blocked]
    else:
        argv = ["c2p", src, "-o", workdir / "p.pfm", "--pano-width", 16,
                "--validity-out", blocked]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_IO and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["file"] == str(blocked)


def _claim_error(capsys, *argv):
    """The one JSON error of a run that must exit 2 at its output claim."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_IO and out == ""
    (line,) = err.strip().splitlines()
    return json.loads(line)["error"]


# Each input below is missing, so an error naming the output can only come
# from the claim, before any input is read.
def test_output_file_on_a_directory_exits_2_at_the_claim(workdir, capsys):
    taken = workdir / "d.pfm"
    taken.mkdir()
    error = _claim_error(capsys, "p2c", workdir / "missing.pfm", "-o", taken)
    assert error["type"] == "IsADirectoryError" and error["file"] == str(taken)


def test_crop_set_out_dir_on_a_file_exits_2_at_the_claim(workdir, capsys):
    taken = save_pfm(workdir / "f.pfm", np.ones((4, 8, 3)))
    error = _claim_error(capsys, "crop-set", workdir / "missing.pfm", "--out-dir", taken)
    assert error["type"] == "NotADirectoryError" and error["file"] == str(taken)
    assert taken.is_file()


def test_synth_out_dir_on_a_file_exits_2_at_the_claim(workdir, capsys):
    taken = workdir / "f"
    taken.write_bytes(b"")
    error = _claim_error(capsys, "synth", workdir / "missing.hdr", "--out-dir", taken)
    assert error["type"] == "NotADirectoryError" and error["file"] == str(taken / "missing.ppm")


def test_crop_set_view_files_are_claimed_before_the_panorama_is_read(workdir, capsys):
    pano = save_pfm(workdir / "pano.pfm", np.ones((4, 8, 3)))
    taken = workdir / "d" / "pano_yaw120_pitch00.pfm"
    taken.mkdir(parents=True)
    error = _claim_error(capsys, "crop-set", pano, "--out-dir", workdir / "d",
                         "--width", 8, "--height", 6)
    assert error["type"] == "IsADirectoryError" and error["file"] == str(taken)
    assert [p.name for p in (workdir / "d").iterdir()] == [taken.name]
    assert not any(taken.iterdir())


@pytest.mark.parametrize("command", ["synth", "render"])
def test_output_with_out_dir_is_a_usage_error(workdir, capsys, command):
    env = save_pfm(workdir / "h.pfm", np.full((4, 8, 3), 0.5))
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text(8, 6))
    argv = [command, env] if command == "synth" else [command, scene, env]
    code, out, err = run(capsys, *argv, "-o", workdir / "a.pfm", "--out-dir", workdir / "zz")
    assert code == EXIT_USAGE and out == ""
    (line,) = err.strip().splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "UsageError" and "--out-dir" in error["message"]
    assert sorted(p.name for p in workdir.iterdir()) == ["h.pfm", "scene.txt"]


# For each image-writing command, an output that collides (exit 1) or has
# no place (exit 2: a directory "d.pfm" or a file "file" is in its way). No
# input exists, and no handler may run.
CLAIMED_BEFORE_ANY_HANDLER = [
    (["calibrate", "h.hdr", "l.ppm", "-o", "d.pfm"], EXIT_IO, "d.pfm"),
    (["segment", "h.hdr", "-o", "file/x.ppm"], EXIT_IO, "file/x.ppm"),
    (["synth", "a/x.hdr", "b/x.hdr", "--out-dir", "o"], EXIT_USAGE, None),
    (["synth", "x.hdr", "--out-dir", "file"], EXIT_IO, "file/x.ppm"),
    (["p2c", "p.hdr", "-o", "d.pfm"], EXIT_IO, "d.pfm"),
    (["c2p", "c.pfm", "-o", "x.pfm", "--pano-width", "32", "--validity-out", "./x.pfm"],
     EXIT_USAGE, None),
    (["merge", "c.pfm", "p.pfm", "--ceil-ldr", "c.ppm", "-o", "d.pfm"], EXIT_IO, "d.pfm"),
    (["crop-set", "p.pfm", "--out-dir", "file"], EXIT_IO, "file"),
    (["render", "s.txt", "a/x.hdr", "b/x.hdr", "--out-dir", "o"], EXIT_USAGE, None),
    (["render", "s.txt", "e.hdr", "-o", "file/r.pfm"], EXIT_IO, "file/r.pfm"),
    (["preview", "h.hdr", "-o", "d.pfm"], EXIT_IO, "d.pfm"),
    (["convert", "h.hdr", "-o", "file/x.pfm"], EXIT_IO, "file/x.pfm"),
]


@pytest.mark.parametrize("argv, code, named", CLAIMED_BEFORE_ANY_HANDLER,
                         ids=[f"{case[0][0]}-{case[1]}" for case in CLAIMED_BEFORE_ANY_HANDLER])
def test_outputs_are_claimed_before_any_handler_runs(workdir, capsys, monkeypatch, argv, code,
                                                     named):
    def handler(*_):
        pytest.fail("the handler ran")

    monkeypatch.chdir(workdir)
    (workdir / "d.pfm").mkdir()
    (workdir / "file").write_bytes(b"")
    command = argv[0]
    monkeypatch.setitem(cli._COMMANDS, command,
                        dataclasses.replace(cli._COMMANDS[command], handler=handler))
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    (line,) = err.strip().splitlines()
    error = json.loads(line)["error"]
    if code == EXIT_USAGE:
        assert error["type"] == "UsageError" and "would both write" in error["message"]
    else:
        assert error["file"] == named
    assert sorted(p.name for p in workdir.iterdir()) == ["d.pfm", "file"]


def fuzz_seeds():
    rng = np.random.default_rng(23)
    hdr = HdrImage(rng.lognormal(0.0, 1.0, (3, 16, 3)).astype(np.float32))
    ldr = LdrImage(rng.integers(0, 256, (3, 16, 3), dtype=np.uint8))
    return [(".hdr", write_rgbe(hdr)), (".pfm", bytes(write_pfm(hdr))), (".ppm", write_ppm(ldr))]


FILE_EDITS = st.lists(st.tuples(st.sampled_from(["cut", "set", "insert"]),
                                st.floats(0.0, 1.0), st.integers(0, 255)),
                      min_size=1, max_size=3)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(fuzz_seeds()), FILE_EDITS)
def test_mutated_files_through_convert_exit_0_or_2_with_one_json_line(fuzz_dir, seed, edits):
    suffix, data = seed
    data = bytearray(data)
    for kind, where, byte in edits:
        at = int(where * len(data))
        if kind == "cut":
            del data[at:]
        elif kind == "set" and at < len(data):
            data[at] = byte
        elif kind == "insert":
            data[at:at] = bytes((byte,))
    src = fuzz_dir / ("in" + suffix)
    src.write_bytes(bytes(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["convert", str(src), "-o", str(fuzz_dir / "out.pfm")])
    lines = err.getvalue().splitlines()
    assert caught == [] and "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert lines == []
    else:
        assert code == EXIT_IO and len(lines) == 1
        assert json.loads(lines[0])["error"]["file"] == str(src)


def test_render_reference_with_several_environments_is_a_usage_error(workdir, capsys):
    # refused before any input is read: none of these files exists
    code, out, err = run(capsys, "render", workdir / "s.txt", workdir / "a.hdr",
                         workdir / "b.hdr", "--out-dir", workdir / "o",
                         "--reference", workdir / "ref.pfm")
    assert code == EXIT_USAGE and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "UsageError"
    assert not (workdir / "o").exists()


def _render_inputs(workdir):
    rng = np.random.default_rng(24)
    envs = [save_hdr(workdir / f"e{i}.hdr", rng.uniform(0.05, 3.0, (16, 32, 3)))
            for i in range(2)]
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text(16, 12))
    return scene, envs


def test_render_reference_is_read_before_rendering(workdir, capsys):
    # an output that replaces the reference is compared with the old file
    scene, (e0, e1) = _render_inputs(workdir)
    ref = workdir / "ref.pfm"
    assert run(capsys, "render", scene, e0, "-o", ref)[0] == EXIT_OK
    old = workdir / "old.pfm"
    old.write_bytes(ref.read_bytes())
    code, replaced, _ = run(capsys, "render", scene, e1, "-o", ref, "--reference", ref)
    assert code == EXIT_OK
    code, kept, _ = run(capsys, "render", scene, e1, "-o", workdir / "r.pfm", "--reference", old)
    assert code == EXIT_OK
    assert replaced == kept and json.loads(kept)["mse"] > 0.0
    assert ref.read_bytes() == (workdir / "r.pfm").read_bytes()


def test_bad_reference_exits_2_before_rendering(workdir, capsys):
    scene, (e0, _) = _render_inputs(workdir)
    missing = workdir / "missing.pfm"
    code, out, err = run(capsys, "render", scene, e0, "-o", workdir / "r.pfm",
                         "--reference", missing)
    assert code == EXIT_IO and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["file"] == str(missing)
    assert not (workdir / "r.pfm").exists()


def test_preview_cli(workdir, capsys):
    hdr_path = save_hdr(workdir / "h.hdr", np.full((8, 8, 3), 1.0))
    out = workdir / "prev.ppm"
    code, _, _ = run(capsys, "preview", hdr_path, "-o", out, "--ev", 0, "--window", 8)
    assert code == EXIT_OK
    assert np.all(load(out).data == 255)


def test_convert_formats(workdir, capsys):
    rng = np.random.default_rng(8)
    arr = rng.uniform(1e-3, 50.0, (12, 16, 3)).astype(np.float32)
    pfm_path = save_pfm(workdir / "img.pfm", arr)
    hdr_path = workdir / "img.hdr"
    back_path = workdir / "img2.pfm"
    assert run(capsys, "convert", pfm_path, "-o", hdr_path)[0] == EXIT_OK
    assert run(capsys, "convert", hdr_path, "-o", back_path)[0] == EXIT_OK
    out = load(back_path).data
    rel = np.abs(out - arr) / arr.max(axis=2, keepdims=True)
    assert rel.max() <= 2.0 ** -7  # one RGBE round trip


def test_convert_oversized_rgbe_header_is_io_error(workdir, capsys):
    big = workdir / "big.hdr"
    big.write_bytes(OVERSIZED_RGBE)
    code, _, err = run(capsys, "convert", big, "-o", workdir / "x.pfm")
    assert code == EXIT_IO
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "TruncatedDataError"
    assert not (workdir / "x.pfm").exists()


def test_convert_nan_pfm_is_io_error(workdir, capsys):
    arr = np.ones((4, 4, 3), dtype="<f4")
    arr[2, 1, 0] = np.nan
    nan_pfm = workdir / "nan.pfm"
    nan_pfm.write_bytes(b"PF\n4 4\n-1.0\n" + arr.tobytes())
    code, _, err = run(capsys, "convert", nan_pfm, "-o", workdir / "x.hdr")
    assert code == EXIT_IO
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "InvalidPixelValueError"
    assert not (workdir / "x.hdr").exists()


def test_convert_ldr_space_flag(workdir, capsys):
    codes = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    ppm_path = save_ppm(workdir / "img.ppm", codes)
    out = workdir / "lin.pfm"
    assert run(capsys, "convert", ppm_path, "-o", out, "--ldr-space", "linear")[0] == EXIT_OK
    assert np.allclose(load(out).data, codes / 255.0, atol=1e-7)


def test_config_file_precedence(workdir, capsys):
    vals = np.array([[[0.2] * 3, [0.9] * 3]])
    hdr_path = save_hdr(workdir / "h.hdr", vals)
    ldr_path = save_ppm(workdir / "l.ppm", (vals * 255).astype(np.uint8))
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.4, "ldr_space": "linear"}))
    out = workdir / "o.pfm"
    code, _, _ = run(capsys, "calibrate", hdr_path, ldr_path, "-o", out, "--config", cfg)
    assert code == EXIT_OK
    man = json.loads((workdir / "o.pfm.json").read_text())
    assert man["params"]["tau"] == 0.4  # config beats built-in default
    code, _, _ = run(capsys, "calibrate", hdr_path, ldr_path, "-o", out,
                     "--config", cfg, "--tau", 0.6)
    man = json.loads((workdir / "o.pfm.json").read_text())
    assert man["params"]["tau"] == 0.6  # flag beats config


def test_module_entry_point(workdir):
    # run the package under test, also when it is found through pytest's pythonpath
    paths = [str(Path(hdrkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-m", "hdrkit", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "hdrkit" in proc.stdout


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_that_the_umask_leaves(workdir, umask):
    # 0666 less the umask, as open() makes files: -rw-r--r-- under 022
    src = save_pfm(workdir / "a.pfm", np.ones((4, 8, 3)))
    paths = [str(Path(hdrkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-m", "hdrkit", "convert", str(src),
                           "-o", str(workdir / "b.pfm")],
                          capture_output=True, text=True, env=env, umask=umask)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in workdir.iterdir()) == ["a.pfm", "b.pfm", "b.pfm.json"]
    for name in ("b.pfm", "b.pfm.json"):
        assert (workdir / name).stat().st_mode & 0o777 == 0o666 & ~umask


def test_a_failed_write_leaves_no_temporary_file(workdir):
    # the replace fails on a directory, and the file written beside it goes
    (workdir / "d.pfm").mkdir()
    with pytest.raises(IsADirectoryError):
        cli._atomic_write(workdir / "d.pfm", b"data")
    assert [p.name for p in workdir.iterdir()] == ["d.pfm"]


def test_synth_tau_flag_is_gone(workdir, capsys):
    hdr_path = save_hdr(workdir / "h.hdr", np.full((4, 4, 3), 0.5))
    out = workdir / "o" / "l.ppm"
    code, _, err = run(capsys, "synth", hdr_path, "-o", out, "--tau", 0.1)
    assert code == EXIT_USAGE
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "UsageError"
    assert not out.parent.exists()


def _calibrate_inputs(workdir):
    vals = np.array([[[0.2] * 3, [0.9] * 3]])
    hdr_path = save_hdr(workdir / "h.hdr", vals)
    ldr_path = save_ppm(workdir / "l.ppm", (vals * 255).astype(np.uint8))
    return ["calibrate", hdr_path, ldr_path, "-o", workdir / "out" / "cal.pfm"]


def _synth_batch_inputs(workdir):
    rng = np.random.default_rng(12)
    paths = [save_hdr(workdir / f"h{i}.hdr", rng.lognormal(0, 1.0, (8, 8, 3))) for i in range(2)]
    return ["synth", *paths, "--out-dir", workdir / "out"]


def _crop_set_inputs(workdir):
    pano_path = save_pfm(workdir / "pano.pfm", np.full((16, 32, 3), 2.0))
    return ["crop-set", pano_path, "--out-dir", workdir / "out"]


@pytest.mark.parametrize("config_text, argv", [
    ('{"tau": null}', _calibrate_inputs),
    ('{"tau": "high"}', _calibrate_inputs),
    ('{"ldr_space": "bogus"}', _calibrate_inputs),
    ('{"tau": 0.5', _calibrate_inputs),
    ('{"target_mean": null}', _synth_batch_inputs),
    ('{"outdoor": "yes"}', _crop_set_inputs),
], ids=["tau-null", "tau-string", "ldr-space-bogus", "malformed-json", "synth-target-mean-null",
        "switch-not-boolean"])
def test_bad_config_is_usage_error(workdir, capsys, config_text, argv):
    cfg = workdir / "cfg.json"
    cfg.write_text(config_text)
    code, _, err = run(capsys, *argv(workdir), "--config", cfg)
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "UsageError"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("config_text, code", [
    (None, EXIT_IO),
    ("dir", EXIT_IO),
    ('{"tau": 0.5', EXIT_USAGE),
    ("[0.5]", EXIT_USAGE),
], ids=["missing", "directory", "malformed-json", "not-an-object"])
def test_config_failure_names_the_config_file(workdir, capsys, config_text, code):
    cfg = workdir / "cfg.json"
    if config_text == "dir":
        cfg.mkdir()
    elif config_text is not None:
        cfg.write_text(config_text)
    got, out, err = run(capsys, *_calibrate_inputs(workdir), "--config", cfg)
    assert got == code and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["file"] == str(cfg)
    assert not (workdir / "out").exists()


def test_config_sets_switches_and_pano_width(workdir, capsys):
    ceil_path = save_pfm(workdir / "ceil.pfm", np.full((16, 16, 3), 1.5))
    pano_path = save_pfm(workdir / "pano.pfm", np.full((16, 32, 3), 2.0))
    hdr_path = save_hdr(workdir / "h.hdr", np.random.default_rng(13).lognormal(0, 1, (8, 8, 3)))
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"pano_width": 64, "outdoor": True, "identity_crf": True,
                               "dynamic_range_ev": 10}))
    back = workdir / "back.pfm"
    assert run(capsys, "c2p", ceil_path, "-o", back, "--config", cfg)[0] == EXIT_OK
    assert load(back).width == 64
    code, out, _ = run(capsys, "crop-set", pano_path, "--out-dir", workdir / "crops",
                       "--width", 8, "--height", 6, "--config", cfg)
    assert code == EXIT_OK
    assert json.loads(out)["crops"] == 6
    assert len(list((workdir / "crops").glob("*.pfm"))) == 6
    assert run(capsys, "synth", hdr_path, "-o", workdir / "l.ppm", "--config", cfg)[0] == EXIT_OK
    man = json.loads((workdir / "l.ppm.json").read_text())
    assert man["identity_crf"] is True and man["dynamic_range_ev"] == 10.0
    # a flag still beats the config
    assert run(capsys, "c2p", ceil_path, "-o", back, "--pano-width", 32,
               "--config", cfg)[0] == EXIT_OK
    assert json.loads((workdir / "back.pfm.json").read_text())["params"]["pano_width"] == 32


T_LOW, T_HIGH = 0.004086771438464067, 1.1051709180756477
GEOMETRY = {"pano_width": 32, "pano_height": 16, "ceil_size": 16, "camera_d": 1.0,
            "plane_extent": 1.0}

# Sidecar `inputs` and `params` (for synth, which records no `inputs`, every
# field but the output path and the tool version) of each image-writing
# subcommand run with default options. Every sidecar's `subcommand` is the
# command's name.
PINNED_MANIFESTS = [
    (["calibrate", "pano.hdr", "pano.ppm", "-o", "out.pfm"], "out.pfm.json",
     ["pano.hdr", "pano.ppm"], {"tau": 0.83, "ldr_space": "srgb"}),
    (["segment", "pano.hdr", "-o", "out.ppm"], "out.ppm.json", ["pano.hdr"],
     {"t_low": T_LOW, "t_high": T_HIGH}),
    (["synth", "pano.hdr", "-o", "out.ppm"], "out.ppm.json", None,
     {"subcommand": "synth", "source": "pano.hdr", "seed": 0, "rng": "pcg64",
      "dynamic_range_ev": 12.912200774071563, "sigma": 0.3539573427527741,
      "n": 0.808194704787239, "identity_crf": False, "exposure": 0.12080760427458825,
      "exposure_mean_before_noise_floor": True, "target_mean": 0.18,
      "tau_default": 0.83, "t_low_default": T_LOW, "t_high_default": T_HIGH}),
    (["p2c", "pano.hdr", "-o", "out.pfm"], "out.pfm.json", ["pano.hdr"], GEOMETRY),
    (["c2p", "ceil.pfm", "-o", "out.pfm", "--pano-width", "32"], "out.pfm.json", ["ceil.pfm"],
     GEOMETRY),
    (["merge", "ceil.pfm", "pano.hdr", "--ceil-ldr", "ceil.ppm", "-o", "out.pfm"],
     "out.pfm.json", ["ceil.pfm", "pano.hdr", "ceil.ppm"],
     {**GEOMETRY, "merge_tau": 0.13, "ldr_space": "srgb"}),
    (["crop-set", "pano.hdr", "--out-dir", "."], "pano_yaw120_pitch45.pfm.json", ["pano.hdr"],
     {"yaw_deg": 120.0, "pitch_deg": 45.0, "hfov_deg": 60.0, "width": 320, "height": 240,
      "outdoor": False}),
    (["render", "scene.txt", "pano.hdr", "-o", "out.pfm"], "out.pfm.json",
     ["scene.txt", "pano.hdr"], {"scene": "scene.txt"}),
    (["preview", "pano.hdr", "-o", "out.ppm"], "out.ppm.json", ["pano.hdr"],
     {"ev": 0.0, "window": 10.0}),
    (["convert", "pano.ppm", "-o", "out.pfm"], "out.pfm.json", ["pano.ppm"],
     {"ldr_space": "srgb", "ev": 0.0, "window": 10.0}),
]


@pytest.mark.parametrize("argv, sidecar, inputs, expected", PINNED_MANIFESTS,
                         ids=[case[0][0] for case in PINNED_MANIFESTS])
def test_default_manifests_are_pinned(workdir, capsys, monkeypatch, argv, sidecar, inputs,
                                      expected):
    monkeypatch.chdir(workdir)
    rng = np.random.default_rng(11)
    pano = rng.uniform(0.05, 3.0, (16, 32, 3))
    save_hdr(workdir / "pano.hdr", pano)
    save_ppm(workdir / "pano.ppm", (np.clip(pano / 3.0, 0, 1) * 255).astype(np.uint8))
    save_pfm(workdir / "ceil.pfm", rng.uniform(0.1, 2.0, (16, 16, 3)))
    save_ppm(workdir / "ceil.ppm", rng.integers(0, 256, (16, 16, 3)).astype(np.uint8))
    (workdir / "scene.txt").write_text(default_scene_text(16, 12))
    assert run(capsys, *argv)[0] == EXIT_OK
    man = json.loads((workdir / sidecar).read_text())
    assert man["subcommand"] == argv[0]
    assert man.get("inputs") == inputs
    if argv[0] == "synth":
        params = {k: v for k, v in man.items() if k not in ("output", "tool_version")}
    else:
        params = man["params"]
    assert params == expected


FLAGS = {
    "calibrate": ["--config", "--ldr-space", "--output", "--tau", "-o"],
    "segment": ["--config", "--output", "--t-high", "--t-low", "-o"],
    "synth": ["--config", "--dynamic-range", "--identity-crf", "--jobs", "--out-dir",
              "--output", "--seed", "--target-mean", "-o"],
    "metrics": ["--config", "--eps", "--ldr", "--ldr-space"],
    "p2c": ["--ceil-size", "--config", "--d", "--extent", "--output", "-o"],
    "c2p": ["--config", "--d", "--extent", "--output", "--pano-width", "--validity-out", "-o"],
    "merge": ["--ceil-ldr", "--config", "--d", "--extent", "--ldr-space", "--merge-tau",
              "--output", "-o"],
    "crop-set": ["--config", "--height", "--hfov-deg", "--out-dir", "--outdoor", "--width"],
    "render": ["--config", "--jobs", "--out-dir", "--output", "--reference", "-o"],
    "eval-ibl": ["--config", "--ldr-space", "--tau"],
    "preview": ["--config", "--ev", "--output", "--window", "-o"],
    "convert": ["--config", "--ev", "--ldr-space", "--output", "--window", "-o"],
}


@pytest.mark.parametrize("sub", sorted(FLAGS))
def test_help_names_every_flag(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    named = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", capsys.readouterr().out))
    assert set(FLAGS[sub]) <= named


@pytest.mark.parametrize("argv, config", [
    (["synth", "in.hdr", "-o", "out/x.ppm"], {"seed": 7.9}),
    (["synth", "in.hdr", "-o", "out/x.ppm"], {"seed": True}),
    (["synth", "in.hdr", "-o", "out/x.ppm", "--seed", "-1"], None),
    (["synth", "in.hdr", "-o", "out/x.ppm", "--jobs", "0"], None),
    (["synth", "in.hdr", "-o", "out/x.ppm"], {"target_mean": False}),
    (["calibrate", "in.hdr", "in.ppm", "-o", "out/x.pfm"], {"tau": True}),
    (["crop-set", "in.pfm", "--out-dir", "out"], {"width": 20.9}),
    (["crop-set", "in.pfm", "--out-dir", "out", "--height", "0"], None),
    (["p2c", "in.pfm", "-o", "out/x.pfm", "--ceil-size", "0"], None),
    (["c2p", "in.pfm", "-o", "out/x.pfm", "--pano-width", "63"], None),
    (["c2p", "in.pfm", "-o", "out/x.pfm", "--pano-width", "0"], None),
    (["c2p", "in.pfm", "-o", "out/x.pfm"], {"pano_width": 64.5}),
    (["synth", "in.hdr", "-o", "out/x.png"], None),
    (["p2c", "in.pfm", "-o", "out/x.png"], None),
    (["calibrate", "in.hdr", "in.ppm", "-o", "out/x.jpg"], None),
    (["p2c", "in.pfm", "-o", "out/x.ppm"], None),
    (["merge", "c.pfm", "p.pfm", "--ceil-ldr", "c.ppm", "-o", "out/x.ppm"], None),
    (["render", "s.txt", "e.hdr", "-o", "out/x.ppm"], None),
    (["c2p", "in.pfm", "-o", "out/x.pfm", "--pano-width", "64", "--validity-out", "out/x.pfm"],
     None),
    (["c2p", "in.pfm", "-o", "out/x.pfm", "--pano-width", "64", "--validity-out",
      "out/../out/x.pfm"], None),
    (["c2p", "in.pfm", "-o", "out/x.pfm", "--pano-width", "64", "--validity-out", "out/v.png"],
     None),
    (["c2p", "in.pfm", "-o", "out/x.pfm", "--pano-width", "64", "--validity-out", "out/v.ppm"],
     None),
], ids=["seed-fraction", "seed-boolean", "seed-negative", "jobs-zero", "target-mean-boolean",
        "tau-boolean", "width-fraction", "height-zero", "ceil-size-zero", "pano-width-odd",
        "pano-width-zero", "pano-width-fraction", "unknown-output-format",
        "p2c-unknown-output-format", "calibrate-unknown-output-format", "p2c-hdr-to-ppm",
        "merge-hdr-to-ppm", "render-hdr-to-ppm", "validity-out-is-output",
        "validity-out-resolves-to-output", "validity-out-unknown-format", "validity-out-to-ppm"])
def test_bad_option_value_exits_before_reading(workdir, capsys, monkeypatch, argv, config):
    # the inputs do not exist: reading one would exit 2, not 1
    monkeypatch.chdir(workdir)
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "UsageError"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (["synth", "in.hdr", "-o", "out/x.ppm", "--target-mean", "1.5"], None),
    (["synth", "in.hdr", "-o", "out/x.ppm", "--identity-crf", "--dynamic-range", "nan"], None),
    (["calibrate", "in.hdr", "in.ppm", "-o", "out/x.pfm"], {"tau": 0}),
    (["segment", "in.hdr", "-o", "out/x.ppm", "--t-low", "nan"], None),
    (["segment", "in.hdr", "-o", "out/x.ppm", "--t-low", "2", "--t-high", "1"], None),
    (["segment", "in.hdr", "-o", "out/x.ppm", "--t-high", "0.5"], {"t_low": 0.5}),
    (["merge", "c.pfm", "p.pfm", "--ceil-ldr", "c.ppm", "-o", "out/x.pfm", "--merge-tau", "1.0"],
     None),
    (["preview", "in.hdr", "-o", "out/x.ppm", "--window", "0"], None),
    (["preview", "in.hdr", "-o", "out/x.ppm", "--ev", "inf"], None),
    (["convert", "in.hdr", "-o", "out/x.ppm", "--ev", "1024"], None),
    (["synth", "in.hdr", "-o", "out/x.ppm", "--identity-crf"], {"dynamic_range_ev": -2000}),
    (["p2c", "in.pfm", "-o", "out/x.pfm", "--d", "0"], None),
    (["p2c", "in.pfm", "-o", "out/x.pfm"], {"plane_extent": -1.0}),
    (["crop-set", "in.pfm", "--out-dir", "out", "--hfov-deg", "180"], None),
    (["metrics", "a.pfm", "b.pfm", "--eps", "0"], None),
], ids=["target-mean-above-1", "dynamic-range-nan", "tau-zero", "t-low-nan",
        "t-low-above-t-high", "t-low-equals-t-high", "merge-tau-one", "window-zero", "ev-inf",
        "ev-overflow", "dynamic-range-negative", "d-zero", "extent-negative", "hfov-180",
        "eps-zero"])
def test_real_option_out_of_range_exits_before_reading(workdir, capsys, monkeypatch, argv,
                                                       config):
    # the inputs do not exist: reading one would exit 2, not 1
    monkeypatch.chdir(workdir)
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "UsageError"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("extra, config", [(["--dynamic-range", "3"], None),
                                           ([], {"dynamic_range_ev": 3})],
                         ids=["flag", "config"])
def test_synth_dynamic_range_needs_identity_crf(workdir, capsys, monkeypatch, extra, config):
    # it sets the identity curve's range, and did nothing without one; the
    # input does not exist, so reading it would exit 2, not 1
    monkeypatch.chdir(workdir)
    argv = ["synth", "in.hdr", "-o", "out/x.ppm", *extra]
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    (line,) = err.strip().splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "UsageError" and "--dynamic-range" in error["message"]
    assert not (workdir / "out").exists()


def test_real_option_closed_ends_are_accepted(workdir, capsys):
    rng = np.random.default_rng(20)
    hdr_path = save_hdr(workdir / "a.hdr", rng.uniform(0.5, 4.0, (16, 16, 3)))
    ldr_path = save_ppm(workdir / "a.ppm", rng.integers(0, 200, (16, 16, 3)))
    assert run(capsys, "calibrate", hdr_path, ldr_path, "-o", workdir / "c.pfm",
               "--tau", 1)[0] == EXIT_OK
    ceil_hdr = save_pfm(workdir / "c.pfm", rng.uniform(0.1, 2.0, (16, 16, 3)))
    pano_hdr = save_pfm(workdir / "p.pfm", rng.uniform(0.1, 2.0, (16, 32, 3)))
    assert run(capsys, "merge", ceil_hdr, pano_hdr, "--ceil-ldr", ldr_path, "-o",
               workdir / "m.pfm", "--merge-tau", 0, "--d", 1)[0] == EXIT_OK


@pytest.mark.parametrize("sub, extra", [("p2c", ["--ceil-size", 16]),
                                        ("c2p", ["--pano-width", 32])])
def test_huge_plane_extent_is_usage_error(workdir, capsys, sub, extra):
    src = save_pfm(workdir / "in.pfm", np.random.default_rng(21).uniform(0.1, 2.0, (16, 32, 3)))
    out = workdir / "out.pfm"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, sub, src, "-o", out, *extra, "--extent", "1e308")
    assert code == EXIT_USAGE
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"]["type"] == "UsageError"
    assert caught == []
    assert not out.exists()


@pytest.mark.parametrize("extent", ["1e-310", "5e-324"])
def test_c2p_subnormal_extent_is_silent(workdir, capsys, extent):
    ceil = save_pfm(workdir / "ceil.pfm", np.random.default_rng(22).uniform(0.1, 2.0, (16, 16, 3)))
    out = workdir / "p.pfm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "c2p", ceil, "-o", out, "--pano-width", 32,
                           "--extent", extent)
    assert code == EXIT_OK and err == ""
    assert load(out).width == 32


def test_c2p_validity_out_memory_at_dataset_size(workdir, capsys):
    # tracemalloc peak of a 512x512 ceiling to a 1024x512 panorama with
    # --validity-out, plan build included: 21.1 MiB (numpy 2.4), the float32
    # panorama and validity image, the read ceiling and the compact plan.
    # The bound leaves 15% over the measured peak.
    from hdrkit import pano

    ceil = np.random.default_rng(9).uniform(0.1, 5.0, (512, 512, 3))
    ceil_path = save_pfm(workdir / "ceil.pfm", ceil)
    pano._ceiling_plan.cache_clear()
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "c2p", ceil_path, "-o", workdir / "p.pfm", "--pano-width", 1024,
                         "--validity-out", workdir / "v.pfm")
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 24.3, peak


def test_whole_number_config_values_are_accepted(workdir, capsys):
    hdr_path = save_hdr(workdir / "h.hdr", np.random.default_rng(17).lognormal(0, 1, (8, 8, 3)))
    assert run(capsys, "synth", hdr_path, "-o", workdir / "a.ppm", "--seed", 7,
               "--target-mean", 0.2)[0] == EXIT_OK
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7.0, "target_mean": 0.2}))
    assert run(capsys, "synth", hdr_path, "-o", workdir / "b.ppm", "--config", cfg)[0] == EXIT_OK
    assert (workdir / "a.ppm").read_bytes() == (workdir / "b.ppm").read_bytes()
    man = json.loads((workdir / "b.ppm.json").read_text())
    assert man["seed"] == 7 and isinstance(man["seed"], int)


@pytest.mark.parametrize("exc_type, code, jobs", [
    (MemoryError, EXIT_IO, 1),
    (MemoryError, EXIT_IO, 2),
    (KeyError, EXIT_NUMERIC, 1),
    (ZeroDivisionError, EXIT_NUMERIC, 2),
])
def test_unexpected_worker_exception_does_not_abort_batch(workdir, capsys, monkeypatch,
                                                          exc_type, code, jobs):
    from hdrkit import cli

    rng = np.random.default_rng(18)
    paths = [save_hdr(workdir / f"h{i}.hdr", rng.lognormal(0, 1.0, (8, 8, 3))) for i in range(2)]
    real = cli._synth_one

    def flaky(path, out_path, seed, params):
        if path == paths[0]:
            raise exc_type("boom")
        return real(path, out_path, seed, params)

    monkeypatch.setattr(cli, "_synth_one", flaky)
    out = workdir / "out"
    got, _, err = run(capsys, "synth", *paths, "--out-dir", out, "--jobs", jobs)
    assert got == code
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == exc_type.__name__ and error["file"] == str(paths[0])
    assert not (out / "h0.ppm").exists()
    assert (out / "h1.ppm").exists() and (out / "h1.ppm.json").exists()


def test_cli_import_leaves_scipy_out(workdir):
    rng = np.random.default_rng(19)
    gt = rng.uniform(0.5, 2.0, (24, 24, 3))
    pred = save_pfm(workdir / "pred.pfm", gt * 2.0)
    gt = save_pfm(workdir / "gt.pfm", gt)
    paths = [str(Path(hdrkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    probe = "import sys, hdrkit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"
    proc = subprocess.run([sys.executable, "-m", "hdrkit", "metrics", str(pred), str(gt)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ssim"] == pytest.approx(1.0, abs=1e-9)


def test_ssim_subcommands_leave_scipy_out(workdir):
    rng = np.random.default_rng(22)
    env = rng.uniform(0.02, 0.3, (16, 32, 3))
    pred = save_pfm(workdir / "pred.pfm", env * rng.uniform(0.5, 2.0, env.shape))
    gt = save_pfm(workdir / "gt.pfm", env)
    ldr = save_ppm(workdir / "env.ppm", (np.clip(env * 2.0, 0, 1) * 255).astype(np.uint8))
    scene = workdir / "scene.txt"
    scene.write_text(default_scene_text(24, 18))
    ref = workdir / "ref.pfm"
    runs = [["render", scene, gt, "-o", ref],
            ["metrics", pred, gt],
            ["render", scene, pred, "-o", workdir / "r.pfm", "--reference", ref],
            ["eval-ibl", pred, gt, ldr, scene]]
    probe = ("import json, sys\n"
             "from hdrkit.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    paths = [str(Path(hdrkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env_vars = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    argv = json.dumps([[str(a) for a in run_argv] for run_argv in runs])
    proc = subprocess.run([sys.executable, "-c", probe, argv], capture_output=True, text=True,
                          env=env_vars)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [EXIT_OK] * len(runs)
    assert scipy_modules == []
