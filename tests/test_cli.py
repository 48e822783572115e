import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdrkit
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

# Sidecar `params` (for synth, every field but the paths and the tool
# version) of each image-writing subcommand run with default options.
PINNED_MANIFESTS = [
    (["calibrate", "pano.hdr", "pano.ppm", "-o", "out.pfm"], "out.pfm.json",
     {"tau": 0.83, "ldr_space": "srgb"}),
    (["segment", "pano.hdr", "-o", "out.ppm"], "out.ppm.json",
     {"t_low": T_LOW, "t_high": T_HIGH}),
    (["synth", "pano.hdr", "-o", "out.ppm"], "out.ppm.json",
     {"subcommand": "synth", "seed": 0, "rng": "pcg64",
      "dynamic_range_ev": 12.912200774071563, "sigma": 0.3539573427527741,
      "n": 0.808194704787239, "identity_crf": False, "exposure": 0.12080760427458825,
      "exposure_mean_before_noise_floor": True, "target_mean": 0.18,
      "tau_default": 0.83, "t_low_default": T_LOW, "t_high_default": T_HIGH}),
    (["p2c", "pano.hdr", "-o", "out.pfm"], "out.pfm.json", GEOMETRY),
    (["c2p", "ceil.pfm", "-o", "out.pfm", "--pano-width", "32"], "out.pfm.json", GEOMETRY),
    (["merge", "ceil.pfm", "pano.hdr", "--ceil-ldr", "ceil.ppm", "-o", "out.pfm"],
     "out.pfm.json", {**GEOMETRY, "merge_tau": 0.13, "ldr_space": "srgb"}),
    (["crop-set", "pano.hdr", "--out-dir", "."], "pano_yaw120_pitch45.pfm.json",
     {"yaw_deg": 120.0, "pitch_deg": 45.0, "hfov_deg": 60.0, "width": 320, "height": 240,
      "outdoor": False}),
    (["render", "scene.txt", "pano.hdr", "-o", "out.pfm"], "out.pfm.json",
     {"scene": "scene.txt"}),
    (["preview", "pano.hdr", "-o", "out.ppm"], "out.ppm.json", {"ev": 0.0, "window": 10.0}),
    (["convert", "pano.ppm", "-o", "out.pfm"], "out.pfm.json",
     {"ldr_space": "srgb", "ev": 0.0, "window": 10.0}),
]


@pytest.mark.parametrize("argv, sidecar, expected", PINNED_MANIFESTS,
                         ids=[case[0][0] for case in PINNED_MANIFESTS])
def test_default_manifests_are_pinned(workdir, capsys, monkeypatch, argv, sidecar, expected):
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
    if argv[0] == "synth":
        params = {k: v for k, v in man.items() if k not in ("source", "output", "tool_version")}
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
