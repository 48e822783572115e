"""The three workloads: their seeded inputs, the CLI invocations of one
item, and the checks on every output.

A workload writes its inputs into its work directory in __init__ (set-up,
untimed). item(k, out) returns the hdrkit argument lists of item k, run in
order; check(k, out, stdout) returns a list of failed checks for that
item, given each invocation's standard output. final(run) runs the checks
that need extra invocations, once per run, after the timed phase. None of
the checks compares against a stored copy of an earlier output: each is
an independent recomputation or a property of the method.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import imgio
import inputs

TARGET_MEAN = 0.18
TAU = 0.83
T_LOW, T_HIGH = math.exp(-5.5), math.exp(0.1)
MERGE_TAU = 0.13
EPS = 1e-6


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


class DatasetSynth:
    """LANet label preparation: synth two panoramas with --jobs 2, then
    calibrate each HDR against its LDR and segment the calibrated file."""

    def __init__(self, work: Path, seed: int, tiny: bool):
        w, h = (64, 32) if tiny else (1024, 512)
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.names = ("A", "B")
        self.paths, self.exact = {}, {}
        for name in self.names:
            quads, exact = inputs.rgbe_exact(inputs.panorama(rng, w, h))
            self.paths[name] = _write(work / f"{name}.hdr", imgio.encode_rgbe(quads))
            self.exact[name] = exact.astype(np.float64)
        self.lut = imgio.srgb_decode_lut()

    def _synth_seed(self, k: int) -> int:
        return self.seed * 1_000_003 + k

    def item(self, k: int, out: Path) -> list[list[str]]:
        runs = [["synth", *self.paths.values(), "--seed", str(self._synth_seed(k)),
                 "--jobs", "2", "--out-dir", str(out / "ldr")]]
        for n in self.names:
            runs.append(["calibrate", self.paths[n], str(out / "ldr" / f"{n}.ppm"),
                         "-o", str(out / "cal" / f"{n}.hdr")])
        for n in self.names:
            runs.append(["segment", str(out / "cal" / f"{n}.hdr"),
                         "-o", str(out / "seg" / f"{n}.ppm")])
        return runs

    def check(self, k: int, out: Path, stdout: list[str]) -> list[str]:
        errors = []
        for i, n in enumerate(self.names):
            h = self.exact[n]
            codes = imgio.decode_ppm((out / "ldr" / f"{n}.ppm").read_bytes())
            man = json.loads((out / "ldr" / f"{n}.ppm.json").read_text())
            clipped = np.clip(man["exposure"] * h, 0.0, 1.0)
            if abs(clipped.mean() - TARGET_MEAN) > 1e-4:
                errors.append(f"{n}: exposed mean {clipped.mean()} is not {TARGET_MEAN}")
            # the virtual camera: noise floor 2**-DR, curve (1+s)v^n/(v^n+s), 8 bits
            v = np.where(clipped < 2.0 ** -man["dynamic_range_ev"], 0.0, clipped)
            vn = v ** man["n"]
            want = np.floor((1 + man["sigma"]) * vn / (vn + man["sigma"]) * 255 + 0.5)
            if not np.array_equal(codes, want):
                errors.append(f"{n}: {int((codes != want).sum())} LDR codes differ "
                              "from the camera formula")

            lin = self.lut[codes].astype(np.float64)
            keep = lin.mean(axis=2) < TAU
            scale = lin[keep].sum() / h[keep].sum()
            got = json.loads(stdout[1 + i])["scale_factor"]
            if not _close(got, scale, 1e-9):
                errors.append(f"{n}: scale_factor {got} is not the masked-sum ratio {scale}")
            cal = imgio.decode_rgbe((out / "cal" / f"{n}.hdr").read_bytes()).astype(np.float64)
            ideal = h * scale
            if np.any(np.abs(cal - ideal) > ideal.max(axis=2, keepdims=True) / 128):
                errors.append(f"{n}: calibrated file is not scale_factor * input")

            labels = imgio.decode_ppm((out / "seg" / f"{n}.ppm").read_bytes())
            mean = cal.mean(axis=2)
            cls = np.where(mean <= T_LOW, 0, np.where(mean >= T_HIGH, 2, 1))
            want_labels = (np.arange(3) == cls[..., None]) * 255
            if not np.array_equal(labels, want_labels):
                errors.append(f"{n}: labels are not one-hot at e^-5.5 / e^0.1")
        return errors

    def final(self, run, last: int, last_out: Path) -> list[str]:
        """The synth bytes must not depend on the worker count."""
        out1 = last_out.parent / "jobs1"
        res, _, _ = run.invoke(["synth", *self.paths.values(), "--seed", str(self._synth_seed(last)),
                                "--jobs", "1", "--out-dir", str(out1)])
        if res["rc"] != 0:
            return []
        return [f"{n}: synth bytes differ between --jobs 1 and --jobs 2" for n in self.names
                if (out1 / f"{n}.ppm").read_bytes() != (last_out / "ldr" / f"{n}.ppm").read_bytes()]


class PanoMerge:
    """panoLANet dual-branch path: p2c of the ground truth, merge of the
    ceiling and panorama predictions, metrics of the merge, crop-set."""

    def __init__(self, work: Path, seed: int, tiny: bool):
        w, h, n = (64, 32, 32) if tiny else (1024, 512, 512)
        self.ceil_size = n
        rng = np.random.default_rng([seed, 2])
        quads, gt = inputs.rgbe_exact(inputs.panorama(rng, w, h))
        self.gt = gt.astype(np.float64)
        self.gt_path = _write(work / "gt.hdr", imgio.encode_rgbe(quads))
        ceil_gt = inputs.ceiling_view(self.gt, n)
        ceil_pred = inputs.noisy_copy(rng, ceil_gt, 0.7, 0.1).astype(np.float32)
        pano_pred = inputs.noisy_copy(rng, self.gt, 1.3, 0.1).astype(np.float32)
        inside = ceil_gt.max(axis=2) > 0
        ldr = imgio.srgb_encode_codes(ceil_gt * (TARGET_MEAN / ceil_gt[inside].mean()))
        self.ceil_pred_path = _write(work / "ceil_pred.pfm", imgio.encode_pfm(ceil_pred))
        self.pano_pred_path = _write(work / "pano_pred.pfm", imgio.encode_pfm(pano_pred))
        self.ldr_path = _write(work / "ceil.ppm", imgio.encode_ppm(ldr))

        # expected ceiling at sampled pixels, and the region outside the disk
        x, y, self.inside = inputs.ceiling_source(n, w, h)
        pick = rng.choice(np.flatnonzero(self.inside), size=min(4096, int(self.inside.sum())),
                          replace=False)
        self.sample_at = np.unravel_index(pick, self.inside.shape)
        self.sample_want = inputs.bilinear(self.gt, x[self.sample_at], y[self.sample_at], True)

        # merge: branch values in panorama space, and where the mask is surely 0
        col, row, upper = inputs.pano_source(w, h, n)
        self.ceil_in_pano = inputs.bilinear(ceil_pred, col, row, wrap_x=False)
        self.pano_pred = pano_pred
        lin_mean = imgio.srgb_decode_lut()[ldr].astype(np.float64).mean(axis=2)
        c0 = np.clip(np.floor(col), 0, n - 1).astype(int)
        r0 = np.clip(np.floor(row), 0, n - 1).astype(int)
        corners = np.maximum.reduce([lin_mean[np.minimum(r0 + dr, n - 1), np.minimum(c0 + dc, n - 1)]
                                     for dr in (0, 1) for dc in (0, 1)])
        self.mask_zero = ~upper | (corners < MERGE_TAU - 1e-6)
        if self.mask_zero.all():
            raise ValueError("input generator made an empty merge mask")

    def item(self, k: int, out: Path) -> list[list[str]]:
        return [
            ["p2c", self.gt_path, "-o", str(out / "ceil.pfm"), "--ceil-size", str(self.ceil_size)],
            ["merge", self.ceil_pred_path, self.pano_pred_path, "--ceil-ldr", self.ldr_path,
             "-o", str(out / "merged.pfm")],
            ["metrics", str(out / "merged.pfm"), self.gt_path],
            ["crop-set", self.gt_path, "--out-dir", str(out / "crops")],
        ]

    def check(self, k: int, out: Path, stdout: list[str]) -> list[str]:
        errors = []
        ceil = imgio.decode_pfm((out / "ceil.pfm").read_bytes()).astype(np.float64)
        got = ceil[self.sample_at]
        if np.any(np.abs(got - self.sample_want) > 1e-6 * self.sample_want + 1e-30):
            errors.append("ceiling differs from the stereographic lookup")
        if np.any(ceil[~self.inside] != 0):
            errors.append("ceiling is not 0 outside the unit disk")

        merged = imgio.decode_pfm((out / "merged.pfm").read_bytes()).astype(np.float64)
        p, c = self.pano_pred.astype(np.float64), self.ceil_in_pano
        if not np.array_equal(merged[self.mask_zero], p[self.mask_zero]):
            errors.append("merge changed the panorama where the mask is 0")
        slack = 1e-6 * np.maximum(p, c)
        if np.any(merged < np.minimum(p, c) - slack) or np.any(merged > np.maximum(p, c) + slack):
            errors.append("merge is not a convex blend of the two branches")
        if np.array_equal(merged, p):
            errors.append("merge left the panorama unchanged everywhere")

        report = json.loads(stdout[2])
        d = np.log(merged + EPS) - np.log(self.gt + EPS)
        if not _close(report["si_mse"], float(d.var()), 1e-7):
            errors.append(f"si_mse {report['si_mse']} is not var(log diff) {d.var()}")
        if not _close(report["kappa"], math.exp(-float(d.mean())), 1e-7):
            errors.append(f"kappa {report['kappa']} is not exp(-mean(log diff))")
        if not (math.isfinite(report["log_psnr"]) and 0 < report["ssim"] <= 1):
            errors.append(f"metrics out of range: {report}")

        crops = sorted((out / "crops").glob("*.pfm"))
        if json.loads(stdout[3]).get("crops") != 9 or len(crops) != 9:
            errors.append(f"crop-set made {len(crops)} crops, not 9")
        return errors

    def final(self, run, last: int, last_out: Path) -> list[str]:
        return []


class IblEval:
    """Render-based evaluation: eval-ibl of a pred/gt environment pair under
    the four-sphere scene. Even items use a prediction that is the ground
    truth times an exact power of two, odd items a noisy prediction."""

    def __init__(self, work: Path, seed: int, tiny: bool):
        w, h = (64, 32) if tiny else (512, 256)
        rng = np.random.default_rng([seed, 3])
        quads, gt = inputs.rgbe_exact(inputs.panorama(rng, w, h))
        self.gt_path = _write(work / "gt.hdr", imgio.encode_rgbe(quads))
        shifted = quads.copy()
        shift = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
        live = shifted[..., 3] > 0
        shifted[..., 3][live] = (shifted[..., 3][live].astype(int) + shift).astype(np.uint8)
        noisy, _ = inputs.rgbe_exact(inputs.noisy_copy(rng, gt, 0.5, 0.2))
        self.preds = [_write(work / "pred_pow2.hdr", imgio.encode_rgbe(shifted)),
                      _write(work / "pred_noisy.hdr", imgio.encode_rgbe(noisy))]
        exposure = TARGET_MEAN / gt.mean()
        self.ldr_path = _write(work / "env.ppm", imgio.encode_ppm(
            imgio.srgb_encode_codes(gt.astype(np.float64) * exposure)))
        scene = inputs.SCENE_TEXT
        if tiny:
            scene = scene.replace("camera 160 120", "camera 32 24")
        self.scene_path = _write(work / "scene.txt", scene.encode())
        self.work = work

    def item(self, k: int, out: Path) -> list[list[str]]:
        return [["eval-ibl", self.preds[k % 2], self.gt_path, self.ldr_path, self.scene_path]]

    def check(self, k: int, out: Path, stdout: list[str]) -> list[str]:
        r = json.loads(stdout[0])
        if k % 2 == 0:
            # calibration cancels an exact global rescaling of the prediction
            if r["mse"] != 0.0 or r["ssim"] != 1.0:
                return [f"power-of-two rescaled prediction gave {r}, not mse 0 / ssim 1"]
            return []
        if not (r["mse"] > 0 and math.isfinite(r["log_psnr"]) and 0 < r["ssim"] < 1):
            return [f"noisy prediction gave out-of-range metrics {r}"]
        return []

    def final(self, run, last: int, last_out: Path) -> list[str]:
        """Uniform environment L0: diffuse sphere = albedo * L0 within 1%,
        mirror sphere = L0 exactly."""
        l0 = 0.5
        env = self.work / "uniform.hdr"
        env.write_bytes(imgio.encode_rgbe(imgio.rgbe_quantize(np.full((64, 128, 3), l0))))
        out = last_out.parent / "uniform.pfm"
        res, _, _ = run.invoke(["render", self.scene_path, str(env), "-o", str(out)])
        if res["rc"] != 0:
            return []
        img = imgio.decode_pfm(out.read_bytes())
        h, w = img.shape[:2]
        span, cx, cz = 4.5, 0.0, 0.9
        xs = cx + (2.0 * (np.arange(w) + 0.5) / w - 1.0) * span
        zs = cz + (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * span * h / w
        X, Z = np.meshgrid(xs, zs)

        def disc(sx: float) -> np.ndarray:
            return (X - sx) ** 2 + (Z - 0.9) ** 2 < (0.9 * 0.98) ** 2

        errors = []
        diffuse = img[disc(-3.3)]
        if diffuse.size == 0 or np.abs(diffuse / (0.85 * l0) - 1).max() >= 0.01:
            errors.append("uniform environment: diffuse sphere is not albedo * L0")
        mirror = img[disc(-1.1)]
        if mirror.size == 0 or np.any(mirror != np.float32(l0)):
            errors.append("uniform environment: mirror sphere is not exactly L0")
        return errors


WORKLOADS = {"dataset-synth": DatasetSynth, "pano-merge": PanoMerge, "ibl-eval": IblEval}
