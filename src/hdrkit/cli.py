"""Batch command-line front end.

Every image-producing invocation writes a JSON manifest sidecar
(`<output>.json`) recording the tool version and all effective parameters,
sufficient to reproduce the output byte-for-byte. Metric subcommands print
JSON to stdout; images only ever go to files. Exit codes: 0 success,
1 usage, 2 I/O, 3 numeric failure (e.g. an uncalibratable image).

Option precedence is flags > config file (--config, JSON with the same key
names) > built-in defaults. Batch subcommands (synth, render) process
every input even if some fail; failures are reported per file on stderr.
Two inputs that would write the same output file are a usage error,
reported before any file is read or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    DEFAULT_T_HIGH,
    DEFAULT_T_LOW,
    DEFAULT_TAU,
    UncalibratableError,
    calibrate_hdr,
    luminance_seg_labels,
)
from .camera import (
    AutoExposureError,
    DEFAULT_TARGET_MEAN,
    identity_camera,
    sample_camera,
    split_seeds,
    synth_ldr,
)
from .fileio import (
    FileFormat,
    HdrIoError,
    read_image,
    write_image,
)
from .image import (
    HdrImage,
    LdrImage,
    LinearLdr,
    exposure_preview,
    srgb_to_linear,
)
from .losses import metric_report
from .pano import (
    DEFAULT_MERGE_TAU,
    PanoProjection,
    ceiling_to_pano,
    crop_set,
    merge_mask,
    merge_panorama,
    pano_to_ceiling,
)
from .render import compare_renders, parse_scene, render, render_many

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_error(kind: str, message: str, file=None) -> None:
    print(json.dumps({"error": {"type": kind, "message": message, "file": file}}),
          file=sys.stderr)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _resolve(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _format_for(path: Path) -> FileFormat:
    ext = path.suffix.lower()
    if ext in (".hdr", ".rgbe", ".pic"):
        return FileFormat.RADIANCE_RGBE
    if ext == ".pfm":
        return FileFormat.PFM
    if ext == ".ppm":
        return FileFormat.PPM6
    raise UsageError(f"cannot infer image format from extension {ext!r} ({path})")


def _read(path) -> HdrImage | LdrImage:
    with open(path, "rb") as fh:
        return read_image(fh.read())


def _read_hdr(path) -> HdrImage:
    img = _read(path)
    if not isinstance(img, HdrImage):
        raise HdrIoError(f"{path}: expected an HDR image (RGBE or PFM)")
    return img


def _read_linear_ldr(path, ldr_space: str) -> LinearLdr:
    img = _read(path)
    if not isinstance(img, LdrImage):
        raise HdrIoError(f"{path}: expected an 8-bit LDR image (PPM)")
    if ldr_space == "linear":
        return LinearLdr(img.data.astype(np.float32) / np.float32(255.0))
    return srgb_to_linear(img)


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_output(path: Path, img, manifest: dict) -> None:
    _atomic_write(path, write_image(img, _format_for(path)))
    sidecar = dict(manifest)
    sidecar.setdefault("tool_version", __version__)
    sidecar["output"] = str(path)
    _atomic_write(path.with_name(path.name + ".json"),
                  json.dumps(sidecar, indent=2, sort_keys=True).encode() + b"\n")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_calibrate(args, config) -> int:
    tau = float(_resolve(args, config, "tau", DEFAULT_TAU))
    ldr_space = _resolve(args, config, "ldr_space", "srgb")
    hdr = _read_hdr(args.hdr)
    ldr = _read_linear_ldr(args.ldr, ldr_space)
    result = calibrate_hdr(hdr, ldr, tau)
    out = Path(args.output)
    _write_output(out, result.calibrated, {
        "subcommand": "calibrate",
        "inputs": [str(args.hdr), str(args.ldr)],
        "params": {"tau": tau, "ldr_space": ldr_space},
        "result": {"scale_factor": result.scale_factor},
    })
    _print_json({"scale_factor": result.scale_factor})
    return EXIT_OK


def _cmd_segment(args, config) -> int:
    t_low = float(_resolve(args, config, "t_low", DEFAULT_T_LOW))
    t_high = float(_resolve(args, config, "t_high", DEFAULT_T_HIGH))
    hdr = _read_hdr(args.hdr)
    mask = luminance_seg_labels(hdr, t_low, t_high)
    out = Path(args.output)
    _write_output(out, LdrImage(mask.data * np.uint8(255)), {
        "subcommand": "segment",
        "inputs": [str(args.hdr)],
        "params": {"t_low": t_low, "t_high": t_high},
    })
    return EXIT_OK


def _synth_one(path: Path, out_path: Path, seed: int, args, config) -> dict:
    target_mean = float(_resolve(args, config, "target_mean", DEFAULT_TARGET_MEAN))
    tau = float(_resolve(args, config, "tau", DEFAULT_TAU))
    hdr = _read_hdr(path)
    if args.identity_crf:
        dr = float(_resolve(args, config, "dynamic_range_ev", 14.8))
        sample = dataclasses.replace(identity_camera(dr), seed=seed)
    else:
        sample = sample_camera(seed)
    ldr, resolved = synth_ldr(hdr, sample, target_mean)
    manifest = {
        "subcommand": "synth",
        "source": str(path),
        "seed": seed,
        "rng": "pcg64",
        "dynamic_range_ev": resolved.dynamic_range_ev,
        "sigma": resolved.crf_sigma,
        "n": resolved.crf_n,
        "identity_crf": resolved.is_identity_crf,
        "exposure": resolved.exposure,
        "exposure_mean_before_noise_floor": True,
        "target_mean": target_mean,
        "tau_default": tau,
        "t_low_default": DEFAULT_T_LOW,
        "t_high_default": DEFAULT_T_HIGH,
    }
    _write_output(out_path, ldr, manifest)
    return {"file": str(path), "output": str(out_path), "seed": seed}


def _cmd_synth(args, config) -> int:
    inputs = [Path(p) for p in args.inputs]
    seed = int(_resolve(args, config, "seed", 0))
    seeds = split_seeds(seed, len(inputs)) if len(inputs) > 1 else [seed]
    if args.output and len(inputs) > 1:
        raise UsageError("use --out-dir when synthesizing multiple inputs")
    outs = _batch_outputs(inputs, args.output, args.out_dir, ".ppm")
    jobs = max(1, int(_resolve(args, config, "jobs", 1)))
    return _run_batch(inputs, lambda p, i: _synth_one(p, outs[i], seeds[i], args, config),
                      jobs)


def _batch_outputs(inputs: list[Path], output, out_dir, suffix: str) -> list[Path]:
    """Each input's output path: `output`, or the input's stem plus `suffix`
    in `out_dir` (default: beside the input). Resolved before any work so
    that two inputs can never write the same file."""
    outs, claimed = [], {}
    for path in inputs:
        out = Path(output) if output else Path(out_dir or path.parent) / (path.stem + suffix)
        key = out.resolve()
        if key in claimed:
            raise UsageError(f"inputs {claimed[key]} and {path} would both write {out}")
        claimed[key] = path
        outs.append(out)
    return outs


def _run_batch(inputs, worker, jobs: int) -> int:
    """Run per-file work, reporting failures without aborting the batch."""
    failures = []

    def safe(i_path):
        i, path = i_path
        try:
            return worker(path, i), None
        except (HdrIoError, OSError) as exc:
            return None, (EXIT_IO, type(exc).__name__, str(exc), str(path))
        except (UncalibratableError, AutoExposureError, ValueError) as exc:
            return None, (EXIT_NUMERIC, type(exc).__name__, str(exc), str(path))

    if jobs == 1:
        results = [safe(item) for item in enumerate(inputs)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(safe, enumerate(inputs)))
    code = EXIT_OK
    for _, failure in results:
        if failure:
            failures.append(failure)
            c, kind, message, path = failure
            _emit_error(kind, message, file=path)
            code = max(code, c)
    return code


def _cmd_metrics(args, config) -> int:
    eps = float(_resolve(args, config, "eps", 1e-6))
    ldr_space = _resolve(args, config, "ldr_space", "srgb")
    pred = _read_hdr(args.pred)
    gt = _read_hdr(args.gt)
    anchor = _read_linear_ldr(args.ldr, ldr_space) if args.ldr else None
    _print_json(metric_report(pred, gt, anchor, eps))
    return EXIT_OK


def _projection(args, config, pano_width: int, pano_height: int, ceil_size: int) -> PanoProjection:
    return PanoProjection(
        pano_width=pano_width,
        pano_height=pano_height,
        ceil_width=ceil_size,
        ceil_height=ceil_size,
        camera_offset=float(_resolve(args, config, "camera_d", 1.0)),
        plane_extent=float(_resolve(args, config, "plane_extent", 1.0)),
    )


def _geometry_params(proj: PanoProjection) -> dict:
    return {
        "pano_width": proj.pano_width,
        "pano_height": proj.pano_height,
        "ceil_size": proj.ceil_width,
        "camera_d": proj.camera_offset,
        "plane_extent": proj.plane_extent,
    }


def _cmd_p2c(args, config) -> int:
    pano = _read_hdr(args.pano)
    ceil_size = int(_resolve(args, config, "ceil_size", pano.height))
    proj = _projection(args, config, pano.width, pano.height, ceil_size)
    ceil = pano_to_ceiling(pano, proj)
    _write_output(Path(args.output), HdrImage(ceil.astype(np.float32)), {
        "subcommand": "p2c",
        "inputs": [str(args.pano)],
        "params": _geometry_params(proj),
    })
    return EXIT_OK


def _cmd_c2p(args, config) -> int:
    ceil = _read_hdr(args.ceil)
    if args.pano_width is None:
        raise UsageError("c2p requires --pano-width")
    pano_width = int(args.pano_width)
    proj = _projection(args, config, pano_width, pano_width // 2, ceil.width)
    pano, validity = ceiling_to_pano(ceil, proj)
    _write_output(Path(args.output), HdrImage(pano.astype(np.float32)), {
        "subcommand": "c2p",
        "inputs": [str(args.ceil)],
        "params": _geometry_params(proj),
    })
    if args.validity_out:
        vimg = HdrImage(np.repeat(validity[..., None], 3, axis=2).astype(np.float32))
        _write_output(Path(args.validity_out), vimg, {
            "subcommand": "c2p",
            "inputs": [str(args.ceil)],
            "params": _geometry_params(proj),
            "content": "validity mask",
        })
    return EXIT_OK


def _cmd_merge(args, config) -> int:
    tau_m = float(_resolve(args, config, "merge_tau", DEFAULT_MERGE_TAU))
    ldr_space = _resolve(args, config, "ldr_space", "srgb")
    ceil_hdr = _read_hdr(args.ceil_hdr)
    pano_hdr = _read_hdr(args.pano_hdr)
    ceil_ldr = _read_linear_ldr(args.ceil_ldr, ldr_space)
    proj = _projection(args, config, pano_hdr.width, pano_hdr.height, ceil_hdr.width)
    m_p = merge_mask(ceil_ldr, proj, tau_m)
    merged = merge_panorama(ceil_hdr, pano_hdr, m_p, proj)
    _write_output(Path(args.output), HdrImage(merged.astype(np.float32)), {
        "subcommand": "merge",
        "inputs": [str(args.ceil_hdr), str(args.pano_hdr), str(args.ceil_ldr)],
        "params": {**_geometry_params(proj), "merge_tau": tau_m, "ldr_space": ldr_space},
    })
    return EXIT_OK


def _cmd_crop_set(args, config) -> int:
    pano = _read_hdr(args.pano)
    width = int(_resolve(args, config, "width", 320))
    height = int(_resolve(args, config, "height", 240))
    hfov_deg = float(_resolve(args, config, "hfov_deg", 60.0))
    out_dir = Path(args.out_dir)
    crops = crop_set(pano, width, height, hfov_deg, outdoor=args.outdoor)
    for img, params in crops:
        name = f"{Path(args.pano).stem}_yaw{int(params['yaw_deg']):03d}_pitch{int(params['pitch_deg']):02d}.pfm"
        _write_output(out_dir / name, HdrImage(img.astype(np.float32)), {
            "subcommand": "crop-set",
            "inputs": [str(args.pano)],
            "params": {**params, "outdoor": args.outdoor},
        })
    _print_json({"crops": len(crops)})
    return EXIT_OK


def _render_one(env_path: Path, out_path: Path, scene_text: str, scene_path: str) -> dict:
    scene = parse_scene(scene_text)
    env = _read_hdr(env_path)
    image = render(scene, env)
    _write_output(out_path, image, {
        "subcommand": "render",
        "inputs": [scene_path, str(env_path)],
        "params": {"scene": scene_path},
    })
    return {"file": str(env_path), "output": str(out_path)}


def _cmd_render(args, config) -> int:
    with open(args.scene, "r", encoding="utf-8") as fh:
        scene_text = fh.read()
    envs = [Path(p) for p in args.envs]
    if args.output and len(envs) > 1:
        raise UsageError("use --out-dir when rendering multiple environments")
    outs = _batch_outputs(envs, args.output, args.out_dir, "_render.pfm")
    jobs = max(1, int(_resolve(args, config, "jobs", 1)))
    code = _run_batch(envs, lambda p, i: _render_one(p, outs[i], scene_text, args.scene),
                      jobs)
    if code == EXIT_OK and args.reference and len(envs) == 1:
        ref = _read_hdr(args.reference)
        made = _read_hdr(outs[0])
        _print_json(compare_renders(made, ref))
    return code


def _cmd_eval_ibl(args, config) -> int:
    tau = float(_resolve(args, config, "tau", DEFAULT_TAU))
    ldr_space = _resolve(args, config, "ldr_space", "srgb")
    with open(args.scene, "r", encoding="utf-8") as fh:
        scene = parse_scene(fh.read())
    ldr = _read_linear_ldr(args.ldr_env, ldr_space)
    pred = calibrate_hdr(_read_hdr(args.pred_env), ldr, tau).calibrated
    gt = calibrate_hdr(_read_hdr(args.gt_env), ldr, tau).calibrated
    report = compare_renders(*render_many(scene, [pred, gt]))
    _print_json(report)
    return EXIT_OK


def _cmd_preview(args, config) -> int:
    ev = float(_resolve(args, config, "ev", 0.0))
    window = float(_resolve(args, config, "window", 10.0))
    hdr = _read_hdr(args.hdr)
    _write_output(Path(args.output), exposure_preview(hdr, ev, window), {
        "subcommand": "preview",
        "inputs": [str(args.hdr)],
        "params": {"ev": ev, "window": window},
    })
    return EXIT_OK


def _cmd_convert(args, config) -> int:
    ldr_space = _resolve(args, config, "ldr_space", "srgb")
    ev = float(_resolve(args, config, "ev", 0.0))
    window = float(_resolve(args, config, "window", 10.0))
    img = _read(args.input)
    out = Path(args.output)
    target = _format_for(out)
    if target is FileFormat.PPM6:
        if isinstance(img, HdrImage):
            img = exposure_preview(img, ev, window)
    elif isinstance(img, LdrImage):
        lin = _read_linear_ldr(args.input, ldr_space)
        img = HdrImage(lin.data)
    _write_output(out, img, {
        "subcommand": "convert",
        "inputs": [str(args.input)],
        "params": {"ldr_space": ldr_space, "ev": ev, "window": window},
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="hdrkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"hdrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags take precedence)")

    p = sub.add_parser("calibrate", help="scale an HDR image to its LDR reference")
    p.add_argument("hdr")
    p.add_argument("ldr")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--ldr-space", choices=("srgb", "linear"), dest="ldr_space")
    common(p)

    p = sub.add_parser("segment", help="three-class luminance labels from a calibrated HDR")
    p.add_argument("hdr")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--t-low", type=float, dest="t_low")
    p.add_argument("--t-high", type=float, dest="t_high")
    common(p)

    p = sub.add_parser("synth", help="synthesize LDR images with the virtual camera")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--identity-crf", action="store_true", dest="identity_crf")
    p.add_argument("--dynamic-range", type=float, dest="dynamic_range_ev",
                   help="fixed dynamic range in EV (identity-CRF mode)")
    p.add_argument("--target-mean", type=float, dest="target_mean")
    p.add_argument("--tau", type=float)
    common(p)

    p = sub.add_parser("metrics", help="scale-invariant metrics for an HDR pair")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--ldr", help="linear-anchor LDR image for display anchoring")
    p.add_argument("--ldr-space", choices=("srgb", "linear"), dest="ldr_space")
    p.add_argument("--eps", type=float)
    common(p)

    p = sub.add_parser("p2c", help="panorama to ceiling-view projection")
    p.add_argument("pano")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ceil-size", type=int, dest="ceil_size")
    p.add_argument("--d", type=float, dest="camera_d")
    p.add_argument("--extent", type=float, dest="plane_extent")
    common(p)

    p = sub.add_parser("c2p", help="ceiling-view to panorama projection")
    p.add_argument("ceil")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--pano-width", type=int, dest="pano_width")
    p.add_argument("--validity-out", dest="validity_out")
    p.add_argument("--d", type=float, dest="camera_d")
    p.add_argument("--extent", type=float, dest="plane_extent")
    common(p)

    p = sub.add_parser("merge", help="blend ceiling and panorama reconstructions")
    p.add_argument("ceil_hdr")
    p.add_argument("pano_hdr")
    p.add_argument("--ceil-ldr", required=True, dest="ceil_ldr")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--merge-tau", type=float, dest="merge_tau")
    p.add_argument("--ldr-space", choices=("srgb", "linear"), dest="ldr_space")
    p.add_argument("--d", type=float, dest="camera_d")
    p.add_argument("--extent", type=float, dest="plane_extent")
    common(p)

    p = sub.add_parser("crop-set", help="dataset crops at fixed yaws/pitches")
    p.add_argument("pano")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--hfov-deg", type=float, dest="hfov_deg")
    p.add_argument("--outdoor", action="store_true")
    common(p)

    p = sub.add_parser("render", help="render the evaluation scene under environments")
    p.add_argument("scene")
    p.add_argument("envs", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--reference", help="reference render; prints metric JSON")
    p.add_argument("--jobs", type=int)
    common(p)

    p = sub.add_parser("eval-ibl", help="calibrate, render, and compare two environments")
    p.add_argument("pred_env")
    p.add_argument("gt_env")
    p.add_argument("ldr_env")
    p.add_argument("scene")
    p.add_argument("--tau", type=float)
    p.add_argument("--ldr-space", choices=("srgb", "linear"), dest="ldr_space")
    common(p)

    p = sub.add_parser("preview", help="exposure-window LDR preview of an HDR image")
    p.add_argument("hdr")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ev", type=float)
    p.add_argument("--window", type=float)
    common(p)

    p = sub.add_parser("convert", help="convert between RGBE, PFM, and PPM")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ldr-space", choices=("srgb", "linear"), dest="ldr_space")
    p.add_argument("--ev", type=float)
    p.add_argument("--window", type=float)
    common(p)

    return parser


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "segment": _cmd_segment,
    "synth": _cmd_synth,
    "metrics": _cmd_metrics,
    "p2c": _cmd_p2c,
    "c2p": _cmd_c2p,
    "merge": _cmd_merge,
    "crop-set": _cmd_crop_set,
    "render": _cmd_render,
    "eval-ibl": _cmd_eval_ibl,
    "preview": _cmd_preview,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(getattr(args, "config", None))
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        _emit_error("UsageError", str(exc))
        return EXIT_USAGE
    except (HdrIoError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_IO
    except (UncalibratableError, AutoExposureError, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
