"""Batch command-line front end.

Every image-producing invocation writes a JSON manifest sidecar
(`<output>.json`) recording the tool version and all effective parameters,
sufficient to reproduce the output byte-for-byte. Metric subcommands print
JSON to stdout; images only ever go to files. Exit codes: 0 success,
1 usage, 2 I/O, 3 numeric failure (e.g. an uncalibratable image).

Every option resolves as flag > config file (--config, a JSON object keyed
by the manifests' key names) > built-in default. A config value is checked
like a flag, and a bad one is a usage error. Batch subcommands (synth,
render) process every input even if some fail; failures are reported per
file on stderr.
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
    DYNAMIC_RANGE_EV,
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
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


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


def _linearize(img: LdrImage, ldr_space: str) -> LinearLdr:
    if ldr_space == "linear":
        return LinearLdr(img.data.astype(np.float32) / np.float32(255.0))
    return srgb_to_linear(img)


def _read_linear_ldr(path, ldr_space: str) -> LinearLdr:
    img = _read(path)
    if not isinstance(img, LdrImage):
        raise HdrIoError(f"{path}: expected an 8-bit LDR image (PPM)")
    return _linearize(img, ldr_space)


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
# subcommand implementations: each takes the parsed path arguments and the
# resolved options of its subcommand


def _cmd_calibrate(args, params) -> int:
    hdr = _read_hdr(args.hdr)
    ldr = _read_linear_ldr(args.ldr, params["ldr_space"])
    result = calibrate_hdr(hdr, ldr, params["tau"])
    _write_output(Path(args.output), result.calibrated, {
        "subcommand": "calibrate",
        "inputs": [str(args.hdr), str(args.ldr)],
        "params": params,
        "result": {"scale_factor": result.scale_factor},
    })
    _print_json({"scale_factor": result.scale_factor})
    return EXIT_OK


def _cmd_segment(args, params) -> int:
    hdr = _read_hdr(args.hdr)
    mask = luminance_seg_labels(hdr, params["t_low"], params["t_high"])
    _write_output(Path(args.output), LdrImage(mask.data * np.uint8(255)), {
        "subcommand": "segment",
        "inputs": [str(args.hdr)],
        "params": params,
    })
    return EXIT_OK


def _synth_one(path: Path, out_path: Path, seed: int, params) -> dict:
    hdr = _read_hdr(path)
    if params["identity_crf"]:
        sample = dataclasses.replace(identity_camera(params["dynamic_range_ev"]), seed=seed)
    else:
        sample = sample_camera(seed)
    ldr, resolved = synth_ldr(hdr, sample, params["target_mean"])
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
        "target_mean": params["target_mean"],
        "tau_default": DEFAULT_TAU,
        "t_low_default": DEFAULT_T_LOW,
        "t_high_default": DEFAULT_T_HIGH,
    }
    _write_output(out_path, ldr, manifest)
    return {"file": str(path), "output": str(out_path), "seed": seed}


def _cmd_synth(args, params) -> int:
    inputs = [Path(p) for p in args.inputs]
    seed = params["seed"]
    seeds = split_seeds(seed, len(inputs)) if len(inputs) > 1 else [seed]
    if args.output and len(inputs) > 1:
        raise UsageError("use --out-dir when synthesizing multiple inputs")
    outs = _batch_outputs(inputs, args.output, args.out_dir, ".ppm")
    return _run_batch(inputs, lambda p, i: _synth_one(p, outs[i], seeds[i], params),
                      params["jobs"])


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
    """Run per-file work, reporting failures without aborting the batch.
    `jobs` below 2 runs the files one after another."""

    def safe(i_path):
        i, path = i_path
        try:
            return worker(path, i), None
        except (HdrIoError, OSError) as exc:
            return None, (EXIT_IO, type(exc).__name__, str(exc), str(path))
        except (UncalibratableError, AutoExposureError, ValueError) as exc:
            return None, (EXIT_NUMERIC, type(exc).__name__, str(exc), str(path))

    if jobs <= 1:
        results = [safe(item) for item in enumerate(inputs)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(safe, enumerate(inputs)))
    code = EXIT_OK
    for _, failure in results:
        if failure:
            c, kind, message, path = failure
            _emit_error(kind, message, file=path)
            code = max(code, c)
    return code


def _cmd_metrics(args, params) -> int:
    pred = _read_hdr(args.pred)
    gt = _read_hdr(args.gt)
    anchor = _read_linear_ldr(args.ldr, params["ldr_space"]) if args.ldr else None
    _print_json(metric_report(pred, gt, anchor, params["eps"]))
    return EXIT_OK


def _projection(params, pano_width: int, pano_height: int, ceil_size: int) -> PanoProjection:
    return PanoProjection(
        pano_width=pano_width,
        pano_height=pano_height,
        ceil_width=ceil_size,
        ceil_height=ceil_size,
        camera_offset=params["camera_d"],
        plane_extent=params["plane_extent"],
    )


def _geometry_params(proj: PanoProjection) -> dict:
    return {
        "pano_width": proj.pano_width,
        "pano_height": proj.pano_height,
        "ceil_size": proj.ceil_width,
        "camera_d": proj.camera_offset,
        "plane_extent": proj.plane_extent,
    }


def _cmd_p2c(args, params) -> int:
    pano = _read_hdr(args.pano)
    ceil_size = pano.height if params["ceil_size"] is None else params["ceil_size"]
    proj = _projection(params, pano.width, pano.height, ceil_size)
    ceil = pano_to_ceiling(pano, proj)
    _write_output(Path(args.output), HdrImage(ceil.astype(np.float32)), {
        "subcommand": "p2c",
        "inputs": [str(args.pano)],
        "params": _geometry_params(proj),
    })
    return EXIT_OK


def _cmd_c2p(args, params) -> int:
    pano_width = params["pano_width"]
    if pano_width is None:
        raise UsageError("c2p requires --pano-width (or pano_width in --config)")
    ceil = _read_hdr(args.ceil)
    proj = _projection(params, pano_width, pano_width // 2, ceil.width)
    pano, validity = ceiling_to_pano(ceil, proj)
    manifest = {
        "subcommand": "c2p",
        "inputs": [str(args.ceil)],
        "params": _geometry_params(proj),
    }
    _write_output(Path(args.output), HdrImage(pano.astype(np.float32)), manifest)
    if args.validity_out:
        vimg = HdrImage(np.repeat(validity[..., None], 3, axis=2).astype(np.float32))
        _write_output(Path(args.validity_out), vimg, {**manifest, "content": "validity mask"})
    return EXIT_OK


def _cmd_merge(args, params) -> int:
    ceil_hdr = _read_hdr(args.ceil_hdr)
    pano_hdr = _read_hdr(args.pano_hdr)
    ceil_ldr = _read_linear_ldr(args.ceil_ldr, params["ldr_space"])
    proj = _projection(params, pano_hdr.width, pano_hdr.height, ceil_hdr.width)
    m_p = merge_mask(ceil_ldr, proj, params["merge_tau"])
    merged = merge_panorama(ceil_hdr, pano_hdr, m_p, proj)
    _write_output(Path(args.output), HdrImage(merged.astype(np.float32)), {
        "subcommand": "merge",
        "inputs": [str(args.ceil_hdr), str(args.pano_hdr), str(args.ceil_ldr)],
        "params": {**params, **_geometry_params(proj)},
    })
    return EXIT_OK


def _cmd_crop_set(args, params) -> int:
    pano = _read_hdr(args.pano)
    out_dir = Path(args.out_dir)
    crops = crop_set(pano, params["width"], params["height"], params["hfov_deg"],
                     outdoor=params["outdoor"])
    for img, view in crops:
        name = f"{Path(args.pano).stem}_yaw{int(view['yaw_deg']):03d}_pitch{int(view['pitch_deg']):02d}.pfm"
        _write_output(out_dir / name, HdrImage(img.astype(np.float32)), {
            "subcommand": "crop-set",
            "inputs": [str(args.pano)],
            "params": {**view, "outdoor": params["outdoor"]},
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


def _cmd_render(args, params) -> int:
    with open(args.scene, "r", encoding="utf-8") as fh:
        scene_text = fh.read()
    envs = [Path(p) for p in args.envs]
    if args.output and len(envs) > 1:
        raise UsageError("use --out-dir when rendering multiple environments")
    outs = _batch_outputs(envs, args.output, args.out_dir, "_render.pfm")
    code = _run_batch(envs, lambda p, i: _render_one(p, outs[i], scene_text, args.scene),
                      params["jobs"])
    if code == EXIT_OK and args.reference and len(envs) == 1:
        ref = _read_hdr(args.reference)
        made = _read_hdr(outs[0])
        _print_json(compare_renders(made, ref))
    return code


def _cmd_eval_ibl(args, params) -> int:
    with open(args.scene, "r", encoding="utf-8") as fh:
        scene = parse_scene(fh.read())
    ldr = _read_linear_ldr(args.ldr_env, params["ldr_space"])
    pred = calibrate_hdr(_read_hdr(args.pred_env), ldr, params["tau"]).calibrated
    gt = calibrate_hdr(_read_hdr(args.gt_env), ldr, params["tau"]).calibrated
    _print_json(compare_renders(*render_many(scene, [pred, gt])))
    return EXIT_OK


def _cmd_preview(args, params) -> int:
    hdr = _read_hdr(args.hdr)
    _write_output(Path(args.output), exposure_preview(hdr, params["ev"], params["window"]), {
        "subcommand": "preview",
        "inputs": [str(args.hdr)],
        "params": params,
    })
    return EXIT_OK


def _cmd_convert(args, params) -> int:
    img = _read(args.input)
    out = Path(args.output)
    target = _format_for(out)
    if target is FileFormat.PPM6:
        if isinstance(img, HdrImage):
            img = exposure_preview(img, params["ev"], params["window"])
    elif isinstance(img, LdrImage):
        img = HdrImage(_linearize(img, params["ldr_space"]).data)
    _write_output(out, img, {
        "subcommand": "convert",
        "inputs": [str(args.input)],
        "params": params,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# option and subcommand tables


def _choice(*names):
    """Converter that accepts exactly one of `names`."""
    def convert(value):
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return value
    return convert


def _switch(value):
    """Converter of an on/off option: its flag gives True, a config value
    must be a JSON boolean."""
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


@dataclasses.dataclass(frozen=True)
class _Option:
    flag: str
    convert: object  # takes a flag string or a config value alike
    default: object  # None: taken from an input, or required (the help says which)
    help: str


# Every option, declared once under the key that config files and
# manifests use.
_OPTIONS = {
    "tau": _Option("--tau", float, DEFAULT_TAU,
                   "calibration: LDR channel mean below which a pixel is an anchor"),
    "ldr_space": _Option("--ldr-space", _choice("srgb", "linear"), "srgb",
                         "encoding of LDR inputs: srgb or linear"),
    "t_low": _Option("--t-low", float, DEFAULT_T_LOW, "dim/mid luminance threshold"),
    "t_high": _Option("--t-high", float, DEFAULT_T_HIGH, "mid/bright luminance threshold"),
    "seed": _Option("--seed", int, 0, "master seed of the batch"),
    "jobs": _Option("--jobs", int, 1, "worker threads"),
    "identity_crf": _Option("--identity-crf", _switch, False,
                            "identity response curve at a fixed dynamic range"),
    "dynamic_range_ev": _Option("--dynamic-range", float, DYNAMIC_RANGE_EV[1],
                                "fixed dynamic range in EV (identity-CRF mode)"),
    "target_mean": _Option("--target-mean", float, DEFAULT_TARGET_MEAN,
                           "auto-exposure target mean"),
    "eps": _Option("--eps", float, 1e-6, "offset added before taking logs"),
    "ceil_size": _Option("--ceil-size", int, None,
                         "ceiling view side in pixels (default: the panorama's height)"),
    "pano_width": _Option("--pano-width", int, None, "panorama width in pixels (required)"),
    "camera_d": _Option("--d", float, 1.0, "ceiling camera offset below the sphere center"),
    "plane_extent": _Option("--extent", float, 1.0, "half-width of the ceiling plane"),
    "merge_tau": _Option("--merge-tau", float, DEFAULT_MERGE_TAU,
                         "ceiling LDR mean where the merge mask starts"),
    "width": _Option("--width", int, 320, "crop width in pixels"),
    "height": _Option("--height", int, 240, "crop height in pixels"),
    "hfov_deg": _Option("--hfov-deg", float, 60.0, "crop horizontal field of view in degrees"),
    "outdoor": _Option("--outdoor", _switch, False, "omit the elevated crops"),
    "ev": _Option("--ev", float, 0.0, "preview exposure in EV"),
    "window": _Option("--window", float, 10.0, "preview dynamic range window in EV"),
}


def _path(*names, **kwargs):
    return names, kwargs


_OUTPUT = _path("-o", "--output", required=True)


@dataclasses.dataclass(frozen=True)
class _Command:
    handler: object
    help: str
    paths: list  # path arguments (inputs and outputs), command line only
    options: list  # keys of _OPTIONS


_COMMANDS = {
    "calibrate": _Command(_cmd_calibrate, "scale an HDR image to its LDR reference",
                          [_path("hdr"), _path("ldr"), _OUTPUT], ["tau", "ldr_space"]),
    "segment": _Command(_cmd_segment, "three-class luminance labels from a calibrated HDR",
                        [_path("hdr"), _OUTPUT], ["t_low", "t_high"]),
    "synth": _Command(_cmd_synth, "synthesize LDR images with the virtual camera",
                      [_path("inputs", nargs="+"), _path("-o", "--output"), _path("--out-dir")],
                      ["seed", "jobs", "identity_crf", "dynamic_range_ev", "target_mean"]),
    "metrics": _Command(_cmd_metrics, "scale-invariant metrics for an HDR pair",
                        [_path("pred"), _path("gt"),
                         _path("--ldr", help="linear-anchor LDR image for display anchoring")],
                        ["ldr_space", "eps"]),
    "p2c": _Command(_cmd_p2c, "panorama to ceiling-view projection",
                    [_path("pano"), _OUTPUT], ["ceil_size", "camera_d", "plane_extent"]),
    "c2p": _Command(_cmd_c2p, "ceiling-view to panorama projection",
                    [_path("ceil"), _OUTPUT, _path("--validity-out")],
                    ["pano_width", "camera_d", "plane_extent"]),
    "merge": _Command(_cmd_merge, "blend ceiling and panorama reconstructions",
                      [_path("ceil_hdr"), _path("pano_hdr"), _path("--ceil-ldr", required=True),
                       _OUTPUT],
                      ["merge_tau", "ldr_space", "camera_d", "plane_extent"]),
    "crop-set": _Command(_cmd_crop_set, "dataset crops at fixed yaws/pitches",
                         [_path("pano"), _path("--out-dir", required=True)],
                         ["width", "height", "hfov_deg", "outdoor"]),
    "render": _Command(_cmd_render, "render the evaluation scene under environments",
                       [_path("scene"), _path("envs", nargs="+"), _path("-o", "--output"),
                        _path("--out-dir"),
                        _path("--reference", help="reference render; prints metric JSON")],
                       ["jobs"]),
    "eval-ibl": _Command(_cmd_eval_ibl, "calibrate, render, and compare two environments",
                         [_path("pred_env"), _path("gt_env"), _path("ldr_env"), _path("scene")],
                         ["tau", "ldr_space"]),
    "preview": _Command(_cmd_preview, "exposure-window LDR preview of an HDR image",
                        [_path("hdr"), _OUTPUT], ["ev", "window"]),
    "convert": _Command(_cmd_convert, "convert between RGBE, PFM, and PPM",
                        [_path("input"), _OUTPUT], ["ldr_space", "ev", "window"]),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="hdrkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"hdrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for names, kwargs in command.paths:
            p.add_argument(*names, **kwargs)
        for key in command.options:
            opt = _OPTIONS[key]
            default = "" if opt.default is None else f", default {opt.default}"
            text = f"{opt.help} [config key {key}{default}]"
            if opt.convert is _switch:
                p.add_argument(opt.flag, dest=key, action="store_true", default=None, help=text)
            else:
                p.add_argument(opt.flag, dest=key, help=text)
        p.add_argument("--config", help="JSON config file (flags take precedence)")
    return parser


def _resolve_params(args, config: dict, keys) -> dict:
    """Each option by flag > config > default. Flag strings and config
    values pass through the same converter; a bad value is a usage error."""
    params = {}
    for key in keys:
        opt = _OPTIONS[key]
        value = getattr(args, key)
        if value is None:
            if key not in config:
                params[key] = opt.default
                continue
            value = config[key]
        try:
            params[key] = opt.convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"invalid {key} value {value!r} ({opt.flag}): {exc}") from None
    return params


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = _COMMANDS[args.command]
        params = _resolve_params(args, _load_config(args.config), command.options)
        return command.handler(args, params)
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
