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
Every output, batch files and crop-set's view files included, is claimed
from the command table before any subcommand runs: an output whose
extension names no format its subcommand can write (an HDR image cannot go
to .ppm), two outputs of the same file (two batch inputs, or --output and
--validity-out), and --output with --out-dir are usage errors; a directory
where an output file goes, or a file where an output directory goes, is an
I/O error naming the output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    DEFAULT_T_HIGH,
    DEFAULT_T_LOW,
    DEFAULT_TAU,
    calibrate_hdr,
    luminance_seg_labels,
)
from .camera import (
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
from .losses import _pair, metric_report
from .pano import (
    DEFAULT_MERGE_TAU,
    MAX_PLANE_EXTENT,
    PanoProjection,
    _merge,
    _to_pano,
    crop_perspective,
    crop_views,
    merge_mask,
    pano_to_ceiling,
)
from .render import (
    SceneConfig,
    compare_renders,
    parse_scene,
    render,
    render_many,
)

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


def _exit_code(exc: Exception) -> int:
    """The exit code of a failure: a usage error exits 1, an I/O failure or
    a MemoryError 2, and any other exception 3 (numeric failures and
    anything unforeseen)."""
    if isinstance(exc, UsageError):
        return EXIT_USAGE
    if isinstance(exc, (HdrIoError, OSError, MemoryError)):
        return EXIT_IO
    return EXIT_NUMERIC


@contextlib.contextmanager
def _naming(path):
    """Attach the file's name, unless path is None, to a failure inside the
    block, for the error line that main prints."""
    try:
        yield
    except Exception as exc:
        if path is not None:
            exc.file = str(path)
        raise


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with _naming(path):
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


_HDR = (FileFormat.RADIANCE_RGBE, FileFormat.PFM)  # the formats that hold an HDR image
_ANY = (*_HDR, FileFormat.PPM6)
_DIR = ()  # the formats of an output directory: it is no file itself


def _claim(outputs) -> None:
    """Check (owner, path, formats) outputs before any input is read: each
    file's extension must name one of its formats, no two paths may
    resolve to the same file, and nothing on disk may stand where a path's
    file or directory goes."""
    claimed = {}
    for owner, out, formats in outputs:
        # only HDR outputs narrow the formats
        if formats and _format_for(out) not in formats:
            raise UsageError(f"{owner} writes an HDR image, which {out} cannot hold "
                             "(use .hdr or .pfm)")
        key = out.resolve()
        if key in claimed:
            raise UsageError(f"{claimed[key]} and {owner} would both write {out}")
        claimed[key] = owner
    for _, out, formats in outputs:
        _check_place(out, not formats)


def _check_place(path: Path, directory: bool) -> None:
    """Raise, naming `path`, the OSError that writing there would meet: a
    directory where the file goes, or a file where a directory goes (the
    directory `path` itself, or any folder above it)."""
    with _naming(path):
        if not directory and path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        folder = path if directory else path.parent
        for above in (folder, *folder.parents):
            if above.exists():
                if not above.is_dir():
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                             str(above))
                return


def _read(path, kind=(HdrImage, LdrImage), expected=""):
    """The decoded image file, which must be a `kind`."""
    with _naming(path):
        with open(path, "rb") as fh:
            img = read_image(fh.read())
        if not isinstance(img, kind):
            raise HdrIoError(f"{path}: expected {expected}")
        return img


def _read_hdr(path) -> HdrImage:
    return _read(path, HdrImage, "an HDR image (RGBE or PFM)")


def _linearize(img: LdrImage, ldr_space: str) -> LinearLdr:
    if ldr_space == "linear":
        return LinearLdr(img.data.astype(np.float32) / np.float32(255.0))
    return srgb_to_linear(img)


def _read_linear_ldr(path, ldr_space: str) -> LinearLdr:
    return _linearize(_read(path, LdrImage, "an 8-bit LDR image (PPM)"), ldr_space)


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0666 less the umask, as open() makes files (mkstemp's are 0600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_output(path, img, manifest: dict) -> None:
    path = Path(path)
    data = write_image(img, _format_for(path))
    with _naming(path):
        _atomic_write(path, data)
    sidecar = dict(manifest)
    sidecar.setdefault("tool_version", __version__)
    sidecar["output"] = str(path)
    sidecar_path = path.with_name(path.name + ".json")
    with _naming(sidecar_path):
        _atomic_write(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True).encode() + b"\n")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the parsed path arguments, the
# resolved options of its subcommand, the base manifest of its sidecars and
# its claimed output paths in declaration order (a batch's files first)


def _cmd_calibrate(args, params, manifest, _) -> int:
    hdr = _read_hdr(args.hdr)
    ldr = _read_linear_ldr(args.ldr, params["ldr_space"])
    with _naming(args.ldr if ldr.data.shape != hdr.data.shape else None):  # checked first
        result = calibrate_hdr(hdr, ldr, params["tau"])
    _write_output(args.output, result.calibrated,
                  {**manifest, "result": {"scale_factor": result.scale_factor}})
    _print_json({"scale_factor": result.scale_factor})
    return EXIT_OK


def _cmd_segment(args, params, manifest, _) -> int:
    mask = luminance_seg_labels(_read_hdr(args.hdr), params["t_low"], params["t_high"])
    _write_output(args.output, LdrImage(mask.data * np.uint8(255)), manifest)
    return EXIT_OK


def _synth_one(path: Path, out_path: Path, seed: int, params) -> None:
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


def _cmd_synth(args, params, _, outs) -> int:
    inputs = [Path(p) for p in args.inputs]
    seed = params["seed"]
    seeds = split_seeds(seed, len(inputs)) if len(inputs) > 1 else [seed]
    return _run_batch(inputs, lambda p, i: _synth_one(p, outs[i], seeds[i], params),
                      params["jobs"])


def _run_batch(inputs, worker, jobs: int) -> int:
    """Run per-file work, reporting each failure with its _exit_code
    without aborting the batch. `jobs` of 1 runs the files one after
    another."""

    def safe(i_path):
        i, path = i_path
        try:
            worker(path, i)
        except Exception as exc:
            return _exit_code(exc), type(exc).__name__, str(exc), str(path)

    if jobs <= 1:
        failures = [safe(item) for item in enumerate(inputs)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            failures = list(pool.map(safe, enumerate(inputs)))
    code = EXIT_OK
    for failure in failures:
        if failure:
            c, kind, message, path = failure
            _emit_error(kind, message, file=path)
            code = max(code, c)
    return code


def _cmd_metrics(args, params, *_) -> int:
    pred = _read_hdr(args.pred)
    gt = _read_hdr(args.gt)
    anchor = _read_linear_ldr(args.ldr, params["ldr_space"]) if args.ldr else None
    # metric_report checks gt's shape, then the anchor's, before any other failure
    with _naming(args.gt if gt.data.shape != pred.data.shape else
                 args.ldr if anchor and anchor.data.shape != gt.data.shape else None):
        _print_json(metric_report(pred, gt, anchor, params["eps"]))
    return EXIT_OK


def _projection(params, manifest, pano_width, pano_height, ceil_size, ceilings=(),
                pano_path=None):
    """The one geometry of a panorama command: its PanoProjection, recorded
    as the sidecar's params. A panorama read from `pano_path` that is not
    twice as wide as high is refused naming that file. Each (path, image)
    of `ceilings` is held to the geometry by its own width and height: a
    ceiling input that is not square, or not ceil_size wide, is refused
    naming its file, before any resampling."""
    geometry = {"pano_width": pano_width, "pano_height": pano_height, "ceil_size": ceil_size,
                "camera_d": params["camera_d"], "plane_extent": params["plane_extent"]}
    manifest["params"] = {**params, **geometry}
    with _naming(pano_path):
        proj = PanoProjection(pano_width, pano_height, ceil_size, ceil_size,
                              geometry["camera_d"], geometry["plane_extent"])
    for path, img in ceilings:
        with _naming(path):
            if dataclasses.replace(proj, ceil_width=img.width, ceil_height=img.height) != proj:
                raise ValueError(f"ceiling view is {img.width}x{img.height}, "
                                 f"not {ceil_size}x{ceil_size} like the ceiling HDR")
    return proj


def _cmd_p2c(args, params, manifest, _) -> int:
    pano = _read_hdr(args.pano)
    ceil_size = pano.height if params["ceil_size"] is None else params["ceil_size"]
    proj = _projection(params, manifest, pano.width, pano.height, ceil_size,
                       pano_path=args.pano)
    ceil = pano_to_ceiling(pano, proj)
    _write_output(args.output, HdrImage(ceil.astype(np.float32)), manifest)
    return EXIT_OK


def _cmd_c2p(args, params, manifest, _) -> int:
    pano_width = params["pano_width"]
    if pano_width is None:
        raise UsageError("c2p requires --pano-width (or pano_width in --config)")
    ceil = _read_hdr(args.ceil)
    proj = _projection(params, manifest, pano_width, pano_width // 2, ceil.width,
                       [(args.ceil, ceil)])
    _write_output(args.output, HdrImage(_to_pano(ceil.data, proj, np.float32)), manifest)
    if args.validity_out:
        # sampling a constant image is exact: the validity is the gather of ones
        vimg = HdrImage(_to_pano(np.ones_like(ceil.data), proj, np.float32))
        _write_output(args.validity_out, vimg, {**manifest, "content": "validity mask"})
    return EXIT_OK


def _cmd_merge(args, params, manifest, _) -> int:
    ceil_hdr = _read_hdr(args.ceil_hdr)
    pano_hdr = _read_hdr(args.pano_hdr)
    ceil_ldr = _read_linear_ldr(args.ceil_ldr, params["ldr_space"])
    proj = _projection(params, manifest, pano_hdr.width, pano_hdr.height, ceil_hdr.width,
                       [(args.ceil_hdr, ceil_hdr), (args.ceil_ldr, ceil_ldr)],
                       pano_path=args.pano_hdr)
    m_p = merge_mask(ceil_ldr, proj, params["merge_tau"])
    del ceil_ldr  # one input image less during the blend
    merged = _merge(ceil_hdr, pano_hdr, m_p, proj, np.float32)
    del ceil_hdr, pano_hdr, m_p
    _write_output(args.output, HdrImage(merged), manifest)
    return EXIT_OK


def _cmd_crop_set(args, params, manifest, outs) -> int:
    # crop_set's views, each written before the next is made
    pano = _read_hdr(args.pano)
    for (yaw, pitch), path in zip(crop_views(params["outdoor"]), outs[1:]):  # after --out-dir
        img = crop_perspective(pano, math.radians(yaw), math.radians(pitch),
                               math.radians(params["hfov_deg"]), params["width"], params["height"])
        _write_output(path, HdrImage(img.astype(np.float32)),
                      {**manifest, "params": {**params, "yaw_deg": yaw, "pitch_deg": pitch}})
    _print_json({"crops": len(outs) - 1})
    return EXIT_OK


def _render_one(env_path: Path, out_path: Path, scene, scene_path: str) -> None:
    image = render(scene, _read_hdr(env_path))
    _write_output(out_path, image, {
        "subcommand": "render",
        "inputs": [scene_path, str(env_path)],
        "params": {"scene": scene_path},
    })


def _cmd_render(args, params, _, outs) -> int:
    envs = [Path(p) for p in args.envs]
    if args.reference and len(envs) > 1:
        raise UsageError("--reference compares a single render; give one environment")
    scene = _read_scene(args.scene)
    # read and checked before rendering: the render may replace the reference
    # file, and a reference of another size than the camera's must write none
    ref = _read_hdr(args.reference) if args.reference else None
    if ref is not None:
        with _naming(args.reference):
            _pair(np.broadcast_to(0.0, (scene.camera.height, scene.camera.width, 3)), ref)
    code = _run_batch(envs, lambda p, i: _render_one(p, outs[i], scene, args.scene),
                      params["jobs"])
    if code == EXIT_OK and ref is not None:
        _print_json(compare_renders(_read_hdr(outs[0]), ref))
    return code


def _read_scene(path) -> SceneConfig:
    """The parsed scene file, shared by render and eval-ibl."""
    with _naming(path):
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())


def _cmd_eval_ibl(args, params, *_) -> int:
    scene = _read_scene(args.scene)
    ldr = _read_linear_ldr(args.ldr_env, params["ldr_space"])
    envs = []
    for path in (args.pred_env, args.gt_env):
        hdr = _read_hdr(path)
        with _naming(path if hdr.data.shape != ldr.data.shape else None):  # checked first
            envs.append(calibrate_hdr(hdr, ldr, params["tau"]).calibrated)
        del hdr
    del ldr  # freed before the render, which sets the peak
    _print_json(compare_renders(*render_many(scene, envs)))
    return EXIT_OK


def _cmd_preview(args, params, manifest, _) -> int:
    hdr = _read_hdr(args.hdr)
    _write_output(args.output, exposure_preview(hdr, params["ev"], params["window"]), manifest)
    return EXIT_OK


def _cmd_convert(args, params, manifest, _) -> int:
    img = _read(args.input)
    if _format_for(Path(args.output)) is FileFormat.PPM6:
        if isinstance(img, HdrImage):
            img = exposure_preview(img, params["ev"], params["window"])
    elif isinstance(img, LdrImage):
        img = HdrImage(_linearize(img, params["ldr_space"]).data)
    _write_output(args.output, img, manifest)
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


def _real(interval: str):
    """Converter of a real-valued option: a flag string or a JSON number,
    finite and inside `interval`, written like "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))

    def convert(value):
        if isinstance(value, bool):
            raise ValueError("expected a number, not a boolean")
        number = float(value)
        above = number >= low if interval[0] == "[" else number > low
        below = number <= high if interval[-1] == "]" else number < high
        if not (math.isfinite(number) and above and below):
            raise ValueError(f"expected a finite number in {interval}")
        return number
    return convert


def _integer(minimum: int, even: bool = False):
    """Converter of a whole-number option of at least `minimum`: a flag
    string, a JSON integer, or a JSON number with no fractional part."""
    def convert(value):
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError("expected a whole number")
        number = int(value)
        if number < minimum:
            raise ValueError(f"expected at least {minimum}")
        if even and number % 2:
            raise ValueError("expected an even number")
        return number
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
    "tau": _Option("--tau", _real("(0, 1]"), DEFAULT_TAU,
                   "calibration: LDR channel mean below which a pixel is an anchor"),
    "ldr_space": _Option("--ldr-space", _choice("srgb", "linear"), "srgb",
                         "encoding of LDR inputs: srgb or linear"),
    "t_low": _Option("--t-low", _real("(0, inf)"), DEFAULT_T_LOW,
                     "dim/mid luminance threshold (below t_high)"),
    "t_high": _Option("--t-high", _real("(0, inf)"), DEFAULT_T_HIGH,
                      "mid/bright luminance threshold"),
    "seed": _Option("--seed", _integer(0), 0, "master seed of the batch (at least 0)"),
    "jobs": _Option("--jobs", _integer(1), 1, "worker threads (at least 1)"),
    "identity_crf": _Option("--identity-crf", _switch, False,
                            "identity response curve at a fixed dynamic range"),
    "dynamic_range_ev": _Option("--dynamic-range", _real("(0, inf)"), DYNAMIC_RANGE_EV[1],
                                "fixed dynamic range in EV (identity-CRF mode)"),
    "target_mean": _Option("--target-mean", _real("(0, 1)"), DEFAULT_TARGET_MEAN,
                           "auto-exposure target mean"),
    "eps": _Option("--eps", _real("(0, inf)"), 1e-6, "offset added before taking logs"),
    "ceil_size": _Option("--ceil-size", _integer(1), None,
                         "ceiling view side in pixels, at least 1 (default: the panorama's "
                         "height)"),
    "pano_width": _Option("--pano-width", _integer(2, even=True), None,
                          "panorama width in pixels, positive and even (required)"),
    "camera_d": _Option("--d", _real("(0, 1]"), 1.0,
                        "ceiling camera offset below the sphere center"),
    "plane_extent": _Option("--extent", _real(f"(0, {MAX_PLANE_EXTENT:g}]"), 1.0,
                            "half-width of the ceiling plane"),
    "merge_tau": _Option("--merge-tau", _real("[0, 1)"), DEFAULT_MERGE_TAU,
                         "ceiling LDR mean where the merge mask starts"),
    "width": _Option("--width", _integer(1), 320, "crop width in pixels (at least 1)"),
    "height": _Option("--height", _integer(1), 240, "crop height in pixels (at least 1)"),
    "hfov_deg": _Option("--hfov-deg", _real("(0, 180)"), 60.0,
                        "crop horizontal field of view in degrees"),
    "outdoor": _Option("--outdoor", _switch, False, "omit the elevated crops"),
    # 2.0 ** ev overflows a float from 1024 on
    "ev": _Option("--ev", _real("(-inf, 1024)"), 0.0, "preview exposure in EV"),
    "window": _Option("--window", _real("(0, inf)"), 10.0, "preview dynamic range window in EV"),
}


def _path(*names, writes=None, batch=None, holds=None, **kwargs):
    """A path argument, command line only: its argparse names (the last
    names its attribute) and keywords, and its role: an output file of the
    formats `writes`, an output directory (writes=_DIR) of the files
    holds(args, params), a batch input whose files each write their stem
    plus the suffix `batch`, or else an input."""
    return names, kwargs, writes, batch, holds or (lambda *_: [])


def _crop_files(args, params):
    """crop-set's output files, one per view of crop_set, in its order."""
    return [f"{Path(args.pano).stem}_yaw{int(yaw):03d}_pitch{int(pitch):02d}.pfm"
            for yaw, pitch in crop_views(params["outdoor"])]


def _output(formats, required=True):
    return _path("-o", "--output", writes=formats, required=required)


@dataclasses.dataclass(frozen=True)
class _Command:
    handler: object
    help: str
    paths: list  # _path of each path argument
    options: list  # keys of _OPTIONS


def _roles(command: _Command, args, params):
    """The (owner, path, formats) claim of every output of one invocation,
    in declaration order, and its input paths, from the table and the
    options alone: no file is read. A batch input's file writes --output,
    or else its stem plus the table's suffix, in --out-dir or beside it."""
    claims, inputs = [], []
    for names, _, writes, batch, holds in command.paths:
        value = getattr(args, names[-1].lstrip("-").replace("-", "_"))
        if value is None:
            continue
        if writes is not None:
            claims.append((names[-1], Path(value), writes))
            claims += [(names[-1], Path(value) / f, _HDR) for f in holds(args, params)]
            continue
        inputs += value if batch else [value]
        if batch and args.output and args.out_dir:
            raise UsageError("give --output or --out-dir, not both")
        if batch and args.output and len(value) > 1:
            raise UsageError("use --out-dir with more than one input")
        if batch and not args.output:
            claims += [(f, Path(args.out_dir or Path(f).parent) / (Path(f).stem + batch), _ANY)
                       for f in value]
    return claims, inputs


_COMMANDS = {
    "calibrate": _Command(_cmd_calibrate, "scale an HDR image to its LDR reference",
                          [_path("hdr"), _path("ldr"), _output(_HDR)], ["tau", "ldr_space"]),
    "segment": _Command(_cmd_segment, "three-class luminance labels from a calibrated HDR",
                        [_path("hdr"), _output(_ANY)], ["t_low", "t_high"]),
    "synth": _Command(_cmd_synth, "synthesize LDR images with the virtual camera",
                      [_path("inputs", nargs="+", batch=".ppm"), _output(_ANY, required=False),
                       _path("--out-dir", writes=_DIR)],
                      ["seed", "jobs", "identity_crf", "dynamic_range_ev", "target_mean"]),
    "metrics": _Command(_cmd_metrics, "scale-invariant metrics for an HDR pair",
                        [_path("pred"), _path("gt"),
                         _path("--ldr", help="linear-anchor LDR image for display anchoring")],
                        ["ldr_space", "eps"]),
    "p2c": _Command(_cmd_p2c, "panorama to ceiling-view projection",
                    [_path("pano"), _output(_HDR)], ["ceil_size", "camera_d", "plane_extent"]),
    "c2p": _Command(_cmd_c2p, "ceiling-view to panorama projection",
                    [_path("ceil"), _output(_HDR), _path("--validity-out", writes=_HDR)],
                    ["pano_width", "camera_d", "plane_extent"]),
    "merge": _Command(_cmd_merge, "blend ceiling and panorama reconstructions",
                      [_path("ceil_hdr"), _path("pano_hdr"), _path("--ceil-ldr", required=True),
                       _output(_HDR)],
                      ["merge_tau", "ldr_space", "camera_d", "plane_extent"]),
    "crop-set": _Command(_cmd_crop_set, "dataset crops at fixed yaws/pitches",
                         [_path("pano"),
                          _path("--out-dir", writes=_DIR, holds=_crop_files, required=True)],
                         ["width", "height", "hfov_deg", "outdoor"]),
    "render": _Command(_cmd_render, "render the evaluation scene under environments",
                       [_path("scene"), _path("envs", nargs="+", batch="_render.pfm"),
                        _output(_HDR, required=False), _path("--out-dir", writes=_DIR),
                        _path("--reference", help="reference render; prints metric JSON")],
                       ["jobs"]),
    "eval-ibl": _Command(_cmd_eval_ibl, "calibrate, render, and compare two environments",
                         [_path("pred_env"), _path("gt_env"), _path("ldr_env"), _path("scene")],
                         ["tau", "ldr_space"]),
    "preview": _Command(_cmd_preview, "exposure-window LDR preview of an HDR image",
                        [_path("hdr"), _output(_ANY)], ["ev", "window"]),
    "convert": _Command(_cmd_convert, "convert between RGBE, PFM, and PPM",
                        [_path("input"), _output(_ANY)], ["ldr_space", "ev", "window"]),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="hdrkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"hdrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for names, kwargs, *_ in command.paths:
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
    if "t_low" in params and not params["t_low"] < params["t_high"]:
        raise UsageError(f"t_low {params['t_low']} must lie below t_high {params['t_high']}")
    if params.get("identity_crf") is False and (args.dynamic_range_ev is not None
                                                or "dynamic_range_ev" in config):
        raise UsageError("--dynamic-range (dynamic_range_ev) needs --identity-crf")
    return params


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = _COMMANDS[args.command]
        params = _resolve_params(args, _load_config(args.config), command.options)
        claims, inputs = _roles(command, args, params)
        _claim(claims)
        manifest = {"subcommand": args.command, "inputs": inputs, "params": params}
        return command.handler(args, params, manifest, [out for _, out, _ in claims])
    except Exception as exc:
        _emit_error(type(exc).__name__, str(exc), getattr(exc, "file", None))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
