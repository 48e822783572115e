"""Traced hdrkit entry point: ``python3 perfbench/launcher.py <hdrkit args>``.

Behaves like ``python -m hdrkit <args>``, but first replaces each public
function listed in TRACED, in every hdrkit module namespace that holds it,
with a wrapper that records a span. The CLI imports names directly and
calls inside a module go through that module's globals, so wrapping only
the defining module would miss calls. Nothing in hdrkit itself is changed.

Spans stay in memory and are written as JSON to $PERFBENCH_SPANS when the
CLI returns. Each holds the function, start and end (CLOCK_MONOTONIC ns),
the parent span, the item ($PERFBENCH_ITEM), the thread, and for the RGBE
codec the encoded byte count. A span opened on a worker thread with no
open span of its own gets the cli.main span as parent.
render.diffuse_irradiance also records the tracemalloc peak inside the
call. $PERFBENCH_T0 holds the spawn time, so the harness can tell start-up
(interpreter and imports) from work.
"""

import functools
import json
import os
import sys
import threading
import time
import tracemalloc

# layer (hdrkit module) -> public functions traced in it
TRACED = {
    "cli": ("main",),
    "fileio": ("read_rgbe", "write_rgbe", "read_pfm", "write_pfm", "read_ppm", "write_ppm"),
    "image": ("srgb_to_linear", "exposure_preview"),
    "calibration": ("calibrate_hdr", "luminance_seg_labels"),
    "camera": ("auto_expose", "synth_ldr"),
    "pano": ("pano_to_ceiling", "ceiling_to_pano", "merge_mask", "merge_panorama",
             "crop_set", "bilinear_sample"),
    "losses": ("metric_report", "ssim", "log_psnr", "si_mse"),
    "render": ("render", "diffuse_irradiance", "compare_renders"),
}
BYTES_ARG = {"fileio.read_rgbe"}      # encoded stream is the first argument
BYTES_RESULT = {"fileio.write_rgbe"}  # encoded stream is the return value
ALLOC_PEAK = {"render.diffuse_irradiance"}


class Recorder:
    def __init__(self, item: int):
        self.item = item
        self.spans = []
        self.root = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "parent": stack[-1] if stack else self.root,
                    "item": self.item, "tid": threading.get_ident()}
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            if name == "cli.main":
                self.root = sid
            stack.append(sid)
            peak = name in ALLOC_PEAK and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            span["start"] = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic_ns()
                if peak:
                    span["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if name in BYTES_ARG:
                span["bytes"] = len(args[0])
            elif name in BYTES_RESULT:
                span["bytes"] = len(result)
            return result

        return traced


def install(rec: Recorder) -> None:
    import hdrkit.cli  # noqa: F401  (imports every module the CLI uses)

    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "hdrkit" or n.startswith("hdrkit.")]
    for layer, names in TRACED.items():
        module = sys.modules["hdrkit." + layer]
        for fname in names:
            original = getattr(module, fname)
            wrapper = rec.wrap(f"{layer}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)


def main() -> int:
    rec = Recorder(int(os.environ["PERFBENCH_ITEM"]))
    install(rec)
    from hdrkit import cli

    code = 1
    try:
        code = cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"t0": int(os.environ["PERFBENCH_T0"]), "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
