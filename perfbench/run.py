"""hdrkit CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere; the program under test is the hdrkit source next to
this directory (../src). One harness process (closed loop, one client)
runs items one after another; each item is a fixed set of
``python -m hdrkit ...`` invocations, each a fresh process, on inputs made
from the seed. Every child runs with one BLAS/OpenMP thread, so a run uses
no more threads than the --jobs 2 pool of dataset-synth asks for.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 items alternate between untraced and
traced (perfbench/launcher.py) and the object holds the per-layer metrics
and the tracing overhead. See perfbench/README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
VERSION_STARTS = 5
MIN_ITEMS = 2

# per-layer metrics of the traced run: name -> unit. A name is
# <layer>.<function>.<stat>, or one of the cli.* and trace.* specials.
PER_LAYER = {
    "cli.startup_ms": "ms",
    "cli.self_ms": "ms",
    "fileio.read_rgbe.ms": "ms",
    "fileio.read_rgbe.mb_per_s": "MB/s",
    "fileio.write_rgbe.ms": "ms",
    "fileio.write_rgbe.mb_per_s": "MB/s",
    "fileio.read_pfm.ms": "ms",
    "fileio.write_pfm.ms": "ms",
    "fileio.read_ppm.ms": "ms",
    "fileio.write_ppm.ms": "ms",
    "image.srgb_to_linear.ms": "ms",
    "image.exposure_preview.ms": "ms",
    "calibration.calibrate_hdr.ms": "ms",
    "calibration.luminance_seg_labels.ms": "ms",
    "camera.auto_expose.ms": "ms",
    "camera.synth_ldr.ms": "ms",
    "camera.synth_ldr.self_ms": "ms",
    "pano.pano_to_ceiling.ms": "ms",
    "pano.ceiling_to_pano.ms": "ms",
    "pano.ceiling_to_pano.calls": "count",
    "pano.merge_mask.ms": "ms",
    "pano.merge_panorama.ms": "ms",
    "pano.crop_set.ms": "ms",
    "pano.bilinear_sample.ms": "ms",
    "pano.bilinear_sample.calls": "count",
    "losses.metric_report.ms": "ms",
    "losses.ssim.ms": "ms",
    "losses.log_psnr.ms": "ms",
    "losses.si_mse.ms": "ms",
    "render.render.ms": "ms",
    "render.render.self_ms": "ms",
    "render.diffuse_irradiance.ms": "ms",
    "render.diffuse_irradiance.alloc_peak_mb": "MB",
    "render.compare_renders.ms": "ms",
    "trace.item_ms_p50": "ms",
    "trace.untraced_item_ms_p50": "ms",
    "trace.overhead_pct": "%",
}
MB = 2 ** 20


class Children:
    """Runs counted hdrkit invocations through the low-footprint spawner."""

    def __init__(self, work: Path):
        self.work = work
        (work / "logs").mkdir(parents=True)
        (work / "spans").mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.attempted = 0
        self.failed = 0

    def invoke(self, args, traced_item: int | None = None):
        """Run hdrkit once, traced as part of item `traced_item` if given;
        returns (spawner result, stdout, span file or None)."""
        self.attempted += 1
        log = self.work / "logs" / f"{self.attempted:05d}"
        env, spans = self.env, None
        argv = [sys.executable, "-m", "hdrkit", *args]
        if traced_item is not None:
            spans = self.work / "spans" / f"{self.attempted:05d}.json"
            argv = [sys.executable, str(HERE / "launcher.py"), *args]
            env = dict(env, PERFBENCH_SPANS=str(spans), PERFBENCH_ITEM=str(traced_item))
        req = {"argv": argv, "env": env, "stdout": f"{log}.out", "stderr": f"{log}.err",
               "stamp": spans is not None}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        if res["rc"] != 0:
            self.failed += 1
            print(f"FAILED (exit {res['rc']}): hdrkit {' '.join(args)}\n"
                  + Path(f"{log}.err").read_text(), file=sys.stderr)
        return res, Path(f"{log}.out").read_text(), spans

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for s, e in sorted(intervals):
        if reach is None or s > reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def item_layers(span_files) -> dict:
    """Per-layer figures of one traced item, summed over its invocations."""
    ms, calls, nbytes, self_ms = defaultdict(float), defaultdict(int), defaultdict(int), defaultdict(float)
    alloc_peak, startups = 0, []
    for path in span_files:
        doc = json.loads(Path(path).read_text())
        spans = doc["spans"]
        kids = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            ms[name] += dur / 1e6
            calls[name] += 1
            nbytes[name] += s.get("bytes", 0)
            alloc_peak = max(alloc_peak, s.get("alloc_peak", 0))
            inside = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in kids[i]]
            self_ms[name] += (dur - _covered_ns([iv for iv in inside if iv[0] < iv[1]])) / 1e6
            if name == "cli.main":
                startups.append((s["start"] - doc["t0"]) / 1e6)
    out = {}
    for metric in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        if metric == "cli.startup_ms":
            out[metric] = statistics.fmean(startups)
        elif metric == "cli.self_ms":
            out[metric] = self_ms["cli.main"]
        elif stat == "ms":
            out[metric] = ms[fn]
        elif stat == "self_ms":
            out[metric] = self_ms[fn]
        elif stat == "calls":
            out[metric] = calls[fn]
        elif stat == "mb_per_s":
            out[metric] = nbytes[fn] / MB / (ms[fn] / 1e3) if ms[fn] else 0.0
        elif stat == "alloc_peak_mb":
            out[metric] = alloc_peak / MB
    return out


def run_item(children, wl, k: int, out: Path, traced: bool, errors: list) -> dict:
    """Run item k, then check its outputs (outside its wall time)."""
    item = {"traced": traced, "cpu": 0.0, "rss": 0, "spans": [], "stdout": []}
    ok = True
    t = time.monotonic()
    for argv in wl.item(k, out):
        res, text, spans = children.invoke(argv, k if traced else None)
        ok &= res["rc"] == 0
        item["cpu"] += res["cpu_s"]
        item["rss"] = max(item["rss"], res["maxrss_kb"])
        item["stdout"].append(text)
        if spans is not None:
            item["spans"].append(spans)
    item["wall"] = time.monotonic() - t
    t = time.monotonic()
    if ok:
        try:
            errors += [f"item {k}: {e}" for e in wl.check(k, out, item["stdout"])]
        except Exception as exc:  # a malformed output is a failed check
            errors.append(f"item {k}: check raised {exc!r}")
    print(f"item {k}{' traced' if traced else ''}: {item['wall'] * 1e3:.1f} ms wall, "
          f"{item['cpu']:.3f} s cpu, {item['rss'] / 1024:.1f} MB peak, "
          f"checked in {(time.monotonic() - t) * 1e3:.0f} ms", file=sys.stderr)
    return item


def run_workload(args, work: Path) -> dict:
    children = Children(work)
    errors = []
    try:
        # Set-up: cold starts (on a fresh checkout the first one also
        # compiles bytecode; the median hides it), then the seeded inputs.
        starts = [children.invoke(["--version"])[0]["wall_s"] for _ in range(VERSION_STARTS)]
        (work / "inputs").mkdir()
        wl = WORKLOADS[args.workload](work / "inputs", args.seed, args.tiny)

        items, elapsed, k = [], 0.0, 0
        while elapsed < args.seconds or len(items) < MIN_ITEMS:
            traced = bool(args.trace) and k % 2 == 1
            items.append(run_item(children, wl, k, work / "items" / str(k), traced, errors))
            elapsed += items[-1]["wall"]
            shutil.rmtree(work / "items" / str(k - 1), ignore_errors=True)
            k += 1
        try:
            errors += wl.final(children, k - 1, work / "items" / str(k - 1))
        except Exception as exc:
            errors.append(f"final check raised {exc!r}")
    finally:
        children.close()

    for e in errors:
        print("CHECK FAILED:", e, file=sys.stderr)
    plain = [i for i in items if not i["traced"]]
    walls = [i["wall"] for i in plain]
    if args.trace:
        traced = [item_layers(i["spans"]) for i in items if i["traced"]]
        metrics = {m: statistics.median(t[m] for t in traced) for m in PER_LAYER
                   if not m.startswith("trace.")}
        t50 = statistics.median(i["wall"] for i in items if i["traced"]) * 1e3
        u50 = statistics.median(walls) * 1e3
        metrics.update({"trace.item_ms_p50": t50, "trace.untraced_item_ms_p50": u50,
                        "trace.overhead_pct": 100.0 * (t50 / u50 - 1.0)})
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(starts),
            "items_per_s": len(plain) / sum(walls),
            "item_ms_p50": statistics.median(walls) * 1e3,
            "cpu_s_per_item": statistics.median(i["cpu"] for i in plain),
            "peak_rss_mb": max(i["rss"] for i in plain) / 1024,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                 "cpu_s_per_item": "s", "peak_rss_mb": "MB"}
    print(f"{args.workload}: {len(items)} items ({len(plain)} untraced) in {elapsed:.2f} s")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.4f} {units[name]}")
    return {"correct": not errors, "attempted": children.attempted, "failed": children.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny images, for the benchmark's own test (figures are meaningless)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hdrkit" / "cli.py").is_file():
        print(f"perfbench: no hdrkit source at {ROOT / 'src' / 'hdrkit'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
