"""Child-process launcher with a small memory footprint.

On Linux a child's ru_maxrss starts from the peak RSS of the process that
spawned it, so children started straight from the harness (which holds
input and check arrays) would report the harness's peak. This process
imports nothing heavy; the harness sends it one JSON request per line

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path}

and it answers one JSON line per request with the exit code, the wall
time and the child's own wait4 rusage. When "stamp" is set, the child
finds its spawn time (CLOCK_MONOTONIC, ns) in PERFBENCH_T0.
"""

import json
import os
import subprocess
import sys
import time


def _run(req: dict) -> dict:
    env = dict(req["env"])
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.monotonic_ns()
        if req.get("stamp"):
            env["PERFBENCH_T0"] = str(t0)
        proc = subprocess.Popen(req["argv"], env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = (time.monotonic_ns() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_kb": ru.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
