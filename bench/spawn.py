"""Starts the benchmark's child processes from a process that stays small.

Linux reports as a child's peak RSS the larger of its own and that of the
address space it was started from, so a step started by the benchmark
process, which holds the generated inputs, would report the benchmark's
size. This helper is started before any input exists and starts every
child instead.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``,
answered by one line ``{"code", "wall_s", "peak_rss_mib", "cpu_s"}`` that
describes that child alone. The helper exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> None:
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
