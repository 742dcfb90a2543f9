"""Start timed child processes from a small process of their own.

On Linux a child's peak RSS (``ru_maxrss``) starts from the peak of the
process it was forked from, so children started by the benchmark itself,
which holds the reference reports and the spans in memory, would report
the benchmark's memory instead of their own. This process imports nothing
heavy, starts each child, reaps it with ``wait4`` and reports its wall
time, CPU time, peak RSS and exit code.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "cwd": "...", "timeout": seconds}``, answered by one JSON
line on stdout. The child's stdout and stderr go to ``stdout.txt`` and
``stderr.txt`` in its working directory. The process exits at end of input.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(cmd: list[str], cwd: str, timeout: float) -> dict:
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(spawn(request["cmd"], request["cwd"], request["timeout"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
