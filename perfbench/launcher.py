"""Runs commands for run.py and reports each one's wall time and peak RSS.

Linux folds the RSS high-water mark of the process that spawns a child into
the child's own `ru_maxrss` (the spawner's memory is the child's until it
execs).  So the peak RSS of a command can be read with `wait4` only from a
spawner that stays smaller than any command it measures: this script, which
loads nothing but the standard library and holds no data.

Protocol, one JSON object per line: requests on stdin
`{"cmd": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}`,
replies on stdout `{"wall_s": ..., "maxrss_kb": ..., "returncode": ...}`.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                                     "returncode": proc.returncode}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
