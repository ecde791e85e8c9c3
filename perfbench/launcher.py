"""Start the program's runs from a small process and time them.

    python3 perfbench/launcher.py

reads one JSON request per line on standard input, with the keys argv,
env, cwd, stdin, stdout and stderr (the last three are file paths).  It
runs the request, waits for it with wait4 and answers one JSON line:
wall_s, cpu_s (user + system, reaped workers included), maxrss_kb and
returncode.  It exits at the end of its input.

Linux starts a child's peak RSS from the resident set of the process
that forked it, so a run started by the harness, which holds inputs,
expected results and checked outputs, would report the harness's size
whenever that is the larger.  This process holds nothing, and it
imports only what it needs, which keeps that floor at a bare
interpreter.
"""

import json
import os
import signal
import subprocess
import sys
import time

_running = None


def _stop(signum, frame):
    if _running is not None:
        _running.kill()
        _running.wait()
    sys.exit(1)


def main() -> None:
    global _running
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdin"], "rb") as fin, open(request["stdout"], "wb") as fout, open(
            request["stderr"], "wb"
        ) as ferr:
            t0 = time.perf_counter()
            _running = subprocess.Popen(
                request["argv"], stdin=fin, stdout=fout, stderr=ferr, env=request["env"], cwd=request["cwd"]
            )
            _, status, usage = os.wait4(_running.pid, 0)
            wall = time.perf_counter() - t0
        _running.returncode = os.waitstatus_to_exitcode(status)
        _running = None
        print(
            json.dumps({
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss,
                "returncode": os.waitstatus_to_exitcode(status),
            }),
            flush=True,
        )


if __name__ == "__main__":
    main()
