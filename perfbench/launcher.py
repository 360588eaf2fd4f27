"""Start stage processes for run.py and report what each one used.

run.py starts this small process before it loads any data.  The peak RSS
that `os.wait4` reports for a child is never below the high-water mark of
the process that started it, because Linux carries that mark across fork
and exec.  Starting every stage from this process keeps the figure the
stage's own.

Protocol: one JSON request per line on standard input,
{"argv", "stdout", "stderr", "cwd", "timeout_s"}; one JSON reply per line on
standard output, {"wall_s", "cpu_s", "maxrss_mb", "returncode"}.  A stage
still running after `timeout_s` is killed and reports a non-zero return
code.  The process exits when its standard input closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run_stage(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=req["cwd"])
    # The child is waited for without reaping it first, so the kill can
    # never reach a process id that has been handed out again.
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(req["timeout_s"], kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            exited = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "returncode": os.waitstatus_to_exitcode(status),
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_stage(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
