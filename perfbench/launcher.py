"""Starts every child process of the benchmark from a small parent.

On Linux a child's ``ru_maxrss`` starts from its parent's peak resident
set, because the parent's memory map is accounted when the child calls
exec.  The harness parses multi-megabyte reports, so it must not be the
parent of the calls it measures: this process is, and it stays small.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "out":
path, "err": path or null}`` (null sends stderr to ``out``); one JSON
answer per line on stdout, ``[exit code, wall s, cpu s, max RSS MB]``,
after the child has ended.  End of input ends the launcher; SIGTERM ends it
and kills the running child.
"""

import json
import os
import signal
import subprocess
import sys
import time


def spawn(argv, out_path, err_path):
    """Run one child to completion: [exit code, wall s, cpu s, max RSS MB]."""
    with open(out_path, "wb") as out:
        err = open(err_path, "wb") if err_path else None
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err or subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        finally:
            if err:
                err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0]


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _stop)  # so the running child is killed too
    for line in sys.stdin:
        request = json.loads(line)
        answer = spawn(request["argv"], request["out"], request["err"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
