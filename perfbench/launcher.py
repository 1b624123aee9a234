"""Start commands for run.py and report their wall time and peak RSS.

Linux carries the peak RSS of the process that forks (or vforks) a child
into the child's own ``ru_maxrss``.  run.py grows large while it checks
outputs, so it starts this small process first and has it spawn every
timed command.  Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "cwd": path}``, answered
by one JSON line ``{"seconds": s, "maxrss_kb": k, "exit_code": c}``.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=request["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "maxrss_kb": usage.ru_maxrss,
                 "exit_code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
