"""Small process that starts each CLI job and reports its rusage.

Linux carries a parent's resident-size high-water mark into a child
across fork and exec, so a child started by the runner (which holds
numpy, scipy and the job data) would report the runner's size as its
own peak.  The runner therefore starts this launcher first, while it
is still small, and has it start every CLI child.

Protocol, one JSON object per line: the request is ``{"argv": [...],
"stdout": path, "stderr": path}``; the reply is ``{"t_spawn", "seconds",
"code", "maxrss_kib"}``, times on the shared monotonic clock.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t_spawn = perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            _, status, ru = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"t_spawn": t_spawn, "seconds": seconds, "code": proc.returncode,
                 "maxrss_kib": ru.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
