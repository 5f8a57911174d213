"""Job worker: a fresh interpreter that imports liequant and runs jobs.

Start-up protocol: the first message on stdout reports when the script
began (after interpreter start) and when the import finished, both on
the shared monotonic clock, so the runner can split its set-up time.
Then the worker answers one job at a time: it reads ``(kind, payload,
traced)`` and writes ``(seconds, output, spans)``; when its input
closes it writes its peak resident size in KiB and exits.  Messages are
length-prefixed pickles written by this benchmark's own processes.
The correctness checks never run here, so no oracle library is loaded
into the measured process.

Usage: python3 perfbench/worker.py MODULE  (MODULE: liequant or liequant.cli)
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kib() -> int:
    """High-water resident size of this process image.

    Unlike ru_maxrss, VmHWM does not include the parent's size that Linux
    carries into a child across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    importlib.import_module(sys.argv[1])
    t_ready = time.perf_counter()
    # the benchmark's own modules load after the timed import
    import jobs
    import tracer as tracing
    from protocol import JobError, recv, send

    # keep the protocol channel private: anything printed goes to stderr
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr
    inbox = sys.stdin.buffer
    send(channel, {"t_start": T_START, "t_ready": t_ready})
    tracer = tracing.Tracer()
    state: dict = {}
    while True:
        msg = recv(inbox)
        if msg is None:
            break
        kind, payload, traced = msg
        fn = jobs.JOBS[kind]
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            out = fn(state, payload)
        except Exception:  # reported to the runner as a failed job
            out = JobError(traceback.format_exc(limit=4))
        seconds = time.perf_counter() - start
        spans = None
        if traced:
            tracer.uninstall()
            spans = tracer.take()
        send(channel, (seconds, out, spans))
    send(channel, peak_rss_kib())
    channel.close()


if __name__ == "__main__":
    main()
