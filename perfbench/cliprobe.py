"""Traced stand-in for ``python -m liequant.cli``: same arguments, same output.

It notes when the script began and when ``liequant.cli`` was imported,
installs the tracer (every subcommand handler becomes a ``cli.handler``
span), runs ``liequant.cli.main``, and after stdout is flushed writes
one line ``PERFBENCH {json}`` with those times and the spans to stderr.

Usage: python3 perfbench/cliprobe.py SUBCOMMAND [ARGS...]
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    cli = importlib.import_module("liequant.cli")
    t_ready = time.perf_counter()
    # the benchmark's own modules load after the timed import
    import json

    import tracer

    spans = tracer.Tracer()
    handlers = [("liequant.cli", name, "cli.handler") for name in vars(cli) if name.startswith("_cmd_")]
    spans.install(extra=handlers)
    try:
        return cli.main(sys.argv[1:])
    finally:
        spans.uninstall()
        sys.stdout.flush()
        report = {"t_start": T_START, "t_ready": t_ready, "spans": spans.take()}
        sys.stderr.write("\nPERFBENCH " + json.dumps(report) + "\n")


if __name__ == "__main__":
    sys.exit(main())
