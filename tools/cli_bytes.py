"""Compare the bytes of ``liequant`` runs between two source trees.

    python tools/cli_bytes.py --base DIR --head DIR [--seeds 1-40]

Each ``liequant`` line of the README's ``sh`` blocks, and each argv of
``perfbench/workloads.cli_round`` for the given seeds (one round per seed,
drawn with ``numpy.random.default_rng(seed)``), runs as
``python -m liequant.cli`` with ``PYTHONPATH=DIR/src``, once for each tree.
Every run gets a fresh temporary directory as its working directory, which
holds the job's input files; the rounds are drawn with the work directory
``.`` so that their argvs name no absolute path.  The README and the rounds
come from the head tree.  Exit code, stdout, stderr and the files left in the
directory must be the same for both trees: the first difference is printed
and the exit code is 1.  perfbench is only imported, with no bytecode
written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# the input files of the README's assign line, as tests/test_cli.py writes them
README_FILES = {
    "lines.csv": "omega,weight\n" + "".join(f"{w},1.0\n" for w in (0.2, 1.0, 1.5, 1.7, 2.5, 2.7)),
    "init.json": json.dumps({"levels": [0.01, 0.99, 2.52, 2.69]}),
}


def readme_jobs(tree: Path) -> list:
    """(argv, files) for each ``liequant`` line of the README's ``sh`` blocks."""
    text = (tree / "README.md").read_text()
    return [(shlex.split(line)[1:], README_FILES)
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("liequant ")]


def round_jobs(tree: Path, seeds) -> list:
    """(argv, files) for each job of the benchmark's cli rounds of ``seeds``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(tree / "perfbench"))
    import numpy as np
    import workloads
    return [(list(map(str, job.payload)), job.files) for seed in seeds
            for job in workloads.cli_round(np.random.default_rng(seed), ".")]


def run(tree: Path, argv: list, files: dict) -> dict:
    """Exit code, stdout, stderr and the files left by one run in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="cli_bytes_") as work:
        for name, text in files.items():
            Path(work, name).write_text(text)
        done = subprocess.run([sys.executable, "-m", "liequant.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        left = {str(p.relative_to(work)): p.read_bytes()
                for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "files": left}


def first_difference(base: dict, head: dict) -> str | None:
    """A short report of the first field in which two runs differ, or None."""
    for field in ("exit code", "stdout", "stderr", "files"):
        a, b = base[field], head[field]
        if a == b:
            continue
        if field == "files":
            names = sorted(set(a) | set(b))
            name = next(n for n in names if a.get(n) != b.get(n))
            field, a, b = f"file {name}", a.get(name, b"<missing>"), b.get(name, b"<missing>")
        if isinstance(a, bytes):
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            a, b = a[max(0, at - 60):at + 60], b[max(0, at - 60):at + 60]
            return f"{field} differs at byte {at}:\n  base: {a!r}\n  head: {b!r}"
        return f"{field}: base {a!r}, head {b!r}"
    return None


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--head", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="cli_round seeds, A-B or A (default 1-40)")
    args = parser.parse_args(argv)
    jobs = readme_jobs(args.head) + round_jobs(args.head, args.seeds)
    for i, (cmd, files) in enumerate(jobs, 1):
        diff = first_difference(run(args.base, cmd, files), run(args.head, cmd, files))
        if diff:
            print(f"argv {i} of {len(jobs)}: liequant {shlex.join(cmd)}\n{diff}")
            return 1
    print(f"{len(jobs)} argvs: exit code, stdout, stderr and files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
