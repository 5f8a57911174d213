"""liequant benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Set-up starts several fresh interpreters that import liequant and keeps
the last one as the worker (for ``cli`` every job is its own
``python -m liequant.cli`` process).  The runner then sends whole
rounds of jobs (see workloads.py), one at a time: the next job starts
when the previous one has returned and been checked.  Checks run here,
outside the timed span and outside the measured process.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead, taken from rounds run with the tracer installed.  Results (and
in traced runs the spans) are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from protocol import JobError, recv, send

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("spectral", "algebra", "dynamics", "cli")
# one BLAS thread for the runner and every child (the machine has 2 cores)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 7     # fresh interpreters per run; setup_s is their median
MIN_JOBS = 100       # so that at least 10 jobs lie beyond the 90th percentile
HARD_STOP_S = 120.0  # stop at the next round boundary past this, whatever the count


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    # installed packages run from cached bytecode, so let children write and
    # reuse it (under src/, ignored by git) whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Worker:
    """A fresh interpreter running worker.py; measures its own start."""

    def __init__(self, module: str):
        t_spawn = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), module],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        hello = recv(self.proc.stdout)
        self.setup_s = perf_counter() - t_spawn
        if hello is None:
            self.close()
            raise RuntimeError(f"worker failed to import {module}")
        self.interpreter_s = hello["t_start"] - t_spawn
        self.import_s = hello["t_ready"] - hello["t_start"]

    def run(self, job, traced):
        """Run one job: (seconds, output, spans, problem or None, stdout bytes)."""
        send(self.proc.stdin, (job.kind, job.payload, traced))
        reply = recv(self.proc.stdout)
        if reply is None:
            raise RuntimeError(f"worker died during job {job.kind}")
        seconds, output, spans = reply
        return seconds, output, spans, output if isinstance(output, JobError) else None, 0

    def close(self) -> float:
        """End the worker, wait for it, and return its peak RSS in MiB."""
        self.proc.stdin.close()
        peak_kib = recv(self.proc.stdout)  # None if the worker died
        self.proc.wait()
        self.proc.stdout.close()
        return float("nan") if peak_kib is None else peak_kib / 1024.0


def setup(workload: str):
    """Start SETUP_STARTS fresh interpreters one after another; keep the last."""
    module = "liequant.cli" if workload == "cli" else "liequant"
    starts, worker = [], None
    for i in range(SETUP_STARTS):
        w = Worker(module)
        starts.append((w.setup_s, w.interpreter_s, w.import_s))
        if workload != "cli" and i == SETUP_STARTS - 1:
            worker = w
        else:
            w.close()
    setup_s, interp_s, import_s = (statistics.median(col) for col in zip(*starts))
    return worker, {"setup_s": setup_s, "interpreter_s": interp_s, "import_s": import_s}


class CliRunner:
    """Runs one ``liequant`` process per job through launcher.py.

    Create it before the runner imports numpy, so that the launcher, whose
    size every child inherits as a floor of its peak RSS, stays small.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.peak_mib = 0.0
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=child_env(), cwd=ROOT, text=True)

    def run(self, job, traced):
        """Run one job: (seconds, output, spans, problem or None, stdout bytes)."""
        for name, text in job.files.items():
            Path(name).write_text(text)
        cmd = [sys.executable, str(HERE / "cliprobe.py")] if traced else [sys.executable, "-m", "liequant.cli"]
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": cmd + job.payload, "stdout": str(out), "stderr": str(err)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.peak_mib = max(self.peak_mib, reply["maxrss_kib"] / 1024.0)
        stdout, stderr = out.read_text(), err.read_text(errors="replace")
        spans = None
        if traced:
            # a traced child ends its stderr with the line written by cliprobe.py
            marker = stderr.rfind("\nPERFBENCH ")
            spans = []
            if marker >= 0:
                spans = _probe_spans(json.loads(stderr[marker + len("\nPERFBENCH "):]), reply["t_spawn"])
                stderr = stderr[:marker]
        problem = None if reply["code"] == 0 else f"exit {reply['code']}: {stderr.strip()[-200:]}"
        written = {name: Path(name).read_text() for name in job.reads if problem is None}
        return reply["seconds"], (stdout, written), spans, problem, len(stdout.encode())

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _probe_spans(report: dict, t_spawn: float):
    """Spans of a traced CLI child, led by its interpreter and import spans."""
    t_start, t_ready = report["t_start"], report["t_ready"]
    offset = 2
    spans = [("cli.interpreter", -1, t_spawn, t_start, 0), ("cli.import", -1, t_start, t_ready, 0)]
    for name, parent, start, end, size in report["spans"]:
        spans.append((name, parent + offset if parent >= 0 else -1, start, end, size))
    return spans


# ---------------------------------------------------------------------------


class Done(NamedTuple):
    """One finished job: its round and position in the round, and results."""

    round: int
    slot: int
    seconds: float
    passed: bool
    traced: bool
    spans: list
    stdout_bytes: int


def _is_traced_round(trace: bool, index: int) -> bool:
    # traced runs alternate untraced and traced rounds, so that each traced
    # job can be compared with the same slot of the untraced round before it
    return trace and index % 2 == 1


def run_loop(workload, seed, seconds, trace, worker, cli):
    # imported here, after CliRunner has started its launcher while small
    import numpy as np

    import checks
    import workloads

    rng = np.random.default_rng(seed)
    runner = cli or worker
    jobs_done = []
    failures = []
    rounds = [0, 0]  # untraced, traced
    if worker is not None:
        worker.run(workloads.Job("warmup", None, None), False)
    start = perf_counter()
    index = 0
    while True:
        traced = _is_traced_round(trace, index)
        memo: dict = {}
        if workload == "cli":
            round_jobs = workloads.cli_round(rng, str(cli.workdir))
        else:
            round_jobs = workloads.ROUNDS[workload](rng)
        for slot, job in enumerate(round_jobs):
            seconds_, output, spans, problem, stdout_bytes = runner.run(job, traced)
            if problem is None:
                try:
                    job.check(output, memo)
                except checks.CheckFailed as err:
                    problem = str(err)
                except Exception:  # a fault in a check still fails the job, with its traceback
                    problem = traceback.format_exc(limit=3)
            if problem is not None:
                failures.append(f"{job.kind}: {problem}")
            jobs_done.append(Done(index, slot, seconds_, problem is None, traced, spans, stdout_bytes))
        rounds[traced] += 1
        index += 1
        elapsed = perf_counter() - start
        enough = rounds[1] >= 1 if trace else len(jobs_done) >= MIN_JOBS
        if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
            break
    return jobs_done, failures, rounds


def end_to_end(jobs_done, setup_info, peak_mib):
    lat = [d.seconds for d in jobs_done]
    passed = sum(d.passed for d in jobs_done)
    return {
        "setup_s": {"value": setup_info["setup_s"], "unit": "s"},
        "throughput_jobs_per_s": {"value": passed / sum(lat), "unit": "jobs/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * statistics.quantiles(lat, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MB"},
    }


# per-layer metrics: name -> unit; values are per traced round unless the unit says otherwise
PER_LAYER = {
    "matrixcore.eig_hermitian.calls": "calls/round",
    "matrixcore.eig_hermitian.self_ms": "ms/round",
    "matrixcore.eig_hermitian.n3_sum": "n3/round",
    "matrixcore.expm.calls": "calls/round",
    "matrixcore.expm.self_ms": "ms/round",
    "matrixcore.commutator.calls": "calls/round",
    "matrixcore.commutator.self_ms": "ms/round",
    "matrixcore.anticommutator.calls": "calls/round",
    "matrixcore.anticommutator.self_ms": "ms/round",
    "thermal.calls": "calls/round",
    "thermal.self_ms": "ms/round",
    "thermal.eig_per_call": "ratio",
    "fock.calls": "calls/round",
    "fock.self_ms": "ms/round",
    "su2reps.clebsch_gordan.calls": "calls/round",
    "su2reps.clebsch_gordan.self_ms": "ms/round",
    "su2reps.clebsch_gordan.dim_sum": "dim/round",
    "su2reps.decompose_restriction.calls": "calls/round",
    "su2reps.decompose_restriction.self_ms": "ms/round",
    "liealg.builtin_algebra.calls": "calls/round",
    "liealg.builtin_algebra.self_ms": "ms/round",
    "liealg.builtin_algebra.dim_sum": "dim/round",
    "liealg.consistency_residual.self_ms": "ms/round",
    "liealg.verify_jacobi.self_ms": "ms/round",
    "liealg.killing_form.self_ms": "ms/round",
    "liealg.is_semisimple.self_ms": "ms/round",
    "fermion.build_fermion.calls": "calls/round",
    "fermion.build_fermion.self_ms": "ms/round",
    "fermion.build_fermion.dense_mb": "MB/round",
    "fermion.car_residual.calls": "calls/round",
    "fermion.car_residual.self_ms": "ms/round",
    "fermion.number_spectrum.self_ms": "ms/round",
    "poisson.integrate_rigid_body.self_ms": "ms/round",
    "poisson.integrate_rigid_body.steps": "steps/round",
    "poisson.trajectory_csv.self_ms": "ms/round",
    "poisson.trajectory_csv.bytes": "B/round",
    "poisson.bracket.self_ms": "ms/round",
    "rotations.covering_map.calls": "calls/round",
    "rotations.self_ms": "ms/round",
    "spectra.assign_lines.calls": "calls/round",
    "spectra.assign_lines.self_ms": "ms/round",
    "spectra.assign_lines.lines_sum": "lines/round",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.handler_ms": "ms/round",
    "cli.stdout_bytes": "B/round",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(jobs_done, rounds, setup_info):
    """Self time, calls and work counts per layer from the traced rounds."""
    calls, self_s, size = defaultdict(int), defaultdict(float), defaultdict(float)
    entries, module_self = defaultdict(int), defaultdict(float)
    n3 = dense_bytes = thermal_eigs = 0
    handler_s = top_s = traced_s = 0.0
    stdout_bytes = 0
    untraced = {(d.round, d.slot): d.seconds for d in jobs_done if not d.traced}
    ratios = []
    for d in jobs_done:
        if not d.traced:
            continue
        ratios.append(d.seconds / untraced[(d.round - 1, d.slot)])
        traced_s += d.seconds
        stdout_bytes += d.stdout_bytes
        spans = d.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, n) in enumerate(spans):
            mod, own = _module(name), end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            size[name] += n
            module_self[mod] += own
            if parent < 0:
                top_s += end - start
            if parent < 0 or _module(spans[parent][0]) != mod:
                entries[mod] += 1
            if name == "cli.handler":
                handler_s += end - start
            elif name == "matrixcore.eig_hermitian":
                n3 += n**3
                p = parent
                while p >= 0 and _module(spans[p][0]) != "thermal":
                    p = spans[p][1]
                thermal_eigs += p >= 0
            elif name == "fermion.build_fermion":
                dense_bytes += 2 * n * 4**n * 8
    r = rounds[1]
    values = {}
    for key in PER_LAYER:
        span, _, field = key.rpartition(".")
        if field == "calls" and span in ("thermal", "fock"):  # calls entering the module
            values[key] = entries[span] / r
        elif field == "calls":
            values[key] = calls[span] / r
        elif field == "self_ms" and span in ("thermal", "fock", "rotations"):
            values[key] = 1e3 * module_self[span] / r
        elif field == "self_ms" and span == "poisson.bracket":
            values[key] = 1e3 * (self_s["poisson.poisson_pq"] + self_s["poisson.lie_poisson_so3"]) / r
        elif field == "self_ms":
            values[key] = 1e3 * self_s[span] / r
        elif field in ("dim_sum", "steps", "bytes", "lines_sum"):
            values[key] = size[span] / r
    values["matrixcore.eig_hermitian.n3_sum"] = n3 / r
    values["fermion.build_fermion.dense_mb"] = dense_bytes / 2**20 / r
    values["thermal.eig_per_call"] = thermal_eigs / entries["thermal"] if entries["thermal"] else 0.0
    values["cli.interpreter_ms"] = 1e3 * setup_info["interpreter_s"]
    values["cli.import_ms"] = 1e3 * setup_info["import_s"]
    values["cli.handler_ms"] = 1e3 * handler_s / r
    values["cli.stdout_bytes"] = stdout_bytes / r
    values["trace.coverage_pct"] = 100.0 * top_s / traced_s
    # median over slots of traced / untraced time in the round before
    values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, cli=None) -> dict:
    RESULTS.mkdir(exist_ok=True)
    worker, setup_info = setup(workload)
    try:
        jobs_done, failures, rounds = run_loop(workload, seed, seconds, trace, worker, cli)
    finally:
        peak = worker.close() if worker is not None else cli.peak_mib
    for line in failures[:5]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    metrics = per_layer(jobs_done, rounds, setup_info) if trace else end_to_end(jobs_done, setup_info, peak)
    result = {"correct": not failures, "attempted": len(jobs_done), "failed": len(failures),
              "metrics": metrics}
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(dict(result, rounds=rounds), indent=1) + "\n")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for job, done in enumerate(jobs_done):
                for span in done.spans or ():
                    fh.write(json.dumps([job, *span]) + "\n")
    return result


def _print_table(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']} jobs, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liequant" / "__init__.py").is_file():
        print(f"liequant sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before run_loop imports numpy into this process
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    cli = None
    if "cli" in names:
        RESULTS.mkdir(exist_ok=True)
        workdir = RESULTS / f"work-{os.getpid()}"
        workdir.mkdir(exist_ok=True)
        cli = CliRunner(workdir)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         cli if name == "cli" else None)
            _print_table(name, results[name])
    finally:
        if cli is not None:
            cli.close()
    if args.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
        print(json.dumps(combined))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
