"""Seeded inputs for the four workloads, one round at a time.

A round is a fixed list of jobs; only the numbers inside the inputs
change with the seed.  Every run executes whole rounds, so the mix of
job kinds and sizes, and hence where the median and the 90th
percentile fall, is the same in every run.  Tiny calls are bundled so
that jobs cost tens to a few hundred milliseconds each on the seed
code; the exceptions are listed in README.md.

Each job is ``Job(kind, payload, check)``: ``kind`` names a function in
``jobs.py`` (or ``"cli"`` for a subprocess), ``payload`` is what the
program receives, and ``check(output, memo)`` verifies the output in
the runner.  ``memo`` is shared by the checks of one round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

import checks


@dataclass
class Job:
    kind: str
    payload: object
    check: object
    files: dict = field(default_factory=dict)  # cli only: name -> text written before the run
    reads: tuple = ()  # cli only: files the run writes, read back for the check


def _hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / (2.0 * math.sqrt(n))


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spin_matrices(j):
    """Spin-j t1, t2, t3 with m descending, from the standard ladder entries."""
    j = float(j)
    m = j - np.arange(int(round(2 * j)) + 1)
    lp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    return 0.5 * (lp + lp.T), (lp - lp.T) / 2j, np.diag(m)


def _spin_generators(k, l):
    """t1, t2, t3 of D_k (x) D_l in the product basis."""
    ek, el = np.eye(int(2 * k) + 1), np.eye(int(2 * l) + 1)
    return [np.kron(a, el) + np.kron(ek, b) for a, b in zip(_spin_matrices(k), _spin_matrices(l))]


HALF = Fraction(1, 2)
SPINS = [HALF * n for n in range(1, 7)]  # 1/2 .. 3

# Matrix orders per dense job.  Small orders are bundled and the thermal
# jobs (2 or 3 eigensolves per case) stop at n = 24, so that every
# spectral job costs 75-130 ms on the seed code and the 90th percentile
# falls inside the crowd of the heaviest jobs rather than on a jump.
DENSE = {
    "eig": [(8, 12, 16, 20), (24, 12), (28,), (32,)],
    "gibbs": [(8, 12, 16), (20, 12), (24,)],
    "kubo": [(8, 12, 16), (20, 12), (24,)],
    "gap": [(8, 12, 16), (20,)],
}
GAP_SHIFT = (8, 12, 16)
# (k, l, conjugate by a random unitary?) per restriction job
RESTRICTIONS = [
    [(3, 3, False), (Fraction(5, 2), 2, False), (2, 2, False), (2, Fraction(3, 2), False),
     (Fraction(3, 2), Fraction(3, 2), False), (Fraction(3, 2), Fraction(3, 2), True)],
    [(2, 2, True)],
    [(2, Fraction(3, 2), True), (Fraction(3, 2), 1, True)],
]


def spectral_round(rng):
    jobs = []
    for orders in DENSE["eig"]:
        mats = [_hermitian(rng, n) for n in orders]
        jobs.append(Job("eig", mats, partial(checks.eig, mats)))
    for orders in DENSE["gibbs"]:
        cases = [(_hermitian(rng, n), _hermitian(rng, n), float(rng.uniform(0.5, 2.0))) for n in orders]
        jobs.append(Job("gibbs", cases, partial(checks.gibbs, cases)))
    for orders in DENSE["kubo"]:
        cases = [(_hermitian(rng, n, 2.0), _hermitian(rng, n)) for n in orders]
        jobs.append(Job("kubo", cases, partial(checks.kubo, cases)))
    for orders in DENSE["gap"] + [GAP_SHIFT]:
        cases = []
        for n in orders:
            f = _hermitian(rng, n)
            if orders is GAP_SHIFT:
                c = float(rng.uniform(-2.0, 2.0))
                cases.append((f, f + c * np.eye(n), c))
            else:
                cases.append((f, _hermitian(rng, n), None))
        jobs.append(Job("gap", [(f, g) for f, g, _ in cases], partial(checks.gap, cases)))
    pairs = sorted(((k, l) for k in SPINS for l in SPINS), key=lambda p: (2 * p[0] + 1) * (2 * p[1] + 1))
    dims = list(range(8, 41, 4))
    for chunk in range(2):
        payload = {
            "oscillators": [(d, float(rng.choice([0.5, 1.0, 2.0])), float(rng.integers(1, 9)) / 4)
                            for d in dims[chunk::2]],
            "cg": pairs[chunk::2],
        }
        jobs.append(Job("sparse", payload, partial(checks.sparse, payload)))
    for spec in RESTRICTIONS:
        cases = []
        for k, l, dense in spec:
            mats = _spin_generators(k, l)
            if dense:
                u = _unitary(rng, mats[0].shape[0])
                mats = [u @ m @ u.conj().T for m in mats]
            cases.append((k, l, mats))
        jobs.append(Job("restriction", [m for _, _, m in cases], partial(checks.restriction, cases)))
    return jobs


# ---------------------------------------------------------------------------


def _so(rng, n):
    q = int(rng.integers(0, n // 2 + 1))
    return f"so({n - q},{q})"


def _algebra_case(rng, name):
    dim = checks.family(name)[2]
    return name, 0.3 * rng.standard_normal(dim)


def algebra_round(rng):
    full = [
        ["so3", "su2", "heisenberg_t3", "oscillator_os1", "gl(1)", "gl(2)", "gl(3)", "sl(2)", "sl(3)",
         _so(rng, 3), _so(rng, 4), _so(rng, 5), "sp(2)", "sp(4)"],
        ["gl(4)", "sl(4)", _so(rng, 6)],
        [_so(rng, 7)],
        ["sp(6)"],
    ]
    chained = ["gl(5)", "sl(5)", _so(rng, 8), "gl(6)", "sl(6)", _so(rng, 9), "sp(8)"]
    jobs = []
    for i, names in enumerate(full):
        weyl = [tuple(rng.uniform(-1.5, 1.5, 2)) for _ in range(6 if i == 0 else 0)]
        payload = ([_algebra_case(rng, name) for name in names], weyl)
        jobs.append(Job("algebra_full", payload, partial(checks.algebra_full, payload)))
    for name in chained:
        case = _algebra_case(rng, name)
        jobs.append(Job("algebra_build", case, partial(checks.algebra_built, *case)))
        jobs.append(Job("algebra_consistency", name, partial(checks.algebra_verified, name)))
        jobs.append(Job("algebra_invariants", name, partial(checks.algebra_verified, name)))
    payload = {"full": [3, 4, 5, 6, 7], "build": 8}
    jobs.append(Job("fermions", payload, partial(checks.fermions, payload)))
    jobs.append(Job("fermion_car", None, partial(checks.fermion_car, 8)))
    return jobs


# ---------------------------------------------------------------------------


def _rigid_case(rng, steps):
    inertia = tuple(float(x) for x in np.sort(rng.uniform(1.0, 3.0, 3)))
    j = rng.standard_normal(3)
    j0 = tuple(float(x) for x in j / np.linalg.norm(j) * rng.uniform(0.5, 2.0))
    return j0, inertia, float(rng.choice([1e-3, 2e-3])), steps


def _poly(rng, nvars, nterms=3):
    """Exactly nterms monomials of degree <= 3 per variable, rational coefficients.

    A fixed term count keeps the cost of a bracket job from swinging with the seed.
    """
    terms = {}
    while len(terms) < nterms:
        expo = tuple(int(e) for e in rng.integers(0, 4, nvars))
        terms[expo] = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)), int(rng.integers(1, 10)))
    return terms


def _line_list(rng, levels, noise, min_sep=0.02):
    """Synthetic levels whose transition frequencies are at least min_sep apart."""
    while True:
        truth = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, levels - 1))])
        freqs = np.sort([truth[j] - truth[k] for j in range(levels) for k in range(j)])
        if np.min(np.diff(freqs)) >= min_sep:
            break
    omegas = freqs * (1.0 + noise * rng.standard_normal(freqs.size))
    weights = rng.uniform(0.5, 1.5, freqs.size)
    trial = truth + rng.normal(0.0, 1e-3, levels)
    return omegas, weights, trial, truth


def dynamics_round(rng):
    jobs = []
    for _ in range(4):
        case = _rigid_case(rng, 3000)
        jobs.append(Job("rigid_body", case, partial(checks.rigid_body, case)))
    for _ in range(3):
        payload = [("pq", [_poly(rng, 2) for _ in range(3)]) for _ in range(6)]
        payload += [("so3", [_poly(rng, 3) for _ in range(3)]) for _ in range(3)]
        jobs.append(Job("brackets", payload, partial(checks.brackets, payload)))
    for _ in range(3):
        payload = []
        for _ in range(150):
            u = rng.standard_normal((2, 4))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            a = rng.standard_normal(3)
            a *= rng.uniform(0.1, 3.0) / np.linalg.norm(a)
            payload.append(((complex(u[0, 0], u[0, 1]), complex(u[0, 2], u[0, 3])),
                            (complex(u[1, 0], u[1, 1]), complex(u[1, 2], u[1, 3])), a))
        jobs.append(Job("rotation_trips", payload, partial(checks.rotation_trips, payload)))
    noise = 1e-6
    for _ in range(2):
        cases = []
        for levels in (6, 7, 8, 6, 7, 8, 6, 7, 8, 8):
            omegas, weights, trial, truth = _line_list(rng, levels, noise)
            cases.append((omegas, weights, trial, 6, int(rng.integers(1 << 30)), truth, noise))
        jobs.append(Job("assign", [c[:5] for c in cases], partial(checks.assign, cases)))
    return jobs


# ---------------------------------------------------------------------------


def _r(x) -> str:
    return repr(float(x))


def _csv_list(values) -> str:
    return ",".join(_r(v) for v in values)


def _rotation_matrix(rng):
    a = rng.standard_normal(3)
    a *= rng.uniform(0.2, 3.0) / np.linalg.norm(a)
    theta = float(np.linalg.norm(a))
    x = checks.hat(a)
    return np.eye(3) + math.sin(theta) / theta * x + (1 - math.cos(theta)) / theta**2 * (x @ x)


def cli_round(rng, workdir: str):
    """Argument vectors for ``python -m liequant.cli``: mostly small runs,
    plus rigidbody writing a file and assign reading files written here."""
    jobs = []

    def add(argv, spec, files=None, reads=()):
        # "--flag=value" keeps argparse from reading a negative value as a flag
        args = [str(argv[0])] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        jobs.append(Job("cli", args, partial(checks.cli, spec), files or {}, reads))

    add(["wien"], {"kind": "wien"})
    consts = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
    add(["stefan", "--kbar", _r(consts[0]), "--hbar", _r(consts[1]), "--c", _r(consts[2])],
        {"kind": "stefan", "consts": consts})
    kmax, rh = int(rng.integers(4, 10)), float(rng.uniform(1e7, 1.2e7))
    add(["rydberg", "--kmax", kmax, "--rh", _r(rh)], {"kind": "rydberg", "kmax": kmax, "rh": rh})
    temp = float(rng.uniform(300.0, 6000.0))
    add(["blackbody", "--temperature", _r(temp), "--points", 200],
        {"kind": "blackbody", "temperature": temp, "points": 200})
    vec, apply = rng.uniform(-2.0, 2.0, 3), rng.uniform(-1.0, 1.0, 3)
    add(["rotate", "--vector", _csv_list(vec), "--apply", _csv_list(apply)],
        {"kind": "rotate", "vector": vec, "apply": apply})
    for kind in ("euler", "lift"):
        m = _rotation_matrix(rng)
        add([kind, "--matrix", _csv_list(m.ravel())], {"kind": kind, "matrix": m})
    j = str(SPINS[int(rng.integers(len(SPINS)))])
    add(["irrep", "--j", j], {"kind": "irrep", "j": j})
    k, l = (str(SPINS[int(i)]) for i in rng.integers(0, 4, 2))
    add(["cg", "--k", k, "--l", l], {"kind": "cg", "k": k, "l": l})
    levels, beta = np.sort(rng.uniform(0.0, 5.0, int(rng.integers(4, 9)))), float(rng.uniform(0.2, 2.0))
    add(["gibbs", "--levels", _csv_list(levels), "--beta", _r(beta)],
        {"kind": "gibbs", "levels": levels, "beta": beta})
    dim = int(rng.integers(10, 41))
    hbar, omega = float(rng.choice([0.5, 1.0, 2.0])), float(rng.integers(1, 9)) / 4
    add(["fock-spectrum", "--dim", dim, "--hbar", _r(hbar), "--omega", _r(omega), "--count", dim - 1],
        {"kind": "fock", "hbar": hbar, "omega": omega, "count": dim - 1})
    lam, z = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
    ev = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 3.0)))
    add(["coherent", "--lam", _csv_list(lam), "--z", _csv_list(z), "--evolve", _csv_list(ev)],
        {"kind": "coherent", "lam": tuple(lam), "z": tuple(z), "evolve": ev})
    top, v = int(rng.integers(2, 7)), float(rng.uniform(-1.0, 1.0))
    add(["highest-weight", "--u", "-1", "--v", _r(v), "--alpha", _r(-(top + 1) / 2 + v)],
        {"kind": "highest-weight", "dim": top + 1})
    modes = int(rng.integers(3, 6))
    add(["fermion-check", "--modes", modes], {"kind": "fermion", "modes": modes})
    name = str(rng.choice(["so3", "su2", "heisenberg_t3", "sl(3)", "gl(3)", "sp(4)", _so(rng, 4)]))
    add(["algebra-verify", "--name", name], {"kind": "algebra", "name": name})
    seed = int(rng.integers(1 << 30))
    add(["cover-check", "--samples", 200, "--seed", seed], {"kind": "cover", "samples": 200})
    case = _rigid_case(rng, 3000)
    j0, inertia, dt, steps = case
    out = f"{workdir}/trajectory.csv"
    add(["rigidbody", "--inertia", _csv_list(inertia), "--j0", _csv_list(j0), "--dt", _r(dt),
         "--steps", steps, "--out", out], {"kind": "rigidbody", "case": case, "out": out}, reads=(out,))
    noise = 1e-6
    omegas, weights, trial, truth = _line_list(rng, 7, noise)
    data, levels_file = f"{workdir}/lines.csv", f"{workdir}/levels.json"
    files = {data: "omega,weight\n" + "".join(f"{_r(w)},{_r(q)}\n" for w, q in zip(omegas, weights)),
             levels_file: json.dumps({"levels": [float(x) for x in trial]})}
    add(["assign", "--data", data, "--levels", levels_file, "--starts", 5, "--seed", seed],
        {"kind": "assign", "truth": truth, "noise": noise}, files)
    return jobs


ROUNDS = {"spectral": spectral_round, "algebra": algebra_round, "dynamics": dynamics_round}
