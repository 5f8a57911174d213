"""Command-line front end emitting plot-ready CSV/JSON.

Every subcommand writes machine-readable output to stdout (or ``--out``),
formats floats with 17 significant digits for exact round-trips, and is
deterministic for a fixed argv and seed (``--seed`` or the LIEQUANT_SEED
environment variable).  Exit codes: 0 success, 1 domain error (the error
token is printed; ``io_error`` when an input or output file cannot be
opened, ``bad_input`` when an input file's contents do not parse), 2
usage error (including numbers or spins that do not parse).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import fermion, fock, liealg, rotations, spectra, thermal
from .errors import DomainError
from .poisson import RigidBodyState, integrate_rigid_body, trajectory_csv

# Cap on cover-check --samples, blackbody --points and rigidbody --steps;
# 10000 cover-check samples take about 4 s on a 2-core VM.
MAX_SAMPLES = 100_000


def _jdump(obj) -> str:
    def default(o):
        if isinstance(o, complex):
            return [o.real, o.imag]
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, np.integer):
            return int(o)
        raise TypeError(f"not serializable: {type(o)}")
    return json.dumps(obj, indent=2, default=default) + "\n"


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _list_help(text: str, example: str) -> str:
    """Help of a comma-list option: argparse reads a leading minus sign as a flag."""
    return f"{text}; write {example} when the first number is negative"


def _numbers(count=None):
    """argparse type: comma-separated floats, exactly ``count`` of them if given."""
    def parse(text: str) -> list:
        try:
            vals = [float(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from None
        if count is not None and len(vals) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers, got {text!r}")
        return vals
    return parse


def _spin(text: str) -> str:
    """argparse type: a spin such as 1, 3/2 or 2.5, kept as written."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an integer or fraction: {text!r}") from None
    return text


def _json_array(path: str, key: str) -> np.ndarray:
    """Field ``key`` of the JSON object in file ``path``, as a float array."""
    with open(path) as fh:
        try:
            return np.array(json.load(fh)[key], dtype=float)
        except (ValueError, KeyError, TypeError) as err:
            raise DomainError("bad_input", f"{path}: no numeric field {key!r}") from err


def _matrix_arg(args) -> np.ndarray:
    if args.matrix:
        n = int(round(math.sqrt(len(args.matrix))))
        if n * n != len(args.matrix):
            raise DomainError("shape", "--matrix needs n*n comma-separated entries")
        return np.array(args.matrix).reshape(n, n)
    if args.infile:
        return _json_array(args.infile, "matrix")
    raise DomainError("missing_input", "provide --matrix or --in")


def _seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("LIEQUANT_SEED") or "0"
        seed = int(env) if env.isdigit() else -1
    if seed < 0:
        raise DomainError("bad_argument", "the seed must be a non-negative integer")
    return seed


def _check_count(count: int, what: str) -> None:
    if count < 0:
        raise DomainError("bad_argument", f"{what} must be non-negative")
    if count > MAX_SAMPLES:
        raise DomainError("size_cap", f"{what} must be at most {MAX_SAMPLES}")


def _constants(args) -> thermal.PhysicalConstants:
    return thermal.PhysicalConstants(kbar=args.kbar, hbar=args.hbar, c=args.c)


def _add_const_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kbar", type=float, default=thermal.SI_CONSTANTS.kbar,
                   help="Boltzmann constant (J/K)")
    p.add_argument("--hbar", type=float, default=thermal.SI_CONSTANTS.hbar,
                   help="reduced Planck constant (J s)")
    p.add_argument("--c", type=float, default=thermal.SI_CONSTANTS.c,
                   help="speed of light (m/s)")


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_rotate(args) -> str:
    if args.axis:
        rot = rotations.elementary(args.axis, args.angle)
    elif args.vector:
        rot = rotations.rodrigues(np.array(args.vector))
    else:
        raise DomainError("missing_input", "provide --axis/--angle or --vector")
    out = {"matrix": rot.m.tolist()}
    if args.apply:
        out["image"] = rot.apply(np.array(args.apply)).tolist()
    return _jdump(out)


def _cmd_euler(args) -> str:
    rot = rotations.Rotation(_matrix_arg(args))
    alpha, beta, gamma = rotations.euler_zyz(rot)
    return _jdump({"alpha": alpha, "beta": beta, "gamma": gamma})


def _cmd_lift(args) -> str:
    rot = rotations.Rotation(_matrix_arg(args))
    u = rotations.lift_to_su2(rot)
    return _jdump({"x": complex(u.x), "y": complex(u.y)})


def _cmd_cover_check(args) -> str:
    _check_count(args.samples, "--samples")
    rng = np.random.default_rng(_seed(args))
    worst_h = worst_sign = 0.0
    kernel_ok = True
    for _ in range(args.samples):
        u1 = rotations.haar_su2(rng)
        u2 = rotations.haar_su2(rng)
        prod = rotations.covering_map(u1 @ u2).m
        sep = rotations.covering_map(u1).m @ rotations.covering_map(u2).m
        worst_h = max(worst_h, float(np.max(np.abs(prod - sep))))
        worst_sign = max(worst_sign, float(np.max(np.abs(
            rotations.covering_map(-u1).m - rotations.covering_map(u1).m))))
        if np.max(np.abs(rotations.covering_map(u1).m - np.eye(3))) <= 1e-10:
            near = min(abs(u1.x - 1) + abs(u1.y), abs(u1.x + 1) + abs(u1.y))
            kernel_ok = kernel_ok and near <= 1e-8
    ok = worst_h <= 1e-10 and worst_sign <= 1e-14 and kernel_ok
    text = _jdump({"samples": args.samples, "max_homomorphism_defect": worst_h,
                   "max_sign_defect": worst_sign, "kernel_ok": kernel_ok, "pass": ok})
    if not ok:
        raise DomainError("check_failed", "covering-map defect above tolerance")
    return text


def _cmd_algebra_verify(args) -> str:
    basis, real = liealg.builtin_algebra(args.name)
    kf = liealg.killing_form(basis)
    out = {
        "name": basis.name,
        "dim": basis.dim,
        "antisymmetry_residual": basis.antisymmetry_residual(),
        "jacobi_residual": liealg.verify_jacobi(basis),
        "realization_residual": real.consistency_residual(),
        "semisimple": liealg.is_semisimple(basis),
        "killing_form": np.real(kf).tolist(),
    }
    if args.dump:
        out["basis"] = json.loads(basis.to_json())
    return _jdump(out)


def _cmd_rigidbody(args) -> str:
    if args.steps > MAX_SAMPLES:  # a negative count is bad_steps, from the integrator
        raise DomainError("size_cap", f"--steps must be at most {MAX_SAMPLES}")
    state = RigidBodyState(tuple(args.j0), tuple(args.inertia))
    trajectory = integrate_rigid_body(state, args.dt, args.steps)
    return trajectory_csv(trajectory)


def _cmd_fock_spectrum(args) -> str:
    f = fock.build_fock(args.dim, args.hbar)
    w = fock.oscillator_spectrum(f, args.omega, args.count)
    return _jdump({"dim": args.dim, "hbar": args.hbar, "omega": args.omega,
                   "eigenvalues": w.tolist()})


def _cmd_coherent(args) -> str:
    state = fock.CoherentState(complex(*args.lam), complex(*args.z), args.dim)
    norm = fock.coherent_inner(state, state, args.hbar)
    out = {"coeffs": [complex(v) for v in state.coeffs], "norm_squared": norm}
    if args.evolve:
        omega, t = args.evolve
        ev = fock.evolve_coherent(state, omega, t)
        out["evolved_z"] = complex(ev.z)
    return _jdump(out)


def _cmd_highest_weight(args) -> str:
    data = fock.HWData(args.u, args.v, args.alpha, args.hbar)
    a, a_dag, h, verdict = fock.build_highest_weight(data, args.max_levels)
    out = {"u": args.u, "v": args.v, "alpha": args.alpha, "hbar": args.hbar,
           "h_diagonal": np.diag(h).tolist()}
    if isinstance(verdict, fock.FiniteVerdict):
        out["verdict"] = "finite"
        out["dim"] = verdict.dim
    else:
        out["verdict"] = "infinite"
        out["levels_checked"] = verdict.levels_checked
    return _jdump(out)


def _cmd_fermion_check(args) -> str:
    f = fermion.build_fermion(args.modes)
    spectra_ok = all(
        set(np.round(fermion.number_spectrum(f, j + 1)).astype(int)) <= {0, 1}
        for j in range(args.modes))
    return _jdump({"modes": args.modes, "dim": f.dim,
                   "car_residual": fermion.car_residual(f),
                   "number_spectra_binary": spectra_ok})


def _cmd_irrep(args) -> str:
    from .su2reps import build_irrep, casimir
    rep = build_irrep(Fraction(args.j))
    cas = casimir(rep)
    return _jdump({"j": args.j, "dim": rep.dim,
                   "t3_diagonal": np.diag(rep.t3).real.tolist(),
                   "casimir_value": float(np.real(cas[0, 0])) if rep.dim else 0.0})


def _cmd_cg(args) -> str:
    from .su2reps import clebsch_gordan
    summands, iso = clebsch_gordan(Fraction(args.k), Fraction(args.l))
    out = {"k": args.k, "l": args.l,
           "summands": [{"j": j, "multiplicity": m} for j, m in summands],
           "dimension_check": int(sum(int(2 * j) + 1 for j, _ in summands))}
    if args.full:
        out["isometry"] = [[complex(v) for v in row] for row in iso]
    return _jdump(out)


def _cmd_gibbs(args) -> str:
    if args.levels:
        h = np.diag(args.levels)
    elif args.infile:
        h = _json_array(args.infile, "matrix")
    else:
        raise DomainError("missing_input", "provide --levels or --in")
    state = thermal.GibbsState(h, args.beta)
    return _jdump({
        "beta": args.beta,
        "partition_function": thermal.partition_function(h, args.beta),
        "mean_energy": thermal.gibbs_value(state, h).real,
        "entropy": thermal.entropy_value(state, kbar=1.0),
    })


def _cmd_blackbody(args) -> str:
    consts = _constants(args)
    _check_count(args.points, "--points")
    if not (0 < args.omega_min < math.inf and 0 < args.omega_max < math.inf):
        raise DomainError("bad_argument", "the frequency range must be positive and finite")
    lines = ["omega,f_omega"]
    grid = np.geomspace(args.omega_min, args.omega_max, args.points)
    for w in grid:
        f = thermal.planck_density(float(w), args.temperature, args.volume, consts)
        lines.append(f"{w:.17g},{f:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_wien(args) -> str:
    x = thermal.wien_displacement_x()
    return _jdump({"x": x, "residual": abs(3 - x - 3 * math.exp(-x))})


def _cmd_stefan(args) -> str:
    return _jdump({"sigma": thermal.stefan_constant(_constants(args))})


def _cmd_rydberg(args) -> str:
    lines = ["k,l,omega"]
    for k, l, w in spectra.rydberg_lines(args.kmax, args.rh):
        lines.append(f"{k},{l},{w:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_assign(args) -> str:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy warns on a CSV with no rows
            raw = np.loadtxt(args.data, delimiter=",", skiprows=1, ndmin=2)
        omega, weight = raw[:, 0], raw[:, 1]
    except (ValueError, IndexError, UserWarning) as err:
        raise DomainError("bad_input", f"{args.data}: not an omega,weight CSV") from err
    data = spectra.SpectrumDataset(omega, weight)
    init = spectra.EnergyLevels(_json_array(args.levels, "levels"))
    best = spectra.assign_lines_multistart(
        data, init, hbar=args.hbar, max_iters=args.max_iters,
        n_starts=max(1, args.starts), scale=args.scale,
        rng=np.random.default_rng(_seed(args)))
    return _jdump({
        "levels": best.levels.tolist(),
        "assignments": [[l + 1, int(j), int(k)] for l, (j, k)
                        in enumerate(zip(best.upper, best.lower))],
        "objective": best.objective,
        "stopped_on": best.stopped_on,
        "flags": list(best.flags),
    })


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liequant",
        description="Rotation groups, Lie algebras, Fock spaces, Gibbs states "
                    "and spectral line analysis from the command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(handler=handler)
        return p

    p = add("rotate", _cmd_rotate,
            "Elementary rotation R_x/R_y/R_z or axis-angle rotation matrix")
    p.add_argument("--axis", choices=["x", "y", "z"])
    p.add_argument("--angle", type=float, default=0.0, help="angle in radians")
    p.add_argument("--vector", type=_numbers(3), help=_list_help(
        "rotation vector ax,ay,az (axis times angle)", "--vector=-1,0.5,0"))
    p.add_argument("--apply", type=_numbers(3),
                   help=_list_help("also rotate this 3-vector", "--apply=-1,0,0"))

    p = add("euler", _cmd_euler, "z-y-z Euler angles of a rotation matrix")
    p.add_argument("--matrix", type=_numbers(), help=_list_help(
        "9 comma-separated row-major entries", "--matrix=-1,0,0,0,-1,0,0,0,1"))
    p.add_argument("--in", dest="infile", help='JSON file {"matrix": [[...]]}')

    p = add("lift", _cmd_lift, "SU(2) preimage (x, y) of a rotation matrix")
    p.add_argument("--matrix", type=_numbers(), help=_list_help(
        "9 comma-separated row-major entries", "--matrix=-1,0,0,0,-1,0,0,0,1"))
    p.add_argument("--in", dest="infile", help='JSON file {"matrix": [[...]]}')

    p = add("cover-check", _cmd_cover_check,
            "randomized homomorphism/two-to-one/kernel test of SU(2)->SO(3)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)

    p = add("algebra-verify", _cmd_algebra_verify,
            "structure-constant checks and Killing form of a builtin algebra")
    p.add_argument("--name", required=True,
                   help="so3, su2, heisenberg_t3, oscillator_os1, gl(n), sl(n), so(p,q), sp(2n)")
    p.add_argument("--dump", action="store_true", help="include the serialized basis")

    p = add("rigidbody", _cmd_rigidbody, "free rigid body trajectory as CSV")
    p.add_argument("--inertia", type=_numbers(3), required=True,
                   help=_list_help("I1,I2,I3", "--inertia=-1,2,3"))
    p.add_argument("--j0", type=_numbers(3), required=True, help=_list_help(
        "initial angular momentum J1,J2,J3", "--j0=-1,0.5,0.2"))
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)

    p = add("fock-spectrum", _cmd_fock_spectrum,
            "lowest eigenvalues of the truncated number Hamiltonian omega a*a")
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--count", type=int, default=8)

    p = add("coherent", _cmd_coherent, "coherent-state coefficients and norm")
    p.add_argument("--lam", type=_numbers(2), default="1,0",
                   help=_list_help("lambda as re,im", "--lam=-1,0"))
    p.add_argument("--z", type=_numbers(2), default="0,0",
                   help=_list_help("mode parameter as re,im", "--z=-0.5,0.2"))
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--evolve", type=_numbers(2), help=_list_help(
        "omega,t: report the evolved mode parameter", "--evolve=-1,0.5"))

    p = add("highest-weight", _cmd_highest_weight,
            "ladder representation from bracket data (u, v, alpha)")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--max-levels", type=int, default=100)

    p = add("fermion-check", _cmd_fermion_check,
            "anticommutator residuals and occupation spectra for n modes")
    p.add_argument("--modes", type=int, default=3)

    p = add("irrep", _cmd_irrep, "spin-j matrices: dimension, weights, Casimir")
    p.add_argument("--j", type=_spin, required=True, help="spin as integer or fraction, e.g. 3/2")

    p = add("cg", _cmd_cg, "tensor-product decomposition of two spins")
    p.add_argument("--k", type=_spin, required=True)
    p.add_argument("--l", type=_spin, required=True)
    p.add_argument("--full", action="store_true", help="include the isometry matrix")

    p = add("gibbs", _cmd_gibbs,
            "partition function, mean energy and entropy of a canonical state")
    p.add_argument("--levels", type=_numbers(), help=_list_help(
        "comma-separated energy levels (diagonal H)", "--levels=-1,0,1"))
    p.add_argument("--in", dest="infile", help='JSON file {"matrix": [[...]]}')
    p.add_argument("--beta", type=float, required=True)

    p = add("blackbody", _cmd_blackbody,
            "spectral energy density over a log frequency grid (CSV)")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--volume", type=float, default=1.0)
    p.add_argument("--omega-min", type=float, default=1e12)
    p.add_argument("--omega-max", type=float, default=1e16)
    p.add_argument("--points", type=int, default=200)
    _add_const_flags(p)

    p = add("wien", _cmd_wien, "displacement root of 3 - x = 3 e^{-x}")

    p = add("stefan", _cmd_stefan, "radiation constant pi^2 kbar^4 / (60 hbar^3 c^2)")
    _add_const_flags(p)

    p = add("rydberg", _cmd_rydberg, "hydrogen-like line list (CSV)")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--rh", type=float, default=spectra.RYDBERG_CONSTANT,
                   help="Rydberg constant (1/m)")

    p = add("assign", _cmd_assign,
            "alternating least-squares assignment of observed lines to levels")
    p.add_argument("--data", required=True, help="CSV with header omega,weight")
    p.add_argument("--levels", required=True, help='JSON file {"levels": [...]}')
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--starts", type=int, default=1, help="extra randomized restarts")
    p.add_argument("--scale", type=float, default=0.01, help="restart perturbation scale")
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write(args, args.handler(args))
    except DomainError as err:
        print(err.token, file=sys.stderr)
        return 1
    except OSError:
        print("io_error", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
