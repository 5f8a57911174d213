"""Correctness checks, run in the runner process after each job.

Every check is computed apart from liequant (numpy/LAPACK, scipy, exact
rational arithmetic, closed forms) or tests a property the method must
have; none compares against a saved copy of earlier output.  scipy is
imported here only, never in the measured worker or CLI child.
A failed check raises ``CheckFailed`` with a short reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

EPS = np.finfo(float).eps
SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


class CheckFailed(Exception):
    pass


def require(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def close(a, b, tol: float, what: str) -> None:
    diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0
    require(diff <= tol, f"{what}: deviation {diff:.3e} > {tol:.3e}")


# ---------------------------------------------------------------------------
# spectral


def _log_z(lam, beta=1.0):
    lo = lam[0]
    return -beta * lo + math.log(float(np.sum(np.exp(-beta * (lam - lo)))))


def _gibbs_rho(h, beta=1.0):
    lam, vec = np.linalg.eigh(h)
    p = np.exp(-beta * (lam - lam[0]))
    p /= p.sum()
    return lam, vec, (vec * p) @ vec.conj().T


def eig(mats, out, memo):
    for h, (w, v) in zip(mats, out):
        h = np.asarray(h)
        n = h.shape[0]
        scale = max(1.0, float(np.linalg.norm(h)))
        close(h @ v, v * w, 1e-10 * scale, f"eig residual n={n}")
        close(v.conj().T @ v, np.eye(n), 1e-10, f"eig orthonormality n={n}")
        require(np.all(np.diff(w) >= 0), "eigenvalues not ascending")
        close(w, np.linalg.eigvalsh(h), 1e-10 * scale, f"eigenvalues vs eigvalsh n={n}")


def gibbs(cases, out, memo):
    for (h, g, beta), (z, s, gv) in zip(cases, out):
        n = h.shape[0]
        lam, _, rho = _gibbs_rho(h, beta)
        z_ref = float(np.sum(np.exp(-beta * lam)))
        close(z / z_ref, 1.0, 1e-10, "partition function")
        require(-1e-12 <= s <= math.log(n) + 1e-12, f"entropy {s} outside [0, log n]")
        mean_h = float(np.trace(rho @ h).real)
        close(s, beta * mean_h + _log_z(lam, beta), 1e-9, "entropy")
        close(gv, np.trace(rho @ g), 1e-9 * max(1.0, float(np.linalg.norm(g))), "Gibbs value")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _kubo_quadrature(f, h):
    """<h; h>_f = tr(rho h E_f h), E_f h = int_0^1 e^{-sf} h e^{sf} ds by Gauss-Legendre."""
    lam, vec, rho = _gibbs_rho(f)
    ht = vec.conj().T @ h @ vec
    smoothed = np.zeros_like(ht)
    for x, wt in zip(_GL_NODES, _GL_WEIGHTS):
        s = 0.5 * (x + 1.0)
        smoothed += 0.5 * wt * (np.exp(-s * lam)[:, None] * ht * np.exp(s * lam)[None, :])
    return np.trace(rho @ h @ (vec @ smoothed @ vec.conj().T))


def kubo(cases, out, memo):
    for (f, h), (k, w) in zip(cases, out):
        ref = _kubo_quadrature(f, h)
        scale = max(1.0, abs(ref))
        require(k.real >= -1e-12 * scale, f"Kubo product {k} negative")
        require(abs(k.imag) <= 1e-9 * scale, f"Kubo product {k} not real")
        close(k, ref, 1e-9 * scale, "Kubo product vs quadrature")
        close(w, -_log_z(np.linalg.eigvalsh(f)), 1e-9 * max(1.0, abs(w)), "generating functional")


def gap(cases, out, memo):
    """``cases`` are (f, g, shift): shift is c when g = f + c 1, else None."""
    for (f, g, shift), value in zip(cases, out):
        lam_f, _, rho = _gibbs_rho(f)
        w_f, w_g = -_log_z(lam_f), -_log_z(np.linalg.eigvalsh(g))
        ref = w_f + float(np.trace(rho @ (g - f)).real) - w_g
        scale = 1.0 + abs(w_f) + abs(w_g)
        require(value >= -1e-10 * scale, f"Gibbs-Bogoliubov gap {value} negative")
        close(value, ref, 1e-9 * scale, "Gibbs-Bogoliubov gap")
        if shift is not None:
            require(abs(value) <= 1e-10 * scale, f"gap {value} for a constant shift {shift}")


def _twice(x) -> int:
    return int(2 * Fraction(x))


@lru_cache(maxsize=None)
def cg_table(k, l):
    """Condon-Shortley coupling matrix from Racah's formula in exact arithmetic.

    Rows are |m1> (x) |m2> with m1, m2 descending; columns run over
    j = k+l .. |k-l| and m = j .. -j, as liequant orders its isometry.
    """
    tk, tl = _twice(k), _twice(l)
    fact = math.factorial
    rows = {(tk - 2 * a, tl - 2 * b): a * (tl + 1) + b for a in range(tk + 1) for b in range(tl + 1)}
    table = np.zeros((len(rows), len(rows)))
    col = 0
    for tj in range(tk + tl, abs(tk - tl) - 1, -2):
        for tm in range(tj, -tj - 1, -2):
            for (t1, t2), row in rows.items():
                if t1 + t2 != tm:
                    continue
                # all combinations below are integers
                a, b, c = (tj + tk - tl) // 2, (tj - tk + tl) // 2, (tk + tl - tj) // 2
                pre = Fraction((tj + 1) * fact(a) * fact(b) * fact(c), fact((tk + tl + tj) // 2 + 1))
                pre *= (fact((tj + tm) // 2) * fact((tj - tm) // 2) * fact((tk - t1) // 2)
                        * fact((tk + t1) // 2) * fact((tl - t2) // 2) * fact((tl + t2) // 2))
                total = Fraction(0)
                for z in range(0, c + 1):
                    args = (z, c - z, (tk - t1) // 2 - z, (tl + t2) // 2 - z,
                            (tj - tl + t1) // 2 + z, (tj - tk - t2) // 2 + z)
                    if min(args) < 0:
                        continue
                    denom = 1
                    for x in args:
                        denom *= fact(x)
                    total += Fraction((-1) ** z, denom)
                value = math.sqrt(pre * total * total)
                table[row, col] = value if total >= 0 else -value
            col += 1
    return table


def _cg_series(k, l):
    tk, tl = _twice(k), _twice(l)
    return [Fraction(tj, 2) for tj in range(tk + tl, abs(tk - tl) - 1, -2)]


def sparse(payload, out, memo):
    osc, cg = out
    for (dim, hbar, omega), w in zip(payload["oscillators"], osc):
        ref = hbar * omega * np.arange(dim - 1)
        close(w, ref, 4 * EPS * float(ref[-1]), f"oscillator spectrum dim={dim}")
    for (k, l), (summands, iso) in zip(payload["cg"], cg):
        require([(Fraction(j), m) for j, m in summands] == [(j, 1) for j in _cg_series(k, l)],
                f"CG summands for {k} x {l}")
        close(iso.conj().T @ iso, np.eye(iso.shape[0]), 1e-12, f"CG isometry {k} x {l} unitary")
        close(iso, cg_table(k, l), 1e-12, f"CG {k} x {l} vs Racah formula")


def restriction(payload, out, memo):
    for (k, l, _), blocks in zip(payload, out):
        ref = [_twice(j) + 1 for j in _cg_series(k, l)]
        require(list(blocks) == ref, f"restriction of D{k} x D{l}: {blocks} != {ref}")


# ---------------------------------------------------------------------------
# algebra


def family(name: str):
    """(family, size parameter, expected dimension, semisimple)."""
    named = {"so3": ("so", 3, 3, True), "su2": ("sl", 2, 3, True),
             "heisenberg_t3": ("heisenberg", 3, 3, False),
             "oscillator_os1": ("oscillator", 3, 4, False)}
    if name in named:
        return named[name]
    fam, args = name[:2], [int(x) for x in name[3:-1].split(",")]
    if fam == "gl":
        return "gl", args[0], args[0] ** 2, False
    if fam == "sl":
        return "sl", args[0], args[0] ** 2 - 1, True
    if fam == "so":
        n = sum(args)
        return "so", n, n * (n - 1) // 2, n >= 3
    half = args[0] // 2
    return "sp", half, half * (2 * half + 1), True


def _killing_closed_form(name, mats):
    """Killing form from the matrices: a multiple of tr(XY), per family."""
    fam, n, _, _ = family(name)
    trxy = np.einsum("jab,kba->jk", mats, mats)
    if fam == "sl":
        return 2 * n * trxy
    if fam == "gl":
        tr = np.einsum("jaa->j", mats)
        return 2 * n * trxy - 2 * np.outer(tr, tr)
    if fam == "so":
        return (n - 2) * trxy
    if fam == "sp":
        return (2 * n + 2) * trxy
    if fam == "heisenberg":
        return np.zeros_like(trxy)
    return None


def algebra_built(name, coords, out, memo):
    from scipy.linalg import expm

    dim = family(name)[2]
    mats, c = out["mats"], out["c"]
    require(out["dim"] == dim and len(mats) == dim, f"{name}: dimension {out['dim']} != {dim}")
    lhs = np.einsum("jab,kbc->jkac", mats, mats) - np.einsum("kab,jbc->jkac", mats, mats)
    close(lhs, np.einsum("jkl,lac->jkac", c, mats), 1e-9, f"{name}: structure constants")
    close(out["x"], np.einsum("j,jab->ab", coords, mats), 1e-12, f"{name}: element")
    ref = expm(out["x"])
    close(out["expx"], ref, 1e-10 * max(1.0, float(np.max(np.abs(ref)))), f"{name}: expm vs scipy")
    memo[name] = mats


def algebra_verified(name, out, memo):
    _, _, _, semisimple = family(name)
    if "consistency" in out:
        require(out["consistency"] <= 1e-12, f"{name}: consistency residual {out['consistency']}")
    if "jacobi" in out:
        require(out["jacobi"] <= 1e-12, f"{name}: Jacobi residual {out['jacobi']}")
        require(out["semisimple"] == semisimple, f"{name}: semisimple verdict {out['semisimple']}")
        kf = np.asarray(out["killing"])
        ref = _killing_closed_form(name, memo.pop(name))
        if ref is None:
            close(kf, kf.T, 1e-12, f"{name}: Killing form symmetric")
        else:
            close(kf, ref, 1e-9 * max(1.0, float(np.max(np.abs(ref)))), f"{name}: Killing form")


def algebra_full(payload, out, memo):
    (cases, weyl_cases), (results, weyl) = payload, out
    for (name, coords), res in zip(cases, results):
        algebra_built(name, coords, res, memo)
        algebra_verified(name, res, memo)
    require(len(weyl) == len(weyl_cases) and all(weyl), "Weyl relation failed")


def fermion_report(rep):
    n = rep["modes"]
    half = 2 ** (n - 1)
    ref = np.array([0.0] * half + [1.0] * half)
    for j, spec in enumerate(rep["spectra"], 1):
        require(np.array_equal(spec, ref), f"number spectrum of mode {j} of {n}")
    if "car" in rep:
        require(rep["car"] == 0.0, f"CAR residual {rep['car']} at {n} modes")


def fermions(payload, out, memo):
    require([r["modes"] for r in out] == [*payload["full"], payload["build"]], "fermion modes")
    for rep in out:
        fermion_report(rep)


def fermion_car(n, out, memo):
    require(out["modes"] == n, "fermion modes")
    require(out["car"] == 0.0, f"CAR residual {out['car']} at {n} modes")


# ---------------------------------------------------------------------------
# dynamics


def _reference_final(j0, inertia, t_end):
    from scipy.integrate import solve_ivp

    inv = 1.0 / np.asarray(inertia)
    sol = solve_ivp(lambda t, j: np.cross(j, j * inv), (0.0, t_end), np.asarray(j0),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    return sol.y[:, -1]


def trajectory(case, text):
    """CSV shape, energy/J^2 drift within an RK4 bound, final state vs DOP853."""
    j0, inertia, dt, steps = case
    rows = list(csv.reader(io.StringIO(text)))
    require(rows[0] == ["t", "J1", "J2", "J3", "E", "Jsq"], "CSV header")
    data = np.array(rows[1:], dtype=float)
    require(data.shape == (steps + 1, 6), f"CSV shape {data.shape}, want {(steps + 1, 6)}")
    require(np.array_equal(data[0, 1:4], np.asarray(j0, dtype=float)), "CSV initial state")
    close(data[:, 0], dt * np.arange(steps + 1), 1e-9, "CSV time column")
    jj, inertia = data[:, 1:4], np.asarray(inertia, dtype=float)
    close(data[:, 4], 0.5 * np.sum(jj * jj / inertia, axis=1), 1e-12 * data[0, 4], "CSV energy column")
    omega = float(np.linalg.norm(j0)) / float(np.min(inertia))
    t_end = dt * steps
    # global RK4 error is O((omega dt)^4 omega T); roundoff adds ~eps per step
    bound = 10 * (omega * dt) ** 4 * omega * t_end + 4 * steps * EPS
    for col, label in ((4, "energy"), (5, "J^2")):
        drift = float(np.max(np.abs(data[:, col] - data[0, col]))) / data[0, col]
        require(drift <= bound, f"{label} drift {drift:.3e} > {bound:.3e}")
    ref = _reference_final(j0, inertia, t_end)
    close(jj[-1], ref, 1e-9 * float(np.linalg.norm(j0)) + bound, "final state vs DOP853")


def rigid_body(case, out, memo):
    trajectory(case, out)


def _exact_sum(term_dicts):
    total: dict = {}
    for terms in term_dicts:
        for expo, coeff in terms.items():
            require(isinstance(coeff, (int, Fraction)), "bracket coefficient not exact")
            total[expo] = total.get(expo, 0) + coeff
    return {e: c for e, c in total.items() if c != 0}


def brackets(payload, out, memo):
    triples, (pq_unit, j_unit) = out
    require(len(triples) == len(payload), "bracket count")
    for kind, terms in triples:
        require(_exact_sum(terms) == {}, f"{kind} Jacobi sum not exactly zero")
    require(pq_unit == {(0, 0): 1}, "{p, q} != 1")
    require(j_unit == {(0, 0, 1): 1}, "{J1, J2} != J3")


def hat(a):
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def _adjoint(x, y):
    """R_ij = tr(s_i U s_j U*)/2, the covering map from its definition."""
    u = np.array([[x, y], [-np.conj(y), np.conj(x)]])
    return np.array([[0.5 * np.trace(SIGMA[i] @ u @ SIGMA[j] @ u.conj().T).real
                      for j in range(3)] for i in range(3)])


def _rz(t):
    return np.array([[math.cos(t), -math.sin(t), 0.0], [math.sin(t), math.cos(t), 0.0], [0, 0, 1.0]])


def _ry(t):
    return np.array([[math.cos(t), 0.0, math.sin(t)], [0, 1.0, 0], [-math.sin(t), 0.0, math.cos(t)]])


def rotation_trips(payload, out, memo):
    from scipy.linalg import expm

    for ((x1, y1), (x2, y2), a), res in zip(payload, out):
        r12, r1, r2, r1neg, r1lift, rod, (al, be, ga), axis = res
        close(r1, _adjoint(x1, y1), 1e-12, "covering map vs adjoint action")
        close(r12, r1 @ r2, 1e-12, "covering map homomorphism")
        require(np.array_equal(r1neg, r1) or np.max(np.abs(r1neg - r1)) <= 1e-15, "R(-U) != R(U)")
        close(r1lift, r1, 1e-12, "covering_map(lift_to_su2(R)) != R")
        close(rod, expm(hat(a)), 1e-12, "Rodrigues vs expm(hat(a))")
        require(0.0 <= be <= math.pi, "Euler beta outside [0, pi]")
        close(_rz(al) @ _ry(be) @ _rz(ga), rod, 1e-12, "z-y-z Euler angles")
        # the axis is an eigenvector for eigenvalue 1, so either sign is right
        unit = np.asarray(a) / np.linalg.norm(a)
        close(abs(float(np.dot(axis, unit))), 1.0, 1e-9, "rotation axis parallel to a")
        close(np.linalg.norm(axis), 1.0, 1e-12, "rotation axis unit length")


def assign(cases, out, memo):
    for (omegas, _, trial, _, _, truth, noise), (levels, objective, stopped) in zip(cases, out):
        require(stopped == "converged", f"assignment stopped on {stopped}")
        close(levels, truth, 50 * noise * float(truth[-1]), "assigned levels vs synthetic truth")
        require(objective <= 25 * noise**2 * len(omegas), f"objective {objective:.3e} too large")


# ---------------------------------------------------------------------------
# cli


def _json(text):
    return json.loads(text)


def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    require(rows[0] == header, f"CSV header {rows[0]}")
    return rows[1:]


def cli(spec, output, memo):
    """Check one CLI run; ``spec`` names the command and its closed form,
    ``output`` is (stdout, {file written by the run: its text})."""
    stdout, files = output
    kind = spec["kind"]
    if kind == "wien":
        from scipy.special import lambertw

        out = _json(stdout)
        x_ref = 3.0 + float(lambertw(-3.0 * math.exp(-3.0)).real)
        close(out["x"], x_ref, 1e-12, "Wien root vs Lambert W")
        require(abs(3 - out["x"] - 3 * math.exp(-out["x"])) <= 1e-14, "Wien residual")
    elif kind == "stefan":
        k, hbar, c = spec["consts"]
        h = 2 * math.pi * hbar
        ref = 2 * math.pi**5 * k**4 / (15 * h**3 * c**2)
        close(_json(stdout)["sigma"] / ref, 1.0, 1e-12, "Stefan constant")
    elif kind == "rydberg":
        kmax, rh = spec["kmax"], spec["rh"]
        rows = _csv_rows(stdout, ["k", "l", "omega"])
        require(len(rows) == kmax * (kmax - 1) // 2, "Rydberg line count")
        for k, l, w in rows:
            k, l = int(k), int(l)
            require(1 <= k < l <= kmax, "Rydberg indices")
            close(float(w) / (rh * (1 / k**2 - 1 / l**2)), 1.0, 1e-14, "Rydberg line")
    elif kind == "blackbody":
        temp, points = spec["temperature"], spec["points"]
        rows = np.array(_csv_rows(stdout, ["omega", "f_omega"]), dtype=float)
        require(rows.shape == (points, 2), "black-body point count")
        k, hbar, c = 1.38065e-23, 1.0545718e-34, 2.99792458e8
        for w, f in rows:
            ref = (hbar / (math.pi**2 * c**3)) * w**3 / math.expm1(hbar * w / (k * temp))
            close(f / ref, 1.0, 1e-12, "Planck formula")
    elif kind == "rotate":
        from scipy.spatial.transform import Rotation

        out = _json(stdout)
        ref = Rotation.from_rotvec(spec["vector"]).as_matrix()
        close(out["matrix"], ref, 1e-12, "rotate matrix vs scipy")
        close(out["image"], ref @ np.asarray(spec["apply"]), 1e-12, "rotate image")
    elif kind == "euler":
        out = _json(stdout)
        close(_rz(out["alpha"]) @ _ry(out["beta"]) @ _rz(out["gamma"]), spec["matrix"], 1e-12,
              "euler recomposition")
    elif kind == "lift":
        out = _json(stdout)
        (xr, xi), (yr, yi) = out["x"], out["y"]
        close(abs(complex(xr, xi)) ** 2 + abs(complex(yr, yi)) ** 2, 1.0, 1e-12, "lift unit norm")
        close(_adjoint(complex(xr, xi), complex(yr, yi)), spec["matrix"], 1e-12, "lift covers R")
    elif kind == "irrep":
        out = _json(stdout)
        j = float(Fraction(spec["j"]))
        require(out["dim"] == int(2 * j) + 1, "irrep dimension")
        close(out["t3_diagonal"], j - np.arange(int(2 * j) + 1), 1e-15, "irrep weights")
        close(out["casimir_value"], j * (j + 1), 1e-12, "irrep Casimir")
    elif kind == "cg":
        out = _json(stdout)
        k, l = Fraction(spec["k"]), Fraction(spec["l"])
        require([s["j"] for s in out["summands"]] == [float(j) for j in _cg_series(k, l)], "cg summands")
        require(out["dimension_check"] == (2 * k + 1) * (2 * l + 1), "cg dimension")
    elif kind == "gibbs":
        out, lev, beta = _json(stdout), np.asarray(spec["levels"]), spec["beta"]
        z = float(np.sum(np.exp(-beta * lev)))
        mean = float(np.sum(lev * np.exp(-beta * lev))) / z
        close(out["partition_function"] / z, 1.0, 1e-12, "gibbs Z")
        close(out["mean_energy"], mean, 1e-12 * max(1.0, abs(mean)), "gibbs mean energy")
        close(out["entropy"], beta * mean + math.log(z), 1e-12, "gibbs entropy")
    elif kind == "fock":
        out = _json(stdout)
        ref = spec["hbar"] * spec["omega"] * np.arange(spec["count"])
        close(out["eigenvalues"], ref, 4 * EPS * float(ref[-1]), "fock spectrum")
    elif kind == "coherent":
        out = _json(stdout)
        lam, z, (omega, t) = complex(*spec["lam"]), complex(*spec["z"]), spec["evolve"]
        ref = abs(lam) ** 2 * math.exp(abs(z) ** 2)
        close(complex(*out["norm_squared"]) / ref, 1.0, 1e-12, "coherent norm closed form")
        close(complex(*out["evolved_z"]), z * np.exp(-1j * omega * t), 1e-14, "coherent evolution")
    elif kind == "highest-weight":
        out = _json(stdout)
        dim, alpha = spec["dim"], out["alpha"]
        require(out["verdict"] == "finite" and out["dim"] == dim, "highest-weight verdict")
        close(out["h_diagonal"], np.arange(dim) + alpha + 0.5, 1e-12, "highest-weight h")
    elif kind == "fermion":
        out = _json(stdout)
        require(out["car_residual"] == 0.0 and out["number_spectra_binary"], "fermion-check")
        require(out["dim"] == 2 ** spec["modes"], "fermion dimension")
    elif kind == "algebra":
        out = _json(stdout)
        _, _, dim, semisimple = family(spec["name"])
        require(out["dim"] == dim, "algebra-verify dimension")
        require(out["jacobi_residual"] <= 1e-12 and out["realization_residual"] <= 1e-12,
                "algebra-verify residuals")
        require(out["semisimple"] == semisimple, "algebra-verify semisimple verdict")
        kf = np.asarray(out["killing_form"])
        close(kf, kf.T, 1e-12, "algebra-verify Killing form symmetric")
    elif kind == "cover":
        out = _json(stdout)
        require(out["pass"] and out["samples"] == spec["samples"], "cover-check verdict")
    elif kind == "rigidbody":
        require(stdout == "", "rigidbody --out wrote to stdout")
        trajectory(spec["case"], files[spec["out"]])
    elif kind == "assign":
        out = _json(stdout)
        require(out["stopped_on"] == "converged", "assign stopped early")
        truth, noise = spec["truth"], spec["noise"]
        close(out["levels"], truth, 50 * noise * float(truth[-1]), "assign levels vs truth")
    else:
        raise CheckFailed(f"unknown CLI check {kind}")
