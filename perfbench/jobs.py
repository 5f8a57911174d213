"""Jobs that the worker runs: calls into liequant on generated inputs.

Each job takes ``(state, payload)`` and returns plain data for the
runner to check.  ``state`` is a dict the worker keeps between jobs, so
that one large algebra or fermion Fock space can be built by one job and
verified by the next ones without building it twice.  Nothing here
checks a result; the checks run in the runner, outside the timed span.
"""

from __future__ import annotations

import numpy as np

from liequant import fermion, fock, liealg, matrixcore, poisson, rotations, spectra, su2reps, thermal

# ---------------------------------------------------------------------------
# spectral


def eig(state, mats):
    return [matrixcore.eig_hermitian(h) for h in mats]


def gibbs(state, cases):
    out = []
    for h, g, beta in cases:
        st = thermal.GibbsState(h, beta)
        out.append((thermal.partition_function(h, beta),
                    thermal.entropy_value(st),
                    thermal.gibbs_value(st, g)))
    return out


def kubo(state, cases):
    return [(thermal.kubo_inner(f, h, h), thermal.generating_functional(f)) for f, h in cases]


def gap(state, cases):
    return [thermal.gibbs_bogoliubov_gap(f, g) for f, g in cases]


def sparse(state, payload):
    """Oscillator spectra and Clebsch-Gordan decompositions."""
    osc = [fock.oscillator_spectrum(fock.build_fock(dim, hbar), omega, dim - 1)
           for dim, hbar, omega in payload["oscillators"]]
    cg = [su2reps.clebsch_gordan(k, l) for k, l in payload["cg"]]
    return osc, cg


def restriction(state, cases):
    return [su2reps.decompose_restriction(mats) for mats in cases]


# ---------------------------------------------------------------------------
# algebra


def _invariants(basis, real):
    return {"jacobi": liealg.verify_jacobi(basis),
            "killing": liealg.killing_form(basis),
            "semisimple": liealg.is_semisimple(basis)}


def _built(basis, real, coords):
    x = real.element(coords)
    return {"name": basis.name, "dim": basis.dim, "c": basis.c,
            "mats": np.array(real.mats), "x": x, "expx": matrixcore.expm(x)}


def algebra_full(state, payload):
    """Build, exponentiate an element, and verify each algebra in one job;
    also check the Weyl relation on the Heisenberg realization."""
    cases, weyl_cases = payload
    out = []
    for name, coords in cases:
        basis, real = liealg.builtin_algebra(name)
        res = _built(basis, real, coords)
        res["consistency"] = real.consistency_residual()
        res.update(_invariants(basis, real))
        out.append(res)
    if weyl_cases:
        _, real = liealg.builtin_algebra("heisenberg_t3")
        p, q, _ = real.mats
        weyl = [liealg.weyl_check(a * p, b * q) for a, b in weyl_cases]
    else:
        weyl = []
    return out, weyl


def algebra_build(state, case):
    name, coords = case
    basis, real = liealg.builtin_algebra(name)
    state[name] = (basis, real)
    return _built(basis, real, coords)


def algebra_consistency(state, name):
    return {"consistency": state[name][1].consistency_residual()}


def algebra_invariants(state, name):
    basis, real = state.pop(name)
    return _invariants(basis, real)


def _fermion_report(f):
    spectra_ = [fermion.number_spectrum(f, j) for j in range(1, f.n_modes + 1)]
    return {"modes": f.n_modes, "spectra": spectra_}


def fermions(state, payload):
    """Full check for the small mode counts; build the large one for later."""
    out = []
    for n in payload["full"]:
        f = fermion.build_fermion(n)
        rep = _fermion_report(f)
        rep["car"] = fermion.car_residual(f)
        out.append(rep)
    big = fermion.build_fermion(payload["build"])
    state["fermion"] = big
    out.append(_fermion_report(big))
    return out


def fermion_car(state, _):
    f = state.pop("fermion")
    return {"modes": f.n_modes, "car": fermion.car_residual(f)}


# ---------------------------------------------------------------------------
# dynamics


def rigid_body(state, case):
    j0, inertia, dt, steps = case
    traj = poisson.integrate_rigid_body(poisson.RigidBodyState(j0, inertia), dt, steps)
    return poisson.trajectory_csv(traj)


def _terms(poly):
    return dict(poly.terms)


def brackets(state, payload):
    """Jacobi cyclic terms {f,{g,h}}, {g,{h,f}}, {h,{f,g}} for each triple."""
    out = []
    for kind, triple in payload:
        nvars = 2 if kind == "pq" else 3
        bracket = poisson.poisson_pq if kind == "pq" else poisson.lie_poisson_so3
        f, g, h = (poisson.SparsePoly(nvars, t) for t in triple)
        out.append((kind, [_terms(bracket(f, bracket(g, h))),
                           _terms(bracket(g, bracket(h, f))),
                           _terms(bracket(h, bracket(f, g)))]))
    units = (_terms(poisson.poisson_pq(poisson.P, poisson.Q)),
             _terms(poisson.lie_poisson_so3(poisson.J1, poisson.J2)))
    return out, units


def rotation_trips(state, payload):
    out = []
    for (x1, y1), (x2, y2), a in payload:
        u1, u2 = rotations.SU2Element(x1, y1), rotations.SU2Element(x2, y2)
        r1 = rotations.covering_map(u1)
        lifted = rotations.lift_to_su2(r1)
        rod = rotations.rodrigues(a)
        out.append((rotations.covering_map(u1 @ u2).m, r1.m,
                    rotations.covering_map(u2).m, rotations.covering_map(-u1).m,
                    rotations.covering_map(lifted).m, rod.m,
                    rotations.euler_zyz(rod), rotations.rotation_axis(rod)))
    return out


def assign(state, cases):
    out = []
    for omegas, weights, trial, starts, seed in cases:
        data = spectra.SpectrumDataset(omegas, weights)
        sol = spectra.assign_lines_multistart(
            data, spectra.EnergyLevels(trial), n_starts=starts,
            rng=np.random.default_rng(seed))
        out.append((sol.levels, sol.objective, sol.stopped_on))
    return out


# ---------------------------------------------------------------------------


def warmup(state, _):
    """Touch the lazily initialised paths once before any timed job."""
    matrixcore.eig_hermitian(np.diag([1.0, 2.0]) + 0.5)
    matrixcore.expm(np.eye(2))
    liealg.builtin_algebra("sl(2)")
    fermion.build_fermion(2)
    su2reps.clebsch_gordan(1, 1)
    poisson.trajectory_csv(poisson.integrate_rigid_body(
        poisson.RigidBodyState((1, 0, 0), (1, 2, 3)), 1e-3, 3))
    return None


JOBS = {fn.__name__: fn for fn in (
    eig, gibbs, kubo, gap, sparse, restriction,
    algebra_full, algebra_build, algebra_consistency, algebra_invariants,
    fermions, fermion_car,
    rigid_body, brackets, rotation_trips, assign, warmup)}
