"""Spectroscopy toolkit: difference spectra, hydrogen-like line lists,
resonance response, and the alternating least-squares line assignment.

The assignment solver minimizes

    S(E, j, k) = sum_l q_l ((E_j(l) - E_k(l)) / (hbar w_l) - 1)^2

by alternating per-line assignment (best transition per line, ties to the
smallest indices) with a gauge-fixed linear least-squares refit of the
levels (E_1 = 0).  The objective is non-increasing at every half-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (MAX_ASSIGN_ITERS, MAX_ASSIGN_LINES, MAX_ASSIGN_STARTS, MAX_ASSIGN_TERMS,
                     MAX_KMAX, DomainError, check_array, check_cap, check_count, check_finite,
                     check_positive, check_real, finite)

__all__ = [
    "EnergyLevels",
    "SpectrumDataset",
    "AssignmentSolution",
    "difference_spectrum",
    "rydberg_lines",
    "RYDBERG_CONSTANT",
    "lorentz_response",
    "assign_lines",
    "assign_lines_multistart",
    "objective",
]

RYDBERG_CONSTANT = 1.1e7  # 1/m


@dataclass(frozen=True)
class EnergyLevels:
    """Ascending energy list with a unit tag; a level within 1e-12 of the last kept
    level, relative to the larger of their magnitudes, is merged into it."""

    values: np.ndarray
    unit: str = "J"

    def __init__(self, values, unit: str = "J"):
        vals = np.sort(check_array(values, "levels", (None,)))
        if vals.size == 0:
            raise DomainError("shape", "need a nonempty 1-d level list")
        # sorted, so a NaN (last) or an infinite end makes the span non-finite too
        finite(lambda: vals[-1] - vals[0], "the level span")
        merged = [vals[0]]
        for v in vals[1:]:
            if v - merged[-1] > 1e-12 * max(abs(merged[-1]), abs(v)):
                merged.append(v)
        object.__setattr__(self, "values", np.array(merged))
        object.__setattr__(self, "unit", unit)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectrumDataset:
    """Observed angular frequencies with positive weights."""

    omegas: np.ndarray
    weights: np.ndarray

    def __init__(self, omegas, weights=None):
        om = check_array(omegas, "omegas", (None,))
        wt = np.ones_like(om) if weights is None else check_array(weights, "weights", om.shape)
        if not np.all((om > 0) & (wt > 0) & np.isfinite(om) & np.isfinite(wt)):  # NaN fails
            raise DomainError("bad_lines", "frequencies and weights must be positive and finite")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "weights", wt)

    def __len__(self) -> int:
        return self.omegas.size


@dataclass(frozen=True)
class AssignmentSolution:
    levels: np.ndarray
    upper: np.ndarray        # j(l), 1-based level indices
    lower: np.ndarray        # k(l)
    objective: float
    stopped_on: str          # "converged" or "max_iters"
    flags: tuple = field(default_factory=tuple)


def difference_spectrum(levels: EnergyLevels, hbar: float = 1.0) -> np.ndarray:
    """All positive transition frequencies (E_j - E_k)/hbar, ascending."""
    if len(levels) < 2:
        raise DomainError("too_few", "need at least two levels")
    check_positive(hbar, "bad_hbar", "hbar")
    e = levels.values
    j, k = np.tril_indices(e.size, -1)
    return np.sort(finite(lambda: (e[j] - e[k]) / hbar, "a transition frequency"))


def rydberg_lines(k_max: int, r_h: float = RYDBERG_CONSTANT):
    """Hydrogen-like wavenumbers R_H (1/k^2 - 1/l^2) for k < l <= k_max.

    Returns a list of (k, l, value) triples; values carry the unit of
    ``r_h`` (1/m by default).
    """
    k_max = check_count(k_max, "k_max", 2, MAX_KMAX, "too_few")
    r_h = check_real(r_h, "r_h", "bad_argument")
    k, l = np.triu_indices(k_max, 1)
    k, l = k + 1, l + 1
    w = r_h * (1.0 / k**2 - 1.0 / l**2)
    return list(zip(k.tolist(), l.tolist(), w.tolist()))


def lorentz_response(force: complex, omega: float, m: float, c: float, k: float) -> float:
    """Driven-oscillator energy |F|^2 / ((k - m w^2)^2 + (c w)^2)."""
    omega, m, c, k = (check_real(x, "omega, m, c and k") for x in (omega, m, c, k))
    f, d, e = abs(complex(check_finite(force, "force"))), k - m * (omega * omega), c * omega
    denom = d * d + e * e  # Python float products: inf, not OverflowError, past the range
    if denom == 0.0:
        raise DomainError("undamped_resonance", "response diverges at resonance")
    return check_finite(f * f / denom, "the response")


def objective(levels, upper, lower, data: SpectrumDataset, hbar: float) -> float:
    """S(E, j, k) for 1-based level indices ``upper``, ``lower``; others give ``bad_argument``."""
    e = check_array(levels, "levels", (None,))
    jk = check_array((upper, lower), "upper and lower", (2, len(data)))
    if not np.isin(jk, np.arange(1, e.size + 1)).all():
        raise DomainError("bad_argument", "level indices must lie in 1..len(levels)")
    hbar = check_positive(hbar, "bad_hbar", "hbar")
    j, k = jk.astype(int) - 1
    return float(finite(lambda: np.sum(
        data.weights * ((e[j] - e[k]) / (hbar * data.omegas) - 1.0) ** 2), "the objective"))


def _best_assignment(e: np.ndarray, data: SpectrumDataset, hbar: float):
    """Per-line transition minimizing that line's term; ties to smallest j, then k."""
    # (j, k) pairs with E_j > E_k in lexicographic order, 0-based
    j, k = np.nonzero(e[:, None] > e[None, :])
    if not j.size:
        raise DomainError("degenerate_levels", "no positive energy differences")
    with np.errstate(over="ignore"):  # an infinite term is a valid worst for the argmin
        terms = ((e[j] - e[k]) / (hbar * data.omegas[:, None]) - 1.0) ** 2
        # enforce the documented tie-break among near-equal terms: the first tied pair
        best = terms.min(axis=1, keepdims=True)
        first = np.argmax(terms <= best * (1 + 1e-12) + 1e-300, axis=1)
    return j[first] + 1, k[first] + 1


def _refit_levels(e_prev: np.ndarray, upper, lower, data: SpectrumDataset, hbar: float):
    """Weighted least squares over levels with the gauge E_1 = 0.

    Levels in connected components not tied to the gauge level keep their
    previous values; the returned flag reports that case.
    """
    n = e_prev.size
    j = upper - 1
    k = lower - 1
    # the gauge level's component of the transition graph, one layer of lines per pass
    anchored = np.arange(n) == 0
    size = 1
    while True:
        touching = anchored[j] | anchored[k]
        anchored[j[touching]] = True
        anchored[k[touching]] = True
        if (grown := np.count_nonzero(anchored)) == size:
            break
        size = grown
    flags = () if size == n else ("unidentifiable_levels",)
    free = np.flatnonzero(anchored[1:]) + 1
    if not free.size:
        return e_prev.copy(), flags
    lines = np.flatnonzero(anchored[j])  # a line in a frozen component is left out
    root_w = np.sqrt(data.weights[lines])
    scale = root_w / (hbar * data.omegas[lines])
    a = np.zeros((lines.size, n))
    a[np.arange(lines.size), j[lines]] = scale
    a[np.arange(lines.size), k[lines]] = -scale
    sol, _, rank, _ = np.linalg.lstsq(a[:, free], root_w, rcond=None)
    if rank < free.size:
        # rank-deficient inside the anchored component: keep previous values
        return e_prev.copy(), flags + ("unidentifiable_levels",)
    e_new = e_prev.copy()
    e_new[free] = sol
    return e_new, flags


def assign_lines(data: SpectrumDataset, initial: EnergyLevels, hbar: float = 1.0,
                 max_iters: int = 100) -> AssignmentSolution:
    """Alternating assignment/refit minimization of the line objective.

    Stops when the assignment repeats or after ``max_iters`` rounds,
    whichever comes first; the solution records which criterion fired.
    More than ``MAX_ASSIGN_ITERS`` rounds, ``MAX_ASSIGN_LINES`` lines, or ``MAX_ASSIGN_TERMS``
    lines x level pairs, raise ``size_cap``; a line whose hbar w, 1/(hbar w) or refit row
    scale sqrt(q)/(hbar w) leaves the float range raises ``not_finite``.
    """
    if len(initial) < 2:
        raise DomainError("too_few", "need at least two trial levels")
    max_iters = check_count(max_iters, "max_iters", 1, MAX_ASSIGN_ITERS, "bad_iters")
    check_positive(hbar, "bad_hbar", "hbar")
    n = len(initial)
    check_cap(len(data), MAX_ASSIGN_LINES, "lines")  # before any term array
    check_cap(len(data) * (n * (n - 1) // 2), MAX_ASSIGN_TERMS, "lines x level pairs")
    x = finite(lambda: hbar * data.omegas, "hbar w")
    finite(lambda: np.concatenate((1.0 / x, np.sqrt(data.weights) / x)), "a row scale")
    e = initial.values - initial.values[0]  # adopt the gauge up front
    flags: tuple = ()
    upper = lower = None
    stopped = "max_iters"
    for _ in range(max_iters):
        new_upper, new_lower = _best_assignment(e, data, hbar)
        if upper is not None and np.array_equal(new_upper, upper) \
                and np.array_equal(new_lower, lower):
            stopped = "converged"
            break
        upper, lower = new_upper, new_lower
        e, step_flags = _refit_levels(e, upper, lower, data, hbar)
        flags = tuple(dict.fromkeys(flags + step_flags))
    if stopped == "max_iters":
        # close with an assignment pass so the result matches the final levels
        upper, lower = _best_assignment(e, data, hbar)
    return AssignmentSolution(
        levels=e,
        upper=upper,
        lower=lower,
        objective=objective(e, upper, lower, data, hbar),
        stopped_on=stopped,
        flags=flags,
    )


def assign_lines_multistart(data: SpectrumDataset, initial: EnergyLevels,
                            hbar: float = 1.0, max_iters: int = 100,
                            n_starts: int = 1, scale: float = 0.01,
                            rng=None) -> AssignmentSolution:
    """Best of ``n_starts`` solves, at most ``MAX_ASSIGN_STARTS``; starts beyond the
    first perturb the trial levels by centered Gaussian noise of the given scale."""
    n_starts = check_count(n_starts, "n_starts", 1, MAX_ASSIGN_STARTS, "bad_iters")
    if check_real(scale, "scale", "bad_argument") < 0:  # -0.0 passes; numpy gets abs(scale)
        raise DomainError("bad_argument", "scale must be non-negative and finite")
    if rng is None:
        rng = np.random.default_rng(0)
    best = assign_lines(data, initial, hbar=hbar, max_iters=max_iters)
    for _ in range(n_starts - 1):
        trial = EnergyLevels(initial.values + rng.normal(0.0, abs(scale), len(initial)),
                             unit=initial.unit)
        sol = assign_lines(data, trial, hbar=hbar, max_iters=max_iters)
        if sol.objective < best.objective:
            best = sol
    return best
