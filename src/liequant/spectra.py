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

from .errors import (MAX_ASSIGN_LINES, MAX_ASSIGN_TERMS, MAX_KMAX, DomainError, check_cap,
                     check_positive, finite)

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
    """Ascending energy list with a unit tag; near-duplicates are merged."""

    values: np.ndarray
    unit: str = "J"

    def __init__(self, values, unit: str = "J"):
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("shape", "need a nonempty 1-d level list")
        # sorted, so a NaN (last) or an infinite end makes the span non-finite too
        span = float(finite(lambda: vals[-1] - vals[0], "the level span"))
        merged = [vals[0]]
        for v in vals[1:]:
            if v - merged[-1] > 1e-12 * max(span, 1e-300):
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
        om = np.asarray(omegas, dtype=float)
        wt = np.ones_like(om) if weights is None else np.asarray(weights, dtype=float)
        if om.ndim != 1 or om.shape != wt.shape:
            raise DomainError("shape", "omegas and weights must be equal-length vectors")
        if not (np.all((0 < om) & (om < np.inf)) and np.all((0 < wt) & (wt < np.inf))):
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
    e = levels.values
    j, k = np.tril_indices(e.size, -1)
    return np.sort((e[j] - e[k]) / hbar)


def rydberg_lines(k_max: int, r_h: float = RYDBERG_CONSTANT):
    """Hydrogen-like wavenumbers R_H (1/k^2 - 1/l^2) for k < l <= k_max.

    Returns a list of (k, l, value) triples; values carry the unit of
    ``r_h`` (1/m by default).
    """
    if k_max < 2:
        raise DomainError("too_few", "k_max must be at least 2")
    check_cap(k_max, MAX_KMAX, "k_max")
    if not np.isfinite(r_h):
        raise DomainError("bad_argument", "r_h must be finite")
    k, l = np.triu_indices(k_max, 1)
    k, l = k + 1, l + 1
    w = r_h * (1.0 / k**2 - 1.0 / l**2)
    return list(zip(k.tolist(), l.tolist(), w.tolist()))


def lorentz_response(force: complex, omega: float, m: float, c: float, k: float) -> float:
    """Driven-oscillator energy |F|^2 / ((k - m w^2)^2 + (c w)^2)."""
    denom = (k - m * omega**2) ** 2 + (c * omega) ** 2
    if denom == 0.0:
        raise DomainError("undamped_resonance", "response diverges at resonance")
    return abs(force) ** 2 / denom


def objective(levels, upper, lower, data: SpectrumDataset, hbar: float) -> float:
    e = np.asarray(levels, dtype=float)
    ratio = (e[np.asarray(upper) - 1] - e[np.asarray(lower) - 1]) / (hbar * data.omegas)
    return float(np.sum(data.weights * (ratio - 1.0) ** 2))


def _best_assignment(e: np.ndarray, data: SpectrumDataset, hbar: float):
    """Per-line transition minimizing that line's term; ties to smallest j, then k."""
    # (j, k) pairs with E_j > E_k in lexicographic order, 0-based
    j, k = np.nonzero(e[:, None] > e[None, :])
    if not j.size:
        raise DomainError("degenerate_levels", "no positive energy differences")
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
    j = np.asarray(upper) - 1
    k = np.asarray(lower) - 1
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
    More than ``MAX_ASSIGN_LINES`` lines, or ``MAX_ASSIGN_TERMS`` lines x
    level pairs, raise ``size_cap``; a line whose hbar w, 1/(hbar w) or
    refit row scale sqrt(q)/(hbar w) leaves the float range raises ``not_finite``.
    """
    if len(initial) < 2:
        raise DomainError("too_few", "need at least two trial levels")
    if max_iters < 1:
        raise DomainError("bad_iters", "max_iters must be at least 1")
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
    """Best of ``n_starts`` solves; starts beyond the first perturb the
    trial levels by centered Gaussian noise of the given scale."""
    if n_starts < 1:
        raise DomainError("bad_iters", "need at least one start")
    if not 0 <= scale < np.inf:  # also rejects NaN
        raise DomainError("bad_argument", "scale must be non-negative and finite")
    if rng is None:
        rng = np.random.default_rng(0)
    best = assign_lines(data, initial, hbar=hbar, max_iters=max_iters)
    for _ in range(n_starts - 1):
        trial = EnergyLevels(initial.values + rng.normal(0.0, scale, len(initial)),
                             unit=initial.unit)
        sol = assign_lines(data, trial, hbar=hbar, max_iters=max_iters)
        if sol.objective < best.objective:
            best = sol
    return best
