"""Finite-dimensional quantum statistical mechanics.

Everything is computed in the eigenbasis of the Hermitian input (exact
for these sizes), with min-eigenvalue shifts guarding the exponentials.
Covers partition functions, Gibbs expectations, the generating
functional W(f) = -log tr e^{-f}, the Kubo inner product, the
Gibbs-Bogoliubov gap, limit resolution, and the black-body formula
suite (spectral density, displacement root, radiation constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, check_array, check_finite, check_positive, check_real, finite
from .matrixcore import _is_hermitian, as_square, eig_hermitian

__all__ = [
    "PhysicalConstants",
    "SI_CONSTANTS",
    "NATURAL_CONSTANTS",
    "GibbsState",
    "partition_function",
    "gibbs_value",
    "schottky_capacity",
    "generating_functional",
    "kubo_inner",
    "gibbs_bogoliubov_gap",
    "limit_resolution",
    "entropy_value",
    "planck_density",
    "wien_displacement_x",
    "stefan_constant",
    "entropy_of_mixing",
    "ideal_gas_pressure",
]

_EXP_GUARD = 700.0  # exp overflow threshold for float64


@dataclass(frozen=True)
class PhysicalConstants:
    """Boltzmann constant (J/K), hbar (J s), speed of light (m/s)."""

    kbar: float = 1.38065e-23
    hbar: float = 1.0545718e-34
    c: float = 2.99792458e8

    def __post_init__(self):
        for name in ("kbar", "hbar", "c"):
            check_positive(getattr(self, name), "bad_constants", name)


SI_CONSTANTS = PhysicalConstants()
NATURAL_CONSTANTS = PhysicalConstants(kbar=1.0, hbar=1.0, c=1.0)

AVOGADRO = 6.02214e23


class GibbsState:
    """Canonical state <g> = tr(e^{-beta H} g)/Z for Hermitian H."""

    def __init__(self, h, beta: float):
        self.beta = check_positive(beta, "bad_beta", "beta")
        self.h = as_square(h, "H")
        self._w, self._v = eig_hermitian(self.h)
        w = self._w
        if not math.isfinite(self.beta * (abs(float(w[0])) + abs(float(w[-1])))):
            raise DomainError("range", "beta times an energy leaves the float range")
        weights = np.exp(-self.beta * (w - w[0]))  # e^{-beta (E_n - E_0)}, ascending levels
        self._total = np.sum(weights)
        self._probs = weights / self._total
        self.log_z = -self.beta * w[0] + math.log(self._total)

    @property
    def z(self) -> float:
        """Z; the deep tail merely underflows, and only e^{-beta E_0} > e^700 raises ``range``."""
        if -self.beta * self._w[0] > _EXP_GUARD:
            raise DomainError("range", "ground-state weight overflows")
        return float(self._total * math.exp(-self.beta * self._w[0]))

    @cached_property
    def mean_energy(self) -> float:
        """<H> = tr(rho H), which ``entropy_value`` and ``liequant gibbs`` read."""
        return self.value(self.h).real

    @cached_property
    def rho(self) -> np.ndarray:
        return self._v @ np.diag(self._probs) @ self._v.conj().T

    def value(self, g) -> complex:
        g = check_finite(check_array(g, "g", self.h.shape, complex), "an entry of g")
        gt = self._v.conj().T @ g @ self._v
        return complex(np.sum(self._probs * np.diag(gt)))


def partition_function(h, beta: float) -> float:
    """Z = tr e^{-beta H} = sum_n e^{-beta E_n}, min-shifted for stability."""
    return GibbsState(h, beta).z


def gibbs_value(state: GibbsState, g) -> complex:
    """tr(rho g); real inputs give values real up to roundoff."""
    return state.value(g)


def entropy_value(state: GibbsState, kbar: float = 1.0) -> float:
    """<S> = kbar (beta <H> + log Z), nonnegative at finite level count."""
    return check_real(kbar, "kbar") * (state.beta * state.mean_energy + state.log_z)


def schottky_capacity(e_gap: float, temperature: float,
                      consts: PhysicalConstants = NATURAL_CONSTANTS) -> float:
    """Two-level heat capacity C = kbar x^2 e^x / (e^x+1)^2, x = E/kbar T.

    A non-finite E raises ``not_finite``; C is 0.0 where e^x/(e^x+1)^2 underflows.
    """
    temperature = check_positive(temperature, "bad_temperature", "T")
    # x in two divisions, as kbar T may underflow to 0; floats, as a numpy scalar would warn
    x = check_real(e_gap, "e_gap") / consts.kbar / temperature
    # e^x/(e^x+1)^2 = (2 cosh(x/2))^{-2}, computed via decaying exponentials
    t = math.exp(-abs(x) / 2.0)
    sech_half = t / (1.0 + t * t)
    return consts.kbar * (x * sech_half) ** 2 if sech_half else 0.0  # x may be inf


def generating_functional(f) -> float:
    """W(f) = -log tr e^{-f} for Hermitian f, evaluated in log space."""
    return float(0.0 - GibbsState(f, 1.0).log_z)  # not -log Z: W stays +0.0 when log Z is 0


def _phi_grid(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x elementwise, with a 6-term series below 1e-4."""
    small = np.abs(x) < 1e-4
    series = 1.0 + x * (1 / 2 + x * (1 / 6 + x * (1 / 24 + x * (1 / 120 + x / 720))))
    safe = np.where(small, 1.0, x)
    return np.where(small, series, np.expm1(safe) / safe)


def kubo_inner(f, g, h) -> complex:
    """Kubo product <g; h>_f = <g E_f h>_f with E_f h = int_0^1 e^{-sf} h e^{sf} ds.

    In the eigenbasis of f the smoothing kernel is entrywise:
    (E_f h)_{mn} = h_{mn} phi(lambda_n - lambda_m), so the product is
    sum_mn g_mn h_nm p_m phi(lambda_m - lambda_n).  Since p_m phi(lambda_m -
    lambda_n) = p_n phi(lambda_n - lambda_m), the kernel is taken as
    max(p_m, p_n) phi(-|lambda_m - lambda_n|), which lies in (0, 1] and
    cannot overflow (Kubo, J. Phys. Soc. Jpn. 12, 570, 1957).
    """
    state = GibbsState(f, 1.0)
    g, h = (check_finite(check_array(v, "g and h", state.h.shape, complex), "g and h") for v in (g, h))
    w, v, p = state._w, state._v, state._probs
    gt = v.conj().T @ g @ v
    ht = v.conj().T @ h @ v
    kernel = np.maximum(p[:, None], p[None, :]) * _phi_grid(-np.abs(w[:, None] - w[None, :]))
    return complex(finite(lambda: np.sum(gt * ht.T * kernel), "the Kubo product"))


def gibbs_bogoliubov_gap(f, g) -> float:
    """W(f) + <g - f>_f - W(g); nonnegative, zero iff g - f is constant."""
    state = GibbsState(f, 1.0)  # the state's log Z also gives W(f)
    g = check_finite(check_array(g, "g", state.h.shape, complex), "an entry of g")
    return float(0.0 - state.log_z) + state.value(g - state.h).real - generating_functional(g)


def limit_resolution(state: GibbsState, g) -> float:
    """res(g) = sqrt(<g^2>/<g>^2 - 1); rejects vanishing mean."""
    g = as_square(g, "g")
    if not _is_hermitian(g):
        raise DomainError("not_hermitian", "limit resolution needs Hermitian g")
    mean = state.value(g).real
    if abs(mean) <= 1e-12:
        raise DomainError("zero_mean", "resolution undefined for <g> = 0")
    second = state.value(finite(lambda: g @ g, "g squared")).real
    return math.sqrt(max(second / mean**2 - 1.0, 0.0))


# ---------------------------------------------------------------------------
# black-body formulas


def planck_density(omega: float, temperature: float, volume: float,
                   consts: PhysicalConstants = SI_CONSTANTS) -> float:
    """Spectral energy density f(w) = (V hbar / pi^2 c^3) w^3 / (e^{hbar w beta} - 1)."""
    check_positive(omega, "bad_argument", "omega")
    check_positive(temperature, "bad_argument", "T")
    check_real(volume, "V", "bad_argument")
    try:
        beta = 1.0 / (consts.kbar * temperature)
        x = consts.hbar * omega * beta
        if x > _EXP_GUARD:
            return 0.0
        value = (volume * consts.hbar / (math.pi**2 * consts.c**3)) * omega**3 / math.expm1(x)
    except (OverflowError, ZeroDivisionError):  # a power or a quotient past the float range
        value = math.inf
    return check_finite(value, "the spectral density")


def wien_displacement_x() -> float:
    """Positive root of 3 - x = 3 e^{-x} by Newton iteration from x0 = 3."""
    x = 3.0
    for _ in range(60):
        fx = 3.0 - x - 3.0 * math.exp(-x)
        if abs(fx) <= 1e-15:
            break
        dfx = -1.0 + 3.0 * math.exp(-x)
        x -= fx / dfx
    return x


def stefan_constant(consts: PhysicalConstants = SI_CONSTANTS) -> float:
    """sigma = pi^2 kbar^4 / (60 hbar^3 c^2) in J s^-1 m^-2 K^-4."""
    try:
        sigma = math.pi**2 * consts.kbar**4 / (60.0 * consts.hbar**3 * consts.c**2)
    except (OverflowError, ZeroDivisionError):  # a power or a quotient past the float range
        sigma = math.inf
    return check_finite(sigma, "the radiation constant")


def entropy_of_mixing(fractions, n_moles: float,
                      consts: PhysicalConstants = NATURAL_CONSTANTS) -> float:
    """kbar N_c sum x_j log x_j (nonpositive; its negation is the mixing gain)."""
    x = check_array(fractions, "fractions", (None,))
    if not (np.all(x > 0) and abs(float(np.sum(x)) - 1.0) <= 1e-12):  # NaN fails both
        raise DomainError("bad_fractions", "need positive fractions summing to 1")
    return check_finite(consts.kbar * check_real(n_moles, "N") * float(np.sum(x * np.log(x))), "S")


def ideal_gas_pressure(temperature: float, volume: float,
                       consts: PhysicalConstants = SI_CONSTANTS) -> float:
    """One-mole ideal gas law P = R T / V with R = kbar * Avogadro."""
    temperature = check_positive(temperature, "bad_argument", "T")
    volume = check_positive(volume, "bad_argument", "V")
    return check_finite(consts.kbar * AVOGADRO * temperature / volume, "the pressure")
