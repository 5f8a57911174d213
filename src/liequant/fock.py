"""Truncated bosonic Fock space and rank-one highest-weight ladders.

The level basis |0>, ..., |dim-1> is the unnormalized one in which the
ladder operators act as a|k> = hbar |k-1> and a*|k-1> = k |k>, with the
diagonal metric <k|k> = hbar^k / k!.  Every operator follows from
(dim, hbar): dense matrices are built only when first read, and the
oscillator spectrum is the closed form omega hbar k.  An orthonormal view
(the familiar sqrt(hbar k) ladder matrices) is exposed for eigenvalue
work.  All commutation statements hold away from the truncation
boundary, i.e. on levels 0..dim-2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (MAX_LEVELS, DomainError, check_array, check_cap, check_count, check_finite,
                     check_positive, check_real, finite)
from .matrixcore import kron_embed

__all__ = [
    "BosonFock",
    "build_fock",
    "tensor_modes",
    "oscillator_spectrum",
    "CoherentState",
    "coherent_inner",
    "evolve_coherent",
    "HWData",
    "FiniteVerdict",
    "InfiniteVerdict",
    "build_highest_weight",
    "case2_alpha",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BosonFock:
    """Single-mode bosonic Fock space truncated to ``dim`` levels."""

    dim: int
    hbar: float

    @cached_property
    def a(self) -> np.ndarray:
        """Dense a with a|k> = hbar |k-1> (read-only, complex)."""
        return _frozen(np.diag(np.full(self.dim - 1, self.hbar, dtype=complex), 1))

    @cached_property
    def a_dag(self) -> np.ndarray:
        """Dense a* with a*|k-1> = k |k> (read-only, complex)."""
        return _frozen(np.diag(np.arange(1, self.dim, dtype=complex), -1))

    @cached_property
    def n(self) -> np.ndarray:
        """Dense number operator diag(0, ..., dim-1) (read-only, complex)."""
        return _frozen(np.diag(np.arange(self.dim, dtype=complex)))

    @cached_property
    def metric(self) -> np.ndarray:
        """Weights <k|k> = hbar^k / k! as written while hbar^k and k! are floats,
        then w_k = w_{k-1} hbar / k (read-only); ``not_finite`` if one overflows."""
        head = []
        for k in range(self.dim):  # stops by k = 171, where k! leaves the float range
            try:
                head.append(self.hbar**k / math.factorial(k))
            except OverflowError:
                break
        steps = np.concatenate(([head[-1]], self.hbar / np.arange(len(head), self.dim)))
        return _frozen(finite(lambda: np.concatenate((head, np.cumprod(steps)[1:])), "a weight"))

    def inner(self, phi, psi) -> complex:
        """Weighted inner product sum_k (hbar^k/k!) conj(phi_k) psi_k of two dim-vectors."""
        phi, psi = (check_array(v, "phi and psi", (self.dim,), complex) for v in (phi, psi))
        return complex(finite(lambda: np.sum(self.metric * np.conj(phi) * psi), "the product"))

    def orthonormal_view(self, op) -> np.ndarray:
        """Matrix of ``op`` in the orthonormalized level basis.

        With weights w_k = hbar^k/k! the entry map is op[j, k] ->
        op[j, k] sqrt(w_j / w_k); weights that underflow to 0 raise ``not_finite``.
        """
        op = check_array(op, "op", (self.dim, self.dim), complex)
        s = np.sqrt(self.metric)
        return finite(lambda: op * (s[:, np.newaxis] / s[np.newaxis, :]), "the orthonormal view")

    def expectation(self, op, psi) -> complex:
        """<psi|op psi> / <psi|psi>; ``bad_argument`` when <psi|psi> is 0."""
        op = check_array(op, "op", (self.dim, self.dim), complex)
        if (norm := self.inner(psi, psi)) == 0:  # inner reads psi
            raise DomainError("bad_argument", "psi has norm 0")
        return finite(lambda: self.inner(psi, op @ psi) / norm, "the expectation")


def build_fock(dim: int, hbar: float = 1.0) -> BosonFock:
    """Truncated level space; the ladder matrices are built on first access."""
    dim = check_count(dim, "dim", 2, MAX_LEVELS, "too_small")
    return BosonFock(dim, check_positive(hbar, "bad_hbar", "hbar"))


def tensor_modes(focks) -> list:
    """Per-mode ladder pairs (a_i, a*_i) on the tensor product of the spaces.

    Supports up to three modes and MAX_LEVELS product levels; mode i acts
    as identity on every other factor, so mixed commutators vanish
    identically and each pair obeys its own single-mode relations away
    from that factor's top level.
    """
    focks = list(focks)
    if not 1 <= len(focks) <= 3:
        raise DomainError("mode_cap", "tensor products support 1..3 modes")
    dims = [f.dim for f in focks]
    check_cap(math.prod(dims), MAX_LEVELS, "the product of dims")
    return [(kron_embed(f.a, i, dims), kron_embed(f.a_dag, i, dims)) for i, f in enumerate(focks)]


def oscillator_spectrum(f: BosonFock, omega: float, count: int) -> np.ndarray:
    """First ``count`` eigenvalues of H = omega a* a, in ascending order.

    In the orthonormal basis H is diagonal with entries omega hbar k.  The
    top level is excluded as a truncation artifact, so ``count`` may be at
    most ``dim - 1``.
    """
    count = check_count(count, "count")
    check_cap(count, f.dim - 1, "count (trustworthy levels)", "truncation")
    omega = check_real(omega, "omega")
    return finite(lambda: np.sort(omega * (f.hbar * np.arange(f.dim - 1))), "omega hbar k")[:count]


@dataclass(frozen=True)
class CoherentState:
    """Geometric-coefficient state with psi_k = conj(lam) conj(z)^k."""

    lam: complex
    z: complex
    dim: int

    def __post_init__(self):
        check_count(self.dim, "dim", 0, MAX_LEVELS, "too_small")
        check_finite(self.lam, "lam")
        check_finite(self.z, "z")

    @property
    def coeffs(self) -> np.ndarray:
        lam_bar = np.conj(complex(self.lam))
        z_bar = np.conj(complex(self.z))
        return finite(lambda: lam_bar * z_bar ** np.arange(self.dim), "a coefficient lam z^k")


def _check_truncation(dim: int, hbar: float, z1: complex, z2: complex):
    """Raise ``truncation`` when the dropped tail |hbar z1 conj(z2)|^dim / dim! exceeds 1e-14.

    The test runs in log space, so neither the power nor the factorial overflows.
    """
    with np.errstate(all="ignore"):
        log_x = np.log(np.abs(hbar * z1 * np.conj(z2)))
    log_tail = dim * log_x - math.lgamma(dim + 1) if dim else 0.0  # x^0 / 0! = 1
    if log_tail > math.log(1e-14):
        raise DomainError("truncation", f"dim {dim} too small, tail e^{log_tail:.1f}")


def coherent_inner(s1: CoherentState, s2: CoherentState, hbar: float = 1.0) -> complex:
    """<s1|s2> = lam1 conj(lam2) exp(hbar z1 conj(z2)), via the truncated sum.

    Raises ``truncation`` when the dropped tail of the exponential series
    exceeds 1e-14, and ``not_finite`` when the sum leaves the float range.
    """
    if s1.dim != s2.dim:
        raise DomainError("shape", "coherent states of different truncation")
    _check_truncation(s1.dim, check_real(hbar, "hbar", "bad_hbar"), complex(s1.z), complex(s2.z))
    f = build_fock(s1.dim, hbar)
    return f.inner(s1.coeffs, s2.coeffs)


def evolve_coherent(s: CoherentState, omega: float, t: float) -> CoherentState:
    """Harmonic evolution moves |lam, z> to |lam, z e^{-i omega t}>."""
    omega, t = check_real(omega, "omega"), check_real(t, "t")
    check_finite(omega * t, "omega t")
    return CoherentState(s.lam, s.z * np.exp(-1j * omega * t), s.dim)


# ---------------------------------------------------------------------------
# highest-weight ladders of rank and degree one


@dataclass(frozen=True)
class HWData:
    """Bracket data [a,h] = hbar a, [a*,h] = -hbar a*, [a,a*] = hbar(u h + v)."""

    u: float
    v: float
    alpha: float
    hbar: float = 1.0

    def __post_init__(self):
        check_positive(self.hbar, "bad_hbar", "hbar")
        for name in ("u", "v", "alpha"):
            check_real(getattr(self, name), name, "bad_argument")


@dataclass(frozen=True)
class FiniteVerdict:
    dim: int


@dataclass(frozen=True)
class InfiniteVerdict:
    levels_checked: int


def _lowering_coefficient(d: HWData, k):
    # a|k> = c_k |k-1>; the telescoped solution of the bracket relations
    return d.u * d.hbar * d.alpha + d.v + 0.5 * d.u * d.hbar * k


def build_highest_weight(d: HWData, max_levels: int):
    """Construct the ladder representation from the norm recursion.

    Level norms follow N_0 = 1, j hbar N_j = c_j N_{j-1} with the lowering
    coefficient c_j above.  A zero c_j terminates the ladder: the verdict
    is ``FiniteVerdict(j)`` and the returned matrices act on the j retained
    levels, where all three bracket relations hold with no boundary
    artifact.  All-positive norms up to ``max_levels`` give
    ``InfiniteVerdict``; a sign flip means no unitary representation
    exists and raises ``no_unitary_rep`` carrying the offending level.
    Coefficients outside the float range raise ``not_finite``.

    Returns ``(a, a_dag, h, verdict)``.
    """
    max_levels = check_count(max_levels, "max_levels", 1, MAX_LEVELS, "bad_levels")
    j = np.arange(1, max_levels + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        c = _lowering_coefficient(d, j)
        scale = abs(d.v) + abs(d.u * d.hbar * d.alpha) + 0.5 * abs(d.u * d.hbar) * j
        zero = np.abs(c) <= 1e-12 * np.maximum(1.0, scale)
        stops = np.flatnonzero(zero | (c < 0))
        dim = int(stops[0]) + 1 if stops.size else max_levels
        raising = d.hbar * j[:dim - 1]
        weights = d.hbar * (np.arange(dim) + d.alpha + 0.5)
    check_finite(np.concatenate((c[:dim], scale[:dim], raising, weights)), "a ladder coefficient")
    if stops.size and not zero[dim - 1]:
        raise DomainError("no_unitary_rep", f"norm turns negative at level {dim}")
    verdict = FiniteVerdict(dim) if stops.size else InfiniteVerdict(max_levels)
    return np.diag(c[:dim - 1], 1), np.diag(raising, -1), np.diag(weights), verdict


def case2_alpha(j_m: int, u: float, v: float, hbar: float = 1.0) -> float:
    """The u < 0 weight for which the ladder closes after j_m + 1 levels."""
    j_m = check_count(j_m, "j_m", 0, sys.float_info.max)  # past it, / raises OverflowError
    hbar = check_positive(hbar, "bad_hbar", "hbar")
    if not check_real(u, "u", "bad_case") < 0:  # NaN and inf too
        raise DomainError("bad_case", "finite ladders require u < 0")
    v = check_real(v, "v")
    # v / (hbar u) in numpy, so that hbar u underflowing to 0 is not_finite, not ZeroDivisionError
    return float(finite(lambda: -(j_m + 1) / 2.0 - np.float64(v) / (hbar * u), "alpha"))
