"""Truncated bosonic Fock space and rank-one highest-weight ladders.

The level basis |0>, ..., |dim-1> is the unnormalized one in which the
ladder operators act as a|k> = hbar |k-1> and a*|k-1> = k |k>, with the
diagonal metric <k|k> = hbar^k / k!.  An orthonormal view (the familiar
sqrt(hbar k) ladder matrices) is exposed for eigenvalue work.  All
commutation statements hold away from the truncation boundary, i.e. on
levels 0..dim-2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
import numpy as np

from .errors import DomainError
from .matrixcore import eig_hermitian, kron_embed

__all__ = [
    "HBAR_SI",
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
]

# hbar = h / (2 pi) with h ~ 6.626e-34 J s
HBAR_SI = 1.0545718e-34


@dataclass(frozen=True)
class BosonFock:
    """Single-mode bosonic Fock space truncated to ``dim`` levels."""

    dim: int
    hbar: float
    a: np.ndarray
    a_dag: np.ndarray
    n: np.ndarray
    metric: np.ndarray  # diagonal weights <k|k> = hbar^k / k!

    def inner(self, phi, psi) -> complex:
        """Weighted inner product sum_k (hbar^k/k!) conj(phi_k) psi_k."""
        phi = np.asarray(phi, dtype=complex)
        psi = np.asarray(psi, dtype=complex)
        return complex(np.sum(self.metric * np.conj(phi) * psi))

    def orthonormal_view(self, op) -> np.ndarray:
        """Matrix of ``op`` in the orthonormalized level basis.

        With weights w_k = hbar^k/k! the entry map is
        op[j, k] -> op[j, k] sqrt(w_j / w_k).
        """
        s = np.sqrt(self.metric)
        return (op * (s[:, np.newaxis] / s[np.newaxis, :])).astype(complex)

    def expectation(self, op, psi) -> complex:
        psi = np.asarray(psi, dtype=complex)
        return self.inner(psi, op @ psi) / self.inner(psi, psi)


def build_fock(dim: int, hbar: float = 1.0) -> BosonFock:
    """Ladder matrices on the truncated unnormalized level basis."""
    if dim < 2:
        raise DomainError("too_small", "need at least two levels")
    if not 0 < hbar < math.inf:  # also rejects NaN
        raise DomainError("bad_hbar", "hbar must be positive and finite")
    a = np.zeros((dim, dim), dtype=complex)
    a_dag = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        a[k - 1, k] = hbar
        a_dag[k, k - 1] = k
    n = np.diag(np.arange(dim, dtype=float)).astype(complex)
    metric = np.array([hbar**k / math.factorial(k) for k in range(dim)])
    for arr in (a, a_dag, n, metric):
        arr.flags.writeable = False
    return BosonFock(dim, float(hbar), a, a_dag, n, metric)


def tensor_modes(focks) -> list:
    """Per-mode ladder pairs (a_i, a*_i) on the tensor product of the spaces.

    Supports up to three modes; mode i acts as identity on every other
    factor, so mixed commutators vanish identically and each pair obeys
    its own single-mode relations away from that factor's top level.
    """
    focks = list(focks)
    if not 1 <= len(focks) <= 3:
        raise DomainError("mode_cap", "tensor products support 1..3 modes")
    dims = [f.dim for f in focks]
    return [(kron_embed(f.a, i, dims), kron_embed(f.a_dag, i, dims)) for i, f in enumerate(focks)]


def oscillator_spectrum(f: BosonFock, omega: float, count: int) -> np.ndarray:
    """First ``count`` eigenvalues of H = omega a* a (multiples of hbar omega).

    The top level is excluded as a truncation artifact, so ``count`` may
    be at most ``dim - 1``.
    """
    if count > f.dim - 1:
        raise DomainError("truncation", f"only {f.dim - 1} levels are trustworthy")
    h = omega * f.orthonormal_view(f.a_dag @ f.a)
    w, _ = eig_hermitian(h)
    return w[:count]


@dataclass(frozen=True)
class CoherentState:
    """Geometric-coefficient state with psi_k = conj(lam) conj(z)^k."""

    lam: complex
    z: complex
    dim: int

    def __post_init__(self):
        if not (cmath.isfinite(self.lam) and cmath.isfinite(self.z)):
            raise DomainError("not_finite", "lam and z must be finite")

    @property
    def coeffs(self) -> np.ndarray:
        lam_bar = np.conj(complex(self.lam))
        z_bar = np.conj(complex(self.z))
        return lam_bar * z_bar ** np.arange(self.dim)


def _check_truncation(dim: int, hbar: float, z1: complex, z2: complex):
    tail = abs(hbar * z1 * np.conj(z2)) ** dim / math.factorial(dim)
    if tail > 1e-14:
        raise DomainError("truncation", f"dim {dim} too small, tail {tail:.2e}")


def coherent_inner(s1: CoherentState, s2: CoherentState, hbar: float = 1.0) -> complex:
    """<s1|s2> = lam1 conj(lam2) exp(hbar z1 conj(z2)), via the truncated sum.

    Raises ``truncation`` when the dropped tail of the exponential series
    exceeds 1e-14.
    """
    if s1.dim != s2.dim:
        raise DomainError("shape", "coherent states of different truncation")
    _check_truncation(s1.dim, hbar, complex(s1.z), complex(s2.z))
    f = build_fock(s1.dim, hbar)
    return f.inner(s1.coeffs, s2.coeffs)


def evolve_coherent(s: CoherentState, omega: float, t: float) -> CoherentState:
    """Harmonic evolution moves |lam, z> to |lam, z e^{-i omega t}>."""
    if not math.isfinite(omega * t):
        raise DomainError("not_finite", "omega t must be finite")
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
        if not 0 < self.hbar < math.inf:  # also rejects NaN
            raise DomainError("bad_hbar", "hbar must be positive and finite")
        if not all(math.isfinite(x) for x in (self.u, self.v, self.alpha)):
            raise DomainError("bad_argument", "u, v and alpha must be finite")


@dataclass(frozen=True)
class FiniteVerdict:
    dim: int


@dataclass(frozen=True)
class InfiniteVerdict:
    levels_checked: int


def _lowering_coefficient(d: HWData, k: int) -> float:
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

    Returns ``(a, a_dag, h, verdict)``.
    """
    if max_levels < 1:
        raise DomainError("bad_levels", "max_levels must be at least 1")
    verdict = None
    dim = max_levels
    for j in range(1, max_levels + 1):
        c_j = _lowering_coefficient(d, j)
        scale = abs(d.v) + abs(d.u * d.hbar * d.alpha) + 0.5 * abs(d.u * d.hbar) * j
        if abs(c_j) <= 1e-12 * max(1.0, scale):
            verdict = FiniteVerdict(j)
            dim = j
            break
        if c_j < 0:
            raise DomainError("no_unitary_rep", f"norm turns negative at level {j}")
    if verdict is None:
        verdict = InfiniteVerdict(max_levels)
    a = np.zeros((dim, dim))
    a_dag = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = _lowering_coefficient(d, k)
        a_dag[k, k - 1] = d.hbar * k
    h = np.diag([d.hbar * (k + d.alpha + 0.5) for k in range(dim)])
    return a, a_dag, h, verdict


def case2_alpha(j_m: int, u: float, v: float, hbar: float = 1.0) -> float:
    """The u < 0 weight for which the ladder closes after j_m + 1 levels."""
    if u >= 0:
        raise DomainError("bad_case", "finite ladders require u < 0")
    return -(j_m + 1) / 2.0 - v / (hbar * u)


__all__.append("case2_alpha")
