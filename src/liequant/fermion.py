"""Fermionic Fock space over n ordered modes.

Basis states are the 2^n subsets J of {1..n}, enumerated by binary
counting (bit i set means mode i+1 occupied).  Creation/annihilation
carry the parity sign eps_j(J) = +1 iff an even number of indices in J
is smaller than j; with that sign all anticommutators are exact in
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matrixcore import anticommutator

__all__ = [
    "epsilon",
    "FermionFock",
    "build_fermion",
    "car_residual",
    "number_spectrum",
]

MAX_MODES = 12  # 2^n basis states; keep matrices dense and small


def epsilon(j: int, subset) -> int:
    """Parity sign: +1 iff J contains an even number of indices below j."""
    below = sum(1 for i in subset if i < j)
    return 1 if below % 2 == 0 else -1


def _epsilon_mask(j: int, mask: int) -> int:
    below = (mask & ((1 << (j - 1)) - 1)).bit_count()
    return 1 if below % 2 == 0 else -1


@dataclass(frozen=True)
class FermionFock:
    """All 2^n_modes occupation states with per-mode ladder matrices."""

    n_modes: int
    a: tuple      # a[j-1] annihilates mode j
    a_dag: tuple
    hbar: float = 1.0

    @property
    def dim(self) -> int:
        return 2**self.n_modes

    def basis_subset(self, index: int) -> tuple:
        """Occupied mode labels of basis state ``index`` (sorted)."""
        return tuple(i + 1 for i in range(self.n_modes) if index >> i & 1)

    def smeared(self, u, dagger: bool = False) -> np.ndarray:
        """a(u) = sum_j u_j a_j  (or sum_j u_j a*_j with dagger=True)."""
        u = np.asarray(u)
        if u.shape != (self.n_modes,):
            raise DomainError("shape", "one coefficient per mode required")
        ops = self.a_dag if dagger else self.a
        return sum(u[j] * ops[j] for j in range(self.n_modes))


def build_fermion(n_modes: int, hbar: float = 1.0) -> FermionFock:
    """Ladder matrices a_j, a*_j on the 2^n occupation basis.

    With the default hbar = 1 every anticommutator is integer-exact; a
    different scale multiplies the creation operators, turning the mixed
    anticommutator into {a_j, a*_k} = hbar delta_jk.
    """
    if not 1 <= n_modes <= MAX_MODES:
        raise DomainError("size_cap", f"n_modes must be in 1..{MAX_MODES}")
    if hbar <= 0:
        raise DomainError("bad_hbar", "hbar must be positive")
    dim = 2**n_modes
    ann, cre = [], []
    for j in range(1, n_modes + 1):
        bit = 1 << (j - 1)
        aj = np.zeros((dim, dim))
        for mask in range(dim):
            if mask & bit:
                aj[mask ^ bit, mask] = _epsilon_mask(j, mask)
        aj.flags.writeable = False
        adj = (hbar * aj.T) if hbar != 1.0 else aj.T.copy()
        adj.flags.writeable = False
        ann.append(aj)
        cre.append(adj)
    return FermionFock(n_modes, tuple(ann), tuple(cre), float(hbar))


def car_residual(f: FermionFock) -> float:
    """Max deviation over {a_j,a_k}, {a*_j,a*_k}, {a_j,a*_k} - hbar delta_jk."""
    eye = f.hbar * np.eye(f.dim)
    worst = 0.0
    for j in range(f.n_modes):
        for k in range(f.n_modes):
            worst = max(worst, float(np.max(np.abs(anticommutator(f.a[j], f.a[k])))))
            worst = max(worst, float(np.max(np.abs(anticommutator(f.a_dag[j], f.a_dag[k])))))
            target = eye if j == k else 0.0
            dev = anticommutator(f.a[j], f.a_dag[k]) - target
            worst = max(worst, float(np.max(np.abs(dev))))
    return worst


def number_spectrum(f: FermionFock, j: int) -> np.ndarray:
    """Sorted eigenvalues of n_j = a*_j a_j / hbar (occupation of mode j)."""
    if not 1 <= j <= f.n_modes:
        raise DomainError("bad_mode", f"mode must be in 1..{f.n_modes}")
    nj = f.a_dag[j - 1] @ f.a[j - 1] / f.hbar
    return np.sort(np.diag(nj).real)
