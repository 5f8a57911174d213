"""Fermionic Fock space over n ordered modes.

Basis states are the 2^n subsets J of {1..n}, enumerated by binary
counting (bit i set means mode i+1 occupied).  Creation/annihilation
carry the parity sign eps_j(J) = +1 iff an even number of indices in J
is smaller than j; with that sign all anticommutators are exact in
integer arithmetic.  Each a_j is a signed partial permutation (Jordan-
Wigner), one row of a sign table; dense matrices are built on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MAX_MODES, check_array, check_cap, check_count, check_finite, check_positive

__all__ = [
    "epsilon",
    "FermionFock",
    "build_fermion",
    "car_residual",
    "number_spectrum",
]


def epsilon(j: int, subset) -> int:
    """Parity sign: +1 iff J contains an even number of indices below j."""
    below = sum(1 for i in subset if i < j)
    return 1 if below % 2 == 0 else -1


def _flips(n_modes: int) -> np.ndarray:
    """(n, 2^n) table of mask ^ bit_j: the state a_j or a*_j moves mask to."""
    return np.arange(2**n_modes) ^ (1 << np.arange(n_modes))[:, None]


@dataclass(frozen=True)
class FermionFock:
    """2^n_modes occupation states; a_j |mask> = signs[j-1, mask] |mask ^ bit_j>."""

    n_modes: int
    signs: np.ndarray  # read-only int8 (n, 2^n): eps_j(mask) if mode j is occupied, else 0
    hbar: float = 1.0

    @property
    def dim(self) -> int:
        return 2**self.n_modes

    @cached_property
    def a(self) -> np.ndarray:
        """Dense a_j matrices, a[j-1] annihilates mode j (read-only)."""
        dense = np.zeros((self.n_modes, self.dim, self.dim))
        dense[np.arange(self.n_modes)[:, None], _flips(self.n_modes), np.arange(self.dim)] = self.signs
        dense.flags.writeable = False
        return dense

    @cached_property
    def a_dag(self) -> np.ndarray:
        """Dense a*_j = hbar a_j^T (read-only)."""
        dense = self.hbar * self.a.transpose(0, 2, 1)
        dense.flags.writeable = False
        return dense

    def basis_subset(self, index: int) -> tuple:
        """Occupied mode labels of basis state ``index`` (sorted)."""
        return tuple(i + 1 for i in range(self.n_modes) if index >> i & 1)

    def smeared(self, u, dagger: bool = False) -> np.ndarray:
        """a(u) = sum_j u_j a_j  (or sum_j u_j a*_j with dagger=True), complex."""
        u = check_finite(check_array(u, "u", (self.n_modes,), complex), "an entry of u")
        return np.tensordot(u, self.a_dag if dagger else self.a, axes=1)


def build_fermion(n_modes: int, hbar: float = 1.0) -> FermionFock:
    """Sign table of a_j, a*_j on the 2^n occupation basis.

    With the default hbar = 1 every anticommutator is integer-exact; a
    different scale multiplies the creation operators, turning the mixed
    anticommutator into {a_j, a*_k} = hbar delta_jk.
    """
    n_modes = check_count(n_modes, "n_modes", 1, MAX_MODES, "size_cap")
    hbar = check_positive(hbar, "bad_hbar", "hbar")
    occ = np.arange(2**n_modes) >> np.arange(n_modes)[:, None] & 1
    below = np.cumsum(occ, axis=0) - occ  # occupied modes below j
    signs = (occ * (1 - 2 * (below & 1))).astype(np.int8)
    signs.flags.writeable = False
    return FermionFock(n_modes, signs, hbar)


def car_residual(f: FermionFock) -> float:
    """Max deviation over {a_j,a_k}, {a*_j,a*_k}, {a_j,a*_k} - hbar delta_jk.

    Both products of an anticommutator send |mask> to one basis state, so each
    entry is a sum of two sign products (exact); {a*_j,a*_k} = hbar^2 {a_k,a_j}^T.
    """
    s, flips, modes = f.signs, _flips(f.n_modes), np.arange(f.n_modes)
    at = s[:, flips]  # at[j, k, mask] = s_j[mask ^ bit_k]
    own = at[modes, modes]  # own[k, mask] = s_k[mask ^ bit_k]
    # coefficients of {a_j, a_k} |mask> and of {a_j, a*_k} |mask> / hbar - delta_jk
    pair = at * s + at.transpose(1, 0, 2) * s[:, None]
    mixed = at * own + s[:, None] * own[:, flips].transpose(1, 0, 2)
    mixed[modes, modes] -= 1
    worst = float(np.max(np.abs(pair)))
    return max(worst, f.hbar * f.hbar * worst, f.hbar * float(np.max(np.abs(mixed))))


def number_spectrum(f: FermionFock, j: int) -> np.ndarray:
    """Sorted eigenvalues of n_j = a*_j a_j / hbar (occupation of mode j)."""
    j = check_count(j, "mode", 1, token="bad_mode")
    check_cap(j, f.n_modes, "mode", "bad_mode")
    return np.sort(np.abs(f.signs[j - 1])).astype(float)
