"""su(2) irreducibles, tensor-product decomposition, spinor inner products.

Spins are stored as twice-spin integers internally so that half-integer
labels never touch floating point.  The coupling coefficients are found
numerically, not from closed-form tables: each block's top state is the
kernel of the total raising operator on its weight space, and a lowering
cascade fills in the rest of the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MAX_DIM, DomainError, check_cap
from .liealg import _bracket_coords
from .matrixcore import as_square, eig_hermitian, kron_embed

__all__ = [
    "IrrepDj",
    "build_irrep",
    "casimir",
    "clebsch_gordan",
    "spinor_inner",
    "spinor_norm_constant",
    "spinor_metric",
    "decompose_restriction",
]


def _twice(j) -> int:
    """Validate a (half-)integer spin and return 2j as an int."""
    twoj = 2 * Fraction(j)
    if twoj.denominator != 1 or twoj < 0:
        raise DomainError("bad_spin", f"spin must be a nonnegative half-integer, got {j}")
    return int(twoj)


@dataclass(frozen=True)
class IrrepDj:
    """Spin-j irreducible: t3 diagonal (descending), ladder matrices."""

    twoj: int
    t3: np.ndarray
    lplus: np.ndarray
    lminus: np.ndarray

    @property
    def j(self) -> float:
        return self.twoj / 2.0

    @property
    def dim(self) -> int:
        return self.twoj + 1

    @property
    def t1(self) -> np.ndarray:
        return 0.5 * (self.lplus + self.lminus)

    @property
    def t2(self) -> np.ndarray:
        return (self.lplus - self.lminus) / 2j


def build_irrep(j) -> IrrepDj:
    """Spin-j matrices with t3 = diag(j, j-1, ..., -j) and L- = (L+)*."""
    twoj = _twice(j)
    dim = twoj + 1
    check_cap(dim, MAX_DIM, "2j+1")
    jj = twoj / 2.0
    t3 = np.diag([jj - i for i in range(dim)]).astype(complex)
    m = jj - np.arange(1, dim)  # raising from row i (eigenvalue m) to row i-1
    lplus = np.diag(np.sqrt(jj * (jj + 1) - m * (m + 1)), 1).astype(complex)
    lminus = lplus.conj().T
    return IrrepDj(twoj, t3, lplus, lminus)


def casimir(rep: IrrepDj) -> np.ndarray:
    """J^2 = L+ L- - t3 + t3^2, equal to j(j+1) times the identity."""
    return rep.lplus @ rep.lminus - rep.t3 + rep.t3 @ rep.t3


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the first component above noise is real positive."""
    for comp in vec:
        if abs(comp) > 1e-8:
            return vec * (abs(comp) / comp)
    return vec


def clebsch_gordan(k, l):
    """Decompose D_k (x) D_l into irreducibles.

    Returns ``(summands, isometry)`` where ``summands`` is a list of
    ``(j, multiplicity)`` with j = k+l, k+l-1, ..., |k-l| (multiplicity 1
    throughout), and ``isometry`` maps the direct sum, ordered by
    descending j and descending m inside each block, into the tensor
    product, whose basis |k m1> (x) |l m2> has m1 and m2 descending.

    The product basis diagonalizes t3, so the top state of block j is
    the one-dimensional kernel of the total L+ restricted to the m = j
    weight space, read off one SVD.  Its first component (largest m1)
    is made real positive, the Condon-Shortley convention, and the
    lowering cascade fixes every other phase, so the isometry is
    deterministic.
    """
    twok, twol = _twice(k), _twice(l)
    check_cap((twok + 1) * (twol + 1), MAX_DIM, "(2k+1)(2l+1)")
    rk, rl = build_irrep(Fraction(twok, 2)), build_irrep(Fraction(twol, 2))
    dims = (rk.dim, rl.dim)
    lp = kron_embed(rk.lplus, 0, dims) + kron_embed(rl.lplus, 1, dims)
    lm = lp.conj().T
    twice_m = np.add.outer(np.arange(twok, -twok - 1, -2), np.arange(twol, -twol - 1, -2)).ravel()
    dim = rk.dim * rl.dim

    summands = []
    columns = []
    for twoj in range(twok + twol, abs(twok - twol) - 2, -2):
        jj = twoj / 2.0
        summands.append((jj, 1))
        sel = np.flatnonzero(twice_m == twoj)
        vec = np.zeros(dim, dtype=complex)
        vec[sel] = np.linalg.svd(lp[:, sel], full_matrices=False)[2][-1].conj()
        vec = _fix_phase(vec)
        columns.append(vec)
        for _ in range(twoj):
            vec = lm @ vec
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                raise DomainError("cascade_collapse", f"lowering died inside j={jj}")
            vec = vec / norm
            columns.append(vec)
    iso = np.stack(columns, axis=1)
    if iso.shape != (dim, dim):
        raise DomainError("dimension_mismatch", "coupled basis has wrong size")
    return summands, iso


def spinor_inner(x, y, s) -> complex:
    """Coherent-spinor overlap (y* x)^{2s} on degree-2s polynomials.

    Evaluated both in closed form and through the monomial metric
    <pi_k|pi_l> = delta_kl / binom(2s, k); the two must agree, and the
    closed form is returned.
    """
    twos = _twice(s)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (2,) or y.shape != (2,):
        raise DomainError("shape", "spinor arguments are 2-vectors")
    direct = complex((np.conj(y) @ x) ** twos)
    expanded = 0.0 + 0.0j
    for kk in range(twos + 1):
        pik_x = x[0] ** kk * x[1] ** (twos - kk)
        pik_y = y[0] ** kk * y[1] ** (twos - kk)
        expanded += math.comb(twos, kk) * pik_x * np.conj(pik_y)
    if abs(direct - expanded) > 1e-10 * max(1.0, abs(direct)):
        raise DomainError("inconsistent", "metric expansion disagrees with closed form")
    return direct


def spinor_norm_constant(s) -> float:
    """Normalization pi^2 / ((2s+1)(2s+2)) of the invariant disk measure."""
    twos = _twice(s)
    return math.pi**2 / ((twos + 1) * (twos + 2))


def spinor_metric(s) -> np.ndarray:
    """Diagonal monomial norms <pi_k|pi_k> = 1/binom(2s, k), k = 0..2s."""
    twos = _twice(s)
    return np.array([1.0 / math.comb(twos, k) for k in range(twos + 1)])


def decompose_restriction(sub_mats, tol: float = 1e-8):
    """Irreducible block sizes of a representation restricted to a subalgebra.

    ``sub_mats`` are the images of the subalgebra generators (they must
    close under the commutator).  Blocks are the eigenvalue clusters of
    the quadratic invariant sum_ij (T^-1)_ij S_i S_j built from the trace
    form T_ij = tr(S_i S_j); sizes are returned descending and sum to the
    ambient dimension.
    """
    mats = [as_square(m) for m in sub_mats]
    if not mats:
        raise DomainError("not_subalgebra", "no generators given")
    mats = np.stack(mats)
    if _bracket_coords(mats)[1] > tol:
        raise DomainError("not_subalgebra", "commutator leaves the span")
    trace_form = np.einsum("iab,jba->ij", mats, mats)
    if abs(np.linalg.det(trace_form)) < 1e-12:
        raise DomainError("not_subalgebra", "degenerate trace form, no quadratic invariant")
    # sum_ij (T^-1)_ij S_i S_j = sum_i S_i Y_i with Y_i = sum_j (T^-1)_ij S_j
    cas = (mats @ np.tensordot(np.linalg.inv(trace_form), mats, axes=(1, 0))).sum(axis=0)
    if np.max(np.abs(cas @ mats - mats @ cas)) > 1e-8:
        raise DomainError("not_subalgebra", "invariant fails to commute")
    w, _ = eig_hermitian(0.5 * (cas + cas.conj().T))
    same = np.abs(np.diff(w)) < 1e-6 * np.maximum(1.0, np.abs(w[1:]))
    edges = np.concatenate(([0], np.flatnonzero(~same) + 1, [w.size]))
    return sorted(np.diff(edges).tolist(), reverse=True)
