"""su(2) irreducibles, tensor-product decomposition, spinor inner products.

Spins are stored as twice-spin integers internally so that half-integer
labels never touch floating point.  The coupling coefficients are found
numerically, not from closed-form tables: each block's top state is the
kernel of the total raising operator on its weight space, and a lowering
cascade and the reflection m -> -m fill in the rest of the block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MAX_DIM, DomainError, check_array, check_cap, check_finite, check_spin, finite
from .liealg import _span_residual
from .matrixcore import _squares, eig_hermitian

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


_SPINOR_DIM = 1030  # the largest 2s+1 whose spinor metric terms binom(2s, k) are floats
_CLOSURE_TOL = 1e-8  # the largest commutator part outside the span of a subalgebra


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
    twoj = check_spin(j, MAX_DIM)
    dim = twoj + 1
    jj = twoj / 2.0
    t3 = np.diag([jj - i for i in range(dim)]).astype(complex)
    lplus = np.diag(_raising(twoj), 1).astype(complex)
    lminus = lplus.conj().T
    return IrrepDj(twoj, t3, lplus, lminus)


def _raising(twoj: int) -> np.ndarray:
    """The L+ numbers of spin j: entry i raises row i+1 (m = j-i-1) to row i."""
    m = twoj / 2.0 - np.arange(1, twoj + 1)
    return np.sqrt(twoj / 2.0 * (twoj / 2.0 + 1) - m * (m + 1))


def casimir(rep: IrrepDj) -> np.ndarray:
    """J^2 = L+ L- - t3 + t3^2, equal to j(j+1) times the identity."""
    return rep.lplus @ rep.lminus - rep.t3 + rep.t3 @ rep.t3


def clebsch_gordan(k, l):
    """Decompose D_k (x) D_l into irreducibles.

    Returns ``(summands, isometry)`` where ``summands`` is a list of
    ``(j, multiplicity)`` with j = k+l, k+l-1, ..., |k-l| (multiplicity 1
    throughout), and ``isometry`` maps the direct sum, ordered by
    descending j and descending m inside each block, into the tensor
    product, whose basis |k m1> (x) |l m2> has m1 and m2 descending.
    Its entries are real; its dtype is complex.

    On the (2k+1) x (2l+1) grid of product states the top state of block
    j = k+l-s lies on the antidiagonal a + b = s, where L+ v = 0 reads
    v(a+1, b-1) = -c_l[b-1] / c_k[a] v(a, b).  Starting at v(0, s) = 1 makes
    the first component (largest m1) positive, the Condon-Shortley phase.
    All blocks are lowered together down to m = 0 or 1/2, and
    <k -m1; l -m2 | j -m> = (-1)^(k+l-j) <k m1; l m2 | j m> gives the rest.
    """
    twok, twol = check_spin(k), check_spin(l)
    dim = (twok + 1) * (twol + 1)
    check_cap(dim, MAX_DIM, "(2k+1)(2l+1)")
    ck, cl = _raising(twok), _raising(twol)
    twoj = twok + twol - 2 * np.arange(min(twok, twol) + 1)
    # row s of top is v(a, s-a), a = 0..s: the zeros that tril puts past a = s end each cumprod
    s, a = np.nonzero(np.arange(len(twoj))[:, None] > np.arange(len(twoj)))
    ratio = np.ones((len(twoj),) * 2)
    ratio[s, a + 1] = -cl[s - a - 1] / ck[a]
    top = np.cumprod(np.tril(ratio), axis=1)
    top /= np.linalg.norm(top, axis=1, keepdims=True)
    s, a = np.nonzero(top)
    vec = np.zeros((len(twoj), twok + 1, twol + 1))
    vec[s, a, s - a] = top[s, a]
    step, block = np.nonzero(np.arange(twoj[0] // 2 + 1)[:, None] <= twoj // 2)  # m = j - step
    states = [vec]
    for active in np.bincount(step)[1:]:  # one lowering of every block with m > 0 left
        low = np.zeros_like(vec[:active])
        low[:, 1:] = ck[:, None] * vec[:active, :-1]
        low[:, :, 1:] += cl * vec[:active, :, :-1]
        norm = np.sqrt(np.einsum("sab,sab->s", low, low))
        if norm.min() < 1e-12:
            raise DomainError("cascade_collapse", f"lowering died at step {len(states)}")
        vec = low / norm[:, None, None]
        states.append(vec)
    upper = np.concatenate(states).reshape(-1, dim)
    start = np.cumsum(twoj + 1) - twoj - 1  # column j - m of block s is start[s] + j - m
    iso = np.zeros((dim, dim))
    iso[:, start[block] + step] = upper.T
    flip = 2 * step < twoj[block]  # m > 0, mirrored to -m, which reverses the grid
    step, block, mirror = step[flip], block[flip], upper[flip, ::-1].T
    # the sign (-1)^s as 0 - x, not -x, which would print the zeros as -0.0
    iso[:, start[block] + twoj[block] - step] = np.where(block % 2, 0.0 - mirror, mirror)
    if len(flip) + len(step) != dim:
        raise DomainError("dimension_mismatch", "coupled basis has wrong size")
    return [(tj / 2.0, 1) for tj in twoj.tolist()], iso.astype(complex)


def spinor_inner(x, y, s) -> complex:
    """Coherent-spinor overlap (y* x)^{2s} on degree-2s polynomials.

    Evaluated both in closed form and through the monomial metric
    <pi_k|pi_l> = delta_kl / binom(2s, k); the two must agree, and the
    closed form is returned.
    """
    twos = check_spin(s, _SPINOR_DIM)
    x, y = (check_finite(check_array(v, "x and y", (2,), complex), "x and y") for v in (x, y))
    direct = complex(finite(lambda: (np.conj(y) @ x) ** twos, "the overlap"))
    expanded = finite(lambda: sum(math.comb(twos, kk) * (x[0] ** kk * x[1] ** (twos - kk))
                                  * np.conj(y[0] ** kk * y[1] ** (twos - kk))
                                  for kk in range(twos + 1)), "the metric expansion")
    if abs(direct - expanded) > 1e-10 * max(1.0, abs(direct)):
        raise DomainError("inconsistent", "metric expansion disagrees with closed form")
    return direct


def spinor_norm_constant(s) -> float:
    """Normalization pi^2 / ((2s+1)(2s+2)) of the invariant disk measure."""
    twos = check_spin(s)
    denominator = (twos + 1) * (twos + 2)
    check_cap(denominator, sys.float_info.max, "(2s+1)(2s+2)")  # past it, / raises OverflowError
    return math.pi**2 / denominator


def spinor_metric(s) -> np.ndarray:
    """Diagonal monomial norms <pi_k|pi_k> = 1/binom(2s, k), k = 0..2s."""
    twos = check_spin(s, _SPINOR_DIM)
    return np.array([1.0 / math.comb(twos, k) for k in range(twos + 1)])


def decompose_restriction(sub_mats):
    """Irreducible block sizes of a representation restricted to a subalgebra.

    ``sub_mats`` are the images of the subalgebra generators (they must
    close under the commutator).  Blocks are the eigenvalue clusters of
    the quadratic invariant sum_ij (T^-1)_ij S_i S_j built from the trace
    form T_ij = tr(S_i S_j); sizes are returned descending and sum to the
    ambient dimension.
    """
    mats = list(sub_mats)
    if not mats:
        raise DomainError("not_subalgebra", "no generators given")
    mats = _squares(mats, "sub_mats", (None,))  # of one size
    if _span_residual(mats) > _CLOSURE_TOL:
        raise DomainError("not_subalgebra", "commutator leaves the span")
    trace_form = finite(lambda: np.einsum("iab,jba->ij", mats, mats), "the trace form")
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
