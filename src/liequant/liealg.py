"""Abstract Lie algebras via structure constants, with matrix realizations.

A :class:`LieAlgebraBasis` stores an ordered generator list and the dense
structure-constant tensor ``c[j, k, l]`` meaning ``X_j <| X_k = sum_l
c[j,k,l] X_l``.  A :class:`MatrixRealization` pairs such a basis with
concrete matrices, either under the plain commutator or under the scaled
commutator ``(i/hbar)[A, B]``.  Builtins cover the rotation and unitary
algebras, the Heisenberg and oscillator algebras, and the classical
families gl(n), sl(n), so(p,q), sp(2n).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DIM_CAP, DomainError, check_cap, check_finite, check_positive
from .matrixcore import DEFAULT_TOL, Tolerance, as_square, commutator, expm

__all__ = [
    "LieAlgebraBasis",
    "MatrixRealization",
    "builtin_algebra",
    "BUILTIN_NAMES",
    "verify_jacobi",
    "killing_form",
    "is_semisimple",
    "weyl_check",
]


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Ordered generators plus structure constants c[j,k,l]."""

    name: str
    names: tuple
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c)
        if c.ndim != 3 or len({*c.shape}) != 1 or c.shape[0] == 0:
            raise DomainError("shape", "structure tensor must be dim^3 with dim >= 1")
        if c.shape[0] != len(self.names):
            raise DomainError("shape", "generator names do not match tensor dim")
        check_cap(c.shape[0], DIM_CAP, "the dimension", "dim_cap")
        object.__setattr__(self, "c", check_finite(c, "a structure constant"))

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.c + np.swapaxes(self.c, 0, 1))))

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of (x <| y) for coordinate vectors x, y."""
        return np.einsum("j,k,jkl->l", x, y, self.c)

    def to_json(self) -> str:
        """Schema {name, dim, names[], c[][][]}; complex entries become [re, im]."""
        c = self.c
        if np.iscomplexobj(c) and np.max(np.abs(c.imag)) > 0:
            payload = [[[[float(v.real), float(v.imag)] for v in row]
                        for row in plane] for plane in c]
        else:
            payload = np.real(c).tolist()
        return json.dumps(
            {"name": self.name, "dim": self.dim, "names": list(self.names), "c": payload}
        )

    @staticmethod
    def from_json(text: str) -> "LieAlgebraBasis":
        data = json.loads(text)
        raw = np.array(data["c"], dtype=float)
        if raw.ndim == 4:  # complex entries stored as [re, im] pairs
            c = raw[..., 0] + 1j * raw[..., 1]
        else:
            c = raw
        return LieAlgebraBasis(data["name"], tuple(data["names"]), c)


@dataclass(frozen=True)
class MatrixRealization:
    """Matrices realizing a basis: bracket(mats[j], mats[k]) = sum c[j,k,l] mats[l].

    ``product_convention`` is ``"commutator"`` for [A,B] or ``"quantum"``
    for (i/hbar)[A,B].
    """

    basis: LieAlgebraBasis
    mats: tuple
    product_convention: str = "commutator"
    hbar: float = 1.0

    def __post_init__(self):
        if self.product_convention not in ("commutator", "quantum"):
            raise DomainError("bad_convention", self.product_convention)
        check_positive(self.hbar, "bad_hbar", "hbar")
        mats = tuple(as_square(m) for m in self.mats)
        if len(mats) != self.basis.dim or len({m.shape for m in mats}) > 1:
            raise DomainError("shape", "one square matrix per generator, all of one size")
        object.__setattr__(self, "mats", mats)

    @property
    def _scale(self) -> complex:
        return 1j / self.hbar if self.product_convention == "quantum" else 1

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._scale * commutator(a, b)

    def consistency_residual(self) -> float:
        """Max deviation of the realized bracket from the structure constants."""
        mats = np.stack(self.mats)
        lhs = self._scale * _commutators(mats)
        return float(np.max(np.abs(lhs - np.tensordot(self.basis.c, mats, axes=(2, 0)))))

    def element(self, coords) -> np.ndarray:
        return np.tensordot(np.asarray(coords), np.stack(self.mats), axes=(0, 0))


def verify_jacobi(basis: LieAlgebraBasis) -> float:
    """Max absolute Jacobi contraction over all index quadruples."""
    c = basis.c
    d = c.shape[0]
    # one GEMM: row (j, k, l) of t is sum_m c[j,k,m] c[m,l,:]; the other two
    # terms of the contraction are rows (k, l, j) and (l, j, k) of the same t
    t = (c.reshape(d * d, d) @ c.reshape(d, d * d)).reshape(d ** 3, d)
    # the sum is the same for every cyclic rotation of (j, k, l), and each
    # rotation class has a member with j <= k and j <= l (about d^3/3 rows)
    i = np.arange(d)
    first = i[:, None, None]
    j, k, l = np.nonzero((first <= i[:, None]) & (first <= i))
    total = t[(j * d + k) * d + l] + t[(k * d + l) * d + j] + t[(l * d + j) * d + k]
    return float(np.max(np.abs(total), initial=0.0))


def killing_form(basis: LieAlgebraBasis) -> np.ndarray:
    """Killing form B[j,k] = tr(ad_j ad_k) with (ad_j)[l,k] = c[j,k,l]."""
    c = basis.c
    return np.einsum("jba,mab->jm", c, c)


def is_semisimple(basis: LieAlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Nondegeneracy test on the Killing form (smallest singular value)."""
    # the SVD of B itself: eigenvalues of B*B would square away half the precision
    smallest_sv = float(np.linalg.svd(killing_form(basis), compute_uv=False)[-1])
    return smallest_sv > tol.abs_eps * basis.dim


def weyl_check(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check exp(A+B) = exp(-[A,B]/2) exp(A) exp(B) for central [A,B]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    com = commutator(a, b)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    bound = tol.bound(scale * scale)
    if np.max(np.abs(commutator(com, a))) > bound or np.max(np.abs(commutator(com, b))) > bound:
        raise DomainError("not_central", "[A,B] does not commute with A and B")
    lhs = expm(a + b)
    rhs = expm(-0.5 * com) @ expm(a) @ expm(b)
    return bool(np.max(np.abs(lhs - rhs)) <= 1e-9)


# ---------------------------------------------------------------------------
# builtin algebras


def _e(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _hat_basis():
    j1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex)
    j2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=complex)
    j3 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    return [j1, j2, j3]


def _pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return [s1, s2, s3]


def _epsilon_tensor() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0   # cyclic (j, k, l)
    c[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0  # anticyclic
    return c


def _commutators(mats: np.ndarray) -> np.ndarray:
    """All commutators [M_j, M_k] of a (d, n, n) stack, as a (d, d, n, n) tensor."""
    prod = mats[:, None] @ mats[None, :]
    return prod - prod.swapaxes(0, 1)


def _bracket_coords(mats: np.ndarray):
    """Coordinates of every [M_j, M_k] in span(M), from one least-squares solve.

    Returns ``(coef, resid)``: [M_j, M_k] = sum_l coef[j, k, l] M_l up to
    ``resid``, the largest residual entry.  Only the pairs j < k are
    solved, so that coef[k, j] = -coef[j, k] holds exactly.
    """
    d = mats.shape[0]
    upper = np.triu_indices(d, 1)
    a = mats.reshape(d, -1).T
    b = _commutators(mats)[upper].reshape(-1, a.shape[0]).T
    sol = np.linalg.lstsq(a, b, rcond=None)[0]
    coef = np.zeros((d, d, d), dtype=sol.dtype)
    coef[upper] = sol.T
    coef[upper[::-1]] = -sol.T
    return coef, float(np.max(np.abs(a @ sol - b), initial=0.0))


def _gl_basis(n: int):
    names, mats = [], []
    for a in range(n):
        for b in range(n):
            names.append(f"E{a + 1}{b + 1}")
            mats.append(_e(n, a, b))
    return names, mats


def _sl_basis(n: int):
    names, mats = [], []
    for a in range(n):
        for b in range(n):
            if a != b:
                names.append(f"E{a + 1}{b + 1}")
                mats.append(_e(n, a, b))
    for i in range(n - 1):
        names.append(f"H{i + 1}")
        mats.append(_e(n, i, i) - _e(n, i + 1, i + 1))
    return names, mats


def _so_pq_basis(p: int, q: int):
    n = p + q
    eta = np.diag([1.0] * p + [-1.0] * q)
    names, mats = [], []
    for a in range(n):
        for b in range(a + 1, n):
            names.append(f"M{a + 1}{b + 1}")
            mats.append(eta[b, b] * _e(n, a, b) - eta[a, a] * _e(n, b, a))
    return names, mats


def _sp_basis(n: int):
    # 2n x 2n block matrices [[A, B], [C, -A^T]] with B, C symmetric
    names, mats = [], []
    for i in range(n):
        for j in range(n):
            m = np.zeros((2 * n, 2 * n), dtype=complex)
            m[i, j] = 1.0
            m[n + j, n + i] = -1.0
            names.append(f"A{i + 1}{j + 1}")
            mats.append(m)
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((2 * n, 2 * n), dtype=complex)
            m[i, n + j] = 1.0
            m[j, n + i] = 1.0
            names.append(f"B{i + 1}{j + 1}")
            mats.append(m)
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((2 * n, 2 * n), dtype=complex)
            m[n + i, j] = 1.0
            m[n + j, i] = 1.0
            names.append(f"C{i + 1}{j + 1}")
            mats.append(m)
    return names, mats


BUILTIN_NAMES = ("so3", "su2", "heisenberg_t3", "oscillator_os1",
                 "gl(n)", "sl(n)", "so(p,q)", "sp(2n)")

_PAREN = re.compile(r"^(gl|sl|sp|so)\(([0-9]+(?:,[0-9]+)?)\)$")


def _family_basis(key: str):
    """Generator names and matrices of gl(n), sl(n), so(p,q) or sp(2n)."""
    m = _PAREN.match(key)
    if not m:
        raise DomainError("unknown_algebra", key)
    family, args = m.group(1), [int(x) for x in m.group(2).split(",")]
    n = sum(args)
    if family == "so" and len(args) == 2:
        if n < 2:
            raise DomainError("bad_size", "so(p,q) needs p+q >= 2")
        dim, build = n * (n - 1) // 2, lambda: _so_pq_basis(*args)
    elif family == "gl" and len(args) == 1:
        if n < 1:
            raise DomainError("bad_size", "gl(n) needs n >= 1")
        dim, build = n * n, lambda: _gl_basis(n)
    elif family == "sl" and len(args) == 1:
        if n < 2:
            raise DomainError("bad_size", "sl(n) needs n >= 2")
        dim, build = n * n - 1, lambda: _sl_basis(n)
    elif family == "sp" and len(args) == 1:
        if n < 2 or n % 2:
            raise DomainError("bad_size", "sp(2n) needs an even size >= 2")
        dim, build = n * (n + 1) // 2, lambda: _sp_basis(n // 2)
    else:
        raise DomainError("unknown_algebra", key)
    check_cap(dim, DIM_CAP, "the dimension", "dim_cap")  # before any matrix is built
    return build()


def builtin_algebra(name: str):
    """Return (LieAlgebraBasis, MatrixRealization) for a named algebra.

    Accepted names: ``so3``, ``su2``, ``heisenberg_t3``, ``oscillator_os1``,
    ``gl(n)``, ``sl(n)``, ``so(p,q)``, ``sp(2n)`` (the symplectic argument
    is the matrix size 2n, so ``sp(2)`` is the three-dimensional algebra).
    """
    key = name.replace(" ", "")
    if key == "so3":
        names, mats, c = ("J1", "J2", "J3"), _hat_basis(), _epsilon_tensor()
    elif key == "su2":
        # generators sigma_k/(2i) share the epsilon constants with so3
        names, mats, c = ("t1", "t2", "t3"), [s / 2j for s in _pauli()], _epsilon_tensor()
    elif key == "heisenberg_t3":
        names, mats = ("p", "q", "one"), [_e(3, 0, 1), _e(3, 1, 2), _e(3, 0, 2)]
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
    elif key == "oscillator_os1":
        names = ("one", "a", "a_dag", "n")
        mats = [_e(3, 0, 2), _e(3, 0, 1), _e(3, 1, 2),
                np.diag([0.0, 1.0, 0.0]).astype(complex)]
        c = np.zeros((4, 4, 4))
        c[1, 2, 0] = 1.0   # a <| a* = 1
        c[2, 1, 0] = -1.0
        c[1, 3, 1] = 1.0   # a <| n = a
        c[3, 1, 1] = -1.0
        c[2, 3, 2] = -1.0  # a* <| n = -a*
        c[3, 2, 2] = 1.0
    else:
        names, mats = _family_basis(key)
        c, resid = _bracket_coords(np.stack(mats))
        if resid > 1e-9:
            raise DomainError("not_closed", f"bracket left the span (residual {resid:.2e})")
        if np.max(np.abs(c.imag)) <= 1e-12:
            c = c.real.copy()
    basis = LieAlgebraBasis(key, tuple(names), c)
    return basis, MatrixRealization(basis, tuple(mats))
