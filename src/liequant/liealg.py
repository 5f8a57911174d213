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

from .errors import DomainError
from .matrixcore import DEFAULT_TOL, Tolerance, commutator, expm

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

DIM_CAP = 64  # dense c tensor is dim^3; every case of interest is tiny


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Ordered generators plus structure constants c[j,k,l]."""

    name: str
    names: tuple
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c)
        if c.ndim != 3 or len({*c.shape}) != 1:
            raise DomainError("shape", "structure tensor must be dim^3")
        if c.shape[0] != len(self.names):
            raise DomainError("shape", "generator names do not match tensor dim")
        if c.shape[0] > DIM_CAP:
            raise DomainError("dim_cap", f"dimension {c.shape[0]} exceeds cap {DIM_CAP}")
        object.__setattr__(self, "c", c)

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
        if self.hbar <= 0:
            raise DomainError("bad_hbar", "hbar must be positive")
        if len(self.mats) != self.basis.dim:
            raise DomainError("shape", "one matrix per generator required")
        object.__setattr__(self, "mats", tuple(np.asarray(m, dtype=complex) for m in self.mats))

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        com = commutator(a, b)
        if self.product_convention == "quantum":
            return (1j / self.hbar) * com
        return com

    def consistency_residual(self) -> float:
        """Max deviation of the realized bracket from the structure constants."""
        worst = 0.0
        for j in range(self.basis.dim):
            for k in range(self.basis.dim):
                lhs = self.bracket(self.mats[j], self.mats[k])
                rhs = sum(self.basis.c[j, k, l] * self.mats[l] for l in range(self.basis.dim))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst

    def element(self, coords) -> np.ndarray:
        coords = np.asarray(coords)
        return sum(coords[j] * self.mats[j] for j in range(self.basis.dim))


def verify_jacobi(basis: LieAlgebraBasis) -> float:
    """Max absolute Jacobi contraction over all index quadruples."""
    c = basis.c
    term = np.einsum("jkm,mln->jkln", c, c)
    total = term + np.einsum("klm,mjn->jkln", c, c) + np.einsum("ljm,mkn->jkln", c, c)
    return float(np.max(np.abs(total)))


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
    for j, k, l, sgn in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                         (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        c[j, k, l] = sgn
    return c


def _expand_in_basis(mats, target) -> np.ndarray:
    """Coordinates of target in span(mats), via least squares on flattened entries."""
    a = np.stack([m.ravel() for m in mats], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, target.ravel(), rcond=None)
    resid = float(np.max(np.abs(a @ coef - target.ravel())))
    if resid > 1e-9:
        raise DomainError("not_closed", f"bracket left the span (residual {resid:.2e})")
    return coef


def _constants_from_matrices(mats) -> np.ndarray:
    dim = len(mats)
    c = np.zeros((dim, dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(j + 1, dim):
            coef = _expand_in_basis(mats, commutator(mats[j], mats[k]))
            c[j, k, :] = coef
            c[k, j, :] = -coef
    if np.max(np.abs(c.imag)) <= 1e-12:
        c = c.real.copy()
    return c


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


def builtin_algebra(name: str):
    """Return (LieAlgebraBasis, MatrixRealization) for a named algebra.

    Accepted names: ``so3``, ``su2``, ``heisenberg_t3``, ``oscillator_os1``,
    ``gl(n)``, ``sl(n)``, ``so(p,q)``, ``sp(2n)`` (the symplectic argument
    is the matrix size 2n, so ``sp(2)`` is the three-dimensional algebra).
    """
    key = name.replace(" ", "")
    if key == "so3":
        c = _epsilon_tensor()
        mats = _hat_basis()
        basis = LieAlgebraBasis("so3", ("J1", "J2", "J3"), c)
        return basis, MatrixRealization(basis, tuple(mats))
    if key == "su2":
        # generators sigma_k/(2i) share the epsilon constants with so3
        c = _epsilon_tensor()
        mats = [s / 2j for s in _pauli()]
        basis = LieAlgebraBasis("su2", ("t1", "t2", "t3"), c)
        return basis, MatrixRealization(basis, tuple(mats))
    if key == "heisenberg_t3":
        names = ("p", "q", "one")
        mats = [_e(3, 0, 1), _e(3, 1, 2), _e(3, 0, 2)]
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        basis = LieAlgebraBasis("heisenberg_t3", names, c)
        return basis, MatrixRealization(basis, tuple(mats))
    if key == "oscillator_os1":
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
        basis = LieAlgebraBasis("oscillator_os1", names, c)
        return basis, MatrixRealization(basis, tuple(mats))
    m = _PAREN.match(key)
    if m:
        family, args = m.group(1), [int(x) for x in m.group(2).split(",")]
        if family == "so" and len(args) == 2:
            p, q = args
            if p + q < 2:
                raise DomainError("bad_size", "so(p,q) needs p+q >= 2")
            names, mats = _so_pq_basis(p, q)
        elif family == "gl" and len(args) == 1:
            if args[0] < 1:
                raise DomainError("bad_size", "gl(n) needs n >= 1")
            names, mats = _gl_basis(args[0])
        elif family == "sl" and len(args) == 1:
            if args[0] < 2:
                raise DomainError("bad_size", "sl(n) needs n >= 2")
            names, mats = _sl_basis(args[0])
        elif family == "sp" and len(args) == 1:
            if args[0] < 2 or args[0] % 2:
                raise DomainError("bad_size", "sp(2n) needs an even size >= 2")
            names, mats = _sp_basis(args[0] // 2)
        else:
            raise DomainError("unknown_algebra", name)
        c = _constants_from_matrices(mats)
        basis = LieAlgebraBasis(key, tuple(names), c)
        return basis, MatrixRealization(basis, tuple(mats))
    raise DomainError("unknown_algebra", name)
