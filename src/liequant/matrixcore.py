"""Dense complex matrix arithmetic and numerical predicates.

Matrices are plain ``numpy.ndarray`` objects of shape (n, n); every
routine treats its inputs as immutable and returns fresh arrays.  The
matrix exponential is computed by scaling-and-squaring applied to the
truncated power series.  Hermitian eigendecompositions come from LAPACK
and are returned only with a certificate: the eigen-residual and the
unitarity defect of the eigenvectors are checked against a
``Tolerance`` after every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, check_finite, finite

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_square",
    "commutator",
    "anticommutator",
    "kron_embed",
    "expm",
    "is_hermitian",
    "is_antihermitian",
    "is_unitary",
    "is_special_orthogonal",
    "eig_hermitian",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair for numerical predicates."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-10

    def __post_init__(self):
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise DomainError("bad_tolerance", "tolerances must be nonnegative")
        if self.abs_eps == 0 and self.rel_eps == 0:
            raise DomainError("bad_tolerance", "abs_eps and rel_eps cannot both vanish")

    def bound(self, scale: float = 1.0) -> float:
        """Largest deviation accepted at the given reference scale."""
        return self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOL = Tolerance()


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a square complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DomainError("shape", f"{name} must be square, got shape {m.shape}")
    return check_finite(m, f"an entry of {name}")


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DomainError("shape", f"dimension mismatch {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """Commutator ``ab - ba`` of two square matrices of equal size."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    _same_shape(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """Anticommutator ``ab + ba``."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    _same_shape(a, b)
    return a @ b + b @ a


def kron_embed(op, slot: int, dims) -> np.ndarray:
    """``op`` acting on factor ``slot`` of a tensor product with factor sizes ``dims``.

    Every other factor carries the identity; the factors are Kronecker
    multiplied in order, so factor 0 is the most significant index.
    """
    return reduce(np.kron, [op if i == slot else np.eye(d) for i, d in enumerate(dims)])


def expm(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring of the power series.

    The argument is halved until its Frobenius norm is at most 0.5, the
    series sum_k a^k/k! is summed to machine precision, and the result is
    squared back up.  Relative accuracy is better than 1e-12 for
    ``norm(a) <= 20``.  A norm or a result past the float range raises
    ``not_finite``.
    """
    a = as_square(a)
    n = a.shape[0]
    norm = finite(lambda: np.linalg.norm(a), "the Frobenius norm")
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))))
    b = a / (2.0**squarings)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term) <= 1e-18 * np.linalg.norm(result):
            break
    # 2**squarings as repeated squaring, result @ result each time
    return finite(lambda: np.linalg.matrix_power(result, 2**squarings), "the exponential")


def is_hermitian(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``a`` equals its conjugate transpose entrywise within tol."""
    a = as_square(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    return bool(np.max(np.abs(a - a.conj().T)) <= tol.bound(scale))


def is_antihermitian(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``a + a*`` vanishes entrywise within tol."""
    a = as_square(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    return bool(np.max(np.abs(a + a.conj().T)) <= tol.bound(scale))


def is_unitary(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``a* a = 1`` entrywise within tol."""
    a = as_square(a)
    defect = a.conj().T @ a - np.eye(a.shape[0])
    return bool(np.max(np.abs(defect)) <= tol.bound(1.0))


def is_special_orthogonal(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``a`` is real with ``a^T a = 1`` and ``det a = 1`` within tol."""
    a = as_square(a)
    if np.max(np.abs(a.imag)) > tol.bound(1.0):
        return False
    r = a.real
    defect = r.T @ r - np.eye(r.shape[0])
    if np.max(np.abs(defect)) > tol.bound(1.0):
        return False
    return bool(abs(np.linalg.det(r) - 1.0) <= tol.bound(1.0))


def eig_hermitian(a, tol: Tolerance = DEFAULT_TOL):
    """Certified eigendecomposition of a Hermitian matrix.

    LAPACK (``numpy.linalg.eigh``) decomposes the exact Hermitian part
    H = (a + a*)/2, and the result is checked a posteriori: the
    residual ``||H V - V diag(w)||_F`` must be at most
    ``tol.bound(||H||_F)`` and ``||V* V - 1||_F`` at most
    ``tol.bound(1)``.  A failed check raises
    ``DomainError("eig_certificate")`` instead of returning an
    unverified result, and a Frobenius norm past the float range, for
    which no bound can be checked, raises ``DomainError("not_finite")``.

    Parameters
    ----------
    a : array_like
        Hermitian matrix (checked entrywise within ``tol``).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending as a real 1-d array; eigenvectors as the
        columns of a unitary matrix, so that ``a @ V = V @ diag(w)``.
        Within a degenerate cluster the column ordering is unspecified.
    """
    a = as_square(a)
    if not is_hermitian(a, tol):
        raise DomainError("not_hermitian", "eig_hermitian requires a Hermitian matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the norm inf
        h = 0.5 * (a + a.conj().T)  # exact Hermitian part kills roundoff asymmetry
        norm = check_finite(np.linalg.norm(h), "the Frobenius norm")
    w, v = np.linalg.eigh(h)
    residual = float(np.linalg.norm(h @ v - v * w))
    defect = float(np.linalg.norm(v.conj().T @ v - np.eye(h.shape[0])))
    if residual > tol.bound(norm) or defect > tol.bound(1.0):
        raise DomainError("eig_certificate",
                          f"residual {residual:.3g}, unitarity defect {defect:.3g}")
    return w, v
