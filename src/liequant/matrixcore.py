"""Dense complex matrix arithmetic and numerical predicates.

Matrices are plain ``numpy.ndarray`` objects of shape (n, n); every
routine treats its inputs as immutable and returns fresh arrays.  The
matrix exponential is computed by scaling-and-squaring applied to the
truncated power series.  Hermitian eigendecompositions come from LAPACK
and are returned only with a certificate: the eigen-residual and the
unitarity defect of the eigenvectors are checked after every solve.
Every predicate passes a deviation of at most 1e-10 + 1e-10 * scale.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DomainError, check_array, check_count, check_finite, finite

__all__ = [
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


_EPS = 1e-10  # the absolute and the relative part of every predicate's bound


def _bound(scale: float = 1.0) -> float:
    """Largest deviation accepted at the given reference scale."""
    return _EPS + _EPS * abs(scale)


def _squares(a, name: str, shape: tuple) -> np.ndarray:
    """``a`` as a finite complex array of shape ``shape`` + (n, n), n >= 1: n x n matrices."""
    m = check_array(a, name, (*shape, None, None), complex)
    if m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DomainError("shape", f"{name} must hold square matrices, got shape {m.shape}")
    return check_finite(m, f"an entry of {name}")


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a square complex ndarray."""
    return _squares(a, name, ())


def commutator(a, b) -> np.ndarray:
    """Commutator ``ab - ba`` of two square matrices of equal size."""
    a = as_square(a, "a")
    b = check_finite(check_array(b, "b", a.shape, complex), "an entry of b")
    return finite(lambda: a @ b - b @ a, "the commutator")


def anticommutator(a, b) -> np.ndarray:
    """Anticommutator ``ab + ba``."""
    a = as_square(a, "a")
    b = check_finite(check_array(b, "b", a.shape, complex), "an entry of b")
    return finite(lambda: a @ b + b @ a, "the anticommutator")


def kron_embed(op, slot: int, dims) -> np.ndarray:
    """``op`` acting on factor ``slot`` of a tensor product with factor sizes ``dims``.

    Every other factor carries the identity; the factors are Kronecker
    multiplied in order, so factor 0 is the most significant index.
    """
    slot = check_count(slot, "slot", 0, len(dims) - 1)
    op = check_finite(check_array(op, "op", (dims[slot],) * 2, complex), "an entry of op")
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


def _within(defect, bound) -> bool:
    """True iff every entry of ``defect()`` is at most ``bound`` in modulus; one past the
    float range is not, and overflow gives no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.max(np.abs(defect()))
    return bool(np.isfinite(worst) and worst <= bound)


def _is_hermitian(a: np.ndarray, sign: int = 1) -> bool:
    """True iff ``a - sign a*`` is within the bound at max(1, max |a|), for ``a`` already read."""
    scale = max(1.0, float(np.max(np.abs(a))))
    return _within(lambda: a - sign * a.conj().T, _bound(scale))


def is_hermitian(a) -> bool:
    """True iff ``a`` equals its conjugate transpose entrywise within the bound."""
    return _is_hermitian(as_square(a))


def is_antihermitian(a) -> bool:
    """True iff ``a + a*`` vanishes entrywise within the bound."""
    return _is_hermitian(as_square(a), -1)


def is_unitary(a) -> bool:
    """True iff ``a* a = 1`` entrywise within the bound."""
    a = as_square(a)
    return _within(lambda: a.conj().T @ a - np.eye(a.shape[0]), _bound())


def is_special_orthogonal(a) -> bool:
    """True iff ``a`` is real with ``a^T a = 1`` and ``det a = 1`` within the bound."""
    a = as_square(a)
    if np.max(np.abs(a.imag)) > _bound():
        return False
    r = a.real
    if not _within(lambda: r.T @ r - np.eye(r.shape[0]), _bound()):
        return False
    return bool(abs(np.linalg.det(r) - 1.0) <= _bound())


def eig_hermitian(a):
    """Certified eigendecomposition of a Hermitian matrix.

    LAPACK (``numpy.linalg.eigh``) decomposes the exact Hermitian part
    H = (a + a*)/2, and the result is checked a posteriori: the
    residual ``||H V - V diag(w)||_F`` must be at most
    1e-10 + 1e-10 ||H||_F and ``||V* V - 1||_F`` at most
    2e-10.  A failed check raises
    ``DomainError("eig_certificate")`` instead of returning an
    unverified result, and a Frobenius norm past the float range, for
    which no bound can be checked, raises ``DomainError("not_finite")``.

    Parameters
    ----------
    a : array_like
        Hermitian matrix (checked entrywise, as by ``is_hermitian``).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending as a real 1-d array; eigenvectors as the
        columns of a unitary matrix, so that ``a @ V = V @ diag(w)``.
        Within a degenerate cluster the column ordering is unspecified.
    """
    a = as_square(a)
    if not _is_hermitian(a):
        raise DomainError("not_hermitian", "eig_hermitian requires a Hermitian matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the norm inf
        h = 0.5 * (a + a.conj().T)  # exact Hermitian part kills roundoff asymmetry
        norm = check_finite(np.linalg.norm(h), "the Frobenius norm")
    w, v = np.linalg.eigh(h)
    residual = float(np.linalg.norm(h @ v - v * w))
    defect = float(np.linalg.norm(v.conj().T @ v - np.eye(h.shape[0])))
    if residual > _bound(norm) or defect > _bound():
        raise DomainError("eig_certificate",
                          f"residual {residual:.3g}, unitarity defect {defect:.3g}")
    return w, v
