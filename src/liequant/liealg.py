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

from .errors import (DIM_CAP, DomainError, check_array, check_cap, check_count, check_finite,
                     check_positive, finite)
from .matrixcore import _EPS, _bound, _squares, as_square, commutator, expm

__all__ = [
    "LieAlgebraBasis",
    "MatrixRealization",
    "builtin_algebra",
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
        check_count(len(self.names), "the dimension", 1, token="shape")
        try:  # real constants stay real, and complex ones complex
            c = check_array(self.c, "c", (len(self.names),) * 3)
        except TypeError:
            c = check_array(self.c, "c", (len(self.names),) * 3, complex)
        check_cap(c.shape[0], DIM_CAP, "the dimension", "dim_cap")
        object.__setattr__(self, "c", check_finite(c, "a structure constant"))

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.c + np.swapaxes(self.c, 0, 1))))

    def bracket_coords(self, x, y) -> np.ndarray:
        """Coordinates of (x <| y) for coordinate vectors x, y, real if c is."""
        x, y = (check_finite(check_array(v, "x and y", (self.dim,), self.c.dtype.type), "x and y")
                for v in (x, y))
        return np.einsum("j,k,jkl->l", x, y, self.c)

    def to_json(self) -> str:
        """Schema {name, dim, names[], c[][][]}; complex entries become [re, im]."""
        c = self.c
        if np.iscomplexobj(c) and np.max(np.abs(c.imag)) > 0:
            payload = np.stack((c.real, c.imag), axis=-1).tolist()
        else:
            payload = np.real(c).tolist()
        return json.dumps(
            {"name": self.name, "dim": self.dim, "names": list(self.names), "c": payload}
        )

    @staticmethod
    def from_json(text: str) -> "LieAlgebraBasis":
        """Read ``to_json`` text; text that is not such an object gives ``bad_input``."""
        try:
            data = json.loads(text, parse_int=float)  # a huge integer is inf, as 1e400
            name, names, c = data["name"], tuple(data["names"]), np.array(data["c"], dtype=float)
            if c.ndim == 4:  # complex entries stored as [re, im] pairs
                c = c[..., 0] + 1j * c[..., 1]
        except (ValueError, KeyError, TypeError, IndexError) as err:  # JSONDecodeError: ValueError
            raise DomainError("bad_input", "not a structure-constant JSON object") from err
        return LieAlgebraBasis(name, names, c)


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
        stack = _squares(tuple(self.mats), "mats", (self.basis.dim,))  # of one size
        object.__setattr__(self, "_stack", stack)  # mats are views into it
        object.__setattr__(self, "mats", tuple(self._stack))

    @property
    def _scale(self) -> complex:
        return 1j / self.hbar if self.product_convention == "quantum" else 1

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._scale * commutator(a, b)

    def consistency_residual(self) -> float:
        """Max deviation of the realized bracket from the structure constants."""
        return finite(lambda: _closure_residual(self._scale * _commutators(self._stack),
                                                self.basis.c, self._stack), "the closure residual")

    def element(self, coords) -> np.ndarray:
        coords = check_array(coords, "coords", (self.basis.dim,), complex)
        return np.tensordot(check_finite(coords, "a coordinate"), self._stack, axes=(0, 0))


def verify_jacobi(basis: LieAlgebraBasis) -> float:
    """Max absolute Jacobi contraction over all index quadruples.  Rule: the join of the nonzero
    constants when 8 x its products <= the GEMM's buffer, live pairs x d^2; else the GEMM."""
    c = basis.c
    d = c.shape[0]
    flat = np.flatnonzero(c != 0)  # the nonzero constants c[j,k,m], in row-major order
    products = np.bincount(flat // (d * d), minlength=d)[flat % d].sum()  # c[j,k,m] c[m,l,n]
    live = np.count_nonzero(np.bincount(flat // d))  # pairs (j, k) with a nonzero constant
    return finite(lambda: _jacobi_join(c, flat) if 8 * products <= live * d * d
                  else _jacobi_gemm(c), "a Jacobi sum")


def _jacobi_join(c: np.ndarray, flat: np.ndarray) -> float:
    """Max |Jacobi sum| from the products c[j,k,m] c[m,l,n] of the nonzero constants at ``flat``."""
    d = c.shape[0]
    j, k, m = np.unravel_index(flat, c.shape)  # the entries of row r of c are one run
    size = np.bincount(j, minlength=d)
    count = size[m]  # entry e joins with each entry (m, l, n) of row m[e]
    e = np.repeat(np.arange(len(m)), count)
    # product i joins entry e[i] with entry i - (first product of e[i]) of the run of row m[e[i]]:
    # the run starts at cumsum(size)[m] - count, the products of e at cumsum(count) - count
    p = np.arange(len(e)) + (np.cumsum(size)[m] - np.cumsum(count))[e]
    v = c[j, k, m]
    prod, j, k, l, n = v[e] * v[p], j[e], k[e], k[p], m[p]
    # each cyclic rotation of (j, k, l) has the same sum: key a product by the least one and n,
    # as ((j d + k) d + l) d + n; a triple j = k = l is its own three rotations
    first, second = (j * d + k) * d + l, (k * d + l) * d + j
    prod[first == second] *= 3
    key = np.minimum(np.minimum(first, second), (l * d + j) * d + k) * d + n
    del e, p, first, second, j, k, l, n  # the sort needs the key alone
    order = np.argsort(key)
    key = key[order]
    sums = np.add.reduceat(prod[order], np.flatnonzero(np.diff(key, prepend=-1)))
    return float(np.max(np.abs(sums), initial=0.0))  # 0 with no products, as heisenberg_t3


def _jacobi_gemm(c: np.ndarray) -> float:
    """Max |Jacobi sum| from one GEMM over the pairs (j, k) with a nonzero constant."""
    d = c.shape[0]
    a = c.reshape(d * d, d)
    pairs = np.flatnonzero(a.any(axis=1))
    a = a[pairs]
    # one GEMM over the pairs (j, k) with a nonzero constant: row (pair, l) of t is
    # sum_m c[j,k,m] c[m,l,:]; every other pair reads the zero pair at the end of t
    t = np.zeros((len(pairs) + 1, d * d), dtype=c.dtype)
    np.matmul(a, c.reshape(d, d * d), out=t[:-1])
    t = t.reshape(-1, d)
    row = np.full(d * d, len(pairs) * d)  # first row of each pair (j, k) in t
    row[pairs] = np.arange(0, len(pairs) * d, d)
    # row (j, k, l) is live if some m has c[j,k,m] != 0 and c[m,l,:] != 0, else it is 0
    live = np.zeros((d * d, d), dtype=bool)
    live[pairs] = (a != 0).astype(float) @ c.any(axis=2) > 0
    live = live.reshape(d, d, d)
    # the sum is the same for every cyclic rotation of (j, k, l), and each rotation
    # class has a member with j <= k and j <= l: sum there, for classes with a live row
    i = np.arange(d)
    first = i[:, None, None]
    j, k, l = np.nonzero((live | live.transpose(2, 0, 1) | live.transpose(1, 2, 0))
                         & (first <= i[:, None]) & (first <= i))
    total = t[row[j * d + k] + l] + t[row[k * d + l] + j] + t[row[l * d + j] + k]
    return float(np.max(np.abs(total), initial=0.0))


def killing_form(basis: LieAlgebraBasis) -> np.ndarray:
    """Killing form B[j,k] = tr(ad_j ad_k) with (ad_j)[l,k] = c[j,k,l]."""
    c = basis.c
    d = c.shape[0]
    return finite(lambda: c.transpose(0, 2, 1).reshape(d, d * d) @ c.reshape(d, d * d).T,
                  "a Killing form entry")


def is_semisimple(basis: LieAlgebraBasis) -> bool:
    """Nondegeneracy test on the Killing form (smallest singular value)."""
    # the SVD of B itself: eigenvalues of B*B would square away half the precision
    smallest_sv = float(np.linalg.svd(killing_form(basis), compute_uv=False)[-1])
    return smallest_sv > _EPS * basis.dim


def weyl_check(a, b) -> bool:
    """Check exp(A+B) = exp(-[A,B]/2) exp(A) exp(B) for central [A,B]."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    com = commutator(a, b)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    bound = _bound(scale * scale)
    if np.max(np.abs(commutator(com, a))) > bound or np.max(np.abs(commutator(com, b))) > bound:
        raise DomainError("not_central", "[A,B] does not commute with A and B")
    lhs = expm(a + b)
    rhs = expm(-0.5 * com) @ expm(a) @ expm(b)
    return bool(np.max(np.abs(lhs - rhs)) <= 1e-9)


# ---------------------------------------------------------------------------
# builtin algebras


def _units(n: int, rows, cols) -> np.ndarray:
    """The matrix units E_{rows[i], cols[i]} as one real (len(rows), n, n) stack."""
    m = np.zeros((len(rows), n, n))
    m[np.arange(len(rows)), rows, cols] = 1.0
    return m


def _antisymmetric(d: int, table: dict) -> np.ndarray:
    """The (d, d, d) tensor with c[j, k, l] = v and c[k, j, l] = -v for each (j, k, l): v."""
    c = np.zeros((d, d, d))
    for (j, k, l), v in table.items():
        c[j, k, l], c[k, j, l] = v, -v
    return c


def _pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return [s1, s2, s3]


def _commutators(mats: np.ndarray) -> np.ndarray:
    """All commutators [M_j, M_k] of a (d, n, n) stack, as a (d, d, n, n) tensor."""
    d, n = mats.shape[:2]
    # one GEMM: entry ((j, a), (k, b)) of the product is (M_j M_k)[a, b]
    prod = mats.reshape(d * n, n) @ mats.transpose(1, 0, 2).reshape(n, d * n)
    prod = prod.reshape(d, n, d, n).transpose(0, 2, 1, 3)
    return prod - prod.swapaxes(0, 1)


def _closure_residual(com: np.ndarray, c: np.ndarray, mats: np.ndarray) -> float:
    """max |com[j, k] - sum_l c[j, k, l] M_l| over all pairs (j, k); overwrites ``com``."""
    d = c.shape[0]
    diff, c2 = com.reshape(d * d, -1), c.reshape(d * d, d)
    # one GEMM over the pairs with a nonzero constant; every other pair is compared with 0
    pairs = np.flatnonzero(c2.any(axis=1))
    diff[pairs] -= c2[pairs] @ mats.reshape(d, -1)
    return float(np.max(np.abs(diff), initial=0.0))


def _span_residual(mats: np.ndarray) -> float:
    """Largest entry of any [M_j, M_k] outside span(M), from one least-squares solve."""
    d = mats.shape[0]
    a = mats.reshape(d, -1).T
    b = finite(lambda: _commutators(mats)[np.triu_indices(d, 1)], "a commutator")
    b = b.reshape(-1, a.shape[0]).T
    sol = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.max(np.abs(a @ sol - b), initial=0.0))


def _names(prefix: str, rows, cols) -> list:
    return [f"{prefix}{a + 1}{b + 1}" for a, b in zip(rows.tolist(), cols.tolist())]


def _generators(family: str, p: int, q: int = 0):
    """Generator names and (dim, n, n) matrix stack of gl(p), sl(p), so(p,q) or sp(p)."""
    n = p + q
    if family == "so":
        a, b = np.triu_indices(n, 1)
        eta = np.array([1.0] * p + [-1.0] * q)[:, None, None]
        return _names("M", a, b), eta[b] * _units(n, a, b) - eta[a] * _units(n, b, a)
    if family == "sp":
        # 2n x 2n block matrices [[A, B], [C, -A^T]] with B, C symmetric
        n //= 2
        i, j = np.divmod(np.arange(n * n), n)
        u, v = np.triu_indices(n)
        bc = _units(2 * n, np.r_[u, n + u], np.r_[n + v, v])
        bc[np.arange(len(bc)), np.r_[v, n + v], np.r_[n + u, u]] = 1.0  # the mirror entries
        names = _names("A", i, j) + _names("B", u, v) + _names("C", u, v)
        return names, np.concatenate((_units(2 * n, i, j) - _units(2 * n, n + j, n + i), bc))
    a, b = np.divmod(np.arange(n * n), n)
    if family == "gl":
        return _names("E", a, b), _units(n, a, b)
    off, h = a != b, np.arange(n - 1)
    mats = np.concatenate((_units(n, a[off], b[off]), _units(n, h, h) - _units(n, h + 1, h + 1)))
    return _names("E", a[off], b[off]) + [f"H{i + 1}" for i in h.tolist()], mats


_PAREN = re.compile(r"^(gl|sl|sp|so)\(([0-9]+(?:,[0-9]+)?)\)$")
# family: argument count, least matrix size, the size rule, dimension at size n
_FAMILIES = {
    "gl": (1, 1, "gl(n) needs n >= 1", lambda n: n * n),
    "sl": (1, 2, "sl(n) needs n >= 2", lambda n: n * n - 1),
    "so": (2, 2, "so(p,q) needs p+q >= 2", lambda n: n * (n - 1) // 2),
    "sp": (1, 2, "sp(2n) needs an even size >= 2", lambda n: n * (n + 1) // 2),
}


def _family_basis(key: str):
    """Generator names and matrix stack of gl(n), sl(n), so(p,q) or sp(2n)."""
    m = _PAREN.match(key)
    if not m or m.group(2).count(",") + 1 != _FAMILIES[m.group(1)][0]:
        raise DomainError("unknown_algebra", key)
    family, args = m.group(1), [int(x) for x in m.group(2).split(",")]
    _, least, rule, dim = _FAMILIES[family]
    n = sum(args)
    if n < least or (family == "sp" and n % 2):
        raise DomainError("bad_size", rule)
    check_cap(dim(n), DIM_CAP, "the dimension", "dim_cap")  # before any matrix is built
    return _generators(family, *args)


_EPSILON = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}  # so3 and su2: eps_jkl


def builtin_algebra(name: str):
    """Return (LieAlgebraBasis, MatrixRealization) for a named algebra.

    Accepted names: ``so3``, ``su2``, ``heisenberg_t3``, ``oscillator_os1``,
    ``gl(n)``, ``sl(n)``, ``so(p,q)``, ``sp(2n)`` (the symplectic argument
    is the matrix size 2n, so ``sp(2)`` is the three-dimensional algebra).
    """
    key = name.replace(" ", "")
    if key == "so3":
        r, s = [2, 0, 1], [1, 2, 0]  # J_k = E_{k+2,k+1} - E_{k+1,k+2}, indices mod 3
        names, mats = ("J1", "J2", "J3"), _units(3, r, s) - _units(3, s, r)
        c = _antisymmetric(3, _EPSILON)
    elif key == "su2":
        # generators sigma_k/(2i) share the epsilon constants with so3
        names, mats, c = ("t1", "t2", "t3"), np.stack(_pauli()) / 2j, _antisymmetric(3, _EPSILON)
    elif key == "heisenberg_t3":
        names, mats = ("p", "q", "one"), _units(3, [0, 1, 0], [1, 2, 2])
        c = _antisymmetric(3, {(0, 1, 2): 1.0})
    elif key == "oscillator_os1":
        names, mats = ("one", "a", "a_dag", "n"), _units(3, [0, 0, 1, 1], [2, 1, 2, 1])
        # a <| a* = 1, a <| n = a, a* <| n = -a*
        c = _antisymmetric(4, {(1, 2, 0): 1.0, (1, 3, 1): 1.0, (2, 3, 2): -1.0})
    else:
        names, mats = _family_basis(key)
        # integer constants: read with the dual basis of the (independent) generators,
        # rounded, and the rounding certified by the closure residual
        d = len(mats)
        a = mats.reshape(d, -1)
        com = _commutators(mats).reshape(d * d, -1)
        c = np.rint(com @ np.linalg.solve(a @ a.T, a).T).reshape(d, d, d) + 0.0  # no -0.0
        resid = _closure_residual(com, c, a)
        if resid > 1e-9:
            raise DomainError("not_closed", f"bracket left the span (residual {resid:.2e})")
    basis = LieAlgebraBasis(key, tuple(names), c)
    return basis, MatrixRealization(basis, tuple(mats))
