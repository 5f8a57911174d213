"""SO(3)/SU(2) machinery: hat map, Rodrigues formula, Euler angles,
axis extraction, and the two-to-one covering map with its kernel."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, finite

__all__ = [
    "Rotation",
    "SU2Element",
    "hat",
    "vee",
    "elementary",
    "rodrigues",
    "rotation_axis",
    "euler_zyz",
    "covering_map",
    "lift_to_su2",
    "haar_su2",
]

_EYE3 = np.eye(3)


@dataclass(frozen=True)
class Rotation:
    """A 3x3 special orthogonal matrix."""

    m: np.ndarray

    def __post_init__(self):
        # the verdict of is_special_orthogonal(m, Tolerance(1e-9, 0.0)), on the real array
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise DomainError("shape", "rotation must be 3x3")
        largest = check_finite(np.abs(m).max(), "a rotation entry")
        # a rotation has no entry above 1, and the bound keeps m^T m in the float range
        if largest > 2.0 or np.abs(m.T @ m - _EYE3).max() > 1e-9 \
                or not abs(np.linalg.det(m) - 1.0) <= 1e-9:
            raise DomainError("not_rotation", "matrix is not special orthogonal")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return Rotation(self.m @ other.m)

    def apply(self, v) -> np.ndarray:
        return finite(lambda: self.m @ np.asarray(v, dtype=float), "the image")


@dataclass(frozen=True)
class SU2Element:
    """SU(2) element U(x, y) = [[x, y], [-conj(y), conj(x)]]."""

    x: complex
    y: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.x) and cmath.isfinite(self.y)):
            raise DomainError("not_finite", "x and y must be finite")
        if abs(abs(self.x) ** 2 + abs(self.y) ** 2 - 1.0) > 1e-12:
            raise DomainError("not_unit", "|x|^2 + |y|^2 must be 1")

    @property
    def matrix(self) -> np.ndarray:
        x, y = complex(self.x), complex(self.y)
        return np.array([[x, y], [-np.conj(y), np.conj(x)]])

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        m = self.matrix @ other.matrix
        return SU2Element(m[0, 0], m[0, 1])

    def __neg__(self) -> "SU2Element":
        return SU2Element(-self.x, -self.y)


def hat(omega) -> np.ndarray:
    """Antisymmetric matrix X(w) with X(w) v = w x v."""
    w = np.asarray(omega, dtype=float)
    if w.shape != (3,):
        raise DomainError("shape", "expected a 3-vector")
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def vee(m) -> np.ndarray:
    """Inverse of :func:`hat`; rejects non-antisymmetric input."""
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise DomainError("shape", "expected a 3x3 matrix")
    if np.max(np.abs(a + a.T)) > 1e-10:
        raise DomainError("not_antisymmetric", "matrix is not antisymmetric")
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def elementary(axis: str, angle: float) -> Rotation:
    """Elementary rotation about the x, y or z axis."""
    check_finite(angle, "the angle")
    c, s = np.cos(angle), np.sin(angle)
    if axis == "x":
        m = [[1, 0, 0], [0, c, -s], [0, s, c]]
    elif axis == "y":
        m = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
    elif axis == "z":
        m = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    else:
        raise DomainError("bad_axis", f"axis must be x, y or z, got {axis!r}")
    return Rotation(np.array(m, dtype=float))


def rodrigues(a) -> Rotation:
    """exp(X(a)) = 1 + sin|a|/|a| X(a) + (1-cos|a|)/|a|^2 X(a)^2."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise DomainError("shape", "expected a 3-vector")
    # a NaN or infinite entry, |a| or X(a)^2 past the float range make m
    # non-finite, which Rotation rejects with not_finite
    with np.errstate(over="ignore", invalid="ignore"):
        theta = float(np.linalg.norm(a))
        x = hat(a)
        if theta < 1e-4:
            # series for sin t/t and (1-cos t)/t^2, exact enough below 1e-4
            t2 = theta * theta
            c1 = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
            c2 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        else:
            c1 = np.sin(theta) / theta
            c2 = (1.0 - np.cos(theta)) / (theta * theta)
        m = np.eye(3) + c1 * x + c2 * (x @ x)
    return Rotation(m)


def _quaternion_from_matrix(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, qx, qy, qz) with the largest-diagonal branch."""
    t = np.trace(m)
    candidates = [t, m[0, 0], m[1, 1], m[2, 2]]
    branch = int(np.argmax(candidates))
    if branch == 0:
        r = np.sqrt(1.0 + t)
        w = 0.5 * r
        f = 0.5 / r
        q = np.array([w, (m[2, 1] - m[1, 2]) * f, (m[0, 2] - m[2, 0]) * f,
                      (m[1, 0] - m[0, 1]) * f])
    else:
        i = branch - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
        f = 0.5 / r
        q = np.zeros(4)
        q[1 + i] = 0.5 * r
        q[0] = (m[k, j] - m[j, k]) * f
        q[1 + j] = (m[j, i] + m[i, j]) * f
        q[1 + k] = (m[k, i] + m[i, k]) * f
    return q / np.linalg.norm(q)


def rotation_axis(r: Rotation):
    """Unit eigenvector with eigenvalue 1, or the token ``"identity"``."""
    m = r.m
    if np.max(np.abs(m - np.eye(3))) <= 1e-12:
        return "identity"
    q = _quaternion_from_matrix(m)
    vec = q[1:]
    norm = np.linalg.norm(vec)
    if norm <= 1e-12:
        return "identity"
    return vec / norm


def euler_zyz(r: Rotation):
    """Angles (alpha, beta, gamma) with R = Rz(alpha) Ry(beta) Rz(gamma).

    beta lies in [0, pi]; at gimbal lock (beta in {0, pi}) gamma is set
    to zero and the whole z-rotation is folded into alpha.
    """
    m = r.m
    sb = float(np.hypot(m[0, 2], m[1, 2]))
    beta = float(np.arctan2(sb, m[2, 2]))
    if sb > 1e-12:
        alpha = float(np.arctan2(m[1, 2], m[0, 2]))
        gamma = float(np.arctan2(m[2, 1], -m[2, 0]))
        return alpha, beta, gamma
    if m[2, 2] > 0.0:  # beta = 0: R = Rz(alpha + gamma)
        return float(np.arctan2(m[1, 0], m[0, 0])), 0.0, 0.0
    # beta = pi: R = Rz(alpha) Ry(pi), first row (-cos a, -sin a, 0)
    return float(np.arctan2(-m[0, 1], -m[0, 0])), float(np.pi), 0.0


def covering_map(u: SU2Element) -> Rotation:
    """The 2:1 homomorphism SU(2) -> SO(3) in closed form."""
    x, y = complex(u.x), complex(u.y)
    x2, y2, xy, xyc = x * x, y * y, x * y, x * np.conj(y)
    m = np.array([
        [(x2 - y2).real, (x2 + y2).imag, -2.0 * xy.real],
        [-(x2 - y2).imag, (x2 + y2).real, 2.0 * xy.imag],
        [2.0 * xyc.real, 2.0 * xyc.imag, abs(x) ** 2 - abs(y) ** 2],
    ])
    return Rotation(m)


def _normalize_sign(x: complex, y: complex):
    """Pick the representative of {+U, -U} by the documented tie-break."""
    eps = 1e-12
    for value in (x.real, x.imag, y.real):
        if value > eps:
            return x, y
        if value < -eps:
            return -x, -y
    if y.imag >= 0:
        return x, y
    return -x, -y


def lift_to_su2(r: Rotation) -> SU2Element:
    """Preimage of a rotation under the covering map.

    Of the two preimages +-U the one with Re(x) > 0 is returned,
    tie-broken by Im(x) > 0, then Re(y) > 0, then Im(y) >= 0.
    """
    q = _quaternion_from_matrix(r.m)
    x = complex(q[0], -q[3])
    y = complex(-q[2], -q[1])
    x, y = _normalize_sign(x, y)
    norm = np.sqrt(abs(x) ** 2 + abs(y) ** 2)
    return SU2Element(x / norm, y / norm)


def haar_su2(rng: np.random.Generator) -> SU2Element:
    """Haar-random SU(2) element from a normalized 4-normal vector."""
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))
