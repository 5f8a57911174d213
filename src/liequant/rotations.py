"""SO(3)/SU(2) machinery: hat map, Rodrigues formula, Euler angles,
axis extraction, and the two-to-one covering map with its kernel."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (MAX_SAMPLES, DomainError, check_array, check_count, check_finite, check_real,
                     finite)

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
    "cover_check",
]


def _su2_product(x1, y1, x2, y2):
    """(x, y) of U(x1, y1) U(x2, y2), for complex scalars or arrays of one shape."""
    return x1 * x2 - y1 * y2.conjugate(), x1 * y2 + y1 * x2.conjugate()


def _cover(x, y) -> np.ndarray:
    """R(U(x, y)) for complex scalars or 1-d arrays, of shape (3, 3) or (n, 3, 3)."""
    x2, y2, xy, xyc = x * x, y * y, x * y, x * y.conjugate()
    # written transposed: .T reverses every axis, so a stack gets its 3 x 3 axes last
    return np.array([
        [(x2 - y2).real, -(x2 - y2).imag, 2.0 * xyc.real],
        [(x2 + y2).imag, (x2 + y2).real, 2.0 * xyc.imag],
        [-2.0 * xy.real, 2.0 * xy.imag, abs(x) ** 2 - abs(y) ** 2],
    ]).T


def _every(flags: list) -> bool:
    """True if every flag holds: plain bools, or bool arrays of one shape."""
    if isinstance(flags[0], bool):
        return all(flags)
    return bool(reduce(operator.and_, flags).all())


def _check_so3(m: np.ndarray, shape: tuple = (3, 3)) -> np.ndarray:
    """Return m if each 3x3 matrix in it has m^T m - 1 and det m - 1 within 1e-9 entrywise."""
    if m.shape != shape:
        raise DomainError("shape", "rotation must be 3x3")
    # nine Python floats for one matrix, nine length-n arrays for a stack
    (a, b, c), (d, e, f), (g, h, i) = m.tolist() if m.ndim == 2 else m.transpose(1, 2, 0)
    # a rotation has no entry above 1, and the bound keeps m^T m and det m finite
    if not (_every([abs(x) <= 2.0 for x in (a, b, c, d, e, f, g, h, i)])
            and _every([abs(x) <= 1e-9 for x in (
                a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0,
                c * c + f * f + i * i - 1.0, a * b + d * e + g * h, a * c + d * f + g * i,
                b * c + e * f + h * i,  # the entries of m^T m - 1 on and above the diagonal
                a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0)])):
        check_finite(m, "a rotation entry")  # a NaN or infinite entry is not_finite
        raise DomainError("not_rotation", "matrix is not special orthogonal")
    return m


@dataclass(frozen=True)
class Rotation:
    """A 3x3 special orthogonal matrix."""

    m: np.ndarray

    def __post_init__(self):
        m = _check_so3(check_array(self.m, "a rotation", (3, 3)).copy())  # a C-ordered copy
        m.setflags(write=False)  # quicker than m.flags.writeable, which builds a flags object
        object.__setattr__(self, "m", m)

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return Rotation(self.m @ other.m)

    def apply(self, v) -> np.ndarray:
        return finite(lambda: self.m @ check_array(v, "v", (3,)), "the image")


@dataclass(frozen=True)
class SU2Element:
    """SU(2) element U(x, y) = [[x, y], [-conj(y), conj(x)]]."""

    x: complex
    y: complex

    def __post_init__(self):
        check_finite(self.x, "x")
        check_finite(self.y, "y")
        ax, ay = abs(self.x), abs(self.y)  # squared by products, which give inf, not OverflowError
        if abs(ax * ax + ay * ay - 1.0) > 1e-12:
            raise DomainError("not_unit", "|x|^2 + |y|^2 must be 1")

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        return SU2Element(*_su2_product(self.x, self.y, other.x, other.y))

    def __neg__(self) -> "SU2Element":
        return SU2Element(-self.x, -self.y)


def hat(omega) -> np.ndarray:
    """Antisymmetric matrix X(w) with X(w) v = w x v."""
    w0, w1, w2 = check_finite(check_array(omega, "w", (3,)), "an entry of w").tolist()
    return np.array([
        [0.0, -w2, w1],
        [w2, 0.0, -w0],
        [-w1, w0, 0.0],
    ])


def vee(m) -> np.ndarray:
    """Inverse of :func:`hat`; rejects non-antisymmetric input."""
    a = check_finite(check_array(m, "m", (3, 3)), "an entry of m")
    with np.errstate(over="ignore"):  # a + a.T past the float range is inf, not antisymmetric
        defect = np.max(np.abs(a + a.T))
    if defect > 1e-10:
        raise DomainError("not_antisymmetric", "matrix is not antisymmetric")
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def elementary(axis: str, angle: float) -> Rotation:
    """Elementary rotation about the x, y or z axis."""
    angle = check_real(angle, "the angle")
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
    a = check_array(a, "a", (3,))
    # a NaN or infinite entry, |a| or X(a)^2 past the float range make m
    # non-finite, which Rotation rejects with not_finite
    with np.errstate(over="ignore", invalid="ignore"):
        theta = float(np.linalg.norm(a))
        x = hat(a)
        x2 = (x @ x).ravel().tolist()  # numpy's bits for |a| and X(a)^2, Python floats below
        if theta < 1e-4:
            # series for sin t/t and (1-cos t)/t^2, exact enough below 1e-4
            t2 = theta * theta
            c1 = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
            c2 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        else:
            c1 = float(np.sin(theta) / theta)
            c2 = float((1.0 - np.cos(theta)) / (theta * theta))
    eye = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    m = [e + c1 * u + c2 * v for e, u, v in zip(eye, x.ravel().tolist(), x2)]
    return Rotation(np.reshape(m, (3, 3)))


def _quaternion_from_matrix(m: list) -> list:
    """Unit quaternion [w, qx, qy, qz] of nested-list m, by the largest-diagonal branch."""
    t = m[0][0] + m[1][1] + m[2][2]
    candidates = [t, m[0][0], m[1][1], m[2][2]]
    branch = candidates.index(max(candidates))
    if branch == 0:
        r = math.sqrt(1.0 + t)
        f = 0.5 / r
        q = [0.5 * r, (m[2][1] - m[1][2]) * f, (m[0][2] - m[2][0]) * f,
             (m[1][0] - m[0][1]) * f]
    else:
        i = branch - 1
        j, k = (i + 1) % 3, (i + 2) % 3
        r = math.sqrt(1.0 + m[i][i] - m[j][j] - m[k][k])
        f = 0.5 / r
        q = [0.0] * 4
        q[1 + i] = 0.5 * r
        q[0] = (m[k][j] - m[j][k]) * f
        q[1 + j] = (m[j][i] + m[i][j]) * f
        q[1 + k] = (m[k][i] + m[i][k]) * f
    norm = float(np.linalg.norm(q))  # its sum of squares has numpy's bits, not Python's
    return [v / norm for v in q]


def rotation_axis(r: Rotation):
    """Unit eigenvector with eigenvalue 1, or the token ``"identity"``."""
    m = r.m.tolist()
    if max(abs(m[i][j] - (i == j)) for i in range(3) for j in range(3)) <= 1e-12:
        return "identity"
    vec = np.array(_quaternion_from_matrix(m)[1:])
    norm = np.linalg.norm(vec)
    if norm <= 1e-12:
        return "identity"
    return vec / norm


def euler_zyz(r: Rotation):
    """Angles (alpha, beta, gamma) with R = Rz(alpha) Ry(beta) Rz(gamma).

    beta lies in [0, pi]; at gimbal lock (beta in {0, pi}) gamma is set
    to zero and the whole z-rotation is folded into alpha.
    """
    # np.hypot and np.arctan2, whose last bits differ from math.hypot and math.atan2
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = r.m.tolist()
    sb = float(np.hypot(m02, m12))
    beta = float(np.arctan2(sb, m22))
    if sb > 1e-12:
        return float(np.arctan2(m12, m02)), beta, float(np.arctan2(m21, -m20))
    if m22 > 0.0:  # beta = 0: R = Rz(alpha + gamma)
        return float(np.arctan2(m10, m00)), 0.0, 0.0
    # beta = pi: R = Rz(alpha) Ry(pi), first row (-cos a, -sin a, 0)
    return float(np.arctan2(-m01, -m00)), float(np.pi), 0.0


def covering_map(u: SU2Element) -> Rotation:
    """The 2:1 homomorphism SU(2) -> SO(3) in closed form."""
    return Rotation(_cover(complex(u.x), complex(u.y)))


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
    q = _quaternion_from_matrix(r.m.tolist())
    x, y = _normalize_sign(complex(q[0], -q[3]), complex(-q[2], -q[1]))
    norm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    return SU2Element(x / norm, y / norm)


def haar_su2(rng: np.random.Generator) -> SU2Element:
    """Haar-random SU(2) element from a normalized 4-normal vector."""
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))


def cover_check(samples: int, seed: int) -> dict:
    """max |R(u1 u2) - R(u1) R(u2)|, max |R(-u1) - R(u1)| and whether R(u1) = 1 only at u1 = +-1,
    over ``samples`` Haar-random pairs drawn with ``default_rng(seed)``, as a dict; ``check_failed``
    when a defect is above its bound (1e-10, 1e-14) or the kernel test fails."""
    samples = check_count(samples, "the sample count", cap=MAX_SAMPLES)
    # the 4-normal draws of 2n successive haar_su2 calls, u1 then u2 of each sample
    v = np.random.default_rng(check_count(seed, "the seed")).standard_normal((samples, 2, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    (x1, y1), (x2, y2) = v.view(complex).transpose(1, 2, 0)  # x = v0 + i v1, y = v2 + i v3
    pairs = ((x1, y1), (x2, y2), _su2_product(x1, y1, x2, y2), (-x1, -y1))  # u1, u2, u1 u2, -u1
    r1, r2, prod, neg = (_check_so3(_cover(x, y), (samples, 3, 3)) for x, y in pairs)
    worst_h = float(np.abs(prod - r1 @ r2).max(initial=0.0))
    worst_sign = float(np.abs(neg - r1).max(initial=0.0))
    near_identity = np.abs(r1 - np.eye(3)).max(axis=(1, 2)) <= 1e-10
    near = np.minimum(abs(x1 - 1) + abs(y1), abs(x1 + 1) + abs(y1))
    kernel_ok = bool((near[near_identity] <= 1e-8).all())
    if not (worst_h <= 1e-10 and worst_sign <= 1e-14 and kernel_ok):
        raise DomainError("check_failed", "covering-map defect above tolerance")
    return {"max_homomorphism_defect": worst_h, "max_sign_defect": worst_sign,
            "kernel_ok": kernel_ok}
