"""Classical brackets on polynomial observables and rigid-body dynamics.

Polynomials are sparse maps from exponent tuples to coefficients.
Coefficients stay exact (int/Fraction) whenever the inputs are exact, so
bracket identities like Jacobi can be checked with zero tolerance.  The
canonical bracket acts on polynomials in (p, q), the rotational bracket
on polynomials in (J1, J2, J3), and the free rigid body is integrated
with fixed-step classical RK4.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "SparsePoly",
    "poly_pq",
    "poly_j",
    "P",
    "Q",
    "J1",
    "J2",
    "J3",
    "poisson_pq",
    "lie_poisson_so3",
    "RigidBodyState",
    "euler_rhs",
    "integrate_rigid_body",
    "trajectory_csv",
]


def _exactify(value):
    """Ints become Fractions so arithmetic stays exact; floats pass through."""
    if isinstance(value, int):
        return Fraction(value)
    return value


class SparsePoly:
    """Sparse polynomial in ``nvars`` variables; zero coefficients are dropped."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                self._add_term(tuple(expo), _exactify(coeff))

    def _add_term(self, expo, coeff):
        if len(expo) != self.nvars or any(e < 0 for e in expo):
            raise DomainError("bad_exponent", str(expo))
        new = self.terms.get(expo, 0) + coeff
        if new == 0:
            self.terms.pop(expo, None)
        else:
            self.terms[expo] = new

    def _check(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise DomainError("shape", "polynomials over different variables")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = constant(self.nvars, other)
        self._check(other)
        out = SparsePoly(self.nvars, self.terms)
        for expo, coeff in other.terms.items():
            out._add_term(expo, coeff)
        return out

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            out = SparsePoly(self.nvars)
            scalar = _exactify(other)
            for expo, coeff in self.terms.items():
                out._add_term(expo, coeff * scalar)
            return out
        self._check(other)
        out = SparsePoly(self.nvars)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    __rmul__ = __mul__

    def diff(self, var: int) -> "SparsePoly":
        out = SparsePoly(self.nvars)
        for expo, coeff in self.terms.items():
            k = expo[var]
            if k:
                new = list(expo)
                new[var] = k - 1
                out._add_term(tuple(new), coeff * k)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return (self - constant(self.nvars, other)).is_zero()
        return self.nvars == other.nvars and (self - other).is_zero()

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            parts.append(f"{self.terms[expo]}*x^{expo}")
        return " + ".join(parts)


def constant(nvars: int, value) -> SparsePoly:
    return SparsePoly(nvars, {(0,) * nvars: value})


def _variable(nvars: int, var: int) -> SparsePoly:
    expo = [0] * nvars
    expo[var] = 1
    return SparsePoly(nvars, {tuple(expo): 1})


def poly_pq(terms=None) -> SparsePoly:
    """Polynomial in (p, q); exponent pairs (i, j) mean p^i q^j."""
    return SparsePoly(2, terms)


def poly_j(terms=None) -> SparsePoly:
    """Polynomial in (J1, J2, J3)."""
    return SparsePoly(3, terms)


P = _variable(2, 0)
Q = _variable(2, 1)
J1 = _variable(3, 0)
J2 = _variable(3, 1)
J3 = _variable(3, 2)


def poisson_pq(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Canonical bracket f_p g_q - g_p f_q on polynomials in (p, q)."""
    if f.nvars != 2 or g.nvars != 2:
        raise DomainError("shape", "poisson_pq expects polynomials in (p, q)")
    return f.diff(0) * g.diff(1) - g.diff(0) * f.diff(1)


def lie_poisson_so3(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Rotational bracket J . (grad f x grad g) on polynomials in J."""
    if f.nvars != 3 or g.nvars != 3:
        raise DomainError("shape", "lie_poisson_so3 expects polynomials in J")
    df = [f.diff(k) for k in range(3)]
    dg = [g.diff(k) for k in range(3)]
    cross = [df[1] * dg[2] - df[2] * dg[1],
             df[2] * dg[0] - df[0] * dg[2],
             df[0] * dg[1] - df[1] * dg[0]]
    return J1 * cross[0] + J2 * cross[1] + J3 * cross[2]


# ---------------------------------------------------------------------------
# free rigid body


@dataclass(frozen=True)
class RigidBodyState:
    """Angular momentum J (kg m^2/s), principal inertia I (kg m^2), time t."""

    J: tuple
    I: tuple
    t: float = 0.0

    def __post_init__(self):
        J = tuple(float(x) for x in self.J)
        I = tuple(float(x) for x in self.I)
        if len(J) != 3 or len(I) != 3:
            raise DomainError("shape", "J and I must be 3-vectors")
        if min(I) <= 0:
            raise DomainError("bad_inertia", "principal moments must be positive")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "I", I)

    @property
    def omega(self) -> tuple:
        return tuple(j / i for j, i in zip(self.J, self.I))

    @property
    def energy(self) -> float:
        return 0.5 * sum(j * j / i for j, i in zip(self.J, self.I))

    @property
    def j_squared(self) -> float:
        return sum(j * j for j in self.J)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def euler_rhs(state: RigidBodyState) -> tuple:
    """dJ/dt = J x omega with omega = I^{-1} J componentwise."""
    return _cross(state.J, state.omega)


def integrate_rigid_body(s0: RigidBodyState, dt: float, steps: int):
    """Classical fixed-step RK4 trajectory, including the initial state.

    Step k is stamped t0 + k*dt, so the clock carries no accumulated
    roundoff.  A negative dt integrates backwards in time; a zero or
    non-finite dt is rejected with ``bad_dt``.
    """
    if steps < 0:
        raise DomainError("bad_steps", "steps must be nonnegative")
    if not math.isfinite(dt) or dt == 0:
        raise DomainError("bad_dt", "dt must be finite and nonzero")
    inertia = s0.I

    def rhs(j):
        w = (j[0] / inertia[0], j[1] / inertia[1], j[2] / inertia[2])
        return _cross(j, w)

    out = [s0]
    j = s0.J
    for k in range(1, steps + 1):
        k1 = rhs(j)
        k2 = rhs(tuple(j[i] + 0.5 * dt * k1[i] for i in range(3)))
        k3 = rhs(tuple(j[i] + 0.5 * dt * k2[i] for i in range(3)))
        k4 = rhs(tuple(j[i] + dt * k3[i] for i in range(3)))
        j = tuple(j[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                  for i in range(3))
        out.append(RigidBodyState(j, inertia, s0.t + k * dt))
    return out


def trajectory_csv(trajectory) -> str:
    """CSV dump with header t,J1,J2,J3,E,Jsq."""
    buf = io.StringIO()
    buf.write("t,J1,J2,J3,E,Jsq\n")
    for s in trajectory:
        buf.write(f"{s.t:.17g},{s.J[0]:.17g},{s.J[1]:.17g},{s.J[2]:.17g},"
                  f"{s.energy:.17g},{s.j_squared:.17g}\n")
    return buf.getvalue()
