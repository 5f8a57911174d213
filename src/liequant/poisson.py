"""Classical brackets on polynomial observables and rigid-body dynamics.

Polynomials are sparse maps from exponent tuples to coefficients.  A
polynomial whose coefficients are all exact (ints, Fractions, numpy
integers) stores them as integer numerators over one positive, reduced
denominator, so its arithmetic runs on Python ints and bracket
identities like Jacobi can be checked with zero tolerance.  Once a float
or complex coefficient enters, the coefficients are kept as given.
``terms`` reads either form as a new dict, with exact coefficients as
Fractions, so mutating it does not change the polynomial.  The
canonical bracket acts on polynomials in (p, q), the rotational bracket
on polynomials in (J1, J2, J3), and the free rigid body is integrated
with fixed-step classical RK4.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, index

from .errors import MAX_SAMPLES, DomainError, check_count, check_real

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
    "RigidBodyTrajectory",
    "euler_rhs",
    "integrate_rigid_body",
    "trajectory_csv",
]


def _exactify(value):
    """Rationals (numpy integers too) become Fractions of Python ints; floats pass through."""
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    return value


def _sum_terms(items) -> dict:
    """Sum (exponent, coefficient) pairs in order, dropping the sums that are zero."""
    terms = {}
    for expo, coeff in items:
        if expo in terms:
            coeff = terms[expo] + coeff
        if coeff == 0:
            terms.pop(expo, None)
        else:
            terms[expo] = coeff
    return terms


def _scaled(poly: "SparsePoly", den: int):
    """The numerators of an exact ``poly`` over ``den``, a multiple of its own denominator."""
    scale = den // poly.den
    if scale == 1:
        return poly.nums.items()
    return ((expo, num * scale) for expo, num in poly.nums.items())


def _numeric(op):
    """``op`` for an operand that is a ``SparsePoly`` or a number, else ``NotImplemented``."""
    def checked(self, other):
        if isinstance(other, (SparsePoly, numbers.Number)):
            return op(self, other)
        return NotImplemented
    return checked


class SparsePoly:
    """Sparse polynomial in ``nvars`` variables; zero coefficients are dropped.

    An exact polynomial has ``nums[e] / den`` as the coefficient of ``e``, with
    ``den > 0`` and ``gcd(den, *nums.values()) == 1``; any other has
    ``den is None`` and its coefficients in ``nums``.
    """

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms=None):
        items = []
        for expo, coeff in (terms or {}).items():
            try:
                expo = tuple(map(index, expo))
            except TypeError:
                raise DomainError("bad_exponent", str(expo)) from None
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise DomainError("bad_exponent", str(expo))
            items.append((expo, _exactify(coeff)))
        self.nvars = nvars
        if all(isinstance(c, Fraction) for _, c in items):
            den = math.lcm(*(c.denominator for _, c in items))
            items = [(e, c.numerator * (den // c.denominator)) for e, c in items]
        else:
            den = None
        self._store(den, items)

    def _store(self, den, items):
        """Sum ``items`` into ``nums`` over ``den`` and reduce an exact result once."""
        nums = _sum_terms(items)
        if den is not None:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {expo: num // g for expo, num in nums.items()}
        self.den = den
        self.nums = nums

    @classmethod
    def _summed(cls, nvars: int, den, items) -> "SparsePoly":
        """The sum of ``items`` over ``den``, whose exponents the arithmetic below made valid."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._store(den, items)
        return out

    @property
    def terms(self) -> dict:
        """A new dict {exponent: coefficient}; exact coefficients are read as Fractions."""
        if self.den is None:
            return dict(self.nums)
        den = self.den
        return {expo: Fraction(num, den) for expo, num in self.nums.items()}

    def _check(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise DomainError("shape", "polynomials over different variables")

    def _poly(self, other) -> "SparsePoly":
        return other if isinstance(other, SparsePoly) else constant(self.nvars, other)

    @_numeric
    def __add__(self, other):
        other = self._poly(other)
        self._check(other)
        if self.den is None or other.den is None:
            return SparsePoly._summed(self.nvars, None, chain(self.terms.items(), other.terms.items()))
        den = math.lcm(self.den, other.den)
        return SparsePoly._summed(self.nvars, den, chain(_scaled(self, den), _scaled(other, den)))

    @_numeric
    def __radd__(self, other):
        return constant(self.nvars, other) + self

    def __neg__(self):
        return SparsePoly._summed(self.nvars, self.den, [(e, -c) for e, c in self.nums.items()])

    @_numeric
    def __sub__(self, other):
        return self + (-self._poly(other))

    @_numeric
    def __rsub__(self, other):
        return constant(self.nvars, other) + (-self)

    @_numeric
    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            scalar = _exactify(other)
            if self.den is not None and isinstance(scalar, Fraction):
                den, coeffs, scalar = self.den * scalar.denominator, self.nums, scalar.numerator
            else:
                den, coeffs = None, self.terms
            return SparsePoly._summed(self.nvars, den, [(e, c * scalar) for e, c in coeffs.items()])
        self._check(other)
        if self.den is None or other.den is None:
            den, left, right = None, self.terms, other.terms
        else:
            den, left, right = self.den * other.den, self.nums, other.nums
        return SparsePoly._summed(self.nvars, den, [
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in left.items() for e2, c2 in right.items()])

    __rmul__ = __mul__

    def diff(self, var: int) -> "SparsePoly":
        return SparsePoly._summed(self.nvars, self.den, [
            (expo[:var] + (expo[var] - 1,) + expo[var + 1:], coeff * expo[var])
            for expo, coeff in self.nums.items() if expo[var]])

    def is_zero(self) -> bool:
        return not self.nums

    @_numeric
    def __eq__(self, other):
        if isinstance(other, SparsePoly) and self.nvars != other.nvars:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        return " + ".join(f"{terms[expo]}*x^{expo}" for expo in sorted(terms, reverse=True))


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
        J, I = (tuple(v) if isinstance(v, Iterable) else () for v in (self.J, self.I))
        if len(J) != 3 or len(I) != 3 or any(isinstance(x, Iterable) and not isinstance(x, str)
                                             for x in J + I):  # as for an array: a nested entry
            raise DomainError("shape", "J and I must be 3-vectors")
        J, I = tuple(check_real(x, "J") for x in J), tuple(check_real(x, "I") for x in I)
        check_real(self.t, "t")
        if min(I) <= 0:
            raise DomainError("bad_inertia", "principal moments must be positive")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "I", I)

    @property
    def omega(self) -> tuple:
        return tuple(j / i for j, i in zip(self.J, self.I))

    @property
    def energy(self) -> float:
        return _invariants(*self.J, *self.I)[0]

    @property
    def j_squared(self) -> float:
        return _invariants(*self.J, *self.I)[1]


def _invariants(a, b, c, i1, i2, i3) -> tuple:
    """(E, J^2) of J = (a, b, c) under principal inertia (i1, i2, i3)."""
    aa, bb, cc = a * a, b * b, c * c
    return 0.5 * (aa / i1 + bb / i2 + cc / i3), aa + bb + cc


def _rhs(inertia):
    """J x omega with omega = I^{-1} J, as a function of the components of J."""
    i1, i2, i3 = inertia

    def rhs(a, b, c):
        w1, w2, w3 = a / i1, b / i2, c / i3
        return b * w3 - c * w2, c * w1 - a * w3, a * w2 - b * w1
    return rhs


def euler_rhs(state: RigidBodyState) -> tuple:
    """dJ/dt = J x omega with omega = I^{-1} J componentwise."""
    return _rhs(state.I)(*state.J)


class RigidBodyTrajectory(Sequence):
    """Rows (t, J1, J2, J3) under one inertia, equal to the list of their states.

    Reading an entry builds its ``RigidBodyState``; ``trajectory_csv`` reads the rows.
    """

    __slots__ = ("inertia", "rows")

    def __init__(self, inertia: tuple, rows: list):
        self.inertia = inertia
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._state(row) for row in self.rows[index]]
        return self._state(self.rows[index])

    def __iter__(self):
        return map(self._state, self.rows)

    def __eq__(self, other):
        if not isinstance(other, (list, RigidBodyTrajectory)):
            return NotImplemented
        return list(self) == list(other)

    def _state(self, row) -> RigidBodyState:
        return RigidBodyState(row[1:], self.inertia, row[0])


def integrate_rigid_body(s0: RigidBodyState, dt: float, steps: int) -> RigidBodyTrajectory:
    """Classical fixed-step RK4 trajectory, including the initial state.

    Step k is stamped t0 + k*dt, so the clock carries no accumulated
    roundoff.  A negative dt integrates backwards in time; a zero or
    non-finite dt is rejected with ``bad_dt``, more than ``MAX_SAMPLES``
    steps with ``size_cap``, and a trajectory leaving the float range with ``not_finite``.
    """
    steps = check_count(steps, "steps", 0, MAX_SAMPLES, "bad_steps")
    if (dt := check_real(dt, "dt", "bad_dt")) == 0:
        raise DomainError("bad_dt", "dt must be finite and nonzero")
    rhs, half, sixth, t0 = _rhs(s0.I), 0.5 * dt, dt / 6.0, s0.t
    a, b, c = s0.J
    rows = [(t0, a, b, c)]
    for k in range(1, steps + 1):
        p1, p2, p3 = rhs(a, b, c)
        q1, q2, q3 = rhs(a + half * p1, b + half * p2, c + half * p3)
        r1, r2, r3 = rhs(a + half * q1, b + half * q2, c + half * q3)
        s1, s2, s3 = rhs(a + dt * r1, b + dt * r2, c + dt * r3)
        a = a + sixth * (p1 + 2 * q1 + 2 * r1 + s1)
        b = b + sixth * (p2 + 2 * q2 + 2 * r2 + s2)
        c = c + sixth * (p3 + 2 * q3 + 2 * r3 + s3)
        rows.append((t0 + k * dt, a, b, c))
    # a NaN or infinite component stays so under the update, so the last row decides
    if not all(map(math.isfinite, rows[-1])):
        raise DomainError("not_finite", "the trajectory left the float range")
    return RigidBodyTrajectory(s0.I, rows)


def trajectory_csv(trajectory) -> str:
    """CSV dump with header t,J1,J2,J3,E,Jsq of a trajectory or a list of states."""
    if isinstance(trajectory, RigidBodyTrajectory):
        rows = (row + trajectory.inertia for row in trajectory.rows)
    else:
        rows = ((s.t, *s.J, *s.I) for s in trajectory)
    cells = []
    for t, a, b, c, i1, i2, i3 in rows:
        energy, j_squared = _invariants(a, b, c, i1, i2, i3)
        if not (math.isfinite(energy) and math.isfinite(j_squared)):
            raise DomainError("not_finite", "E or J^2 leaves the float range")
        cells += (t, a, b, c, energy, j_squared)
    line = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
    return "t,J1,J2,J3,E,Jsq\n" + line * (len(cells) // 6) % tuple(cells)
