"""Canonical and rotational brackets, rigid-body dynamics."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from liequant import poisson
from liequant.errors import DomainError
from liequant.rotations import hat
from liequant.poisson import (
    J1,
    J2,
    J3,
    P,
    Q,
    RigidBodyState,
    SparsePoly,
    euler_rhs,
    integrate_rigid_body,
    lie_poisson_so3,
    poisson_pq,
    poly_j,
    poly_pq,
    trajectory_csv,
)

J_SQUARED = J1 * J1 + J2 * J2 + J3 * J3


def random_poly(rng, nvars, max_degree=3):
    terms = {}
    for _ in range(rng.integers(1, 6)):
        expo = tuple(int(e) for e in rng.integers(0, max_degree + 1, nvars))
        terms[expo] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
    return poly_pq(terms) if nvars == 2 else poly_j(terms)


class TestCanonicalBracket:
    def test_ccr(self):
        assert poisson_pq(P, Q) == 1

    def test_antisymmetry(self):
        f = P * P * Q + 3 * Q
        assert poisson_pq(f, f).is_zero()

    def test_hand_derivative(self):
        # f_p g_q - g_p f_q = (2p)(2q) - 0 = 4pq
        assert poisson_pq(P * P, Q * Q) == 4 * P * Q

    def test_leibniz_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            f, g, h = (random_poly(rng, 2) for _ in range(3))
            lhs = poisson_pq(f, g * h)
            rhs = poisson_pq(f, g) * h + g * poisson_pq(f, h)
            assert (lhs - rhs).is_zero()

    def test_jacobi_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            f, g, h = (random_poly(rng, 2) for _ in range(3))
            total = (poisson_pq(f, poisson_pq(g, h))
                     + poisson_pq(g, poisson_pq(h, f))
                     + poisson_pq(h, poisson_pq(f, g)))
            assert total.is_zero()


class TestRotationalBracket:
    def test_generators(self):
        assert lie_poisson_so3(J1, J2) == J3
        assert lie_poisson_so3(J2, J3) == J1
        assert lie_poisson_so3(J3, J1) == J2

    def test_casimir(self):
        for g in (J1, J2, J3):
            assert lie_poisson_so3(J_SQUARED, g).is_zero()

    def test_jacobi_on_spec_triple(self):
        f, g, h = J1 * J1, J2 * J3, J1 * J2 * J3
        total = (lie_poisson_so3(f, lie_poisson_so3(g, h))
                 + lie_poisson_so3(g, lie_poisson_so3(h, f))
                 + lie_poisson_so3(h, lie_poisson_so3(f, g)))
        assert total.is_zero()

    def test_leibniz_and_jacobi_random(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            f, g, h = (random_poly(rng, 3) for _ in range(3))
            leib = lie_poisson_so3(f, g * h) - lie_poisson_so3(f, g) * h \
                - g * lie_poisson_so3(f, h)
            assert leib.is_zero()
            jac = (lie_poisson_so3(f, lie_poisson_so3(g, h))
                   + lie_poisson_so3(g, lie_poisson_so3(h, f))
                   + lie_poisson_so3(h, lie_poisson_so3(f, g)))
            assert jac.is_zero()


class TestEulerEquations:
    def test_principal_axis_is_stationary(self):
        state = RigidBodyState((0.0, 0.0, 2.5), (1.0, 2.0, 3.0))
        assert euler_rhs(state) == (0.0, 0.0, 0.0)

    def test_spherical_body(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            state = RigidBodyState(tuple(rng.standard_normal(3)), (1.0, 1.0, 1.0))
            assert np.allclose(euler_rhs(state), 0.0, atol=1e-15)

    def test_hand_cross_product(self):
        # J x omega with omega = (1, 1/2, 1/3), computed entrywise by hand
        state = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        expected = (1 / 3 - 1 / 2, 1.0 - 1 / 3, 1 / 2 - 1.0)
        assert np.allclose(euler_rhs(state), expected, atol=1e-15)

    def test_component_form(self):
        # I_k domega_k/dt = (I omega x omega)_k, standard component identities
        rng = np.random.default_rng(35)
        for _ in range(20):
            inertia = tuple(rng.uniform(0.5, 3.0, 3))
            j = tuple(rng.standard_normal(3))
            state = RigidBodyState(j, inertia)
            w = state.omega
            expected = (w[1] * w[2] * (inertia[1] - inertia[2]),
                        w[2] * w[0] * (inertia[2] - inertia[0]),
                        w[0] * w[1] * (inertia[0] - inertia[1]))
            assert np.allclose(euler_rhs(state), expected, atol=1e-12)


class TestIntegrator:
    def test_spherical_trajectory_constant(self):
        s0 = RigidBodyState((0.3, -0.4, 1.0), (1.0, 1.0, 1.0))
        traj = integrate_rigid_body(s0, 1e-2, 100)
        assert all(np.allclose(s.J, s0.J, atol=1e-13) for s in traj)

    def test_invariant_drift(self):
        s0 = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        traj = integrate_rigid_body(s0, 1e-3, 10_000)
        assert len(traj) == 10_001
        assert all(abs(s.j_squared - 3.0) <= 1e-8 for s in traj[::500])
        assert abs(traj[-1].j_squared - 3.0) <= 1e-8
        assert abs(traj[-1].energy - s0.energy) <= 1e-8

    def test_time_reversal(self):
        s0 = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        fwd = integrate_rigid_body(s0, 1e-3, 10_000)[-1]
        back = integrate_rigid_body(fwd, -1e-3, 10_000)[-1]
        assert max(abs(a - b) for a, b in zip(back.J, s0.J)) <= 1e-7

    def test_clock_is_exact_multiple_of_dt(self):
        s0 = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        traj = integrate_rigid_body(s0, 1e-3, 10_000)
        assert traj[-1].t == 10.0
        assert all(s.t == k * 1e-3 for k, s in enumerate(traj))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_rejects_bad_dt(self, dt):
        s0 = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        with pytest.raises(DomainError, match="bad_dt"):
            integrate_rigid_body(s0, dt, 3)

    def test_zero_steps(self):
        s0 = RigidBodyState((1.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert integrate_rigid_body(s0, 1e-3, 0) == [s0]

    def test_csv_header(self):
        s0 = RigidBodyState((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        text = trajectory_csv(integrate_rigid_body(s0, 1e-3, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "t,J1,J2,J3,E,Jsq"
        assert len(lines) == 4

    def test_rejects_bad_inertia(self):
        with pytest.raises(DomainError, match="bad_inertia"):
            RigidBodyState((1.0, 0.0, 0.0), (1.0, -2.0, 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fields(self, bad):
        for j, inertia, t in (((1.0, bad, 0.2), (1.0, 2.0, 3.0), 0.0),
                              ((1.0, 0.5, 0.2), (1.0, bad, 3.0), 0.0),
                              ((1.0, 0.5, 0.2), (1.0, 2.0, 3.0), bad)):
            with pytest.raises(DomainError, match="not_finite"):
                RigidBodyState(j, inertia, t)

    @pytest.mark.parametrize("bad", [5, 2.5, ((1, 2), 0, 0), (1, [2], 0), (1.0, 0.5),
                                     (1.0, 0.5, 0.2, 0.1), np.ones((3, 1))],
                             ids=["int", "float", "nested", "inner list", "short", "long", "column"])
    def test_a_vector_of_another_shape_is_shape(self, bad):
        # as rotations.hat reads a 3-vector; 5 and ((1, 2), 0, 0) raised TypeError
        with pytest.raises(DomainError, match="shape"):
            hat(bad)
        with pytest.raises(DomainError, match="shape"):
            RigidBodyState(bad, (1.0, 2.0, 3.0))
        with pytest.raises(DomainError, match="shape"):
            RigidBodyState((1.0, 0.5, 0.2), bad)

    @pytest.mark.parametrize("bad", [("1", 0.5, 0.2), "123", (1.0, None, 0.2)],
                             ids=["str entry", "str", "None entry"])
    def test_an_entry_that_is_not_a_number_is_type_error(self, bad):
        with pytest.raises(TypeError):
            hat(bad)
        with pytest.raises(TypeError):
            RigidBodyState(bad, (1.0, 2.0, 3.0))


class TestTrajectoryAccess:
    def test_sequence_protocol(self):
        s0 = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        traj = integrate_rigid_body(s0, 1e-2, 10)
        states = list(traj)
        assert len(traj) == 11 and len(states) == 11
        assert traj[0] == s0 and traj[-1] == states[-1] and traj[-11] == s0
        assert traj[2:9:3] == [states[2], states[5], states[8]]
        assert traj == states and traj != states[:-1] and traj != "rows"
        with pytest.raises(IndexError):
            traj[11]

    def test_not_finite_trajectory(self):
        s0 = RigidBodyState((1e200, 1.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(DomainError, match="not_finite"):
            integrate_rigid_body(s0, 1.0, 3)

    def test_not_finite_energy(self):
        # J stays finite on a principal axis, but E = J^2 / (2 I) overflows
        s0 = RigidBodyState((1e5, 0.0, 0.0), (1e-300, 1.0, 1.0))
        traj = integrate_rigid_body(s0, 1e-3, 2)
        with pytest.raises(DomainError, match="not_finite"):
            trajectory_csv(traj)

    def test_not_finite_energy_on_a_middle_state(self):
        # a list of states, each finite, whose middle E = J^2 / (2 I) overflows
        ok = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        states = [ok, RigidBodyState((1e5, 0.0, 0.0), (1e-300, 1.0, 1.0), 1.0), ok]
        with pytest.raises(DomainError, match="not_finite"):
            trajectory_csv(states)
        assert trajectory_csv(states[::2]).count("\n") == 3


# ---------------------------------------------------------------------------
# Test-only oracles: the per-step RK4, CSV writer and term-by-term validating
# arithmetic that the flat-row integrator and the one trusted term sum replaced.


def reference_rhs(j, inertia):
    """J x omega on tuples, omega = I^{-1} J."""
    w = (j[0] / inertia[0], j[1] / inertia[1], j[2] / inertia[2])
    return (j[1] * w[2] - j[2] * w[1], j[2] * w[0] - j[0] * w[2], j[0] * w[1] - j[1] * w[0])


def reference_integrate(s0, dt, steps):
    """One RigidBodyState per RK4 step, tuples rebuilt at every stage."""
    inertia = s0.I

    def rhs(j):
        return reference_rhs(j, inertia)

    out = [s0]
    j = s0.J
    for k in range(1, steps + 1):
        k1 = rhs(j)
        k2 = rhs(tuple(j[i] + 0.5 * dt * k1[i] for i in range(3)))
        k3 = rhs(tuple(j[i] + 0.5 * dt * k2[i] for i in range(3)))
        k4 = rhs(tuple(j[i] + dt * k3[i] for i in range(3)))
        j = tuple(j[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(3))
        out.append(RigidBodyState(j, inertia, s0.t + k * dt))
    return out


def reference_csv(trajectory):
    buf = io.StringIO()
    buf.write("t,J1,J2,J3,E,Jsq\n")
    for s in trajectory:
        buf.write(f"{s.t:.17g},{s.J[0]:.17g},{s.J[1]:.17g},{s.J[2]:.17g},"
                  f"{s.energy:.17g},{s.j_squared:.17g}\n")
    return buf.getvalue()


class ReferencePoly:
    """Sparse polynomial whose every term, in every operation, is checked and added one at a
    time, as ``SparsePoly`` did before its constructor and its arithmetic shared one sum."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for expo, coeff in (terms or {}).items():
            self._add_term(tuple(expo), Fraction(coeff) if isinstance(coeff, int) else coeff)

    def _add_term(self, expo, coeff):
        if len(expo) != self.nvars or any(e < 0 for e in expo):
            raise DomainError("bad_exponent", str(expo))
        new = self.terms.get(expo, 0) + coeff
        if new == 0:
            self.terms.pop(expo, None)
        else:
            self.terms[expo] = new

    def __add__(self, other):
        out = ReferencePoly(self.nvars, self.terms)
        for expo, coeff in other.terms.items():
            out._add_term(expo, coeff)
        return out

    def __neg__(self):
        return ReferencePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = ReferencePoly(self.nvars)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    def diff(self, var):
        out = ReferencePoly(self.nvars)
        for expo, coeff in self.terms.items():
            k = expo[var]
            if k:
                new = list(expo)
                new[var] = k - 1
                out._add_term(tuple(new), coeff * k)
        return out


def reference_bracket(f, g):
    """poisson_pq or lie_poisson_so3, written for ReferencePoly."""
    if f.nvars == 2:
        return f.diff(0) * g.diff(1) - g.diff(0) * f.diff(1)
    df = [f.diff(k) for k in range(3)]
    dg = [g.diff(k) for k in range(3)]
    cross = [df[1] * dg[2] - df[2] * dg[1], df[2] * dg[0] - df[0] * dg[2],
             df[0] * dg[1] - df[1] * dg[0]]
    js = [ReferencePoly(3, {tuple(int(i == k) for i in range(3)): 1}) for k in range(3)]
    return js[0] * cross[0] + js[1] * cross[1] + js[2] * cross[2]


def bracket(f, g):
    return poisson_pq(f, g) if f.nvars == 2 else lie_poisson_so3(f, g)


def same_terms(poly, ref):
    """Equal terms in equal order with equal coefficient types."""
    return (list(poly.terms.items()) == list(ref.terms.items())
            and [type(c) for c in poly.terms.values()] == [type(c) for c in ref.terms.values()])


def workload_poly(rng, nvars, nterms=3):
    """The benchmark's bracket generator: nterms monomials, degree <= 3 per variable."""
    terms = {}
    while len(terms) < nterms:
        expo = tuple(int(e) for e in rng.integers(0, 4, nvars))
        numerator = int(rng.choice([-1, 1]) * rng.integers(1, 10))
        terms[expo] = Fraction(numerator, int(rng.integers(1, 10)))
    return terms


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_csv_bytes(self, seed):
        rng = np.random.default_rng(400 + seed)
        for dt in (1e-3, -1e-3, 2e-3, 0.1, -0.1):
            for steps in (0, 1, 250):
                inertia = tuple(float(x) for x in np.sort(rng.uniform(0.5, 3.0, 3)))
                s0 = RigidBodyState(tuple(rng.standard_normal(3)), inertia, float(seed))
                traj = integrate_rigid_body(s0, dt, steps)
                expected = reference_integrate(s0, dt, steps)
                assert list(traj) == expected
                assert trajectory_csv(traj) == reference_csv(expected)
                assert trajectory_csv(expected) == reference_csv(expected)

    def test_no_state_per_step(self, monkeypatch):
        s0 = RigidBodyState((1.0, 0.5, 0.2), (1.0, 2.0, 3.0))
        built = []
        original = RigidBodyState.__post_init__
        monkeypatch.setattr(RigidBodyState, "__post_init__",
                            lambda self: built.append(1) or original(self))
        text = trajectory_csv(integrate_rigid_body(s0, 1e-3, 3000))
        assert built == [] and text.count("\n") == 3002

    @pytest.mark.parametrize("kind", ["pq", "so3"])
    def test_bracket_terms_on_workload_polys(self, kind):
        nvars = 2 if kind == "pq" else 3
        rng = np.random.default_rng(17 if kind == "pq" else 18)
        for _ in range(12):
            triple = [workload_poly(rng, nvars) for _ in range(3)]
            f, g, h = (SparsePoly(nvars, t) for t in triple)
            rf, rg, rh = (ReferencePoly(nvars, t) for t in triple)
            for a, b, c, ra, rb, rc in ((f, g, h, rf, rg, rh), (g, h, f, rg, rh, rf)):
                assert same_terms(bracket(a, bracket(b, c)),
                                  reference_bracket(ra, reference_bracket(rb, rc)))

    @pytest.mark.parametrize("f_terms, g_terms", [
        ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}),        # (p+q)(p-q): pq cancels
        ({(2, 0): Fraction(1, 2)}, {(2, 0): Fraction(1, 2)}),     # f - g is zero
        ({(1, 0): 0.5, (0, 1): 1}, {(0, 1): 1, (1, 0): -0.5}),    # floats cancel to 0.0
        ({(1, 0): 0.5, (0, 1): 1, (1, 1): Fraction(1, 3)},
         {(0, 1): 1, (1, 0): -0.5, (0, 0): 3}),                   # then a Fraction lands there
        ({(1, 1): 1e-200, (0, 0): 1}, {(1, 1): 1e-200, (2, 2): -1}),  # the product underflows
    ])
    def test_arithmetic_on_cancelling_cases(self, f_terms, g_terms):
        f, g = poly_pq(f_terms), poly_pq(g_terms)
        rf, rg = ReferencePoly(2, f_terms), ReferencePoly(2, g_terms)
        for poly, ref in ((f + g, rf + rg), (f - g, rf - rg), (-f, -rf), (f * g, rf * rg),
                          (f * f - g * g, rf * rf - rg * rg), (f.diff(0), rf.diff(0)),
                          (g.diff(1), rg.diff(1)), (poisson_pq(f, g), reference_bracket(rf, rg))):
            assert same_terms(poly, ref)
        assert (f - f).is_zero() and (f * 0).is_zero()

    def test_brackets_do_not_revalidate(self, monkeypatch):
        f, g = J1 * J2 + J3 * J3 * J3, J1 * J1 - 2 * J2 * J3
        p, q = P * P * Q - Q, Q * Q + P
        # every bracket result comes from the trusted sum, never the validating constructor
        monkeypatch.setattr(SparsePoly, "__init__", lambda *args: pytest.fail("__init__ ran"))
        assert not lie_poisson_so3(f, g).is_zero()
        assert not poisson_pq(p, q).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_euler_rhs_bits(self, seed):
        rng = np.random.default_rng(500 + seed)
        for _ in range(250):
            inertia = tuple(float(x) for x in rng.uniform(0.1, 5.0, 3))
            j = tuple(float(x) * 10.0 ** int(rng.integers(-3, 4)) for x in rng.standard_normal(3))
            got, expected = euler_rhs(RigidBodyState(j, inertia)), reference_rhs(j, inertia)
            assert [x.hex() for x in got] == [x.hex() for x in expected]

    def test_invariant_bits(self):
        # the CSV rows read E and J^2 from the same formula, so test_csv_bytes covers them too
        rng = np.random.default_rng(510)
        for _ in range(1000):
            (a, b, c), (i1, i2, i3) = rng.standard_normal(3).tolist(), rng.uniform(0.1, 5.0, 3).tolist()
            state = RigidBodyState((a, b, c), (i1, i2, i3))
            assert state.energy.hex() == (0.5 * (a * a / i1 + b * b / i2 + c * c / i3)).hex()
            assert state.j_squared.hex() == (a * a + b * b + c * c).hex()

    def test_constructor_still_validates(self):
        with pytest.raises(DomainError, match="bad_exponent"):
            poly_pq({(1, -1): 1})
        with pytest.raises(DomainError, match="bad_exponent"):
            poly_j({(1, 0): 1})


# ---------------------------------------------------------------------------
# Exact coefficients as integer numerators over one reduced denominator


BIG_PRIMES = (2**31 - 1, 1_000_000_007, 2**61 - 1)


def check_reduced(poly):
    """An exact polynomial keeps one positive denominator, coprime to its int numerators."""
    if poly.den is not None:
        assert type(poly.den) is int and poly.den > 0
        assert all(type(n) is int for n in poly.nums.values())
        assert math.gcd(poly.den, *poly.nums.values()) == 1


def reference_constant(nvars, value):
    return ReferencePoly(nvars, {(0,) * nvars: value})


class TestIntegerNumerators:
    def test_operations_against_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        exact = st.one_of(st.integers(-9, 9), st.builds(
            Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 6, *BIG_PRIMES))))
        inexact = st.floats(-4.0, 4.0)
        coeffs = {"exact": exact, "float": inexact, "mixed": st.one_of(exact, inexact)}
        scalars = st.one_of(st.just(0), exact, inexact)

        def br(x, y):
            return bracket(x, y) if isinstance(x, SparsePoly) else reference_bracket(x, y)

        def with_scalar(op):
            # a scalar on a ReferencePoly is its constant polynomial
            return lambda x, s: op(x, s if isinstance(x, SparsePoly) else reference_constant(x.nvars, s))

        ops = {  # name: (polynomial operands, strategy of the extra operand given nvars, function)
            "add": (2, None, lambda x, y: x + y),
            "sub": (2, None, lambda x, y: x - y),
            "mul": (2, None, lambda x, y: x * y),
            "bracket": (2, None, br),
            "neg": (1, None, lambda x: -x),
            "cancel": (1, None, lambda x: x - x),
            "jacobi": (3, None, lambda f, g, h: br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))),
            "diff": (1, lambda nvars: st.integers(0, nvars - 1), lambda x, var: x.diff(var)),
            "scalar": (1, lambda nvars: scalars, with_scalar(lambda x, s: x * s)),
            "rscalar": (1, lambda nvars: scalars, with_scalar(lambda x, s: s * x)),
            "radd": (1, lambda nvars: scalars, with_scalar(lambda x, s: s + x)),
            "rsub": (1, lambda nvars: scalars, with_scalar(lambda x, s: s - x)),
        }

        @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
        @hypothesis.given(st.data())
        def run(data):
            draw = data.draw
            nvars = draw(st.sampled_from((2, 3)))
            expos = st.tuples(*[st.integers(0, 3)] * nvars)
            pool = []
            for _ in range(3):
                terms = draw(st.dictionaries(expos, coeffs[draw(st.sampled_from(sorted(coeffs)))],
                                             min_size=1, max_size=4))
                pool.append((SparsePoly(nvars, terms), ReferencePoly(nvars, terms)))
            for _ in range(6):
                arity, extra, fn = ops[draw(st.sampled_from(sorted(ops)))]
                args = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(arity)]
                more = [draw(extra(nvars))] if extra else []
                poly, ref = fn(*(a for a, _ in args), *more), fn(*(r for _, r in args), *more)
                assert same_terms(poly, ref)
                check_reduced(poly)
                if 0 < len(poly.nums) <= 24:
                    pool.append((poly, ref))

        run()

    def test_brackets_do_no_fraction_arithmetic(self, monkeypatch):
        rng = np.random.default_rng(19)
        triples = [[SparsePoly(nvars, workload_poly(rng, nvars)) for _ in range(3)]
                   for nvars in (2, 3) for _ in range(4)]
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(Fraction, name, lambda *args: pytest.fail("Fraction arithmetic"))
        for f, g, h in triples:
            inner = bracket(g, h)
            assert not bracket(f, inner).is_zero()
            assert (bracket(f, inner) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g))).is_zero()
        assert lie_poisson_so3(J_SQUARED * Fraction(1, 3), J1 * J2 * Fraction(5, 7)).is_zero()

    def test_reduced_after_every_operation(self):
        x = J_SQUARED * Fraction(1, 6)
        power = poly_j({(0, 0, 0): 1})
        for k in range(1, 7):
            power = power * x
            check_reduced(power)
            assert power.den == 6**k
            whole = power * 6**k
            check_reduced(whole)
            assert whole.den == 1 and whole.terms[(2 * k, 0, 0)] == 1
        half = P * Fraction(1, 2)
        for poly, den in ((half + half, 1), (half - half, 1), (-half, 2), (P * P * P * Fraction(1, 3), 3),
                          ((P * P * P * Fraction(1, 3)).diff(0), 1), (half * Fraction(2, 3), 3),
                          (half * 0, 1), (1 - half, 2), (Fraction(1, 2) + half, 2)):
            check_reduced(poly)
            assert poly.den == den

    def test_sums_over_one_denominator_scale_nothing(self, monkeypatch):
        # a sum runs over the least common denominator, so equal denominators add raw numerators
        prime = BIG_PRIMES[-1]
        f = poly_j({(1, 0, 0): Fraction(3, prime), (0, 1, 0): Fraction(1, prime)})
        g = poly_j({(1, 0, 0): Fraction(-2, prime), (0, 0, 1): Fraction(5, prime)})
        summed, sum_terms = [], poisson._sum_terms

        def spy(items):
            items = list(items)
            summed.extend(num for _, num in items)
            return sum_terms(items)
        monkeypatch.setattr(poisson, "_sum_terms", spy)
        assert (f + g).terms == {(1, 0, 0): Fraction(1, prime), (0, 1, 0): Fraction(1, prime),
                                 (0, 0, 1): Fraction(5, prime)}
        assert (f - g).den == prime and summed and max(map(abs, summed)) == 5

    def test_numpy_integer_coefficients_are_exact(self):
        x = poly_pq({(1, 0): np.int64(3_000_000_000)})
        cube = x * x * x
        assert cube.terms == {(3, 0): 27 * 10**27}
        assert [type(c) for c in cube.terms.values()] == [Fraction]
        assert (P * np.int64(2**62) * np.int64(4)).terms == {(1, 0): 2**64}
        assert poly_pq({(0, 1): np.uint8(200), (1, 0): np.int32(-7)}) * 2 == 400 * Q - 14 * P

    @pytest.mark.parametrize("expo", [(1.5, 0), (2.0, 0), (Fraction(1), 0), ("1", 0), (1, None)])
    def test_rejects_non_integer_exponents(self, expo):
        with pytest.raises(DomainError, match="bad_exponent"):
            poly_pq({expo: 1})

    def test_integer_exponents_are_python_ints(self):
        poly = poly_pq({(np.int64(2), True): 3, (np.uint8(1), np.int32(0)): 1})
        assert poly.terms == {(2, 1): 3, (1, 0): 1}
        assert all(type(e) is int for expo in poly.terms for e in expo)
        assert poly.diff(0).terms == {(1, 1): 6, (0, 0): 1}

    @pytest.mark.parametrize("value", [1, -3, Fraction(2, 7), 0.5, -2.25])
    def test_reflected_add_and_sub(self, value):
        f = {(1, 0): 1, (0, 2): Fraction(-1, 3)}
        poly, ref = poly_pq(f), ReferencePoly(2, f)
        assert same_terms(value + poly, reference_constant(2, value) + ref)
        assert same_terms(value - poly, reference_constant(2, value) - ref)
        assert value + poly == poly + value and value - poly == -(poly - value)

    def test_equality_with_other_types(self):
        for other in ("x", None, [1], object()):
            assert (P == other) is False and (P != other) is True
        assert P == P * 1 and P + 1 == 1 + P and poly_pq() == 0 and poly_pq() == 0.0

    def test_terms_is_a_new_dict(self):
        poly = P * Fraction(1, 2) + Q
        terms = poly.terms
        assert terms is not poly.terms and terms == poly.terms
        terms[(0, 0)] = 5
        del terms[(1, 0)]
        assert poly.terms == {(1, 0): Fraction(1, 2), (0, 1): 1}
        floats = P * 0.5
        floats.terms.clear()
        assert floats.terms == {(1, 0): 0.5}


class TestOperands:
    """Arithmetic takes a SparsePoly or a number; anything else is a TypeError at the operator."""

    @pytest.mark.parametrize("operate", [
        lambda: Q + "x",  # returned a polynomial with a str coefficient
        lambda: "x" + Q,
        lambda: Q - "x",
        lambda: "x" - Q,  # returned a polynomial with a str coefficient
        lambda: P * [1],  # failed deep in the term loop
        lambda: [1] * P,
        lambda: P * None,
        lambda: P + (1, 2),
    ], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "mul_none", "add_tuple"])
    def test_other_operands_raise_type_error(self, operate):
        with pytest.raises(TypeError):
            operate()

    @pytest.mark.parametrize("number", [2, Fraction(1, 3), 0.5, np.int64(3), np.float64(0.25),
                                        True])
    def test_numbers_are_constants(self, number):
        c = poisson.constant(2, number)
        assert Q + number == Q + c and number + Q == c + Q
        assert Q - number == Q - c and number - Q == c - Q
        assert Q * number == Q * c and number * Q == c * Q

    def test_equality_with_other_operands_is_false(self):
        assert Q.__eq__("x") is NotImplemented
        assert Q != "x" and Q != [1] and Q != None  # noqa: E711
        assert Q != poisson.poly_j({(0, 1, 0): 1})  # other variables
        assert poisson.constant(2, 3) == 3 and 3 == poisson.constant(2, 3)
