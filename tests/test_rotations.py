"""Hat map, Rodrigues formula, Euler angles, covering map and its lift."""

import warnings

import numpy as np
import pytest

from liequant.errors import MAX_SAMPLES, DomainError, check_finite
from liequant.matrixcore import as_square, expm, is_special_orthogonal
from liequant.rotations import (
    Rotation,
    SU2Element,
    cover_check,
    covering_map,
    elementary,
    euler_zyz,
    haar_su2,
    hat,
    lift_to_su2,
    rodrigues,
    rotation_axis,
    vee,
)
from liequant.rotations import (
    _check_so3, _cover, _normalize_sign, _quaternion_from_matrix, _su2_product)


class TestHatVee:
    def test_z_generator(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(hat([0, 0, 1]), expected)

    def test_zero(self):
        assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))

    def test_cross_product_action(self):
        v = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(hat([1, 2, 3]) @ v, np.array([-3.0, 6.0, -3.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, u = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(hat(w) @ u, np.cross(w, u), atol=1e-14)

    def test_vee_round_trip(self):
        w = np.array([0.2, -1.4, 3.3])
        assert np.array_equal(vee(hat(w)), w)

    def test_vee_rejects_symmetric_part(self):
        with pytest.raises(DomainError, match="not_antisymmetric"):
            vee(np.eye(3))


class TestElementary:
    def test_z_matrix(self):
        g = 0.9
        expected = np.array([[np.cos(g), -np.sin(g), 0],
                             [np.sin(g), np.cos(g), 0],
                             [0, 0, 1]])
        assert np.allclose(elementary("z", g).m, expected, atol=1e-15)

    def test_x_zero_is_identity(self):
        assert np.array_equal(elementary("x", 0.0).m, np.eye(3))

    def test_y_quarter_turn(self):
        image = elementary("y", np.pi / 2).apply([0, 0, 1])
        assert np.allclose(image, [1, 0, 0], atol=1e-15)


class TestRodrigues:
    def test_matches_elementary_z(self):
        g = 1.3
        assert np.allclose(rodrigues([0, 0, g]).m, elementary("z", g).m, atol=1e-15)

    def test_zero_is_identity(self):
        assert np.array_equal(rodrigues([0.0, 0.0, 0.0]).m, np.eye(3))

    def test_agrees_with_series_exponential(self):
        a = np.array([0.3, -1.1, 0.7])
        assert np.max(np.abs(rodrigues(a).m - expm(hat(a)).real)) < 1e-13

    def test_agreement_up_to_norm_ten(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(300):
            a = rng.standard_normal(3)
            a *= rng.uniform(0, 10) / np.linalg.norm(a)
            worst = max(worst, float(np.max(np.abs(rodrigues(a).m - expm(hat(a)).real))))
        assert worst <= 1e-11

    def test_small_angle_branch(self):
        a = np.array([1e-6, -2e-6, 0.5e-6])
        assert np.max(np.abs(rodrigues(a).m - expm(hat(a)).real)) < 1e-15


class TestAxis:
    def test_elementary_z(self):
        axis = rotation_axis(elementary("z", 0.7))
        assert np.allclose(np.abs(axis), [0, 0, 1], atol=1e-12)

    def test_identity_token(self):
        assert rotation_axis(Rotation(np.eye(3))) == "identity"

    def test_parallel_to_rotation_vector(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal(3)
            a *= rng.uniform(0.1, np.pi - 0.05) / np.linalg.norm(a)
            axis = rotation_axis(rodrigues(a))
            assert np.linalg.norm(np.cross(axis, a / np.linalg.norm(a))) < 1e-8

    def test_fixed_by_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = covering_map(haar_su2(rng))
            axis = rotation_axis(r)
            if isinstance(axis, str):
                continue
            assert np.max(np.abs(r.m @ axis - axis)) <= 1e-8

    def test_near_half_turn(self):
        r = rodrigues(np.array([0.0, np.pi - 1e-9, 0.0]))
        axis = rotation_axis(r)
        assert np.max(np.abs(r.m @ axis - axis)) <= 1e-8


class TestEuler:
    def test_identity(self):
        assert euler_zyz(Rotation(np.eye(3))) == (0.0, 0.0, 0.0)

    def test_pure_y(self):
        alpha, beta, gamma = euler_zyz(elementary("y", 1.2))
        assert (alpha, gamma) == (0.0, 0.0)
        assert abs(beta - 1.2) < 1e-15

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            r = covering_map(haar_su2(rng))
            alpha, beta, gamma = euler_zyz(r)
            assert 0.0 <= beta <= np.pi
            rec = elementary("z", alpha) @ elementary("y", beta) @ elementary("z", gamma)
            worst = max(worst, float(np.max(np.abs(rec.m - r.m))))
        assert worst <= 1e-9

    def test_gimbal_folds_into_alpha(self):
        r = elementary("z", 0.3) @ elementary("z", 0.5)
        alpha, beta, gamma = euler_zyz(r)
        assert beta == 0.0 and gamma == 0.0
        assert abs(alpha - 0.8) < 1e-12


class TestCoveringMap:
    def test_x_rotation(self):
        for alpha in (0.2, 1.0, 2.8):
            u = SU2Element(np.cos(alpha / 2), -1j * np.sin(alpha / 2))
            assert np.allclose(covering_map(u).m, elementary("x", alpha).m, atol=1e-14)

    def test_unit_maps_to_identity(self):
        assert np.allclose(covering_map(SU2Element(1.0, 0.0)).m, np.eye(3), atol=0)

    def test_z_rotation(self):
        for gamma in (0.4, 2.0):
            u = SU2Element(np.exp(-1j * gamma / 2), 0.0)
            assert np.allclose(covering_map(u).m, elementary("z", gamma).m, atol=1e-14)

    def test_output_is_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert is_special_orthogonal(covering_map(haar_su2(rng)).m)

    def test_homomorphism(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            u1, u2 = haar_su2(rng), haar_su2(rng)
            defect = covering_map(u1 @ u2).m - covering_map(u1).m @ covering_map(u2).m
            worst = max(worst, float(np.max(np.abs(defect))))
        assert worst <= 1e-10

    def test_two_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = haar_su2(rng)
            assert np.max(np.abs(covering_map(-u).m - covering_map(u).m)) <= 1e-14

    def test_kernel_is_plus_minus_one(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            u = haar_su2(rng)
            if np.max(np.abs(covering_map(u).m - np.eye(3))) <= 1e-10:
                assert min(abs(u.x - 1) + abs(u.y), abs(u.x + 1) + abs(u.y)) <= 1e-8
        # and the two center elements do land on the identity
        for sign in (1.0, -1.0):
            assert np.max(np.abs(covering_map(SU2Element(sign, 0.0)).m - np.eye(3))) == 0.0


class TestCoverCheck:
    """The batched test of the covering map; tests/test_cli.py compares it with the loop."""

    def test_returns_the_defects_and_the_kernel_verdict(self):
        got = cover_check(500, 3)
        assert list(got) == ["max_homomorphism_defect", "max_sign_defect", "kernel_ok"]
        assert 0.0 < got["max_homomorphism_defect"] <= 1e-10 and got["max_sign_defect"] == 0.0
        assert list(map(type, got.values())) == [float, float, bool] and got["kernel_ok"]

    def test_caps_samples_before_it_reads_the_seed(self):
        for seed in (0, -1):
            with pytest.raises(DomainError, match="size_cap"):
                cover_check(MAX_SAMPLES + 1, seed)
        for samples, seed in ((-1, 0), (1, -1)):
            with pytest.raises(DomainError, match="bad_argument"):
                cover_check(samples, seed)


class TestSU2Element:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan")),
                                     complex(float("-inf"), 0)])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_rejects_non_finite_field(self, field, bad):
        x, y = (bad, 0.0) if field == "x" else (1.0, bad)
        with pytest.raises(DomainError, match="not_finite"):
            SU2Element(x, y)


class TestLift:
    def test_identity(self):
        u = lift_to_su2(Rotation(np.eye(3)))
        assert u.x == 1.0 and u.y == 0.0

    def test_x_rotation(self):
        for alpha in (0.3, 1.5, 2.9):
            u = lift_to_su2(elementary("x", alpha))
            assert abs(u.x - np.cos(alpha / 2)) < 1e-12
            assert abs(u.y - (-1j) * np.sin(alpha / 2)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(1000):
            r = covering_map(haar_su2(rng))
            worst = max(worst, float(np.max(np.abs(covering_map(lift_to_su2(r)).m - r.m))))
        assert worst <= 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u = lift_to_su2(covering_map(haar_su2(rng)))
            key = (u.x.real, u.x.imag, u.y.real, u.y.imag)
            first = next((v for v in key if abs(v) > 1e-12), 0.0)
            assert first >= 0.0


class TestRotationCheck:
    """Rotation's own check against the is_special_orthogonal verdict it replaced."""

    @staticmethod
    def reference_token(m):
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            return "shape"
        try:
            a = as_square(m)
        except DomainError as err:
            return err.token
        # is_special_orthogonal's body from when its bound could be set, here to 1e-9 absolute
        if np.max(np.abs(a.imag)) > 1e-9:
            return "not_rotation"
        r = a.real
        with np.errstate(over="ignore", invalid="ignore"):
            worst = np.max(np.abs(r.T @ r - np.eye(r.shape[0])))
        if not (np.isfinite(worst) and worst <= 1e-9):
            return "not_rotation"
        with np.errstate(over="ignore"):
            ok = bool(abs(np.linalg.det(r) - 1.0) <= 1e-9)
        return None if ok else "not_rotation"

    @staticmethod
    def token(m):
        try:
            Rotation(m)
        except DomainError as err:
            return err.token
        return None

    @staticmethod
    def boundary_matrices(rng):
        """Seeded rotations pushed to within 1e-12 of the 1e-9 bounds, and reflections."""
        for _ in range(300):
            q = covering_map(haar_su2(rng)).m
            delta = rng.uniform(-1e-12, 1e-12)
            # (1 + s)^2 - 1 = 1e-9 + delta puts max|m^T m - 1| at the bound
            s = np.sqrt(1.0 + 1e-9 + delta) - 1.0
            stretch = np.eye(3)
            stretch[rng.integers(3), rng.integers(3)] += s
            yield q @ stretch
            # c^3 = 1 + 1e-9 + delta puts |det - 1| at the bound with m^T m inside it
            yield q * np.cbrt(1.0 + 1e-9 + delta)
            yield q * np.cbrt(1.0 - 1e-9 - delta)
            yield -q
            yield q @ np.diag([1.0, 1.0, -1.0])

    def test_verdicts_match_near_the_bounds(self):
        rng = np.random.default_rng(2024)
        verdicts = [(self.token(m), self.reference_token(m)) for m in self.boundary_matrices(rng)]
        assert all(new == ref for new, ref in verdicts)
        # both outcomes occur, so the comparison is not one-sided
        assert {ref for _, ref in verdicts} == {None, "not_rotation"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, 3.0])
    def test_tokens_match_for_bad_entries(self, bad):
        for i in range(9):
            m = np.eye(3).ravel()
            m[i] = bad
            m = m.reshape(3, 3)
            assert self.token(m) == self.reference_token(m) is not None

    def test_shape_token(self):
        assert self.token(np.eye(2)) == self.reference_token(np.eye(2)) == "shape"

    def test_no_complex_cast_or_tolerance(self, monkeypatch):
        from liequant import matrixcore

        def refuse(*args, **kwargs):
            raise AssertionError("Rotation built a complex copy")

        monkeypatch.setattr(matrixcore, "as_square", refuse)
        rng = np.random.default_rng(11)
        u = haar_su2(rng)
        assert covering_map(lift_to_su2(covering_map(u))).m.shape == (3, 3)
        assert rodrigues([0.3, -1.1, 0.7]).m.shape == (3, 3)


class TestNonFiniteInput:
    @pytest.mark.parametrize("a", [[np.inf, 0, 0], [0, np.nan, 0], [1e200, 1e200, 0]])
    def test_rodrigues(self, a):
        with pytest.raises(DomainError, match="not_finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            rodrigues(a)

    def test_huge_rotation_vector(self):
        # the angle is finite, but X(a)^2 is past the float range
        with pytest.raises(DomainError, match="not_finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            rodrigues([1e160, 0.0, 0.0])

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_elementary(self, angle):
        with pytest.raises(DomainError, match="not_finite"):
            elementary("x", angle)

    @pytest.mark.parametrize("v", [[0.0, 0.0, np.inf], [np.nan, 0.0, 0.0], [1.5e308, 1.5e308, 0.0]])
    def test_apply(self, v):
        with pytest.raises(DomainError, match="not_finite"):
            rodrigues([0.0, 0.0, np.pi / 4]).apply(v)


class TestStackCheck:
    """_check_so3 on a stack gives each matrix the verdict Rotation gives it alone."""

    @staticmethod
    def stack(rng, n):
        return np.array([covering_map(haar_su2(rng)).m for _ in range(n)])

    def test_stack_of_rotations_passes(self):
        m = self.stack(np.random.default_rng(12), 5)
        assert _check_so3(m, (5, 3, 3)) is m

    def test_empty_stack_passes(self):
        m = np.empty((0, 3, 3))
        assert _check_so3(m, (0, 3, 3)) is m

    @pytest.mark.parametrize("bad, token", [
        (np.diag([1.0, 1.0, np.nan]), "not_finite"), (np.diag([np.inf, 1.0, 1.0]), "not_finite"),
        (3.0 * np.eye(3), "not_rotation"), (-np.eye(3), "not_rotation")])
    def test_one_bad_matrix_fails_the_stack(self, bad, token):
        m = self.stack(np.random.default_rng(13), 4)
        m[2] = bad
        assert TestRotationCheck.token(bad) == token
        with pytest.raises(DomainError, match=token):
            _check_so3(m, (4, 3, 3))

    def test_rotation_rejects_a_stack(self):
        assert TestRotationCheck.token(np.stack([np.eye(3)] * 2)) == "shape"
        assert TestRotationCheck.token(np.eye(3)[None]) == "shape"


# SU(2) elements as unit 4-vectors (Re x, Im x, Re y, Im y): generic points,
# points within about 1e-9 of +-1, half-turns (x within about 1e-9 of 0) and
# the exact points +-1, x = i, y = 1 and y = -i
def su2_vectors(st):
    unit, tiny = st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9))
    return st.one_of(
        st.tuples(unit, unit, unit, unit).filter(lambda v: np.linalg.norm(v) > 1e-3),
        st.builds(lambda s, a, b, c, d: (s + a, b, c, d),
                  st.sampled_from((1.0, -1.0)), tiny, tiny, tiny, tiny),
        st.tuples(tiny, tiny, unit, unit).filter(lambda v: np.linalg.norm(v[2:]) > 1e-3),
        st.sampled_from(((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                         (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0))),
    ).map(lambda v: np.asarray(v) / np.linalg.norm(v))


def element(v) -> SU2Element:
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))


def for_all(check, examples=300):
    """Run ``check(draw, st)`` on derandomized hypothesis draws; skip without hypothesis."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.data())
    def run(data):
        check(data.draw, st)

    run()


class TestDoubleCoverProperties:
    """The oracles of the double cover, with draws near its special points."""

    def test_homomorphism(self):
        def check(draw, st):
            u1, u2 = element(draw(su2_vectors(st))), element(draw(su2_vectors(st)))
            defect = covering_map(u1 @ u2).m - covering_map(u1).m @ covering_map(u2).m
            assert np.abs(defect).max() <= 1e-12
        for_all(check)

    def test_sign_is_lost_exactly(self):
        def check(draw, st):
            u = element(draw(su2_vectors(st)))
            assert np.array_equal(covering_map(-u).m, covering_map(u).m)
        for_all(check)

    def test_kernel_is_plus_minus_one(self):
        """R(u) is near 1 exactly when u is near +-1.

        With d the distance of the 4-vector u from the nearer of +-1 and t the
        rotation angle, |R(u) - 1|_F = 2 sqrt(2) d cos(t/4) lies between 2d and
        2 sqrt(2) d, and the largest entry of R(u) - 1 between a third of it and all of it.
        """
        def check(draw, st):
            v = draw(su2_vectors(st))
            d = min(np.linalg.norm(v - [1, 0, 0, 0]), np.linalg.norm(v + [1, 0, 0, 0]))
            gap = np.abs(covering_map(element(v)).m - np.eye(3)).max()
            assert gap <= 3.0 * d + 1e-15 and d <= 1.5 * gap + 1e-15
            if np.array_equal(np.abs(v), [1, 0, 0, 0]):  # u = +-1 itself
                assert gap == 0.0
        for_all(check)

    def test_lift_inverts_the_cover(self):
        def check(draw, st):
            u = element(draw(su2_vectors(st)))
            r = covering_map(u)
            lifted = lift_to_su2(r)
            assert np.abs(covering_map(lifted).m - r.m).max() <= 1e-12
            assert min(abs(lifted.x - s * u.x) + abs(lifted.y - s * u.y) for s in (1, -1)) <= 1e-12
        for_all(check)

    def test_batch_matches_one_element(self):
        """_cover and _su2_product on stacks give what covering_map and @ give one by one."""
        def check(draw, st):
            pairs = draw(st.lists(st.tuples(su2_vectors(st), su2_vectors(st)), min_size=1,
                                  max_size=6))
            (x1, y1), (x2, y2) = (np.array(vs).view(complex).T for vs in zip(*pairs))
            stack, (x, y) = _cover(x1, y1), _su2_product(x1, y1, x2, y2)
            assert stack.shape == (len(pairs), 3, 3)
            for i, (v1, v2) in enumerate(pairs):
                prod = element(v1) @ element(v2)
                assert np.abs(stack[i] - covering_map(element(v1)).m).max() <= 1e-15
                assert abs(x[i] - prod.x) <= 1e-15 and abs(y[i] - prod.y) <= 1e-15
        for_all(check, examples=100)

    def test_batched_draw_matches_successive_draws(self):
        """cover-check draws every 4-normal vector at once, which is the stream of haar_su2."""
        def check(draw, st):
            seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 50))
            v = np.random.default_rng(seed).standard_normal((n, 2, 4))
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            rng = np.random.default_rng(seed)
            for x, y in v.view(complex).reshape(2 * n, 2):
                u = haar_su2(rng)
                assert abs(x - u.x) <= 1e-15 and abs(y - u.y) <= 1e-15
        for_all(check, examples=50)


# ---------------------------------------------------------------------------
# Test-only oracles: the numpy bodies of the SO(3) check and of the matrix
# readers that the entry formulas on Python floats replaced.  Each is run in
# the same process as the code under test, never against stored numbers, since
# the bits of numpy's arctan2 and hypot differ between numpy versions.


def reference_check_so3(m, shape=(3, 3)):
    if m.shape != shape:
        raise DomainError("shape", "rotation must be 3x3")
    if np.count_nonzero(abs(m) <= 2.0) < m.size \
            or np.count_nonzero(abs(m.swapaxes(-1, -2) @ m - np.eye(3)) > 1e-9) \
            or np.count_nonzero(abs(np.linalg.det(m) - 1.0) > 1e-9):
        check_finite(m, "a rotation entry")
        raise DomainError("not_rotation", "matrix is not special orthogonal")
    return m


def reference_quaternion(m):
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


def reference_axis(m):
    if np.max(np.abs(m - np.eye(3))) <= 1e-12:
        return "identity"
    vec = reference_quaternion(m)[1:]
    norm = np.linalg.norm(vec)
    if norm <= 1e-12:
        return "identity"
    return vec / norm


def reference_euler(m):
    sb = float(np.hypot(m[0, 2], m[1, 2]))
    beta = float(np.arctan2(sb, m[2, 2]))
    if sb > 1e-12:
        alpha = float(np.arctan2(m[1, 2], m[0, 2]))
        gamma = float(np.arctan2(m[2, 1], -m[2, 0]))
        return alpha, beta, gamma
    if m[2, 2] > 0.0:
        return float(np.arctan2(m[1, 0], m[0, 0])), 0.0, 0.0
    return float(np.arctan2(-m[0, 1], -m[0, 0])), float(np.pi), 0.0


def reference_lift(m):
    q = reference_quaternion(m)
    x, y = _normalize_sign(complex(q[0], -q[3]), complex(-q[2], -q[1]))
    norm = np.sqrt(abs(x) ** 2 + abs(y) ** 2)
    return x / norm, y / norm


def reference_rodrigues(a):
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = float(np.linalg.norm(a))
        x = hat(a)
        if theta < 1e-4:
            t2 = theta * theta
            c1 = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
            c2 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        else:
            c1 = np.sin(theta) / theta
            c2 = (1.0 - np.cos(theta)) / (theta * theta)
        return np.eye(3) + c1 * x + c2 * (x @ x)


def check_token(check, m, shape=(3, 3)):
    """The token ``check`` raises on m, or None; a numpy warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert check(m, shape) is m
        except DomainError as err:
            return err.token
    return None


def bits(value):
    """The bytes of a float, complex, tuple or array, or a token as it is."""
    return value if isinstance(value, str) else np.asarray(value).tobytes()


def readers_match(m):
    """Every reader of Rotation(m) gives the bits of its oracle."""
    r = Rotation(m)
    lifted = lift_to_su2(r)
    return (bits(_quaternion_from_matrix(r.m.tolist())) == bits(reference_quaternion(r.m))
            and bits(rotation_axis(r)) == bits(reference_axis(r.m))
            and bits(euler_zyz(r)) == bits(reference_euler(r.m))
            and bits((lifted.x, lifted.y)) == bits(reference_lift(r.m)))


EDGE_ANGLES = (0.0, 1e-13, 1e-9, np.pi - 1e-9, np.pi)


def edge_rotations():
    """Elementary rotations and Rodrigues rotations at the edge angles, and gimbal lock."""
    for axis in "xyz":
        for angle in EDGE_ANGLES:
            yield elementary(axis, angle).m
            yield elementary(axis, -angle).m
    for direction in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
                      [1.0, -2.0, 0.5]):
        unit = np.array(direction) / np.linalg.norm(direction)
        for angle in EDGE_ANGLES:
            yield rodrigues(angle * unit).m
            yield rodrigues(-angle * unit).m
    for beta in (0.0, 1e-13, np.pi - 1e-13, np.pi):  # Rz Ry(beta) Rz at and near gimbal lock
        for alpha in (0.0, 0.7, -2.9, np.pi):
            for gamma in (0.0, 1.3, -np.pi):
                yield (elementary("z", alpha) @ elementary("y", beta) @ elementary("z", gamma)).m


def oracle_matrices():
    """Seeded Haar rotations, edge rotations, reflections and the boundary matrices."""
    rng = np.random.default_rng(2025)
    haar = [covering_map(haar_su2(rng)).m for _ in range(300)]
    edges = list(edge_rotations())
    reflections = [sign * q @ np.diag(d) for q in haar[:50] + edges
                   for sign, d in ((-1.0, [1.0, 1.0, 1.0]), (1.0, [1.0, -1.0, 1.0]))]
    boundary = list(TestRotationCheck.boundary_matrices(np.random.default_rng(2024)))
    return haar + edges + reflections + boundary


class TestAgainstNumpyBodies:
    """The check and the readers on Python floats against the numpy code they replaced."""

    def test_check_tokens_match(self):
        matrices = oracle_matrices()
        tokens = [check_token(_check_so3, m) for m in matrices]
        assert tokens == [check_token(reference_check_so3, m) for m in matrices]
        assert set(tokens) == {None, "not_rotation"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -3.0, 2.0 + 1e-15])
    def test_bad_entry_tokens_match(self, bad):
        for i in range(9):
            m = np.eye(3).ravel()
            m[i] = bad
            m = m.reshape(3, 3)
            assert check_token(_check_so3, m) == check_token(reference_check_so3, m) is not None

    def test_stack_tokens_match(self):
        """A stack passes only if each matrix does, with no warning from a bad entry."""
        matrices = oracle_matrices()
        good = np.array([m for m in matrices if check_token(reference_check_so3, m) is None])
        n = len(good)
        assert check_token(_check_so3, good, (n, 3, 3)) is None
        for bad in (matrices[-1], np.diag([1.0, np.inf, 1.0]), np.full((3, 3), np.nan),
                    np.diag([1e308, 1.0, 1.0]), 1.5 * np.eye(3)):
            stack = good.copy()
            stack[n // 2] = bad
            token = check_token(reference_check_so3, stack, (n, 3, 3))
            assert token is not None and check_token(_check_so3, stack, (n, 3, 3)) == token
        assert check_token(_check_so3, good, (n + 1, 3, 3)) == "shape"

    def test_readers_match(self):
        passing = [m for m in oracle_matrices() if check_token(reference_check_so3, m) is None]
        assert len(passing) > 400
        assert all(readers_match(m) for m in passing)

    def test_rodrigues_matches(self):
        rng = np.random.default_rng(2026)
        vectors = [a * rng.uniform(0.0, 10.0) / np.linalg.norm(a)
                   for a in rng.standard_normal((300, 3))]
        vectors += [a * 1e-5 for a in rng.standard_normal((50, 3))]  # the series branch
        for direction in ([1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [1.0, -2.0, 0.5]):
            vectors += [angle * np.array(direction) / np.linalg.norm(direction)
                        for angle in EDGE_ANGLES + (1e-4, 2 * np.pi)]
        assert all(bits(rodrigues(a).m) == bits(reference_rodrigues(a)) for a in vectors)

    def test_property(self):
        """Rotations of drawn SU(2) elements, flipped or with one entry nudged."""
        def check(draw, st):
            m = covering_map(element(draw(su2_vectors(st)))).m.copy()
            m[draw(st.integers(0, 2))] *= draw(st.sampled_from((1.0, -1.0)))
            m[draw(st.integers(0, 2)), draw(st.integers(0, 2))] += draw(st.one_of(
                st.just(0.0), st.floats(-2e-9, 2e-9), st.floats(-3.0, 3.0),
                st.sampled_from((np.nan, np.inf, 1e308))))
            token = check_token(_check_so3, m)
            assert token == check_token(reference_check_so3, m)
            assert token is not None or readers_match(m)
        for_all(check)

    def test_no_det_or_count_nonzero(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the SO(3) check called det or count_nonzero")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np, "count_nonzero", refuse)
        rng = np.random.default_rng(14)
        u = haar_su2(rng)
        r = covering_map(lift_to_su2(covering_map(u)))
        assert (r @ elementary("y", 0.4) @ rodrigues([0.3, -1.1, 0.7])).m.shape == (3, 3)
        assert Rotation(np.eye(3)).m.shape == (3, 3)
        stack = np.array([r.m, np.eye(3)])
        assert _check_so3(stack, (2, 3, 3)) is stack
        with pytest.raises(DomainError, match="not_rotation"):
            Rotation(np.diag([1.0, 1.0, -1.0]))
