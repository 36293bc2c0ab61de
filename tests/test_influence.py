import math

import numpy as np
import pytest

from robustgram.influence import (
    C_UNIVERSAL,
    P1,
    SUP_CHI,
    Z1,
    chi,
    psi,
    psi_and_prime,
    psi_prime,
)

from oracles import central_difference, psi_ref

LOG2 = math.log(2.0)


class TestPsi:
    def test_saturation(self):
        assert psi(1.0) == pytest.approx(LOG2, abs=1e-15)
        assert psi(5.0) == LOG2
        assert psi(-3.0) == -LOG2

    def test_origin(self):
        assert psi(0.0) == 0.0

    def test_interior_value(self):
        # -log(0.625), frozen from the branch formula
        assert psi(0.5) == pytest.approx(0.4700036292457356, abs=1e-15)

    def test_matches_scalar_reference(self):
        for t in np.linspace(-3, 3, 601):
            assert psi(float(t)) == pytest.approx(psi_ref(float(t)), abs=1e-14)

    def test_antisymmetry(self):
        t = np.linspace(-10, 10, 2001)
        np.testing.assert_allclose(psi(-t), -psi(t), atol=0.0)

    def test_monotone(self):
        t = np.linspace(-10, 10, 5001)
        assert np.all(np.diff(psi(t)) >= 0.0)

    def test_bounded(self):
        t = np.linspace(-50, 50, 1001)
        vals = psi(t)
        assert np.all(vals >= -LOG2) and np.all(vals <= LOG2)

    def test_array_shape_preserved(self):
        out = psi(np.zeros((3, 4)))
        assert out.shape == (3, 4)


class TestPsiPrime:
    def test_known_values(self):
        assert psi_prime(0.0) == 1.0
        assert psi_prime(2.0) == 0.0
        assert psi_prime(0.5) == pytest.approx(0.8, abs=1e-15)

    def test_one_sided_value_at_kink(self):
        assert psi_prime(1.0) == 0.0
        assert psi_prime(-1.0) == 0.0

    def test_even(self):
        t = np.linspace(-5, 5, 501)
        np.testing.assert_allclose(psi_prime(-t), psi_prime(t), atol=0.0)

    def test_range(self):
        t = np.linspace(-5, 5, 2001)
        vals = psi_prime(t)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_matches_central_difference(self):
        ts = [t for t in np.linspace(-3, 3, 1201) if min(abs(t - 1), abs(t + 1)) > 1e-3]
        for t in ts:
            num = central_difference(psi, float(t))
            assert psi_prime(float(t)) == pytest.approx(num, abs=1e-6)


def _psi_second(t):
    """Closed form of psi'': (t^2/2 - t) / (1 - t + t^2/2)^2 on [0, 1), odd, 0 beyond +-1."""
    c = np.minimum(np.abs(t), 1.0)
    body = (0.5 * c * c - c) / (1.0 - c + 0.5 * c * c) ** 2
    return np.sign(t) * np.where(np.abs(t) < 1.0, body, 0.0)


class TestPsiSecond:
    """|psi''| <= 2, the bound the scale solver's certified Newton stop rests on."""

    GRID = np.linspace(-3.0, 3.0, 600_001)

    def test_closed_form_is_bounded_by_two(self):
        vals = _psi_second(self.GRID)
        assert np.all(np.abs(vals) < 2.0)
        np.testing.assert_array_equal(_psi_second(-self.GRID), -vals)
        assert np.all(vals[np.abs(self.GRID) >= 1.0] == 0.0)
        # |psi''| grows on [0, 1) and reaches 2 only as t -> 1 from below
        right = vals[(self.GRID >= 0.0) & (self.GRID < 1.0)]
        assert np.all(np.diff(np.abs(right)) >= 0.0)
        assert _psi_second(1.0 - 1e-9) == pytest.approx(-2.0, abs=1e-8)

    def test_central_differences_of_psi_prime_are_bounded_by_two(self):
        h = 1e-6
        diffs = (psi_prime(self.GRID + h) - psi_prime(self.GRID - h)) / (2.0 * h)
        assert np.all(np.abs(diffs) <= 2.0 + 1e-6)
        away = np.minimum(np.abs(self.GRID - 1.0), np.abs(self.GRID + 1.0)) > 1e-3
        np.testing.assert_allclose(diffs[away], _psi_second(self.GRID[away]), atol=1e-6)


def _psi_where_form(t):
    """psi as evaluated with an explicit saturation branch."""
    a = np.abs(t)
    c = np.minimum(a, 1.0)
    return np.sign(t) * np.where(a >= 1.0, LOG2, -np.log1p(c * (0.5 * c - 1.0)))


def _psi_prime_where_form(t):
    a = np.abs(t)
    c = np.minimum(a, 1.0)
    return np.where(a >= 1.0, 0.0, (1.0 - c) / (1.0 - c + 0.5 * c * c))


class TestKernelExact:
    """The branch-free kernel equals the saturation-branch formulas bit for bit."""

    EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
             -np.nextafter(1.0, 0.0), -np.nextafter(1.0, 2.0), np.inf, -np.inf,
             5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-160, 0.5, -0.5,
             1e300, -1e300]

    def _inputs(self):
        rng = np.random.default_rng(21)
        wide = rng.standard_normal(20_000) * 10.0 ** rng.integers(-320, 6, 20_000)
        near = 1.0 + rng.uniform(-1e-6, 1e-6, 2000) * rng.choice([-1.0, 1.0], 2000)
        flat = np.concatenate([self.EDGES, wide, near, -near])
        return [flat, flat[: 20 * 100].reshape(20, 100), rng.standard_normal((7, 3))]

    def test_identities(self):
        assert -np.log1p(-0.5) == LOG2
        assert 1.0 * (0.5 * 1.0 - 1.0) == -0.5
        assert (1.0 - 1.0) / ((1.0 - 1.0) + 0.5 * 1.0 * 1.0) == 0.0

    def test_psi_equals_where_form(self):
        for t in self._inputs():
            out = psi(t)
            assert out.shape == t.shape
            np.testing.assert_array_equal(out, _psi_where_form(t))

    def test_psi_prime_equals_where_form(self):
        for t in self._inputs():
            out = psi_prime(t)
            assert out.shape == t.shape
            np.testing.assert_array_equal(out, _psi_prime_where_form(t))

    def test_fused_kernel_equals_single_kernels(self):
        for t in self._inputs():
            before = t.copy()
            value, slope = psi_and_prime(t)
            np.testing.assert_array_equal(value, psi(t))
            np.testing.assert_array_equal(slope, psi_prime(t))
            np.testing.assert_array_equal(t, before)
        for t in self.EDGES + [np.float64(0.3), np.array(-2.0)]:
            out = psi_and_prime(t)
            assert out == (psi(t), psi_prime(t))
            assert all(type(x) is float for x in out)

    def test_scalars_give_floats(self):
        for t in self.EDGES + [np.float64(0.3), np.array(-2.0)]:
            for f, ref in ((psi, _psi_where_form), (psi_prime, _psi_prime_where_form)):
                out = f(t)
                assert type(out) is float
                assert out == ref(np.asarray(t, dtype=float))

    def test_input_not_modified(self):
        t = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        before = t.copy()
        psi(t)
        psi_prime(t)
        np.testing.assert_array_equal(t, before)


class TestChi:
    def test_equals_psi_below_z1(self):
        for z in np.linspace(-10, Z1, 200):
            assert chi(float(z)) == pytest.approx(psi(float(z)), abs=0.0)

    def test_continuity_at_branch_points(self):
        assert chi(Z1) == pytest.approx(psi(Z1), abs=1e-15)
        upper = Z1 + 4 * P1
        assert chi(upper - 1e-9) == pytest.approx(chi(upper + 1e-9), abs=1e-8)

    def test_plateau(self):
        assert chi(Z1 + 4 * P1 + 10.0) == pytest.approx(2.1024399688326927, abs=1e-12)
        assert chi(1e6) == SUP_CHI

    def test_monotone(self):
        z = np.linspace(-10, 10, 5001)
        assert np.all(np.diff(chi(z)) >= -1e-15)

    def test_sandwich(self):
        # psi <= chi <= log(1 + z + z^2/2), and the lower envelope below psi
        z = np.linspace(-10.0, 10.0, 10_000)
        psi_v = psi(z)
        chi_v = chi(z)
        upper = np.log1p(z + 0.5 * z * z)
        assert np.all(psi_v <= chi_v + 1e-15)
        assert np.all(chi_v <= upper + 1e-12)
        mask = z <= 1.0
        lower = -np.log1p(-z[mask] + 0.5 * z[mask] ** 2)
        assert np.all(lower <= psi_v[mask] + 1e-12)


class TestConstants:
    def test_c_from_formula(self):
        c = 15.0 / (8.0 * math.log(2.0) * (math.sqrt(2.0) - 1.0)) \
            * math.exp((1.0 + 2.0 * math.sqrt(2.0)) / 2.0)
        assert abs(c - C_UNIVERSAL) <= 1e-12
        assert c <= 44.3

    def test_z1_p1_from_formulas(self):
        root = math.sqrt(4.0 * math.sqrt(2.0) - 5.0)
        assert abs((1.0 - root) - Z1) <= 1e-12
        assert 0.0 < Z1 < 1.0
        assert abs(root / (2.0 * (math.sqrt(2.0) - 1.0)) - P1) <= 1e-12
        assert P1 > 0.0

    def test_z1_is_second_derivative_match(self):
        # psi'' = -1/4 at z1, via central differences of psi_prime
        num = central_difference(psi_prime, Z1, h=1e-6)
        assert num == pytest.approx(-0.25, abs=1e-5)

    def test_p1_is_slope_at_z1(self):
        assert psi_prime(Z1) == pytest.approx(P1, abs=1e-12)

    def test_sup_chi_from_formula(self):
        sup = -math.log(2.0 * (math.sqrt(2.0) - 1.0)) + (1.0 + 2.0 * math.sqrt(2.0)) / 2.0
        assert abs(sup - SUP_CHI) <= 1e-12
        assert SUP_CHI > LOG2
