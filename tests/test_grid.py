"""Grid container and spectral-operator tests.

Expected values are either hand curls/divergences of single Fourier modes or
identities computed through an independent spectral route (e.g. the
vector-field bracket as gradients + pointwise products).
"""

import numpy as np
import pytest

from sabi.errors import ConstraintError
from sabi.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    cross,
    curl,
    curl_inv,
    div,
    dot,
    evaluate_at_points,
    grad,
    integrate,
    laplacian,
    lie2form,
    max_div,
    project_divfree,
    _grad_vector_arr,
    _lie_1form_density_arr,
)

TWO_PI = 2.0 * np.pi


def random_band_limited(grid, seed, kmax, vector=True, divfree=False, zero_mean=True):
    """Seeded random field with modes confined to |k_i| <= kmax."""
    rng = np.random.default_rng(seed)
    shape = (3, *grid.shape) if vector else grid.shape
    raw = rng.standard_normal(shape)
    spec = grid.rfft(raw)
    mx = np.abs(np.fft.fftfreq(grid.nx) * grid.nx) <= kmax
    my = np.abs(np.fft.fftfreq(grid.ny) * grid.ny) <= kmax
    mz = np.fft.rfftfreq(grid.nz) * grid.nz <= kmax
    spec *= mx[:, None, None] & my[None, :, None] & mz[None, None, :]
    if zero_mean:
        spec[..., 0, 0, 0] = 0.0
    vals = grid.irfft(spec)
    vals /= max(np.max(np.abs(vals)), 1e-30)
    if not vector:
        return ScalarField(grid, vals)
    field = VectorField(grid, vals)
    return project_divfree(field) if divfree else field


def l2(field):
    return float(np.sqrt(np.sum(field.values**2) * field.grid.cell_volume))


def lie_1form_density(xi, P):
    grid = xi.grid
    return _lie_1form_density_arr(grid, xi.values, _grad_vector_arr(grid, xi.values), P.values)


@pytest.fixture(scope="module")
def grid16():
    return GridSpec(16, 16, 16)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(3, 16, 16)
        with pytest.raises(ValueError):
            GridSpec(5, 16, 16)
        with pytest.raises(ValueError):
            GridSpec(16, 16, 16, Lx=0.0)

    def test_cell_volume(self, grid16):
        assert grid16.cell_volume == pytest.approx(TWO_PI**3 / 16**3)
        assert grid16.cell_volume > 0

    def test_dealias_mask_band(self):
        g = GridSpec(32, 32, 32)
        assert g.dealias_keep == (10, 10, 10)
        # mode 10 kept, mode 11 zeroed on every axis
        assert g.dealias_mask[10, 0, 0]
        assert not g.dealias_mask[11, 0, 0]
        assert not g.dealias_mask[0, 0, 11]


class TestDerivatives:
    def test_curl_single_mode(self, grid16):
        X, _, _ = grid16.meshgrid()
        F = VectorField(grid16, np.stack([0 * X, 0 * X, np.sin(X)]))
        c = curl(F)
        expected = np.stack([0 * X, -np.cos(X), 0 * X])
        assert np.max(np.abs(c.values - expected)) < 1e-12

    def test_curl_of_gradient_vanishes(self, grid16):
        X, Y, _ = grid16.meshgrid()
        f = ScalarField(grid16, np.sin(X) * np.cos(Y))
        c = curl(grad(f))
        assert c.max_norm() < 1e-12

    def test_div_of_curl_vanishes(self, grid16):
        F = random_band_limited(grid16, seed=1, kmax=5)
        assert max_div(curl(F)) < 1e-12

    def test_div_hand_value(self, grid16):
        X, Y, Z = grid16.meshgrid()
        F = VectorField(grid16, np.stack([np.sin(X), np.sin(Y), np.sin(Z)]))
        d = div(F)
        expected = np.cos(X) + np.cos(Y) + np.cos(Z)
        assert np.max(np.abs(d.values - expected)) < 1e-12

    def test_laplacian_single_mode(self, grid16):
        X, _, _ = grid16.meshgrid()
        f = ScalarField(grid16, np.sin(2 * X))
        lap = laplacian(f)
        assert np.max(np.abs(lap.values + 4 * np.sin(2 * X))) < 1e-11

    def test_integrate_sin_squared(self, grid16):
        X, _, _ = grid16.meshgrid()
        f = ScalarField(grid16, np.sin(X) ** 2)
        assert integrate(f) == pytest.approx(TWO_PI**3 / 2, rel=1e-13)

    def test_integration_by_parts(self, grid16):
        f = random_band_limited(grid16, seed=2, kmax=5, vector=False)
        F = random_band_limited(grid16, seed=3, kmax=5)
        lhs = integrate(dot(grad(f), F, dealias=False))
        rhs = integrate(ScalarField(grid16, f.values * div(F).values))
        scale = l2(f) * l2(F)
        assert abs(lhs + rhs) < 1e-11 * scale


class TestProjection:
    def test_projector_idempotent_on_divfree(self, grid16):
        F = random_band_limited(grid16, seed=4, kmax=5, divfree=True)
        P = project_divfree(F)
        assert np.max(np.abs(P.values - F.values)) < 1e-12

    def test_projector_kills_gradients(self, grid16):
        f = random_band_limited(grid16, seed=5, kmax=5, vector=False)
        P = project_divfree(grad(f))
        assert P.max_norm() < 1e-12

    def test_curl_inv_single_mode(self, grid16):
        X, _, _ = grid16.meshgrid()
        B = VectorField(grid16, np.stack([0 * X, 0 * X, np.cos(X)]))
        A = curl_inv(B)
        assert np.max(np.abs(A.values[1] - np.sin(X))) < 1e-12
        assert np.max(np.abs(curl(A).values - B.values)) < 1e-12

    def test_curl_inv_right_inverse(self, grid16):
        B = random_band_limited(grid16, seed=6, kmax=5, divfree=True)
        assert np.max(np.abs(curl(curl_inv(B)).values - B.values)) < 1e-10

    def test_curl_inv_rejects_divergence(self, grid16):
        f = random_band_limited(grid16, seed=7, kmax=3, vector=False)
        with pytest.raises(ConstraintError):
            curl_inv(grad(f))

    def test_curl_inv_rejects_mean_mode(self, grid16):
        vals = np.zeros((3, *grid16.shape))
        vals[2] = 1.0
        with pytest.raises(ConstraintError):
            curl_inv(VectorField(grid16, vals))


class TestLieDerivatives:
    def test_lie2form_constant_advection(self, grid16):
        X, _, _ = grid16.meshgrid()
        xi = VectorField(grid16, np.stack([np.ones_like(X), 0 * X, 0 * X]))
        D = VectorField(grid16, np.stack([0 * X, np.sin(X), 0 * X]))
        out = lie2form(xi, D, dealias=False)
        expected = np.stack([0 * X, np.cos(X), 0 * X])
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_lie2form_self_vanishes(self, grid16):
        D = random_band_limited(grid16, seed=8, kmax=5, divfree=True)
        assert lie2form(D, D).max_norm() < 1e-12

    def test_lie2form_equals_bracket(self, grid16):
        xi = random_band_limited(grid16, seed=9, kmax=3, divfree=True)
        D = random_band_limited(grid16, seed=10, kmax=3, divfree=True)
        out = lie2form(xi, D, dealias=False)
        gxi = _grad_vector_arr(grid16, xi.values)
        gD = _grad_vector_arr(grid16, D.values)
        bracket = np.einsum("j...,jk...->k...", xi.values, gD) - np.einsum(
            "j...,jk...->k...", D.values, gxi
        )
        assert np.max(np.abs(out.values - bracket)) < 1e-10

    def test_lie2form_output_divfree(self, grid16):
        xi = random_band_limited(grid16, seed=11, kmax=4, divfree=True)
        D = random_band_limited(grid16, seed=12, kmax=4, divfree=True)
        assert max_div(lie2form(xi, D)) < 1e-12

    def test_lie2form_rejects_divergent_input(self, grid16):
        f = random_band_limited(grid16, seed=13, kmax=3, vector=False)
        D = random_band_limited(grid16, seed=14, kmax=3, divfree=True)
        with pytest.raises(ConstraintError):
            lie2form(grad(f), D)

    # For divergence-free xi the 1-form-density Lie derivative equals the
    # 1-form one, (xi.grad)P + P_j grad(xi^j), which gives the next two oracles.
    def test_lie_1form_density_self_transport(self, grid16):
        v = random_band_limited(grid16, seed=15, kmax=3, divfree=True)
        out = lie_1form_density(v, v)
        c = curl(v)
        expected = -np.cross(v.values, c.values, axis=0) + _grad_of(
            grid16, np.sum(v.values**2, axis=0)
        )
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_lie_1form_density_commutes_with_gradient(self, grid16):
        xi = random_band_limited(grid16, seed=17, kmax=3, divfree=True)
        f = random_band_limited(grid16, seed=18, kmax=3, vector=False)
        out = lie_1form_density(xi, grad(f))
        expected = grad(dot(xi, grad(f), dealias=False))
        assert np.max(np.abs(out - expected.values)) < 1e-10

    def test_lie_1form_density_constant(self, grid16):
        X, _, _ = grid16.meshgrid()
        xi = VectorField(grid16, np.stack([np.ones_like(X), 0 * X, 0 * X]))
        P = random_band_limited(grid16, seed=20, kmax=3)
        out = lie_1form_density(xi, P)
        spec = grid16.rfft(P.values)
        adv = grid16.irfft(1j * grid16.kx * spec)
        assert np.max(np.abs(out - adv)) < 1e-11


def _grad_of(grid, scalar_values):
    spec = grid.rfft(scalar_values)
    return grid.irfft(1j * np.stack([grid.kx * spec, grid.ky * spec, grid.kz * spec]))


class TestDealiasing:
    def test_cross_deterministic(self, grid16):
        F = random_band_limited(grid16, seed=21, kmax=5)
        G = random_band_limited(grid16, seed=22, kmax=5)
        a = cross(F, G, dealias=True).values
        b = cross(F, G, dealias=True).values
        assert a.tobytes() == b.tobytes()

    def test_dot_truncates(self):
        g = GridSpec(16, 16, 16, dealias=True)
        X, _, _ = g.meshgrid()
        # product of two k=5 modes has a k=10 harmonic above the keep band
        F = VectorField(g, np.stack([np.cos(5 * X), 0 * X, 0 * X]))
        d = dot(F, F)
        spec = g.rfft(d.values)
        assert abs(spec[10, 0, 0]) < 1e-10
        raw = dot(F, F, dealias=False)
        spec_raw = g.rfft(raw.values)
        assert abs(spec_raw[10, 0, 0]) > 1.0


class TestPointEvaluation:
    def test_matches_closed_form(self, grid16):
        X, Y, Z = grid16.meshgrid()
        f = ScalarField(grid16, np.sin(X) * np.cos(2 * Y) + np.cos(Z))
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, TWO_PI, size=(40, 3))
        got = evaluate_at_points(f, pts)
        want = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1]) + np.cos(pts[:, 2])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_vector_evaluation(self, grid16):
        X, _, _ = grid16.meshgrid()
        F = VectorField(grid16, np.stack([np.sin(X), np.cos(X), 0 * X]))
        pts = np.array([[0.3, 1.0, 2.0], [4.0, 0.1, 5.5]])
        got = evaluate_at_points(F, pts)
        assert got.shape == (2, 3)
        assert np.max(np.abs(got[:, 0] - np.sin(pts[:, 0]))) < 1e-12
        assert np.max(np.abs(got[:, 1] - np.cos(pts[:, 0]))) < 1e-12
