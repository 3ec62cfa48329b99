"""Grid and spectral-operator tests, on bare arrays.

Expected values are either hand curls/divergences of single Fourier modes or
identities computed through an independent spectral route (e.g. the
vector-field bracket as gradients + pointwise products).
"""

import numpy as np
import pytest

from sabi.errors import ConstraintError
from sabi.grid import (
    CURL_INV_DIV_TOL,
    GridSpec,
    check_divfree,
    cross,
    curl,
    curl_inv,
    div,
    evaluate_at_points,
    grad,
    max_div,
    project_divfree,
    _curl_spec,
    _grad_vector_arr,
    _lie_1form_density_arr,
    _maybe_truncate,
    _transport_2form_arr,
)

TWO_PI = 2.0 * np.pi


def random_band_limited(grid, seed, kmax, vector=True, divfree=False, zero_mean=True):
    """Seeded random array with modes confined to |k_i| <= kmax: a scalar
    (nx, ny, nz) or a vector (3, nx, ny, nz)."""
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
    return project_divfree(grid, vals) if vector and divfree else vals


def integral(grid, values):
    """Quadrature as mean x volume; exact for band-limited integrands."""
    return float(np.mean(values)) * grid.volume


def l2(grid, f):
    return float(np.sqrt(np.sum(f**2) * grid.cell_volume))


def max_norm(F):
    return float(np.sqrt(np.max(np.sum(F**2, axis=0))))


def lie2form(grid, xi, D):
    """Lie derivative of a 2-form: minus its transport curl(xi x D)."""
    return -_transport_2form_arr(grid, xi, D)


def lie_1form_density(grid, xi, P):
    return _lie_1form_density_arr(grid, xi, _grad_vector_arr(grid, xi), P)


@pytest.fixture(scope="module")
def grid16():
    return GridSpec(16, 16, 16)


@pytest.fixture(scope="module")
def raw16():
    """The same grid without dealiasing: transport products stay untruncated."""
    return GridSpec(16, 16, 16, dealias=False)


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
        F = np.stack([0 * X, 0 * X, np.sin(X)])
        c = curl(grid16, F)
        expected = np.stack([0 * X, -np.cos(X), 0 * X])
        assert np.max(np.abs(c - expected)) < 1e-12

    def test_curl_of_gradient_vanishes(self, grid16):
        X, Y, _ = grid16.meshgrid()
        f = np.sin(X) * np.cos(Y)
        assert max_norm(curl(grid16, grad(grid16, f))) < 1e-12

    def test_div_of_curl_vanishes(self, grid16):
        F = random_band_limited(grid16, seed=1, kmax=5)
        assert max_div(grid16, curl(grid16, F)) < 1e-12

    def test_div_hand_value(self, grid16):
        X, Y, Z = grid16.meshgrid()
        F = np.stack([np.sin(X), np.sin(Y), np.sin(Z)])
        expected = np.cos(X) + np.cos(Y) + np.cos(Z)
        assert np.max(np.abs(div(grid16, F) - expected)) < 1e-12

    def test_laplacian_single_mode(self, grid16):
        X, _, _ = grid16.meshgrid()
        lap = grid16.irfft(-grid16.k2 * grid16.rfft(np.sin(2 * X)))
        assert np.max(np.abs(lap + 4 * np.sin(2 * X))) < 1e-11

    def test_integrate_sin_squared(self, grid16):
        X, _, _ = grid16.meshgrid()
        assert integral(grid16, np.sin(X) ** 2) == pytest.approx(TWO_PI**3 / 2, rel=1e-13)

    def test_integration_by_parts(self, grid16):
        f = random_band_limited(grid16, seed=2, kmax=5, vector=False)
        F = random_band_limited(grid16, seed=3, kmax=5)
        lhs = integral(grid16, np.sum(grad(grid16, f) * F, axis=0))
        rhs = integral(grid16, f * div(grid16, F))
        scale = l2(grid16, f) * l2(grid16, F)
        assert abs(lhs + rhs) < 1e-11 * scale


class TestProjection:
    def test_projector_idempotent_on_divfree(self, grid16):
        F = random_band_limited(grid16, seed=4, kmax=5, divfree=True)
        assert np.max(np.abs(project_divfree(grid16, F) - F)) < 1e-12

    def test_projector_kills_gradients(self, grid16):
        f = random_band_limited(grid16, seed=5, kmax=5, vector=False)
        assert max_norm(project_divfree(grid16, grad(grid16, f))) < 1e-12

    def test_curl_inv_single_mode(self, grid16):
        X, _, _ = grid16.meshgrid()
        B = np.stack([0 * X, 0 * X, np.cos(X)])
        A = curl_inv(grid16, B)
        assert np.max(np.abs(A[1] - np.sin(X))) < 1e-12
        assert np.max(np.abs(curl(grid16, A) - B)) < 1e-12

    def test_curl_inv_right_inverse(self, grid16):
        B = random_band_limited(grid16, seed=6, kmax=5, divfree=True)
        assert np.max(np.abs(curl(grid16, curl_inv(grid16, B)) - B)) < 1e-10

    # curl_inv validates nothing; its precondition is check_divfree with
    # curl_inv's tolerance and the mean-mode check
    def test_curl_inv_rejects_divergence(self, grid16):
        f = random_band_limited(grid16, seed=7, kmax=3, vector=False)
        with pytest.raises(ConstraintError, match="curl_inv: max"):
            check_divfree(
                grid16, grad(grid16, f), "curl_inv", "B", CURL_INV_DIV_TOL, zero_mean=True
            )

    def test_curl_inv_rejects_mean_mode(self, grid16):
        vals = np.zeros((3, *grid16.shape))
        vals[2] = 1.0
        with pytest.raises(ConstraintError, match="curl_inv: nonzero mean"):
            check_divfree(grid16, vals, "curl_inv", "B", CURL_INV_DIV_TOL, zero_mean=True)


class TestLieDerivatives:
    def test_lie2form_constant_advection(self, raw16):
        X, _, _ = raw16.meshgrid()
        xi = np.stack([np.ones_like(X), 0 * X, 0 * X])
        D = np.stack([0 * X, np.sin(X), 0 * X])
        expected = np.stack([0 * X, np.cos(X), 0 * X])
        assert np.max(np.abs(lie2form(raw16, xi, D) - expected)) < 1e-12

    def test_lie2form_self_vanishes(self, grid16):
        D = random_band_limited(grid16, seed=8, kmax=5, divfree=True)
        assert max_norm(lie2form(grid16, D, D)) < 1e-12

    def test_lie2form_equals_bracket(self, raw16):
        xi = random_band_limited(raw16, seed=9, kmax=3, divfree=True)
        D = random_band_limited(raw16, seed=10, kmax=3, divfree=True)
        out = lie2form(raw16, xi, D)
        gxi = _grad_vector_arr(raw16, xi)
        gD = _grad_vector_arr(raw16, D)
        bracket = np.einsum("j...,jk...->k...", xi, gD) - np.einsum("j...,jk...->k...", D, gxi)
        assert np.max(np.abs(out - bracket)) < 1e-10

    def test_lie2form_output_divfree(self, grid16):
        xi = random_band_limited(grid16, seed=11, kmax=4, divfree=True)
        D = random_band_limited(grid16, seed=12, kmax=4, divfree=True)
        assert max_div(grid16, lie2form(grid16, xi, D)) < 1e-12

    # For divergence-free xi the 1-form-density Lie derivative equals the
    # 1-form one, (xi.grad)P + P_j grad(xi^j), which gives the next two oracles.
    def test_lie_1form_density_self_transport(self, grid16):
        v = random_band_limited(grid16, seed=15, kmax=3, divfree=True)
        out = lie_1form_density(grid16, v, v)
        expected = -np.cross(v, curl(grid16, v), axis=0) + grad(grid16, np.sum(v**2, axis=0))
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_lie_1form_density_commutes_with_gradient(self, grid16):
        xi = random_band_limited(grid16, seed=17, kmax=3, divfree=True)
        f = random_band_limited(grid16, seed=18, kmax=3, vector=False)
        gf = grad(grid16, f)
        out = lie_1form_density(grid16, xi, gf)
        expected = grad(grid16, np.sum(xi * gf, axis=0))
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_lie_1form_density_constant(self, grid16):
        X, _, _ = grid16.meshgrid()
        xi = np.stack([np.ones_like(X), 0 * X, 0 * X])
        P = random_band_limited(grid16, seed=20, kmax=3)
        out = lie_1form_density(grid16, xi, P)
        spec = grid16.rfft(P)
        adv = grid16.irfft(1j * grid16.kx * spec)
        assert np.max(np.abs(out - adv)) < 1e-11


class TestDealiasing:
    def test_cross_deterministic(self, grid16):
        F = random_band_limited(grid16, seed=21, kmax=5)
        G = random_band_limited(grid16, seed=22, kmax=5)
        a = _maybe_truncate(grid16, np.cross(F, G, axis=0))
        b = _maybe_truncate(grid16, np.cross(F, G, axis=0))
        assert a.tobytes() == b.tobytes()

    def test_dot_truncates(self, grid16, raw16):
        X, _, _ = grid16.meshgrid()
        # product of two k=5 modes has a k=10 harmonic above the keep band
        F = np.stack([np.cos(5 * X), 0 * X, 0 * X])
        prod = np.sum(F * F, axis=0)
        spec = grid16.rfft(_maybe_truncate(grid16, prod))
        assert abs(spec[10, 0, 0]) < 1e-10
        spec_raw = grid16.rfft(_maybe_truncate(raw16, prod))
        assert abs(spec_raw[10, 0, 0]) > 1.0


# Non-cubic even grids from 4 to 24 samples per axis, in 2pi and other boxes;
# 6 and 10 included, where dealias_keep = (n - 1) // 3 rounds down (at 10 the
# mask keeps one mode fewer per side than dealias_keep, and the band follows
# the mask).
BAND_GRIDS = [
    GridSpec(4, 6, 10),
    GridSpec(10, 24, 8, Lx=1.0, Ly=2.5, Lz=5.0),
    GridSpec(24, 4, 6, Lx=3.0, Ly=0.7, Lz=TWO_PI),
    GridSpec(6, 10, 24, Lx=2.0, Ly=2.0, Lz=2.0),
    GridSpec(12, 16, 22, Lx=TWO_PI, Ly=4.0, Lz=9.0, dealias=False),
]


LEADS = pytest.mark.parametrize("lead", [(), (3,), (3, 3)], ids=["scalar", "vector", "tensor"])


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
class TestBandTransforms:
    """rfft/irfft(band=True) against the full-layout rfftn * dealias_mask.

    Bytes are compared on the band. Outside it the mask's product leaves
    zeros whose sign follows the discarded value, so there the full layout
    is compared by value against the block's zero padding."""

    @staticmethod
    def fields(grid, lead, seed):
        return np.random.default_rng(seed).standard_normal((*lead, *grid.shape))

    @LEADS
    def test_rfft_band_is_masked_rfftn(self, grid, lead):
        a = self.fields(grid, lead, seed=31)
        block = grid.rfft(a, band=True)
        mask = grid.dealias_mask
        kept = (mask.any(axis=axes).sum() for axes in ((1, 2), (0, 2), (0, 1)))
        assert block.shape == (*lead, *kept)
        ref = np.fft.rfftn(a, axes=(-3, -2, -1)) * mask
        flat = block.reshape(*lead, -1)
        assert flat.tobytes() == ref[..., mask].tobytes()
        scattered = np.zeros_like(ref)
        scattered[..., mask] = flat
        assert np.array_equal(scattered, ref)

    @LEADS
    def test_irfft_band_is_irfftn_of_padded_block(self, grid, lead):
        block = grid.rfft(self.fields(grid, lead, seed=32), band=True)
        padded = np.zeros((*lead, grid.nx, grid.ny, grid.nz // 2 + 1), complex)
        padded[..., grid.dealias_mask] = block.reshape(*lead, -1)
        want = np.fft.irfftn(padded, s=grid.shape, axes=(-3, -2, -1))
        got = grid.irfft(block, band=True)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @LEADS
    def test_cross_is_np_cross(self, grid, lead):
        a = self.fields(grid, (3, *lead), seed=33)
        b = self.fields(grid, (3, *lead), seed=34)
        got = cross(a, b)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.cross(a, b, axis=0))

    def test_band_curl_is_masked_curl(self, grid):
        # band_k holds the band's wavenumbers, so the curl is the same bits
        F = self.fields(grid, (3,), seed=35)
        spec = grid.rfft(F) * grid.dealias_mask
        want = _curl_spec(grid, spec)[..., grid.dealias_mask]
        got = _curl_spec(grid, grid.rfft(F, band=True), band=True)
        assert got.reshape(3, -1).tobytes() == want.tobytes()


class TestPointEvaluation:
    def test_matches_closed_form(self, grid16):
        X, Y, Z = grid16.meshgrid()
        f = np.sin(X) * np.cos(2 * Y) + np.cos(Z)
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, TWO_PI, size=(40, 3))
        got = evaluate_at_points(grid16, f, pts)
        want = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1]) + np.cos(pts[:, 2])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_vector_evaluation(self, grid16):
        X, _, _ = grid16.meshgrid()
        F = np.stack([np.sin(X), np.cos(X), 0 * X])
        pts = np.array([[0.3, 1.0, 2.0], [4.0, 0.1, 5.5]])
        got = evaluate_at_points(grid16, F, pts)
        assert got.shape == (2, 3)
        assert np.max(np.abs(got[:, 0] - np.sin(pts[:, 0]))) < 1e-12
        assert np.max(np.abs(got[:, 1] - np.cos(pts[:, 0]))) < 1e-12

