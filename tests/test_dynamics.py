"""RHS assembly tests, run through the factories the runner uses
(make_drift, make_noise_op, make_ito_correction on tuples of arrays).

Oracles: hand time-derivatives of plane waves, constant-field reductions of
the transport operators against direct spectral derivatives, Beltrami
stationarity for the vorticity system, and the discrete divergence theorem
for the high-field energy flux.
"""

import numpy as np
import pytest

from sabi.dynamics import (
    _TRANSPORT,
    ONE_FORM_DENSITY,
    TWO_FORM,
    get_model,
    make_drift,
    make_ito_correction,
    make_noise_op,
    mhd_density,
)
from sabi.errors import ConstraintError, NumericalError
from sabi.grid import (
    CURL_INV_DIV_TOL,
    GridSpec,
    _grad_vector_arr,
    check_divfree,
    curl,
    curl_inv,
    max_div,
)
from sabi.noise import NoiseModel, make_constant_mode, make_divfree_mode

from test_grid import full_fft_partials, max_norm, random_band_limited


@pytest.fixture(scope="module")
def grid():
    return GridSpec(16, 16, 16)


def em_state(grid, seed, amplitude, kmax=2):
    """A random band-limited divergence-free (D, B)."""
    D = random_band_limited(grid, seed=seed, kmax=kmax, divfree=True)
    B = random_band_limited(grid, seed=seed + 500, kmax=kmax, divfree=True)
    return amplitude * D, amplitude * B


def zeros(grid):
    return np.zeros((3, *grid.shape))


def spectral_dx(grid, arr):
    spec = grid.rfft(arr)
    return grid.irfft(1j * grid.kx * spec)


def apply(factory, model, grid, arrs, noise=None, *dW):
    """Build the model's operator with a dynamics factory and apply it to the
    state arrays (and dW)."""
    return factory(get_model(model), grid, noise)(arrs, *dW)


def twice_transported(model, grid, xi, arrs):
    """(1/2) T T F for each component F, T its degree's transport along xi:
    the Ito correction of xi computed as a harmonic mode."""
    out = []
    for (_, degree), F in zip(get_model(model).components, arrs):
        T = _TRANSPORT[degree]
        out.append(0.5 * T(grid, xi, T(grid, xi, F)))
    return out


class TestDeterministicEM:
    def test_zero_state(self, grid):
        dD, dB = apply(make_drift, "bi", grid, (zeros(grid), zeros(grid)))
        assert max_norm(dD) == 0.0 and max_norm(dB) == 0.0

    def test_uniform_fields(self, grid):
        vals = np.ones((3, *grid.shape))
        dD, dB = apply(make_drift, "bi", grid, (vals, 0.5 * vals))
        assert max_norm(dD) < 1e-12 and max_norm(dB) < 1e-12

    def test_maxwell_plane_wave_identity(self, grid):
        # D = (0, cos(x-t), 0), B = (0, 0, cos(x-t)) solves the weak-field
        # system; at t=0 both time derivatives equal (.., sin x, ..)
        X, _, _ = grid.meshgrid()
        zero = np.zeros_like(X)
        s = (np.stack([zero, np.cos(X), zero]), np.stack([zero, zero, np.cos(X)]))
        dD, dB = apply(make_drift, "maxwell", grid, s)
        assert np.max(np.abs(dD[1] - np.sin(X))) < 1e-12
        assert np.max(np.abs(dB[2] - np.sin(X))) < 1e-12

    def test_rhs_divergence_free(self, grid):
        s = em_state(grid, seed=1, amplitude=0.4)
        dD, dB = apply(make_drift, "bi", grid, s)
        assert max_div(grid, dD) < 1e-12 and max_div(grid, dB) < 1e-12


class TestStochasticIncrement:
    def test_zero_dw(self, grid):
        s = em_state(grid, seed=2, amplitude=0.3)
        noise = NoiseModel(grid, [make_constant_mode(grid, (1, 0, 0))])
        dD, dB = apply(make_noise_op, "bi-stratonovich", grid, s, noise, np.zeros(1))
        assert max_norm(dD) == 0.0 and max_norm(dB) == 0.0

    def test_constant_mode_reduction(self, grid):
        sigma, dw = 0.7, 0.13
        s = em_state(grid, seed=3, amplitude=0.3)
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        dD, dB = apply(make_noise_op, "bi-stratonovich", grid, s, noise, np.array([dw]))
        assert np.max(np.abs(dD + sigma * dw * spectral_dx(grid, s[0]))) < 1e-11
        assert np.max(np.abs(dB + sigma * dw * spectral_dx(grid, s[1]))) < 1e-11

    def test_output_divergence_free(self, grid):
        s = em_state(grid, seed=4, amplitude=0.3)
        noise = NoiseModel(
            grid, [make_divfree_mode(grid, k=(1, 0, 0), a=(0, 1, 0))]
        )
        dD, dB = apply(make_noise_op, "bi-stratonovich", grid, s, noise, np.array([0.2]))
        assert max_div(grid, dD) < 1e-12 and max_div(grid, dB) < 1e-12


class TestItoCorrection:
    def test_zero_noise(self, grid):
        s = em_state(grid, seed=5, amplitude=0.3)
        cD, cB = apply(make_ito_correction, "bi-ito", grid, s, NoiseModel(grid))
        assert max_norm(cD) == 0.0 and max_norm(cB) == 0.0

    def test_constant_mode_heat_operator(self, grid):
        sigma = 0.6
        s = em_state(grid, seed=6, amplitude=0.3)
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        cD, _ = apply(make_ito_correction, "bi-ito", grid, s, noise)
        spec = grid.rfft(s[0])
        dxx = grid.irfft(-(grid.kx**2) * spec)
        assert np.max(np.abs(cD - 0.5 * sigma**2 * dxx)) < 1e-11

    def test_harmonic_mode_matches_composition(self):
        # independent oracle: the Lie derivative of a 2-form, minus the
        # transport curl(xi x F), applied twice on a truncation-free grid
        g = GridSpec(16, 16, 16, dealias=False)
        s = em_state(g, seed=7, amplitude=0.3, kmax=2)
        xi = make_divfree_mode(g, k=(0, 1, 0), a=(1, 0, 0), amplitude=0.8)
        noise = NoiseModel(g, [xi])
        cD, cB = apply(make_ito_correction, "bi-ito", g, s, noise)
        for F, got in ((s[0], cD), (s[1], cB)):
            once = -curl(g, np.cross(xi, F, axis=0))
            twice = -curl(g, np.cross(xi, once, axis=0))
            assert np.max(np.abs(got - 0.5 * twice)) < 1e-10

    def test_constant_fast_path_matches_generic(self, grid):
        # the uniform mode's spectral multiplier against the same mode run
        # through the generic transport twice
        s = em_state(grid, seed=8, amplitude=0.3)
        xi = make_constant_mode(grid, (0.4, 0.3, 0.0))
        cf, _ = apply(make_ito_correction, "bi-ito", grid, s, NoiseModel(grid, [xi]))
        cs, _ = twice_transported("bi-ito", grid, xi, s)
        assert np.max(np.abs(cf - cs)) < 1e-12


class TestExpectationRHS:
    def test_reduces_to_maxwell_without_noise(self, grid):
        s = em_state(grid, seed=9, amplitude=0.2)
        d1 = apply(make_drift, "maxwell-expectation", grid, s, NoiseModel(grid))
        d2 = apply(make_drift, "maxwell", grid, s)
        for a, b in zip(d1, d2):
            assert np.max(np.abs(a - b)) < 1e-14

    def test_constant_basis_reduces_to_laplacian(self, grid):
        sigma = 0.5
        s = em_state(grid, seed=10, amplitude=0.2)
        noise = NoiseModel(
            grid,
            [
                make_constant_mode(grid, (sigma, 0, 0)),
                make_constant_mode(grid, (0, sigma, 0)),
                make_constant_mode(grid, (0, 0, sigma)),
            ],
        )
        dD, _ = apply(make_drift, "maxwell-expectation", grid, s, noise)
        base, _ = apply(make_drift, "maxwell", grid, s)
        lap = grid.irfft(-grid.k2 * grid.rfft(s[0]))
        expected = base + 0.5 * sigma**2 * lap
        assert np.max(np.abs(dD - expected)) < 1e-10

    def test_single_mode_damping_rate(self, grid):
        # a pure D-mode has rhs curl B + correction = -sigma^2/2 D for k=(1,0,0)
        sigma = 0.8
        X, _, _ = grid.meshgrid()
        zero = np.zeros_like(X)
        s = (np.stack([zero, np.cos(X), zero]), zeros(grid))
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        dD, _ = apply(make_drift, "maxwell-expectation", grid, s, noise)
        assert np.max(np.abs(dD - (-0.5 * sigma**2) * s[0])) < 1e-11


class TestVorticity:
    def test_mean_mode_rejected(self, grid):
        # a vorticity with a uniform w_z is not the curl of any periodic
        # velocity: curl_inv's precondition must refuse it, and accept the
        # same field once the mean is gone, where u = curl^-1 w recovers w
        w = random_band_limited(grid, seed=11, kmax=2, divfree=True)
        w = w - w.mean(axis=(1, 2, 3), keepdims=True)
        with_mean = w.copy()
        with_mean[2] += 1.0
        with pytest.raises(ConstraintError):
            check_divfree(grid, with_mean, "curl_inv", "w", CURL_INV_DIV_TOL, zero_mean=True)
        check_divfree(grid, w, "curl_inv", "w", CURL_INV_DIV_TOL, zero_mean=True)
        u = curl_inv(grid, w)
        assert np.max(np.abs(curl(grid, u) - w)) < 1e-10

    def test_beltrami_is_stationary(self, grid):
        # the unit-amplitude swirl field is a curl eigenfield, so u = w and
        # u x w = 0: the deterministic rhs must vanish
        X, Y, Z = grid.meshgrid()
        w = np.stack(
            [
                np.sin(Z) + np.cos(Y),
                np.sin(X) + np.cos(Z),
                np.sin(Y) + np.cos(X),
            ]
        )
        (out,) = apply(make_drift, "euler-vorticity", grid, (w,))
        assert max_norm(out) < 1e-11

    def test_constant_noise_translation(self, grid):
        w = random_band_limited(grid, seed=12, kmax=2, divfree=True)
        sigma, dw = 0.5, 0.2
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        (out,) = apply(make_noise_op, "euler-vorticity", grid, (w,), noise, np.array([dw]))
        assert np.max(np.abs(out + sigma * dw * spectral_dx(grid, w))) < 1e-11

    def test_rhs_divergence_free(self, grid):
        w = random_band_limited(grid, seed=13, kmax=2, divfree=True)
        (out,) = apply(make_drift, "euler-vorticity", grid, (w,))
        assert max_div(grid, out) < 1e-12


def helical_orthogonal_state(grid, seed=0, eps=0.1, w_amp=0.3, kmax=2):
    """(P, B): B = unit-norm circular mode + small divfree part; P = w x B."""
    X, Y, Z = grid.meshgrid()
    B = np.stack([np.cos(Z), np.sin(Z), np.zeros_like(Z)])
    pert = random_band_limited(grid, seed=seed, kmax=kmax, divfree=True)
    B = B + eps * pert
    wfield = random_band_limited(grid, seed=seed + 100, kmax=kmax)
    P = np.cross(w_amp * wfield, B, axis=0)
    return P, B


class TestMHD:
    def test_uniform_states_stationary(self, grid):
        vals = np.zeros((3, *grid.shape))
        vals[0] = 0.8
        dP, dB = apply(make_drift, "mhd", grid, (vals, vals * 0.5))
        assert max_norm(dP) < 1e-12 and max_norm(dB) < 1e-12
        dP, dB = apply(make_drift, "mhd", grid, (zeros(grid), vals))
        assert max_norm(dP) < 1e-12 and max_norm(dB) < 1e-12

    def test_energy_flux_integral_vanishes(self):
        # the flux-divergence tail leaking past the dealias band shrinks
        # spectrally; 32^3 with modest amplitudes puts it far below 1e-9
        g = GridSpec(32, 32, 32)
        s = helical_orthogonal_state(g, seed=14, eps=0.05, w_amp=0.15)
        dP, dB = apply(make_drift, "mhd", g, s)
        h = mhd_density(*s)
        dh = np.sum(s[0] * dP + s[1] * dB, axis=0) / h
        drift = abs(float(np.mean(dh)) * g.volume)
        assert drift < 1e-9

    def test_floor_violation_aborts(self, grid):
        with pytest.raises(NumericalError):
            apply(make_drift, "mhd", grid, (zeros(grid), zeros(grid)))

    def test_db_divergence_free(self, grid):
        s = helical_orthogonal_state(grid, seed=15)
        _, dB = apply(make_drift, "mhd", grid, s)
        assert max_div(grid, dB) < 1e-12

    def test_stochastic_zero_dw(self, grid):
        s = helical_orthogonal_state(grid, seed=16)
        noise = NoiseModel(grid, [make_constant_mode(grid, (1, 0, 0))])
        dP, dB = apply(make_noise_op, "mhd-stratonovich", grid, s, noise, np.zeros(1))
        assert max_norm(dP) == 0.0 and max_norm(dB) == 0.0

    def test_stochastic_constant_reduction(self, grid):
        s = helical_orthogonal_state(grid, seed=17)
        sigma, dw = 0.4, 0.11
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        dP, dB = apply(make_noise_op, "mhd-stratonovich", grid, s, noise, np.array([dw]))
        assert np.max(np.abs(dP + sigma * dw * spectral_dx(grid, s[0]))) < 1e-11
        assert np.max(np.abs(dB + sigma * dw * spectral_dx(grid, s[1]))) < 1e-11

    def test_harmonic_noise_changes_total_momentum(self, grid):
        # non-uniform noise amplitude: the momentum increment has a nonzero
        # spatial integral, unlike the constant-mode case
        s = helical_orthogonal_state(grid, seed=18)
        harmonic = NoiseModel(
            grid, [make_divfree_mode(grid, k=(0, 0, 1), a=(1, 0, 0), amplitude=0.5)]
        )
        const = NoiseModel(grid, [make_constant_mode(grid, (0.5, 0, 0))])
        dP_h, _ = apply(make_noise_op, "mhd-stratonovich", grid, s, harmonic, np.array([0.3]))
        dP_c, _ = apply(make_noise_op, "mhd-stratonovich", grid, s, const, np.array([0.3]))
        mom_h = np.linalg.norm(dP_h.mean(axis=(1, 2, 3)) * grid.volume)
        mom_c = np.linalg.norm(dP_c.mean(axis=(1, 2, 3)) * grid.volume)
        assert mom_c < 1e-10
        assert mom_h > 1e-3


def along(xi, grad_xi):
    """(xi . grad) applied to every component: sum_k xi^k d_k, for partials
    in the layout grad[k, j] = d_k f^j."""
    return np.einsum("k...,kj...->j...", xi, grad_xi)


class TestTransportTable:
    @pytest.mark.parametrize(
        "n, length",
        [
            pytest.param(16, 2.0 * np.pi, id="16-2pi"),
            pytest.param(16, 5.0, id="16-L5"),
            pytest.param(24, 3.0, id="24-L3"),
        ],
    )
    @pytest.mark.parametrize("degree", [TWO_FORM, ONE_FORM_DENSITY])
    def test_commutator_is_lie_derivative_of_bracket(self, degree, n, length):
        # L_xi L_eta F - L_eta L_xi F = L_[xi,eta] F with the bracket
        # (xi.grad)eta - (eta.grad)xi; the kernels give T = -L, so the left
        # side is T_xi T_eta F - T_eta T_xi F and the right side -T_[xi,eta] F
        g = GridSpec(n, n, n, Lx=length, Ly=length, Lz=length, dealias=False)
        xi = random_band_limited(g, seed=31, kmax=2, divfree=True)
        eta = random_band_limited(g, seed=32, kmax=2, divfree=True)
        F = random_band_limited(g, seed=33, kmax=2, divfree=degree == TWO_FORM)
        gxi, geta = _grad_vector_arr(g, xi), _grad_vector_arr(g, eta)
        bracket = along(xi, geta) - along(eta, gxi)
        T = _TRANSPORT[degree]
        lhs = T(g, xi, T(g, eta, F)) - T(g, eta, T(g, xi, F))
        rhs = -T(g, bracket, F)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_every_kind_has_an_ito_correction(self, grid):
        # a uniform mode's correction is its spectral multiplier; the same
        # mode goes through the degree's transport twice as a harmonic one
        xi = make_constant_mode(grid, (0.4, 0.3, 0.0))
        noise = NoiseModel(grid, [xi])
        w = random_band_limited(grid, seed=34, kmax=2, divfree=True)
        for model, s in (
            ("bi-ito", em_state(grid, seed=35, amplitude=0.3)),
            ("mhd-stratonovich", helical_orthogonal_state(grid, seed=36)),
            ("euler-vorticity", (w,)),
        ):
            cf = make_ito_correction(get_model(model), grid, noise)(s)
            cs = twice_transported(model, grid, xi, s)
            assert len(cf) == len(cs) == len(s)
            for a, b in zip(cf, cs):
                assert np.max(np.abs(a - b)) < 1e-12


class TestHamiltonianNoiseField:
    def test_mhd_noise_op_is_lie_poisson_field_of_pairing(self):
        # H_xi = <P, xi> generates (-ad*_xi P, -Lie_xi B) under the MHD
        # Lie-Poisson bracket; for divergence-free xi and B that is
        # -((xi.grad)P + (grad xi)^T P) and -((xi.grad)B - (B.grad)xi)
        g = GridSpec(8, 8, 8, dealias=False)
        xi = make_divfree_mode(g, k=(1, 0, 1), a=(0.3, 0.5, -0.2), phase=0.4)
        P = random_band_limited(g, seed=37, kmax=1)
        B = random_band_limited(g, seed=38, kmax=1, divfree=True)
        gxi, gP, gB = (full_fft_partials(g, f) for f in (xi, P, B))
        want_P = -(along(xi, gP) + np.einsum("kj...,j...->k...", gxi, P))
        want_B = -(along(xi, gB) - along(B, gxi))
        noise = NoiseModel(g, [xi])
        dP, dB = make_noise_op(get_model("mhd-stratonovich"), g, noise)((P, B), np.ones(1))
        assert np.max(np.abs(dP - want_P)) <= 1e-12 * np.max(np.abs(want_P))
        assert np.max(np.abs(dB - want_B)) <= 1e-12 * np.max(np.abs(want_B))


class TestModelRegistry:
    def test_known_models(self):
        for name in (
            "bi",
            "maxwell",
            "bi-stratonovich",
            "bi-ito",
            "maxwell-expectation",
            "euler-vorticity",
            "mhd",
            "mhd-stratonovich",
        ):
            assert get_model(name).name == name

    def test_unknown_model(self):
        with pytest.raises(ConstraintError):
            get_model("navier-stokes")
