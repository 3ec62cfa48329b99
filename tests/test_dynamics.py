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
    get_model,
    make_drift,
    make_ito_correction,
    make_noise_op,
    mhd_density,
)
from sabi.errors import ConstraintError, NumericalError
from sabi.grid import GridSpec, VectorField, curl, curl_inv, laplacian, lie2form, max_div
from sabi.noise import NoiseModel, make_constant_mode, make_divfree_mode

from test_grid import random_band_limited


@pytest.fixture(scope="module")
def grid():
    return GridSpec(16, 16, 16)


def em_state(grid, seed, amplitude, kmax=2):
    """A random band-limited divergence-free (D, B)."""
    D = random_band_limited(grid, seed=seed, kmax=kmax, divfree=True)
    B = random_band_limited(grid, seed=seed + 500, kmax=kmax, divfree=True)
    return amplitude * D.values, amplitude * B.values


def zeros(grid):
    return np.zeros((3, *grid.shape))


def spectral_dx(grid, arr):
    spec = grid.rfft(arr)
    return grid.irfft(1j * grid.kx * spec)


def apply(factory, model, grid, arrs, noise=None, *dW):
    """Build the model's operator with a dynamics factory, apply it to the
    state arrays (and dW), and wrap the results as fields."""
    op = factory(get_model(model), grid, noise)
    return tuple(VectorField(grid, a) for a in op(arrs, *dW))


class TestDeterministicEM:
    def test_zero_state(self, grid):
        dD, dB = apply(make_drift, "bi", grid, (zeros(grid), zeros(grid)))
        assert dD.max_norm() == 0.0 and dB.max_norm() == 0.0

    def test_uniform_fields(self, grid):
        vals = np.ones((3, *grid.shape))
        dD, dB = apply(make_drift, "bi", grid, (vals, 0.5 * vals))
        assert dD.max_norm() < 1e-12 and dB.max_norm() < 1e-12

    def test_maxwell_plane_wave_identity(self, grid):
        # D = (0, cos(x-t), 0), B = (0, 0, cos(x-t)) solves the weak-field
        # system; at t=0 both time derivatives equal (.., sin x, ..)
        X, _, _ = grid.meshgrid()
        zero = np.zeros_like(X)
        s = (np.stack([zero, np.cos(X), zero]), np.stack([zero, zero, np.cos(X)]))
        dD, dB = apply(make_drift, "maxwell", grid, s)
        assert np.max(np.abs(dD.values[1] - np.sin(X))) < 1e-12
        assert np.max(np.abs(dB.values[2] - np.sin(X))) < 1e-12

    def test_rhs_divergence_free(self, grid):
        s = em_state(grid, seed=1, amplitude=0.4)
        dD, dB = apply(make_drift, "bi", grid, s)
        assert max_div(dD) < 1e-12 and max_div(dB) < 1e-12


class TestStochasticIncrement:
    def test_zero_dw(self, grid):
        s = em_state(grid, seed=2, amplitude=0.3)
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (1, 0, 0))])
        dD, dB = apply(make_noise_op, "bi-stratonovich", grid, s, noise, np.zeros(1))
        assert dD.max_norm() == 0.0 and dB.max_norm() == 0.0

    def test_constant_mode_reduction(self, grid):
        sigma, dw = 0.7, 0.13
        s = em_state(grid, seed=3, amplitude=0.3)
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        dD, dB = apply(make_noise_op, "bi-stratonovich", grid, s, noise, np.array([dw]))
        assert np.max(np.abs(dD.values + sigma * dw * spectral_dx(grid, s[0]))) < 1e-11
        assert np.max(np.abs(dB.values + sigma * dw * spectral_dx(grid, s[1]))) < 1e-11

    def test_output_divergence_free(self, grid):
        s = em_state(grid, seed=4, amplitude=0.3)
        noise = NoiseModel.from_modes(
            grid, [make_divfree_mode(grid, k=(1, 0, 0), a=(0, 1, 0))]
        )
        dD, dB = apply(make_noise_op, "bi-stratonovich", grid, s, noise, np.array([0.2]))
        assert max_div(dD) < 1e-12 and max_div(dB) < 1e-12


class TestItoCorrection:
    def test_zero_noise(self, grid):
        s = em_state(grid, seed=5, amplitude=0.3)
        cD, cB = apply(make_ito_correction, "bi-ito", grid, s, NoiseModel.empty(grid))
        assert cD.max_norm() == 0.0 and cB.max_norm() == 0.0

    def test_constant_mode_heat_operator(self, grid):
        sigma = 0.6
        s = em_state(grid, seed=6, amplitude=0.3)
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        cD, _ = apply(make_ito_correction, "bi-ito", grid, s, noise)
        spec = grid.rfft(s[0])
        dxx = grid.irfft(-(grid.kx**2) * spec)
        assert np.max(np.abs(cD.values - 0.5 * sigma**2 * dxx)) < 1e-11

    def test_harmonic_mode_matches_composition(self):
        # independent oracle: apply the transport operator twice through the
        # public lie2form on a truncation-free grid
        g = GridSpec(16, 16, 16, dealias=False)
        s = em_state(g, seed=7, amplitude=0.3, kmax=2)
        xi = make_divfree_mode(g, k=(0, 1, 0), a=(1, 0, 0), amplitude=0.8)
        noise = NoiseModel.from_modes(g, [xi])
        cD, cB = apply(make_ito_correction, "bi-ito", g, s, noise)
        for F, got in ((VectorField(g, s[0]), cD), (VectorField(g, s[1]), cB)):
            twice = lie2form(xi, lie2form(xi, F))
            assert np.max(np.abs(got.values - 0.5 * twice.values)) < 1e-10

    def test_constant_fast_path_matches_generic(self, grid):
        # force the generic path by disguising a uniform mode as non-constant
        s = em_state(grid, seed=8, amplitude=0.3)
        xi = make_constant_mode(grid, (0.4, 0.3, 0.0))
        fast = NoiseModel(grid, (xi,), (True,))
        slow = NoiseModel(grid, (xi,), (False,))
        cf, _ = apply(make_ito_correction, "bi-ito", grid, s, fast)
        cs, _ = apply(make_ito_correction, "bi-ito", grid, s, slow)
        assert np.max(np.abs(cf.values - cs.values)) < 1e-12


class TestExpectationRHS:
    def test_reduces_to_maxwell_without_noise(self, grid):
        s = em_state(grid, seed=9, amplitude=0.2)
        d1 = apply(make_drift, "maxwell-expectation", grid, s, NoiseModel.empty(grid))
        d2 = apply(make_drift, "maxwell", grid, s)
        for a, b in zip(d1, d2):
            assert np.max(np.abs(a.values - b.values)) < 1e-14

    def test_constant_basis_reduces_to_laplacian(self, grid):
        sigma = 0.5
        s = em_state(grid, seed=10, amplitude=0.2)
        noise = NoiseModel.from_modes(
            grid,
            [
                make_constant_mode(grid, (sigma, 0, 0)),
                make_constant_mode(grid, (0, sigma, 0)),
                make_constant_mode(grid, (0, 0, sigma)),
            ],
        )
        dD, _ = apply(make_drift, "maxwell-expectation", grid, s, noise)
        base, _ = apply(make_drift, "maxwell", grid, s)
        lap = laplacian(VectorField(grid, s[0]))
        expected = base.values + 0.5 * sigma**2 * lap.values
        assert np.max(np.abs(dD.values - expected)) < 1e-10

    def test_single_mode_damping_rate(self, grid):
        # a pure D-mode has rhs curl B + correction = -sigma^2/2 D for k=(1,0,0)
        sigma = 0.8
        X, _, _ = grid.meshgrid()
        zero = np.zeros_like(X)
        s = (np.stack([zero, np.cos(X), zero]), zeros(grid))
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        dD, _ = apply(make_drift, "maxwell-expectation", grid, s, noise)
        assert np.max(np.abs(dD.values - (-0.5 * sigma**2) * s[0])) < 1e-11


class TestVorticity:
    def test_mean_mode_rejected(self, grid):
        # a vorticity with a uniform w_z is not the curl of any periodic
        # velocity: recovering u = curl^-1 w must refuse it, and accept the
        # same field once the mean is gone
        w = random_band_limited(grid, seed=11, kmax=2, divfree=True).values
        w = w - w.mean(axis=(1, 2, 3), keepdims=True)
        with_mean = w.copy()
        with_mean[2] += 1.0
        with pytest.raises(ConstraintError):
            curl_inv(VectorField(grid, with_mean))
        u = curl_inv(VectorField(grid, w))
        assert np.max(np.abs(curl(u).values - w)) < 1e-10

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
        assert out.max_norm() < 1e-11

    def test_constant_noise_translation(self, grid):
        w = random_band_limited(grid, seed=12, kmax=2, divfree=True)
        sigma, dw = 0.5, 0.2
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        (out,) = apply(make_noise_op, "euler-vorticity", grid, (w.values,), noise, np.array([dw]))
        assert np.max(np.abs(out.values + sigma * dw * spectral_dx(grid, w.values))) < 1e-11

    def test_rhs_divergence_free(self, grid):
        w = random_band_limited(grid, seed=13, kmax=2, divfree=True)
        (out,) = apply(make_drift, "euler-vorticity", grid, (w.values,))
        assert max_div(out) < 1e-12


def helical_orthogonal_state(grid, seed=0, eps=0.1, w_amp=0.3, kmax=2):
    """(P, B): B = unit-norm circular mode + small divfree part; P = w x B."""
    X, Y, Z = grid.meshgrid()
    B = np.stack([np.cos(Z), np.sin(Z), np.zeros_like(Z)])
    pert = random_band_limited(grid, seed=seed, kmax=kmax, divfree=True)
    B = B + eps * pert.values
    wfield = random_band_limited(grid, seed=seed + 100, kmax=kmax)
    P = np.cross(w_amp * wfield.values, B, axis=0)
    return P, B


class TestMHD:
    def test_uniform_states_stationary(self, grid):
        vals = np.zeros((3, *grid.shape))
        vals[0] = 0.8
        dP, dB = apply(make_drift, "mhd", grid, (vals, vals * 0.5))
        assert dP.max_norm() < 1e-12 and dB.max_norm() < 1e-12
        dP, dB = apply(make_drift, "mhd", grid, (zeros(grid), vals))
        assert dP.max_norm() < 1e-12 and dB.max_norm() < 1e-12

    def test_energy_flux_integral_vanishes(self):
        # the flux-divergence tail leaking past the dealias band shrinks
        # spectrally; 32^3 with modest amplitudes puts it far below 1e-9
        g = GridSpec(32, 32, 32)
        s = helical_orthogonal_state(g, seed=14, eps=0.05, w_amp=0.15)
        dP, dB = apply(make_drift, "mhd", g, s)
        h = mhd_density(*s)
        dh = np.sum(s[0] * dP.values + s[1] * dB.values, axis=0) / h
        drift = abs(float(np.mean(dh)) * g.volume)
        assert drift < 1e-9

    def test_floor_violation_aborts(self, grid):
        with pytest.raises(NumericalError):
            apply(make_drift, "mhd", grid, (zeros(grid), zeros(grid)))

    def test_db_divergence_free(self, grid):
        s = helical_orthogonal_state(grid, seed=15)
        _, dB = apply(make_drift, "mhd", grid, s)
        assert max_div(dB) < 1e-12

    def test_stochastic_zero_dw(self, grid):
        s = helical_orthogonal_state(grid, seed=16)
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (1, 0, 0))])
        dP, dB = apply(make_noise_op, "mhd-stratonovich", grid, s, noise, np.zeros(1))
        assert dP.max_norm() == 0.0 and dB.max_norm() == 0.0

    def test_stochastic_constant_reduction(self, grid):
        s = helical_orthogonal_state(grid, seed=17)
        sigma, dw = 0.4, 0.11
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        dP, dB = apply(make_noise_op, "mhd-stratonovich", grid, s, noise, np.array([dw]))
        assert np.max(np.abs(dP.values + sigma * dw * spectral_dx(grid, s[0]))) < 1e-11
        assert np.max(np.abs(dB.values + sigma * dw * spectral_dx(grid, s[1]))) < 1e-11

    def test_harmonic_noise_changes_total_momentum(self, grid):
        # non-uniform noise amplitude: the momentum increment has a nonzero
        # spatial integral, unlike the constant-mode case
        s = helical_orthogonal_state(grid, seed=18)
        harmonic = NoiseModel.from_modes(
            grid, [make_divfree_mode(grid, k=(0, 0, 1), a=(1, 0, 0), amplitude=0.5)]
        )
        const = NoiseModel.from_modes(grid, [make_constant_mode(grid, (0.5, 0, 0))])
        dP_h, _ = apply(make_noise_op, "mhd-stratonovich", grid, s, harmonic, np.array([0.3]))
        dP_c, _ = apply(make_noise_op, "mhd-stratonovich", grid, s, const, np.array([0.3]))
        mom_h = np.linalg.norm(dP_h.values.mean(axis=(1, 2, 3)) * grid.volume)
        mom_c = np.linalg.norm(dP_c.values.mean(axis=(1, 2, 3)) * grid.volume)
        assert mom_c < 1e-10
        assert mom_h > 1e-3


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
