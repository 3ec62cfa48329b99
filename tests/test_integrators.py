"""Stepper tests against exact solutions.

Oracles: the complex exponential for RK4 order, X0*exp(W_t) for the
Stratonovich scalar test, translated initial data for pure transport, and
per-mode heat decay for the Ito correction.
"""

import numpy as np
import pytest

from sabi.dynamics import get_model, make_drift, make_ito_correction, make_noise_op
from sabi.errors import ConfigError, NumericalError
from sabi.grid import GridSpec, max_div
from sabi.integrators import (
    IntegratorConfig,
    check_finite,
    euler_maruyama_step,
    heun_stratonovich_step,
    rk4_step,
)
from sabi.noise import DyadicBrownianPath, NoiseModel, make_constant_mode

from test_grid import random_band_limited


def rotation_rhs(state):
    # d/dt (u1, u2) = (-u2, u1): the 2-real form of du/dt = i u
    u1, u2 = state
    return (-u2, u1)


class TestRK4:
    def test_zero_rhs_identity(self):
        state = (np.array([1.0, 2.0]),)
        out = rk4_step(state, lambda s: (np.zeros(2),), 0.1)
        assert np.array_equal(out[0], state[0])

    def test_one_step_error_order(self):
        # for du/dt = iu the one-step truncation error is O(dt^5)
        errs = []
        for dt in (0.1, 0.05):
            out = rk4_step((np.array(1.0), np.array(0.0)), rotation_rhs, dt)
            exact = (np.cos(dt), np.sin(dt))
            errs.append(np.hypot(out[0] - exact[0], out[1] - exact[1]))
        ratio = errs[0] / errs[1]
        assert 20.0 < ratio < 45.0  # 2^5 = 32 up to higher-order wiggle

    def test_maxwell_plane_wave_fourth_order(self):
        grid = GridSpec(8, 8, 8)
        X, _, _ = grid.meshgrid()
        zero = np.zeros_like(X)
        D0 = np.stack([zero, np.cos(X), zero])
        B0 = np.stack([zero, zero, np.cos(X)])
        drift = make_drift(get_model("maxwell"), grid)
        t_end = 0.5
        errs = []
        for n_steps in (10, 20):
            dt = t_end / n_steps
            state = (D0.copy(), B0.copy())
            for _ in range(n_steps):
                state = rk4_step(state, drift, dt)
            exact = np.stack([zero, np.cos(X - t_end), zero])
            errs.append(np.sqrt(np.mean((state[0] - exact) ** 2)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0


class TestHeun:
    def test_reduces_to_deterministic_heun(self):
        # with dW = 0 the scheme is 2nd-order deterministic Heun
        def no_noise(state, dW):
            return (np.zeros(()),)

        errs = []
        for dt in (0.01, 0.005):
            x = (np.array(1.0),)
            t = 0.0
            while t < 1.0 - 1e-12:
                x = heun_stratonovich_step(x, lambda s: (s[0],), no_noise, dt, np.zeros(0))
                t += dt
            errs.append(abs(float(x[0]) - np.e))
        assert 3.4 < errs[0] / errs[1] < 4.6

    def test_scalar_stratonovich_strong_order(self):
        # dX = X o dW has the exact solution X0 exp(W_t)
        t_end = 1.0
        errors = []
        dts = [2.0**-k for k in (4, 5, 6, 7, 8)]
        n_paths = 24
        for dt in dts:
            n = round(t_end / dt)
            err = 0.0
            for member in range(n_paths):
                path = DyadicBrownianPath(seed=11, member_index=member, n_modes=1, t_end=t_end)
                dWs = path.increments(n)
                x = (np.array(1.0),)
                for i in range(n):
                    x = heun_stratonovich_step(
                        x,
                        lambda s: (np.zeros(()),),
                        lambda s, dW: (s[0] * dW[0],),
                        dt,
                        dWs[i],
                    )
                w_total = dWs.sum()
                err += abs(float(x[0]) - np.exp(w_total))
            errors.append(err / n_paths)
        slope = np.polyfit(np.log2(dts), np.log2(errors), 1)[0]
        assert 0.75 < slope < 1.35

    def test_pure_transport_matches_translation(self):
        # constant-xi transport with no drift: D(t) = D0(x - xi W_t)
        grid = GridSpec(16, 16, 16)
        sigma = 0.5
        D0 = random_band_limited(grid, seed=3, kmax=2, divfree=True)
        B0 = random_band_limited(grid, seed=4, kmax=2, divfree=True)
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        model = get_model("bi-stratonovich")
        g = make_noise_op(model, grid, noise)
        zero_drift = lambda s: tuple(np.zeros_like(a) for a in s)
        t_end = 0.5
        errs = []
        for n in (32, 64):
            path = DyadicBrownianPath(seed=5, member_index=0, n_modes=1, t_end=t_end)
            dWs = path.increments(n)
            state = (D0.copy(), B0.copy())
            for i in range(n):
                state = heun_stratonovich_step(state, zero_drift, g, t_end / n, dWs[i])
            shift = sigma * dWs.sum()
            spec = grid.rfft(D0)
            exact = grid.irfft(spec * np.exp(-1j * grid.kx * shift))
            errs.append(np.sqrt(np.mean((state[0] - exact) ** 2)))
        assert errs[1] < 0.65 * errs[0]  # ~O(dt) strong error


class TestEulerMaruyama:
    def test_heat_decay_with_correction(self):
        # dW == 0 with the correction on: each mode damps at rate (xi.k)^2/2
        grid = GridSpec(8, 8, 8)
        X, _, _ = grid.meshgrid()
        zero = np.zeros_like(X)
        sigma = 0.8
        D0 = np.stack([zero, np.cos(X), zero])
        state = (D0, np.stack([zero, zero, np.cos(X)]))
        noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
        model = get_model("maxwell-ito")
        drift = make_drift(model, grid)
        corr = make_ito_correction(model, grid, noise)

        def ito_drift(s):
            f = drift(s)
            c = corr(s)
            return tuple(a + b for a, b in zip(f, c))

        g = make_noise_op(model, grid, noise)
        t_end, n = 0.5, 500
        dt = t_end / n
        for _ in range(n):
            state = euler_maruyama_step(state, ito_drift, g, dt, np.zeros(1))
        # travelling wave with damped envelope: |D_y mode at k=(1,0,0)|
        amp = 2.0 * abs(grid.rfft(state[0][1])[1, 0, 0]) / grid.n_points
        expected = np.exp(-0.5 * sigma**2 * t_end)
        assert abs(amp - expected) < 2e-3

    def test_reduces_to_forward_euler(self):
        state = (np.array(1.0),)
        out = euler_maruyama_step(
            state, lambda s: (s[0],), lambda s, dW: (np.zeros(()),), 0.1, np.zeros(0)
        )
        assert float(out[0]) == pytest.approx(1.1, abs=1e-15)


class TestGuards:
    def test_nan_detection(self):
        with pytest.raises(NumericalError):
            check_finite((np.array([1.0, np.nan]),))

    def test_nan_in_imaginary_part_of_spectrum_detected(self):
        spec = np.fft.rfftn(np.ones((4, 4, 4)))
        check_finite((spec,))
        spec[1, 2, 0] = complex(0.0, np.nan)
        with pytest.raises(NumericalError):
            check_finite((spec,))

    def test_integrator_config_validation(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(scheme="rk9", dt=0.1, t_end=1.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(scheme="rk4", dt=-0.1, t_end=1.0)
        cfg = IntegratorConfig(scheme="rk4", dt=0.1, t_end=1.0)
        assert cfg.n_steps == 10
        # rounding always lands within one step of t_end
        cfg = IntegratorConfig(scheme="rk4", dt=0.4, t_end=1.0)
        assert abs(cfg.n_steps * cfg.dt - cfg.t_end) <= cfg.dt

    def test_divergence_preserved_through_steps(self):
        grid = GridSpec(16, 16, 16)
        D = random_band_limited(grid, seed=6, kmax=2, divfree=True)
        B = random_band_limited(grid, seed=7, kmax=2, divfree=True)
        drift = make_drift(get_model("bi"), grid)
        state = (0.4 * D, 0.4 * B)
        for _ in range(20):
            state = rk4_step(state, drift, 1e-2)
        assert max_div(grid, state[0]) < 1e-10
        assert max_div(grid, state[1]) < 1e-10
