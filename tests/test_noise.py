"""Correlation-mode construction and Wiener-driver tests."""

import numpy as np
import pytest

from sabi.errors import ConstraintError
from sabi.grid import GridSpec, max_div
from sabi.noise import (
    DyadicBrownianPath,
    NoiseModel,
    WienerDriver,
    make_constant_mode,
    make_divfree_mode,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return GridSpec(16, 16, 16)


class TestDivfreeModes:
    def test_transverse_single_mode(self, grid):
        xi = make_divfree_mode(grid, k=(1, 0, 0), a=(0, 1, 0))
        X, _, _ = grid.meshgrid()
        assert np.max(np.abs(xi[1] - np.cos(X))) < 1e-13
        assert np.max(np.abs(xi[0])) < 1e-13
        assert max_div(grid, xi) < 1e-12

    def test_parallel_amplitude_rejected(self, grid):
        with pytest.raises(ConstraintError, match="divergence-free"):
            make_divfree_mode(grid, k=(1, 0, 0), a=(1, 0, 0))

    def test_zero_wavevector_rejected(self, grid):
        with pytest.raises(ConstraintError):
            make_divfree_mode(grid, k=(0, 0, 0), a=(0, 1, 0))

    def test_mode_energy(self, grid):
        # a = (0,0,1) is already normal to k = (1,1,0): int cos^2 = vol/2
        xi = make_divfree_mode(grid, k=(1, 1, 0), a=(0, 0, 1))
        assert max_div(grid, xi) < 1e-12
        energy = float(np.mean(np.sum(xi**2, axis=0))) * grid.volume
        assert energy == pytest.approx(0.5 * TWO_PI**3, rel=1e-12)

    def test_oblique_projection(self, grid):
        xi = make_divfree_mode(grid, k=(1, 2, 0), a=(1.0, 0.5, 0.3))
        assert max_div(grid, xi) < 1e-11

    def test_constant_mode(self, grid):
        xi = make_constant_mode(grid, a=(0.5, 0, 0))
        assert np.all(xi[0] == 0.5)
        assert max_div(grid, xi) < 1e-14

    def test_noise_model_flags(self, grid):
        harmonic = make_divfree_mode(grid, k=(1, 0, 0), a=(0, 1, 0))
        model = NoiseModel(grid, [make_constant_mode(grid, a=(1, 0, 0)), harmonic])
        assert model.constant_flags == (True, False)
        assert model.n_modes == 2
        assert model.modes.shape == (2, 3, *grid.shape)
        combined = model.combine(np.array([2.0, 0.0]))
        assert np.all(combined[0] == 2.0)
        assert model.harmonic == [1]

    @pytest.mark.parametrize(
        "model_name", ["bi-stratonovich", "euler-vorticity", "mhd-stratonovich"]
    )
    def test_factories_transform_no_gradients(self, grid, model_name, monkeypatch):
        # no transport kernel reads the partials of xi, so building the noise
        # model and the three factories costs only the modes' divergence checks
        from sabi.dynamics import get_model, make_drift, make_ito_correction, make_noise_op

        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            original = GridSpec.__dict__[name]

            def spy(self, arr, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, arr, *args, **kwargs)

            monkeypatch.setattr(GridSpec, name, spy)
        modes = [
            make_constant_mode(grid, a=(0.1, 0.0, 0.0)),
            make_divfree_mode(grid, k=(0, 0, 1), a=(0.3, 0, 0)),
        ]
        noise = NoiseModel(grid, modes)
        model = get_model(model_name)
        make_drift(model, grid)
        make_noise_op(model, grid, noise)
        make_ito_correction(model, grid, noise)
        # each mode's divergence check: one rfft and one irfft
        assert calls == {"rfft": 2, "irfft": 2}


class TestWienerDriver:
    def test_determinism(self):
        d = WienerDriver(seed=42, member_index=3, n_modes=4)
        a = d.increments(step=17, dt=0.01)
        b = d.increments(step=17, dt=0.01)
        assert a.tobytes() == b.tobytes()

    def test_step_and_member_separation(self):
        d0 = WienerDriver(seed=42, member_index=0, n_modes=2)
        d1 = WienerDriver(seed=42, member_index=1, n_modes=2)
        assert not np.allclose(d0.increments(0, 0.01), d0.increments(1, 0.01))
        assert not np.allclose(d0.increments(0, 0.01), d1.increments(0, 0.01))

    def test_moments(self):
        d = WienerDriver(seed=7, member_index=0, n_modes=1)
        dt = 0.01
        n = 100_000
        draws = np.array([d.increments(s, dt)[0] for s in range(n)])
        # mean within 4 sigma of zero, variance within 5% of dt
        assert abs(draws.mean()) < 4.0 * np.sqrt(dt / n)
        assert abs(draws.var() - dt) < 0.05 * dt

    def test_member_decorrelation(self):
        n = 10_000
        a = np.array([WienerDriver(1, 0, 1).increments(s, 1.0)[0] for s in range(n)])
        b = np.array([WienerDriver(1, 1, 1).increments(s, 1.0)[0] for s in range(n)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_rejects_bad_dt(self):
        d = WienerDriver(seed=1, member_index=0, n_modes=1)
        with pytest.raises(ValueError):
            d.increments(0, 0.0)


class TestDyadicBrownianPath:
    def test_refinement_consistency(self):
        path = DyadicBrownianPath(seed=5, member_index=0, n_modes=2, t_end=0.5)
        coarse = path.increments(8)
        fine = path.increments(32)
        # summing fine increments in groups of 4 recovers the coarse path
        regrouped = fine.reshape(8, 4, 2).sum(axis=1)
        assert np.max(np.abs(regrouped - coarse)) < 1e-14

    def test_refinement_keeps_existing_levels(self):
        path = DyadicBrownianPath(seed=6, member_index=0, n_modes=1, t_end=1.0)
        before = path.increments(4).copy()
        path.increments(256)
        after = path.increments(4)
        assert np.array_equal(before, after)

    def test_endpoint_distribution(self):
        t_end = 2.0
        ends = np.array(
            [
                DyadicBrownianPath(seed=9, member_index=m, n_modes=1, t_end=t_end)
                .increments(1)
                .sum()
                for m in range(4000)
            ]
        )
        assert abs(ends.mean()) < 4.0 * np.sqrt(t_end / 4000)
        assert abs(ends.var() - t_end) < 0.1 * t_end

    def test_power_of_two_required(self):
        path = DyadicBrownianPath(seed=1, member_index=0, n_modes=1, t_end=1.0)
        with pytest.raises(ValueError):
            path.increments(12)

    def test_distinct_from_driver_stream(self):
        # same (seed, member, 0) tuple must not reproduce driver increments
        path = DyadicBrownianPath(seed=3, member_index=0, n_modes=1, t_end=1.0)
        drv = WienerDriver(seed=3, member_index=0, n_modes=1)
        assert not np.allclose(path.increments(1)[0], drv.increments(0, 1.0))
