"""Monitor and structure-identity tests.

Frozen values: vacuum energy = box volume, uniform crossed fields give
energy 2*vol and momentum (0,0,vol), the swirl (ABC) helicity is 3*vol, and
the square-loop Stokes value is sin(y0+1) - sin(y0). The bracket sign is
calibrated by the canonical-bracket computation itself and asserted here.
"""

import numpy as np
import pytest

from sabi.diagnostics import (
    DiagnosticsRecord,
    TracerLoop,
    advect_loop,
    collect_record,
    km_bracket_residual,
    loop_circulation,
    lp_bracket_check,
    magnetic_helicity,
    pb_orthogonality,
    total_energy,
    total_momentum,
    vorticity_transport_residual,
)
from sabi.config import parse_config
from sabi.dynamics import _MODELS, get_model
from sabi.errors import ConstraintError, NumericalError
from sabi.grid import GridSpec, VectorField, curl, curl_inv, grad
from sabi.noise import NoiseModel, make_constant_mode
from sabi.runner import initial_arrays

from test_dynamics import em_state, helical_orthogonal_state, zeros
from test_grid import random_band_limited

TWO_PI = 2.0 * np.pi
VOL = TWO_PI**3


@pytest.fixture(scope="module")
def grid():
    return GridSpec(16, 16, 16)


class TestIntegrals:
    def test_vacuum_energy(self, grid):
        vacuum = (zeros(grid), zeros(grid))
        assert total_energy(get_model("bi"), grid, vacuum) == pytest.approx(VOL, rel=1e-13)

    def test_uniform_crossed_fields(self, grid):
        vals_d = np.zeros((3, *grid.shape))
        vals_b = np.zeros((3, *grid.shape))
        vals_d[0] = 1.0
        vals_b[1] = 1.0
        s = (vals_d, vals_b)
        assert total_energy(get_model("bi"), grid, s) == pytest.approx(2 * VOL, rel=1e-13)
        mom = total_momentum(get_model("bi"), grid, s)
        assert np.allclose(mom, [0.0, 0.0, VOL], atol=1e-10)

    def test_zero_mhd_state_rejected(self, grid):
        with pytest.raises(NumericalError):
            total_energy(get_model("mhd"), grid, (zeros(grid), zeros(grid)))

    def test_mhd_momentum(self, grid):
        s = helical_orthogonal_state(grid, seed=1)
        mom = total_momentum(get_model("mhd"), grid, s)
        expected = s[0].mean(axis=(1, 2, 3)) * VOL
        assert np.allclose(mom, expected)


class TestHelicity:
    def test_single_mode_zero(self, grid):
        X, _, _ = grid.meshgrid()
        B = VectorField(grid, np.stack([0 * X, 0 * X, np.cos(X)]))
        assert abs(magnetic_helicity(B)) < 1e-12

    def test_swirl_field_value(self, grid):
        X, Y, Z = grid.meshgrid()
        A = VectorField(
            grid,
            np.stack(
                [np.sin(Z) + np.cos(Y), np.sin(X) + np.cos(Z), np.sin(Y) + np.cos(X)]
            ),
        )
        B = curl(A)  # equals A: curl eigenfield with eigenvalue 1
        assert magnetic_helicity(B) == pytest.approx(3.0 * VOL, rel=1e-10)

    def test_gauge_invariance(self, grid):
        B = random_band_limited(grid, seed=2, kmax=3, divfree=True)
        base = magnetic_helicity(B)
        A = curl_inv(B)
        psi = random_band_limited(grid, seed=3, kmax=3, vector=False)
        shifted = VectorField(grid, A.values + grad(psi).values)
        alt = float(np.mean(np.sum(shifted.values * B.values, axis=0))) * VOL
        assert abs(alt - base) < 1e-10 * max(abs(base), 1e-10)

    def test_rejects_unbalanced_field(self, grid):
        f = random_band_limited(grid, seed=4, kmax=2, vector=False)
        with pytest.raises(ConstraintError):
            magnetic_helicity(grad(f))


class TestLoops:
    def test_uniform_velocity_zero_circulation(self, grid):
        vals = np.zeros((3, *grid.shape))
        vals[0] = 0.7
        v = VectorField(grid, vals)
        loop = TracerLoop.circle((np.pi, np.pi, np.pi), 1.0, 64)
        assert abs(loop_circulation(loop, v)) < 1e-12

    def test_square_loop_stokes_value(self, grid):
        # v = (-sin y, 0, 0): circulation over the unit square starting at
        # y0=1 equals sin(2) - sin(1); edge values are constant, so the
        # polygon quadrature is exact
        _, Y, _ = grid.meshgrid()
        v = VectorField(grid, np.stack([-np.sin(Y), 0 * Y, 0 * Y]))
        y0, n_side = 1.0, 8
        t = np.linspace(0.0, 1.0, n_side, endpoint=False)
        bottom = np.stack([1.0 + t, np.full_like(t, y0), np.full_like(t, 3.0)], axis=1)
        right = np.stack([np.full_like(t, 2.0), y0 + t, np.full_like(t, 3.0)], axis=1)
        top = np.stack([2.0 - t, np.full_like(t, y0 + 1.0), np.full_like(t, 3.0)], axis=1)
        left = np.stack([np.full_like(t, 1.0), y0 + 1.0 - t, np.full_like(t, 3.0)], axis=1)
        loop = TracerLoop(np.concatenate([bottom, right, top, left]))
        got = loop_circulation(loop, v)
        assert got == pytest.approx(np.sin(2.0) - np.sin(1.0), abs=1e-12)

    def test_circle_loop_stokes_quadrature(self, grid):
        # independent oracle: 2-D polar quadrature of curl v over the disk;
        # the polygon value converges to it at the chord rate O(n^-2)
        _, Y, _ = grid.meshgrid()
        v = VectorField(grid, np.stack([-np.sin(Y), 0 * Y, 0 * Y]))
        r0 = 1.3
        rr = np.linspace(0.0, r0, 2000)
        th = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
        R, TH = np.meshgrid(rr, th, indexing="ij")
        flux = np.trapezoid(
            np.mean(np.cos(np.pi + R * np.sin(TH)) * R, axis=1) * TWO_PI, rr
        )
        errs = []
        for n in (256, 1024):
            loop = TracerLoop.circle((np.pi, np.pi, np.pi), r0, n)
            errs.append(abs(loop_circulation(loop, v) - flux))
        assert errs[0] < 2e-3
        assert errs[1] < errs[0] / 8.0  # 4x finer polygon: ~16x smaller error

    def test_advect_uniform_translation(self, grid):
        vals = np.zeros((3, *grid.shape))
        vals[1] = 0.5
        v = VectorField(grid, vals)
        loop = TracerLoop.circle((np.pi, np.pi, np.pi), 1.0, 32)
        out = advect_loop(loop, v, dt=0.2)
        expected = loop.points + np.array([0.0, 0.1, 0.0])
        assert np.max(np.abs(out.points - expected)) < 1e-13

    def test_advect_with_shared_noise_increment(self, grid):
        noise = NoiseModel.from_modes(grid, [make_constant_mode(grid, (1.0, 0, 0))])
        loop = TracerLoop.circle((np.pi, np.pi, np.pi), 1.0, 32)
        out = advect_loop(
            loop, VectorField(grid, np.zeros((3, *grid.shape))), dt=0.1, noise=noise, dW=np.array([0.25])
        )
        expected = loop.points + np.array([0.25, 0.0, 0.0])
        assert np.max(np.abs(out.points - expected)) < 1e-13


class TestBracketChecks:
    def test_antisymmetry_same_argument(self, grid):
        D = random_band_limited(grid, seed=5, kmax=3, divfree=True)
        A = random_band_limited(grid, seed=6, kmax=3)
        xi = random_band_limited(grid, seed=7, kmax=3, divfree=True)
        lhs, rhs = lp_bracket_check(D, A, xi, xi)
        assert lhs == 0.0
        assert abs(rhs) < 1e-11

    def test_constant_fields_commute(self, grid):
        D = random_band_limited(grid, seed=8, kmax=3, divfree=True)
        A = random_band_limited(grid, seed=9, kmax=3)
        xi = make_constant_mode(grid, (1.0, 0.0, 0.0))
        eta = make_constant_mode(grid, (0.0, 1.0, 0.0))
        lhs, rhs = lp_bracket_check(D, A, xi, eta)
        assert abs(lhs) < 1e-11
        assert abs(rhs) < 1e-11

    @pytest.mark.parametrize("n", [16, 24])
    def test_identity_on_random_inputs(self, n):
        g = GridSpec(n, n, n)
        D = random_band_limited(g, seed=10, kmax=3, divfree=True)
        A = random_band_limited(g, seed=11, kmax=3)
        xi = random_band_limited(g, seed=12, kmax=3, divfree=True)
        eta = random_band_limited(g, seed=13, kmax=3, divfree=True)
        lhs, rhs = lp_bracket_check(D, A, xi, eta)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1e-14)
        assert abs(lhs) > 1e-6  # the check is not vacuous

    def test_km_residual_degenerate_states(self, grid):
        assert km_bracket_residual(grid, zeros(grid), zeros(grid)) == 0.0
        vals_d = np.zeros((3, *grid.shape))
        vals_b = np.zeros((3, *grid.shape))
        vals_d[0], vals_b[1] = 0.8, 0.6
        assert km_bracket_residual(grid, vals_d, vals_b) == 0.0

    def test_km_residual_smooth_state(self):
        g = GridSpec(32, 32, 32)
        s = em_state(g, seed=14, amplitude=0.3)
        assert km_bracket_residual(g, *s) < 1e-6

    def test_vorticity_residual_resolves_spectrally(self):
        vals = []
        for n in (16, 32):
            g = GridSpec(n, n, n)
            s = em_state(g, seed=15, amplitude=0.25)
            vals.append(vorticity_transport_residual(get_model("bi"), g, *s))
        assert vals[1] < 1e-5
        assert vals[1] < vals[0] / 50.0


class TestStochasticInvariants:
    def test_mhd_helicity_survives_transport_noise(self):
        # helicity is a topological (metric-free) invariant of frozen-in
        # flux, so unlike the energy it is conserved pathwise under
        # harmonic-noise transport, up to integrator error
        from sabi.config import parse_config
        from sabi.runner import run_ensemble

        cfg = parse_config(
            {
                "model": "mhd-stratonovich",
                "grid": {"nx": 16, "ny": 16, "nz": 16},
                "initial": {
                    "preset": "helical-orthogonal",
                    "seed": 3,
                    "amplitude": 0.05,
                    "kmax": 1,
                    "momentum_amplitude": 0.1,
                },
                "noise": {"modes": [{"type": "harmonic", "k": [0, 0, 1], "a": [0.3, 0, 0]}]},
                "integrator": {"scheme": "heun", "dt": 4e-3, "t_end": 0.2},
                "ensemble": {"members": 1, "seed": 2},
                "output": {"diagnostics_interval": 10},
            }
        )
        recs = run_ensemble(cfg).members[0].records
        h0 = recs[0].helicity
        assert max(abs(r.helicity - h0) for r in recs) / abs(h0) < 1e-8
        assert max(r.div_b for r in recs) < 1e-10


class TestVorticityKelvin:
    def test_taylor_green_circulation_conserved(self):
        # deterministic specialization: the circulation of u around a loop
        # advected with u is an invariant of the vorticity dynamics
        from sabi.dynamics import get_model, make_drift
        from sabi.grid import _curl_inv_arr
        from sabi.integrators import rk4_step
        from sabi.presets import taylor_green

        grid = GridSpec(16, 16, 16)
        drift = make_drift(get_model("euler-vorticity"), grid)
        drifts = []
        for n_steps, n_loop in ((20, 128), (40, 256)):
            dt = 0.2 / n_steps
            arrs = (taylor_green(grid, amplitude=1.0)[0].copy(),)
            u = VectorField(grid, _curl_inv_arr(grid, arrs[0]))
            loop = TracerLoop.circle((np.pi / 2, np.pi / 2, 1.0), 0.8, n_loop)
            c0 = loop_circulation(loop, u)
            for _ in range(n_steps):
                new = rk4_step(arrs, drift, dt)
                u_new = VectorField(grid, _curl_inv_arr(grid, new[0]))
                loop = advect_loop(loop, u, dt, v_end=u_new)
                arrs, u = new, u_new
            drifts.append(abs(loop_circulation(loop, u) - c0) / abs(c0))
        assert drifts[0] < 1e-6
        assert drifts[1] < drifts[0] / 3.0  # O(dt^2 + n^-2) refinement


class TestRecords:
    def test_record_validation(self):
        rec = DiagnosticsRecord(
            time=0.0, energy=float("nan"), momentum=(0.0, 0.0, 0.0)
        )
        with pytest.raises(NumericalError):
            rec.validate()

    def test_collect_em(self, grid):
        s = em_state(grid, seed=16, amplitude=0.3)
        rec = collect_record(get_model("bi"), grid, s, time=0.5)
        assert rec.div_d is not None and rec.div_d < 1e-10
        assert rec.helicity is None
        assert len(rec.csv_row()) == len(DiagnosticsRecord.CSV_COLUMNS)

    def test_collect_mhd(self, grid):
        s = helical_orthogonal_state(grid, seed=17)
        rec = collect_record(get_model("mhd"), grid, s, time=0.0)
        assert rec.pb_orth is not None and rec.pb_orth < 1e-12
        assert rec.helicity is not None

    def test_collect_vorticity(self, grid):
        w = random_band_limited(grid, seed=18, kmax=2, divfree=True)
        rec = collect_record(get_model("euler-vorticity"), grid, (w.values,), time=0.0)
        assert rec.energy > 0.0

    def test_pb_orthogonality_exact_at_start(self, grid):
        s = helical_orthogonal_state(grid, seed=19)
        assert pb_orthogonality(*s) < 1e-13


# the columns each model kind defines beyond time, energy and momentum
KIND_COLUMNS = {
    "em": {"div_d", "div_b"},
    "mhd": {"div_b", "helicity", "pb_orth"},
    "vorticity": {"div_b"},
}


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_collect_record_dispatches_on_model(name):
    model = get_model(name)
    data = {"model": name, "grid": {"nx": 8, "ny": 8, "nz": 8}, "initial": {"seed": 1}}
    if model.calculus is not None or model.expectation:
        data["noise"] = {"modes": [{"type": "constant", "a": [0.1, 0.0, 0.0]}]}
    cfg = parse_config(data)
    arrs = initial_arrays(cfg)
    rec = collect_record(model, cfg.grid, arrs, time=0.0)
    defined = {c for c, v in zip(DiagnosticsRecord.CSV_COLUMNS, rec.row()) if v is not None}
    base = {"time", "energy", "momentum_x", "momentum_y", "momentum_z"}
    assert defined == base | KIND_COLUMNS[model.kind]
    if model.kind == "em":
        # every em model starts from the same (D, B); the closure picks the energy
        D, B = arrs
        P = np.cross(D, B, axis=0)
        bi = float(np.mean(np.sqrt(1.0 + np.sum(D * D + B * B + P * P, axis=0)))) * VOL
        maxwell = 0.5 * float(np.mean(np.sum(D * D + B * B, axis=0))) * VOL
        expected = bi if name.startswith("bi") else maxwell
        assert rec.energy == pytest.approx(expected, rel=1e-12)
        assert abs(bi - maxwell) > 0.5 * VOL
