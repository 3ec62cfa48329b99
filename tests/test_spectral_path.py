"""The transform-free spectral path of the linear Maxwell family.

Oracle: the generic path on physical arrays. Both are driven by
runner.make_stepper with the same increments, step by step, from states
that carry content outside the 2/3 band (so the dealias mask acts) but none
on the Nyquist planes: there the generic path's inverse transforms project
every odd derivative onto real fields, which the spectral state does not.
"""

import numpy as np
import pytest

from sabi.config import parse_config
from sabi.dynamics import get_model, make_drift, spectral_path
from sabi.errors import ConstraintError
from sabi.grid import GridSpec, project_divfree
from sabi.noise import NoiseModel, WienerDriver, make_constant_mode, make_divfree_mode
from sabi.runner import make_stepper, run_ensemble

MAXWELL_SCHEMES = {
    "maxwell": "rk4",
    "maxwell-expectation": "rk4",
    "maxwell-ito": "euler-maruyama",
    "maxwell-stratonovich": "heun",
}
UNIFORM = ((0.4, 0.0, 0.0), (0.1, -0.3, 0.2))


def field_without_nyquist(grid, rng):
    vals = project_divfree(grid, rng.standard_normal((3, *grid.shape)))
    spec = grid.rfft(vals)
    spec[:, grid.nx // 2] = 0.0
    spec[:, :, grid.ny // 2] = 0.0
    spec[:, :, :, grid.nz // 2] = 0.0
    return grid.irfft(spec)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n_modes", [0, 1, 2])
@pytest.mark.parametrize("model_name", sorted(MAXWELL_SCHEMES))
def test_spectral_steps_match_generic(model_name, n_modes, dealias):
    grid = GridSpec(8, 8, 8, dealias=dealias)
    rng = np.random.default_rng(17)
    arrs = (field_without_nyquist(grid, rng), field_without_nyquist(grid, rng))
    noise = NoiseModel(grid, [make_constant_mode(grid, a) for a in UNIFORM[:n_modes]])
    model = get_model(model_name)
    scheme, dt = MAXWELL_SCHEMES[model_name], 0.01
    assert spectral_path(model, noise)
    generic = make_stepper(model, grid, noise, scheme, dt)
    spectral = make_stepper(model, grid, noise, scheme, dt, spectral=True)
    specs = tuple(grid.rfft(a) for a in arrs)
    driver = WienerDriver(5, 0, n_modes)
    for step in range(10):
        dW = driver.increments(step, dt)
        arrs = generic(arrs, dW)
        specs = spectral(specs, dW)
        for a, s in zip(arrs, specs):
            err = np.max(np.abs(grid.irfft(s) - a)) / np.max(np.abs(a))
            assert err <= 1e-12, (step, err)


def test_generic_path_for_harmonic_noise_and_other_models():
    grid = GridSpec(8, 8, 8)
    uniform = NoiseModel(grid, [make_constant_mode(grid, UNIFORM[0])])
    mixed = NoiseModel(
        grid,
        [
            make_constant_mode(grid, UNIFORM[0]),
            make_divfree_mode(grid, k=(0, 0, 1), a=(0.4, 0.0, 0.0)),
        ],
    )
    for name in MAXWELL_SCHEMES:
        assert spectral_path(get_model(name), uniform)
        assert spectral_path(get_model(name), NoiseModel(grid))
        assert not spectral_path(get_model(name), mixed)
    for name in ("bi", "bi-stratonovich", "bi-ito", "mhd", "mhd-stratonovich", "euler-vorticity"):
        assert not spectral_path(get_model(name), uniform)
        assert not spectral_path(get_model(name), NoiseModel(grid))


def test_spectral_factories_reject_other_models():
    grid = GridSpec(8, 8, 8)
    mixed = NoiseModel(grid, [make_divfree_mode(grid, k=(0, 0, 1), a=(0.4, 0.0, 0.0))])
    with pytest.raises(ConstraintError):
        make_drift(get_model("bi"), grid, spectral=True)
    with pytest.raises(ConstraintError):
        make_stepper(get_model("maxwell-stratonovich"), grid, mixed, "heun", 0.01, spectral=True)


def test_run_on_spectral_path_keeps_divergence_at_roundoff():
    cfg = parse_config(
        {
            "model": "maxwell-ito",
            "grid": {"nx": 8, "ny": 8, "nz": 8},
            "initial": {"preset": "random-band-limited", "seed": 3, "amplitude": 0.3},
            "noise": {"modes": [{"type": "constant", "a": [0.4, 0.0, 0.0]}]},
            "integrator": {"dt": 0.01, "t_end": 0.05},
            "output": {"diagnostics_interval": 1},
        }
    )
    records = run_ensemble(cfg).members[0].records
    assert len(records) == 6
    assert max(max(r.div_d, r.div_b) for r in records) <= 1e-12
