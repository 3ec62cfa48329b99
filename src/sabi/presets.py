"""Named initial conditions.

Every preset returns the state arrays of the model kind it supports ((D, B),
(P, B) or (w,)), already truncated to the grid's dealias band (so products
stay alias-free from the first step) and satisfying that kind's structural
constraints. The formulas of taylor-green and abc have period 2*pi in every
direction, and helical-orthogonal's base field has period 2*pi in z; on
other boxes they would not be periodic, so those boxes are rejected.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Arrays
from .errors import ConfigError
from .grid import TWO_PI, GridSpec, _maybe_truncate, cross, curl, project_divfree

PRESET_MODELS = {
    "plane-wave": ("em",),
    "taylor-green": ("vorticity",),
    "abc": ("vorticity",),
    "random-band-limited": ("em", "mhd", "vorticity"),
    "helical-orthogonal": ("mhd",),
}

# the box lengths each preset's formulas fix at 2*pi
_PRESET_PERIODS = {
    "taylor-green": ("Lx", "Ly", "Lz"),
    "abc": ("Lx", "Ly", "Lz"),
    "helical-orthogonal": ("Lz",),
}


def check_preset(preset: str, model_kind: str, grid: GridSpec) -> None:
    """Reject unknown presets, presets that do not build this model kind, and
    presets whose formulas assume a 2*pi period on a box with another one."""
    if preset not in PRESET_MODELS:
        raise ConfigError(
            f"initial.preset: unknown preset {preset!r}; known: {sorted(PRESET_MODELS)}"
        )
    if model_kind not in PRESET_MODELS[preset]:
        raise ConfigError(f"initial.preset: {preset!r} does not support {model_kind} models")
    for name in _PRESET_PERIODS.get(preset, ()):
        length = getattr(grid, name)
        if length != TWO_PI:
            raise ConfigError(
                f"initial.preset: {preset!r} assumes a 2*pi period; grid.{name} = {length!r}"
            )


def _preset_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=[np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(2)],
                         counter=[0, 0, 0, np.uint64(salt)])
    )


def random_divfree_field(
    grid: GridSpec, seed: int, salt: int, kmax: int, amplitude: float,
    divfree: bool = True,
) -> np.ndarray:
    """Zero-mean random field with |k_i| <= kmax, scaled to a max pointwise
    norm of `amplitude`."""
    rng = _preset_rng(seed, salt)
    raw = rng.standard_normal((3, *grid.shape))
    spec = grid.rfft(raw)
    mx = np.abs(np.fft.fftfreq(grid.nx) * grid.nx) <= kmax
    my = np.abs(np.fft.fftfreq(grid.ny) * grid.ny) <= kmax
    mz = np.fft.rfftfreq(grid.nz) * grid.nz <= kmax
    spec *= mx[:, None, None] & my[None, :, None] & mz[None, None, :]
    spec[..., 0, 0, 0] = 0.0
    vals = grid.irfft(spec)
    if divfree:
        vals = project_divfree(grid, vals)
    scale = float(np.sqrt(np.max(np.sum(vals**2, axis=0))))
    if scale == 0.0:
        raise ConfigError("initial.kmax: no modes survive the band limit")
    return vals * (amplitude / scale)


def plane_wave(grid: GridSpec, amplitude: float, k: int = 1) -> Arrays:
    """Right-moving weak-field wave: D = (0, a cos kx, 0), B = (0, 0, a cos kx)."""
    if k == 0:
        raise ConfigError("initial.k: plane-wave mode index must be nonzero")
    X, _, _ = grid.meshgrid()
    zero = np.zeros_like(X)
    c = amplitude * np.cos(2.0 * np.pi * k * X / grid.Lx)
    return (np.stack([zero, c, zero]), np.stack([zero, zero, c]))


def taylor_green(grid: GridSpec, amplitude: float) -> Arrays:
    """Vorticity of the classic cellular velocity field."""
    X, Y, Z = grid.meshgrid()
    u = amplitude * np.stack(
        [
            np.sin(X) * np.cos(Y) * np.cos(Z),
            -np.cos(X) * np.sin(Y) * np.cos(Z),
            np.zeros_like(X),
        ]
    )
    return (curl(grid, u),)


def abc_field(grid: GridSpec, amplitude: float) -> Arrays:
    """Vorticity equal to the equal-coefficient swirl field, a curl
    eigenfield with eigenvalue 1."""
    X, Y, Z = grid.meshgrid()
    w = amplitude * np.stack(
        [np.sin(Z) + np.cos(Y), np.sin(X) + np.cos(Z), np.sin(Y) + np.cos(X)]
    )
    return (w,)


def helical_orthogonal(
    grid: GridSpec,
    seed: int,
    amplitude: float,
    kmax: int,
    momentum_amplitude: float,
) -> Arrays:
    """High-field data with P.B = 0 pointwise and h bounded away from zero.

    B is a unit-norm circularly polarized mode plus a small random div-free
    part (|B| >= 1 - amplitude everywhere); P = w x B for a smooth random w,
    so the orthogonality constraint holds to roundoff at t = 0.
    """
    if amplitude >= 0.5:
        raise ConfigError(
            "initial.amplitude: helical-orthogonal needs amplitude < 0.5 to keep h positive"
        )
    _, _, Z = grid.meshgrid()
    B = np.stack([np.cos(Z), np.sin(Z), np.zeros_like(Z)])
    if amplitude > 0.0:
        pert = random_divfree_field(grid, seed, salt=1, kmax=kmax, amplitude=amplitude)
        B = B + pert
    w = random_divfree_field(
        grid, seed, salt=2, kmax=kmax, amplitude=momentum_amplitude, divfree=False
    )
    P = _maybe_truncate(grid, cross(w, B))
    # re-orthogonalize after truncation so the monitored constraint starts at
    # roundoff rather than at spectral-tail level
    B_t = _maybe_truncate(grid, B)
    h2 = np.sum(B_t * B_t, axis=0)
    P = P - B_t * (np.sum(P * B_t, axis=0) / h2)[None]
    return (P, B_t)


def build_initial_state(
    model_kind: str,
    grid: GridSpec,
    preset: str,
    seed: int,
    amplitude: float,
    kmax: int,
    k: int,
    momentum_amplitude: float,
) -> Arrays:
    """Dispatch a named preset for the given model kind."""
    check_preset(preset, model_kind, grid)
    if preset == "plane-wave":
        return plane_wave(grid, amplitude, k)
    if preset == "taylor-green":
        return taylor_green(grid, amplitude)
    if preset == "abc":
        return abc_field(grid, amplitude)
    if preset == "helical-orthogonal":
        return helical_orthogonal(grid, seed, amplitude, kmax, momentum_amplitude)
    # random-band-limited
    if model_kind == "em":
        D = random_divfree_field(grid, seed, salt=3, kmax=kmax, amplitude=amplitude)
        B = random_divfree_field(grid, seed, salt=4, kmax=kmax, amplitude=amplitude)
        return (D, B)
    if model_kind == "mhd":
        P = random_divfree_field(
            grid, seed, salt=5, kmax=kmax, amplitude=amplitude, divfree=False
        )
        B = random_divfree_field(grid, seed, salt=6, kmax=kmax, amplitude=amplitude)
        return (P, B)
    return (random_divfree_field(grid, seed, salt=7, kmax=kmax, amplitude=amplitude),)
