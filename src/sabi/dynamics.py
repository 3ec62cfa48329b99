"""Right-hand sides for every evolution system: deterministic Born-Infeld and
Maxwell, their Stratonovich/Ito stochastic versions, the expectation PDE of
the weak-field limit, stochastic Euler vorticity, and the high-field
pressureless-MHD limit.

Stochastic transport enters every system the same way: the increment over a
step is the Lie derivative of the state along xi_eff = sum_i xi_i dW_i (the
transport is linear in xi, so the modes collapse into one effective field).
The Ito corrections are the only per-mode quadratic terms; spatially uniform
modes get an exact spectral fast path there.

The factories make_drift, make_noise_op and make_ito_correction are the one
dynamics path: they return closures over bare tuples of arrays, which the
runner, the verification suites and the tests all call. With spectral=True
they return closures over rfft spectra instead, for the linear Maxwell
family under uniform noise only (spectral_path): there the curl, the
transport along a constant xi and the Ito correction are all diagonal per
wavevector, so a step needs no transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .em_fields import bi_closure
from .errors import ConstraintError, NumericalError
from .grid import (
    GridSpec,
    _curl_arr,
    _curl_inv_arr,
    _curl_spec,
    _lie_1form_density_arr,
    _maybe_truncate,
    _transport_2form_arr,
)
from .noise import NoiseModel

MHD_H_FLOOR = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one evolution system."""

    name: str
    kind: str  # "em" | "mhd" | "vorticity"
    closure: str | None = None  # "bi" | "maxwell" for em kinds
    calculus: str | None = None  # None | "stratonovich" | "ito"
    expectation: bool = False


_MODELS = {
    "bi": ModelSpec("bi", "em", "bi"),
    "maxwell": ModelSpec("maxwell", "em", "maxwell"),
    "bi-stratonovich": ModelSpec("bi-stratonovich", "em", "bi", "stratonovich"),
    "bi-ito": ModelSpec("bi-ito", "em", "bi", "ito"),
    "maxwell-stratonovich": ModelSpec(
        "maxwell-stratonovich", "em", "maxwell", "stratonovich"
    ),
    "maxwell-ito": ModelSpec("maxwell-ito", "em", "maxwell", "ito"),
    "maxwell-expectation": ModelSpec(
        "maxwell-expectation", "em", "maxwell", expectation=True
    ),
    "euler-vorticity": ModelSpec("euler-vorticity", "vorticity", None, "stratonovich"),
    "mhd": ModelSpec("mhd", "mhd"),
    "mhd-stratonovich": ModelSpec("mhd-stratonovich", "mhd", None, "stratonovich"),
}


def get_model(name: str) -> ModelSpec:
    try:
        return _MODELS[name]
    except KeyError:
        raise ConstraintError(
            f"unknown model {name!r}; expected one of {sorted(_MODELS)}"
        ) from None


# ---------------------------------------------------------------------------
# array-level kernels (hot paths; no validation)


def _em_drift_arrays(
    grid: GridSpec, closure: str, D: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if closure == "bi":
        _, _, E, H = bi_closure(D, B)
        mask = grid.dealias
    else:
        E, H = D, B
        mask = False  # linear terms need no truncation
    return _curl_arr(grid, H, mask=mask), -_curl_arr(grid, E, mask=mask)


def _uniform_ito_multiplier(grid: GridSpec, const: np.ndarray) -> np.ndarray:
    """-(1/2) sum_i (k.a_i)^2: the double Lie derivative of the uniform modes
    a_i as a multiplier on rfft spectra."""
    xk = (
        const[:, 0, None, None, None] * grid.kx
        + const[:, 1, None, None, None] * grid.ky
        + const[:, 2, None, None, None] * grid.kz
    )
    return -0.5 * np.sum(xk**2, axis=0)


def _double_lie_2form(
    grid: GridSpec, noise: NoiseModel, F: np.ndarray
) -> np.ndarray:
    """(1/2) sum_i Lie_xi_i(Lie_xi_i F) with a spectral fast path for the
    spatially uniform modes (their double Lie derivative is -(xi.k)^2)."""
    out = np.zeros_like(F)
    const = noise.constant_vectors()
    if len(const):
        spec = grid.rfft(F)
        out += grid.irfft(_uniform_ito_multiplier(grid, const) * spec)
    for i in noise.nonconstant_indices():
        xi = noise.xis[i].values
        # Lie_xi Lie_xi F = T(T(F)) for the transport T = -Lie_xi
        once = _transport_2form_arr(grid, xi, F, grid.dealias)
        out += 0.5 * _transport_2form_arr(grid, xi, once, grid.dealias)
    return out


def mhd_density(P: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Energy density of the high-field limit, h = sqrt(|P|^2 + |B|^2)."""
    return np.sqrt(np.sum(P * P + B * B, axis=0))


def _mhd_drift_arrays(
    grid: GridSpec, P: np.ndarray, B: np.ndarray, hmin: float
) -> tuple[np.ndarray, np.ndarray]:
    h = mhd_density(P, B)
    h_floor = float(np.min(h))
    if h_floor <= hmin:
        raise NumericalError(
            f"energy density floor breached in flux assembly: min h = {h_floor:.3e}"
        )
    v = P / h
    flux = (P[None, :] * P[:, None] - B[None, :] * B[:, None]) / h  # [j, i]
    spec = grid.rfft(flux)
    if grid.dealias:
        spec *= grid.dealias_mask
    dspec = -1j * (
        grid.kx * spec[0] + grid.ky * spec[1] + grid.kz * spec[2]
    )  # contract over j
    dP = grid.irfft(dspec)
    dB = _transport_2form_arr(grid, v, B, grid.dealias)
    return dP, dB


def _vorticity_drift_arrays(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    u = _curl_inv_arr(grid, w)
    return _transport_2form_arr(grid, u, w, grid.dealias)


# ---------------------------------------------------------------------------
# integrator-facing closures

Arrays = tuple[np.ndarray, ...]


def spectral_path(model: ModelSpec, noise: NoiseModel) -> bool:
    """True when every term of the model is diagonal per wavevector: the
    linear Maxwell family with uniform noise modes only (or none). The
    spectral closures then match the generic ones to round-off on states
    without content on the Nyquist planes, where the generic path's inverse
    transforms drop the imaginary part of every odd derivative."""
    return model.closure == "maxwell" and all(noise.constant_flags)


def _require_spectral(model: ModelSpec, noise: NoiseModel | None) -> None:
    if model.closure != "maxwell" or (
        noise is not None and not all(noise.constant_flags)
    ):
        raise ConstraintError(
            f"model {model.name!r} with this noise has no transform-free spectral form"
        )


def make_drift(
    model: ModelSpec,
    grid: GridSpec,
    noise: NoiseModel | None = None,
    hmin: float = MHD_H_FLOOR,
    spectral: bool = False,
) -> Callable[[Arrays], Arrays]:
    if model.expectation and noise is None:
        raise ConstraintError("maxwell-expectation requires a noise model")
    if spectral:
        _require_spectral(model, noise)
        mult = (
            _uniform_ito_multiplier(grid, noise.constant_vectors())
            if model.expectation and noise.n_modes
            else None
        )

        def f(specs: Arrays) -> Arrays:
            D, B = specs
            dD, dB = _curl_spec(grid, B), -_curl_spec(grid, D)
            if mult is not None:
                dD += mult * D
                dB += mult * B
            return dD, dB

        return f
    if model.expectation:

        def f(arrs: Arrays) -> Arrays:
            D, B = arrs
            dD, dB = _em_drift_arrays(grid, "maxwell", D, B)
            return (
                dD + _double_lie_2form(grid, noise, D),
                dB + _double_lie_2form(grid, noise, B),
            )

        return f
    if model.kind == "em":

        def f(arrs: Arrays) -> Arrays:
            return _em_drift_arrays(grid, model.closure, *arrs)

        return f
    if model.kind == "mhd":

        def f(arrs: Arrays) -> Arrays:
            return _mhd_drift_arrays(grid, *arrs, hmin=hmin)

        return f
    if model.kind == "vorticity":

        def f(arrs: Arrays) -> Arrays:
            return (_vorticity_drift_arrays(grid, arrs[0]),)

        return f
    raise ConstraintError(f"no drift for model kind {model.kind!r}")


def make_noise_op(
    model: ModelSpec, grid: GridSpec, noise: NoiseModel, spectral: bool = False
) -> Callable[[Arrays, np.ndarray], Arrays]:
    """Returns g(state, dW) -> transport increment along sum_i xi_i dW_i."""

    if spectral:
        _require_spectral(model, noise)
        const = noise.constant_vectors()
        kx, ky, kz = grid.kx, grid.ky, grid.kz

        def g(specs: Arrays, dW: np.ndarray) -> Arrays:
            if noise.n_modes == 0:
                return tuple(np.zeros_like(s) for s in specs)
            # curl(a x F) for uniform a is ik x (a x F^) = i(a (k.F^) - F^ (k.a));
            # the dealias mask is a per-wavevector factor, as on a x F
            a = dW @ const
            ka = a[0] * kx + a[1] * ky + a[2] * kz
            out = []
            for F in specs:
                t = a[:, None, None, None] * (kx * F[0] + ky * F[1] + kz * F[2])
                t -= ka * F
                t *= 1j
                if grid.dealias:
                    t *= grid.dealias_mask
                out.append(t)
            return tuple(out)

        return g
    if model.kind in ("em", "vorticity"):

        def g(arrs: Arrays, dW: np.ndarray) -> Arrays:
            if noise.n_modes == 0:
                return tuple(np.zeros_like(a) for a in arrs)
            xi_eff = noise.combine(dW)
            return tuple(_transport_2form_arr(grid, xi_eff, a, grid.dealias) for a in arrs)

        return g
    if model.kind == "mhd":

        def g(arrs: Arrays, dW: np.ndarray) -> Arrays:
            P, B = arrs
            if noise.n_modes == 0:
                return (np.zeros_like(P), np.zeros_like(B))
            xi_eff = noise.combine(dW)
            grad_eff = np.tensordot(dW, noise.grad_stacked(), axes=(0, 0))
            dP = -_maybe_truncate(grid, _lie_1form_density_arr(grid, xi_eff, grad_eff, P), None)
            dB = _transport_2form_arr(grid, xi_eff, B, grid.dealias)
            return (dP, dB)

        return g
    raise ConstraintError(f"no noise operator for model kind {model.kind!r}")


def make_ito_correction(
    model: ModelSpec, grid: GridSpec, noise: NoiseModel, spectral: bool = False
) -> Callable[[Arrays], Arrays]:
    if spectral:
        _require_spectral(model, noise)
        mult = _uniform_ito_multiplier(grid, noise.constant_vectors())

        def c(specs: Arrays) -> Arrays:
            return tuple(mult * s for s in specs)

        return c
    if model.kind != "em":
        raise ConstraintError("Ito corrections are implemented for the em systems only")

    def c(arrs: Arrays) -> Arrays:
        if noise.n_modes == 0:
            return tuple(np.zeros_like(a) for a in arrs)
        return tuple(_double_lie_2form(grid, noise, a) for a in arrs)

    return c

