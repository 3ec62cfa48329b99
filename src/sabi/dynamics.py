"""Right-hand sides for every evolution system: deterministic Born-Infeld and
Maxwell, their Stratonovich/Ito stochastic versions, the expectation PDE of
the weak-field limit, stochastic Euler vorticity, and the high-field
pressureless-MHD limit.

Stochastic transport enters every system the same way: pairing each noise
field xi_i with the model's momentum map (the Poynting vector D x B, or P in
the high-field limit) makes the increment over a step the Lie transport of
each state component along xi_eff = sum_i xi_i dW_i, in a form set by the
component's form degree alone (Holm 2015, Proc. R. Soc. A 471). So the
model registry lists each kind's state components with their degrees
(ModelSpec.components), and one transport kernel per degree (_TRANSPORT,
-Lie_xi F) builds the noise operator and the Ito correction
(1/2) sum_i Lie_xi_i Lie_xi_i of every model:

    2-form (D, B, w)        curl(xi x F)
    1-form density (P)      -(div(xi P) + P.grad xi), on the dealias band

Spatially uniform modes a_i enter the Ito correction as one multiplier on
the spectra, -(1/2) sum_i (k.a_i)^2, and the expectation PDE's drift is the
deterministic drift plus that correction.

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
    _curl_spec,
    _lie_1form_density_arr,
    _maybe_truncate,
    _transport_2form_arr,
    _wavenumbers,
    curl,
    curl_inv,
)
from .noise import NoiseModel

MHD_H_FLOOR = 1e-8

TWO_FORM = "2-form"
ONE_FORM_DENSITY = "1-form density"

# The state components of each model kind, in state-tuple order:
# (name, form degree).
_COMPONENTS = {
    "em": (("D", TWO_FORM), ("B", TWO_FORM)),
    "mhd": (("P", ONE_FORM_DENSITY), ("B", TWO_FORM)),
    "vorticity": (("w", TWO_FORM),),
}


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one evolution system."""

    name: str
    kind: str  # "em" | "mhd" | "vorticity"
    closure: str | None = None  # "bi" | "maxwell" for em kinds
    calculus: str | None = None  # None | "stratonovich" | "ito"
    expectation: bool = False

    @property
    def components(self) -> tuple[tuple[str, str], ...]:
        """(name, form degree) of each state array, in state order."""
        return _COMPONENTS[self.kind]


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
    return curl(grid, H, mask=mask), -curl(grid, E, mask=mask)


def _uniform_ito_multiplier(grid: GridSpec, const: np.ndarray) -> np.ndarray:
    """-(1/2) sum_i (k.a_i)^2: the double Lie derivative of the uniform modes
    a_i as a multiplier on rfft spectra."""
    xk = (
        const[:, 0, None, None, None] * grid.kx
        + const[:, 1, None, None, None] * grid.ky
        + const[:, 2, None, None, None] * grid.kz
    )
    return -0.5 * np.sum(xk**2, axis=0)


def _transport_2form(
    grid: GridSpec, xi: np.ndarray, grad_xi: np.ndarray | None, F: np.ndarray
) -> np.ndarray:
    return _transport_2form_arr(grid, xi, F)


def _transport_1form_density(
    grid: GridSpec, xi: np.ndarray, grad_xi: np.ndarray, P: np.ndarray
) -> np.ndarray:
    return -_maybe_truncate(grid, _lie_1form_density_arr(grid, xi, grad_xi, P))


# -Lie_xi F by form degree, as kernel(grid, xi, grad_xi, F); grad_xi (layout
# [k, j] = d_k xi^j) is read by the 1-form density only.
_TRANSPORT = {TWO_FORM: _transport_2form, ONE_FORM_DENSITY: _transport_1form_density}


def _transport_grads(noise: NoiseModel, degrees: list[str]) -> np.ndarray | list[None]:
    """The grad_xi each harmonic mode passes to the transports of these
    degrees: its partials (noise.harmonic_grads) when the 1-form density is
    among them, else None per mode, so no other model builds them."""
    if ONE_FORM_DENSITY in degrees:
        return noise.harmonic_grads
    return [None] * len(noise.harmonic)


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
    spec = grid.rfft(flux, band=grid.dealias)
    kx, ky, kz = _wavenumbers(grid, grid.dealias)
    dspec = -1j * (kx * spec[0] + ky * spec[1] + kz * spec[2])  # contract over j
    dP = grid.irfft(dspec, band=grid.dealias)
    dB = _transport_2form_arr(grid, v, B)
    return dP, dB


def _vorticity_drift_arrays(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    u = curl_inv(grid, w)
    return _transport_2form_arr(grid, u, w)


# ---------------------------------------------------------------------------
# integrator-facing closures

Arrays = tuple[np.ndarray, ...]


def spectral_path(model: ModelSpec, noise: NoiseModel | None) -> bool:
    """True when every term of the model is diagonal per wavevector: the
    linear Maxwell family with uniform noise modes only (or none). The
    spectral closures then match the generic ones to round-off on states
    without content on the Nyquist planes, where the generic path's inverse
    transforms drop the imaginary part of every odd derivative."""
    return model.closure == "maxwell" and (noise is None or all(noise.constant_flags))


def _no_spectral_form(model: ModelSpec) -> ConstraintError:
    return ConstraintError(
        f"model {model.name!r} with this noise has no transform-free spectral form"
    )


def sum_drifts(f: Callable[[Arrays], Arrays], c: Callable[[Arrays], Arrays]):
    """The drift state -> f(state) + c(state), componentwise."""
    return lambda state: tuple(a + b for a, b in zip(f(state), c(state)))


def make_drift(
    model: ModelSpec,
    grid: GridSpec,
    noise: NoiseModel | None = None,
    hmin: float = MHD_H_FLOOR,
    spectral: bool = False,
) -> Callable[[Arrays], Arrays]:
    """Returns f(state) -> deterministic drift; for the expectation PDE that
    drift plus the Ito correction of its noise."""
    if model.expectation and noise is None:
        raise ConstraintError("maxwell-expectation requires a noise model")
    if spectral:
        if not spectral_path(model, noise):
            raise _no_spectral_form(model)

        def f(specs: Arrays) -> Arrays:
            D, B = specs
            return _curl_spec(grid, B), -_curl_spec(grid, D)

    elif model.kind == "em":

        def f(arrs: Arrays) -> Arrays:
            return _em_drift_arrays(grid, model.closure, *arrs)

    elif model.kind == "mhd":

        def f(arrs: Arrays) -> Arrays:
            return _mhd_drift_arrays(grid, *arrs, hmin=hmin)

    elif model.kind == "vorticity":

        def f(arrs: Arrays) -> Arrays:
            return (_vorticity_drift_arrays(grid, arrs[0]),)

    else:
        raise ConstraintError(f"no drift for model kind {model.kind!r}")
    if not (model.expectation and noise.n_modes):
        return f
    return sum_drifts(f, make_ito_correction(model, grid, noise, spectral))


def make_noise_op(
    model: ModelSpec, grid: GridSpec, noise: NoiseModel, spectral: bool = False
) -> Callable[[Arrays, np.ndarray], Arrays]:
    """Returns g(state, dW) -> transport increment along sum_i xi_i dW_i, each
    component moved by its form degree's kernel."""

    if spectral:
        if not spectral_path(model, noise):
            raise _no_spectral_form(model)
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
    degrees = [degree for _, degree in model.components]
    transports = [_TRANSPORT[degree] for degree in degrees]
    grads = _transport_grads(noise, degrees)
    weighted = isinstance(grads, np.ndarray)  # some transport reads the partials

    def g(arrs: Arrays, dW: np.ndarray) -> Arrays:
        if noise.n_modes == 0:
            return tuple(np.zeros_like(a) for a in arrs)
        xi_eff = noise.combine(dW)
        grad_eff = None
        if weighted:  # a uniform mode's partials vanish
            grad_eff = np.tensordot(dW[noise.harmonic], grads, axes=(0, 0))
        return tuple(t(grid, xi_eff, grad_eff, a) for t, a in zip(transports, arrs))

    return g


def make_ito_correction(
    model: ModelSpec, grid: GridSpec, noise: NoiseModel, spectral: bool = False
) -> Callable[[Arrays], Arrays]:
    """Returns c(state) -> (1/2) sum_i Lie_xi_i Lie_xi_i of each component:
    the uniform modes as one spectral multiplier, each other mode as its
    degree's transport applied twice (Lie Lie = T T for T = -Lie)."""
    if spectral and not spectral_path(model, noise):
        raise _no_spectral_form(model)
    const = noise.constant_vectors()
    mult = _uniform_ito_multiplier(grid, const)
    if spectral:

        def c(specs: Arrays) -> Arrays:
            return tuple(mult * s for s in specs)

        return c
    degrees = [degree for _, degree in model.components]
    transports = [_TRANSPORT[degree] for degree in degrees]
    grads = _transport_grads(noise, degrees)
    harmonic = [(noise.modes[i], g) for i, g in zip(noise.harmonic, grads)]

    def c(arrs: Arrays) -> Arrays:
        if noise.n_modes == 0:
            return tuple(np.zeros_like(a) for a in arrs)
        out = []
        for transport, F in zip(transports, arrs):
            total = np.zeros_like(F)
            if len(const):
                total += grid.irfft(mult * grid.rfft(F))
            for xi, grad_xi in harmonic:
                total += 0.5 * transport(grid, xi, grad_xi, transport(grid, xi, grad_xi, F))
            out.append(total)
        return tuple(out)

    return c
