"""Time steppers.

States are bare tuples of arrays (any shapes; real samples, or the complex
rfft spectra of the spectral path), so the same steppers drive the field
systems, tracer loops, and scalar SDE test problems. Every
update term produced by the dynamics layer is spectrally a curl (or a
1-form-density transport), so the steppers preserve the divergence
constraints without doing anything about them.

Scheme choices: classical RK4 for deterministic runs, Heun predictor-
corrector (the same dW in both stages) converging to the Stratonovich
solution, and Euler-Maruyama whose drift must already include the
double-Lie-derivative Ito correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

Arrays = tuple[np.ndarray, ...]
Drift = Callable[[Arrays], Arrays]
NoiseOp = Callable[[Arrays, np.ndarray], Arrays]

SCHEMES = ("rk4", "heun", "euler-maruyama")


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str
    dt: float
    t_end: float
    cfl_guard: float = 0.5

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"integrator.scheme: unknown scheme {self.scheme!r}")
        if self.dt <= 0.0:
            raise ConfigError(f"integrator.dt must be positive, got {self.dt}")
        if self.t_end <= 0.0:
            raise ConfigError(f"integrator.t_end must be positive, got {self.t_end}")
        if self.cfl_guard <= 0.0:
            raise ConfigError("integrator.cfl_guard must be positive")

    @property
    def n_steps(self) -> int:
        n = max(1, round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > self.dt * (1.0 + 1e-9):
            raise ConfigError(
                f"dt={self.dt} cannot reproduce t_end={self.t_end} within one step"
            )
        return n


def _lincomb(base: Arrays, *terms: tuple[float, Arrays]) -> Arrays:
    """base + sum of coeff * arrs, componentwise: the first term makes a new
    array and the others accumulate into it in place."""
    (coeff0, first), *rest = terms
    out = []
    for i, b in enumerate(base):
        acc = b + coeff0 * first[i]
        for coeff, arrs in rest:
            acc += coeff * arrs[i]
        out.append(acc)
    return tuple(out)


def check_finite(state: Arrays, context: str = "") -> None:
    """Abort on NaN/Inf anywhere in the state (real arrays or spectra)."""
    total = 0.0
    for a in state:
        if np.iscomplexobj(a):
            a = a.view(a.real.dtype)  # real and imaginary parts side by side
        total += float(np.sum(a, dtype=np.float64))
    if not np.isfinite(total):
        raise NumericalError(f"non-finite state detected {context}".strip())


def rk4_step(state: Arrays, rhs: Drift, dt: float) -> Arrays:
    """Classical 4-stage step; one-step error O(dt^5)."""
    k1 = rhs(state)
    k2 = rhs(_lincomb(state, (0.5 * dt, k1)))
    k3 = rhs(_lincomb(state, (0.5 * dt, k2)))
    k4 = rhs(_lincomb(state, (dt, k3)))
    return _lincomb(
        state, (dt / 6.0, k1), (dt / 3.0, k2), (dt / 3.0, k3), (dt / 6.0, k4)
    )


def heun_stratonovich_step(
    state: Arrays, drift: Drift, noise_increment: NoiseOp, dt: float, dW: np.ndarray
) -> Arrays:
    """Predictor-corrector with the same dW in both stages; the midpoint
    average makes the scheme converge to the Stratonovich solution."""
    f0 = drift(state)
    g0 = noise_increment(state, dW)
    pred = _lincomb(state, (dt, f0), (1.0, g0))
    f1 = drift(pred)
    g1 = noise_increment(pred, dW)
    return _lincomb(state, (0.5 * dt, f0), (0.5 * dt, f1), (0.5, g0), (0.5, g1))


def euler_maruyama_step(
    state: Arrays, ito_drift: Drift, noise_increment: NoiseOp, dt: float, dW: np.ndarray
) -> Arrays:
    """Explicit Ito step; ito_drift must already include the
    double-Lie-derivative correction."""
    f0 = ito_drift(state)
    g0 = noise_increment(state, dW)
    return _lincomb(state, (dt, f0), (1.0, g0))
