"""Born-Infeld and Maxwell energy densities, variational derivatives, the
Poynting momentum density, and the derived hydrodynamic variables.

The nonlinear closure is evaluated pointwise in physical space from raw
products, so the pointwise bound H >= 1 holds exactly: the term under the
root is 1 + |D|^2 + |B|^2 + |DxB|^2 and every summand is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _curl_arr,
    _div_arr,
    max_div,
)

EM_DIV_TOL = 1e-8
PAIRING_DIV_TOL = 1e-8


@dataclass(frozen=True)
class EMState:
    """The pair of divergence-free flux fields (D, B)."""

    D: VectorField
    B: VectorField

    def __post_init__(self) -> None:
        if self.D.grid is not self.B.grid and self.D.grid != self.B.grid:
            raise ValueError("D and B must share one GridSpec")

    @property
    def grid(self) -> GridSpec:
        return self.D.grid

    def validate(self, div_tol: float = EM_DIV_TOL) -> None:
        for name, f in (("D", self.D), ("B", self.B)):
            d = max_div(f)
            if d > div_tol:
                raise ConstraintError(f"max|div {name}| = {d:.3e} exceeds {div_tol}")

    @classmethod
    def zeros(cls, grid: GridSpec) -> "EMState":
        return cls(VectorField.zeros(grid), VectorField.zeros(grid))


@dataclass(frozen=True)
class HydroVars:
    """Hydrodynamic variables of a BI state: H and v = P/H, gamma = D/H,
    beta = B/H (all pointwise)."""

    Hd: ScalarField
    v: VectorField
    gamma: VectorField
    beta: VectorField


def bi_density(D: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first half of bi_closure: Hd = sqrt(1 + |D|^2 + |B|^2 + |P|^2)
    and P = D x B, for callers that need no variational derivatives."""
    P = np.cross(D, B, axis=0)
    Hd = np.sqrt(1.0 + np.sum(D * D + B * B + P * P, axis=0))
    return Hd, P


def bi_closure(
    D: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Born-Infeld constitutive relation, pointwise on raw arrays:
    Hd = sqrt(1 + |D|^2 + |B|^2 + |P|^2) with P = D x B, and the variational
    derivatives E = (D + B x P)/Hd and H = (B - D x P)/Hd."""
    Hd, P = bi_density(D, B)
    E = (D + np.cross(B, P, axis=0)) / Hd
    H = (B - np.cross(D, P, axis=0)) / Hd
    return Hd, P, E, H


def bi_energy_density(state: EMState) -> ScalarField:
    """sqrt(1 + |D|^2 + |B|^2 + |DxB|^2), pointwise; >= 1 everywhere."""
    return ScalarField(state.grid, bi_density(state.D.values, state.B.values)[0])


def maxwell_energy_density(state: EMState) -> ScalarField:
    """Weak-field energy density (|D|^2 + |B|^2)/2."""
    vals = 0.5 * np.sum(state.D.values**2 + state.B.values**2, axis=0)
    return ScalarField(state.grid, vals)


def bi_variational_derivatives(state: EMState) -> tuple[VectorField, VectorField]:
    """E = (D + B x P)/H and H = (B - D x P)/H with P = D x B, pointwise."""
    _, _, E, H = bi_closure(state.D.values, state.B.values)
    return VectorField(state.grid, E), VectorField(state.grid, H)


def maxwell_variational_derivatives(state: EMState) -> tuple[VectorField, VectorField]:
    """Weak-field limit: E = D and H = B verbatim."""
    return state.D, state.B


def poynting(state: EMState, verify_eh: bool = False, tol: float = 1e-9) -> VectorField:
    """Momentum density P = D x B; optionally cross-checks P = E x H."""
    P = np.cross(state.D.values, state.B.values, axis=0)
    if verify_eh:
        E, H = bi_variational_derivatives(state)
        alt = np.cross(E.values, H.values, axis=0)
        scale = max(float(np.max(np.abs(P))), 1e-30)
        err = float(np.max(np.abs(P - alt))) / scale
        if err > tol:
            raise ConstraintError(f"ExH disagrees with DxB: rel err {err:.3e}")
    return VectorField(state.grid, P)


def poynting_general(D: VectorField, B: VectorField, A: VectorField) -> VectorField:
    """Momentum density with sources allowed: D x B - A div D.

    Reduces to poynting() when div D = 0.
    """
    grid = D.grid
    divD = _div_arr(grid, D.values)
    vals = np.cross(D.values, B.values, axis=0) - A.values * divD[None]
    return VectorField(grid, vals)


def hydro_vars(state: EMState) -> HydroVars:
    """v = P/H, gamma = D/H, beta = B/H with the BI closure (H >= 1, so the
    divisions are safe)."""
    D, B = state.D.values, state.B.values
    Hd, P = bi_density(D, B)
    grid = state.grid
    return HydroVars(
        Hd=ScalarField(grid, Hd),
        v=VectorField(grid, P / Hd),
        gamma=VectorField(grid, D / Hd),
        beta=VectorField(grid, B / Hd),
    )


def momentum_map_pairing(
    A: VectorField, D: VectorField, xi: VectorField
) -> tuple[float, float]:
    """Both sides of the translation-generator pairing.

    lhs pairs xi with the momentum density built from (D, curl A):
        lhs = int xi . (D x curl A)
    rhs pairs the potential with the transported flux:
        rhs = int A . curl(xi x D)
    Equality (to quadrature precision) is what makes D x B a momentum map.
    Requires div D ~ 0 and div xi ~ 0.
    """
    grid = A.grid
    for name, f in (("D", D), ("xi", xi)):
        d = max_div(f)
        if d > PAIRING_DIV_TOL:
            raise ConstraintError(
                f"momentum_map_pairing: max|div {name}| = {d:.3e} exceeds {PAIRING_DIV_TOL}"
            )
    B = _curl_arr(grid, A.values)
    P = np.cross(D.values, B, axis=0)
    lhs = float(np.mean(np.sum(xi.values * P, axis=0))) * grid.volume
    transported = _curl_arr(grid, np.cross(xi.values, D.values, axis=0))
    rhs = float(np.mean(np.sum(A.values * transported, axis=0))) * grid.volume
    return lhs, rhs

