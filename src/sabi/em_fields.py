"""The Born-Infeld constitutive relation, the hydrodynamic variables derived
from it, and the momentum-map pairing of the Poynting vector.

The nonlinear closure is evaluated pointwise in physical space from raw
products, so the pointwise bound H >= 1 holds exactly: the term under the
root is 1 + |D|^2 + |B|^2 + |DxB|^2 and every summand is nonnegative.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, check_divfree, curl

PAIRING_DIV_TOL = 1e-8


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


def hydro_variables(
    D: np.ndarray, B: np.ndarray, Hd: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hydrodynamic variables of a BI state from its bi_density (Hd, P):
    v = P/Hd, gamma = D/Hd and beta = B/Hd (Hd >= 1, so the divisions are
    safe)."""
    return P / Hd, D / Hd, B / Hd


def hydro_force(grid: GridSpec, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The force of the momentum-velocity equation,
    gamma x curl gamma + beta x curl beta."""
    return np.cross(gamma, curl(grid, gamma), axis=0) + np.cross(beta, curl(grid, beta), axis=0)


def momentum_map_pairing(
    grid: GridSpec, A: np.ndarray, D: np.ndarray, xi: np.ndarray
) -> tuple[float, float]:
    """Both sides of the translation-generator pairing.

    lhs pairs xi with the momentum density built from (D, curl A):
        lhs = int xi . (D x curl A)
    rhs pairs the potential with the transported flux:
        rhs = int A . curl(xi x D)
    Equality (to quadrature precision) is what makes D x B a momentum map.
    Requires div D ~ 0 and div xi ~ 0.
    """
    for name, f in (("D", D), ("xi", xi)):
        check_divfree(grid, f, "momentum_map_pairing", name, PAIRING_DIV_TOL)
    B = curl(grid, A)
    P = np.cross(D, B, axis=0)
    lhs = float(np.mean(np.sum(xi * P, axis=0))) * grid.volume
    transported = curl(grid, np.cross(xi, D, axis=0))
    rhs = float(np.mean(np.sum(A * transported, axis=0))) * grid.volume
    return lhs, rhs

