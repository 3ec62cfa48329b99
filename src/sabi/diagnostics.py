"""Conserved-quantity monitors, constraint residuals, tracer loops, and the
Hamiltonian-structure identity checks.

The bracket checks pair smeared linear functionals F_xi = <P, xi> instead of
distributional kernels (a delta-function bracket is untestable on a grid),
and they compute products without dealias truncation: the identities hold at
quadrature level only if no paired mode is discarded, so inputs must be
band-limited tightly enough that the products stay alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MHD_H_FLOOR, Arrays, ModelSpec, make_drift, mhd_density
from .em_fields import bi_closure, bi_density, hydro_force, hydro_variables
from .errors import ConstraintError, NumericalError
from .grid import (
    CURL_INV_DIV_TOL,
    GridSpec,
    _grad_vector_arr,
    _lie_1form_density_arr,
    check_divfree,
    cross,
    curl,
    curl_inv,
    evaluate_at_points,
    grad,
    max_div,
)
from .noise import NoiseModel

# {F_xi, F_eta} = LP_BRACKET_SIGN * <P, [xi, eta]>, calibrated once by the
# brute-force canonical-bracket computation and asserted in the tests.
LP_BRACKET_SIGN = -1.0
LP_BRACKET_DIV_TOL = 1e-8


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sample of the monitored quantities; None marks a field that the
    model does not define (kept as empty cells in the CSV)."""

    time: float
    energy: float
    momentum: tuple[float, float, float]
    div_d: float | None = None
    div_b: float | None = None
    helicity: float | None = None
    pb_orth: float | None = None
    circulation: float | None = None
    vorticity_residual: float | None = None

    CSV_COLUMNS = (
        "time",
        "energy",
        "momentum_x",
        "momentum_y",
        "momentum_z",
        "div_d",
        "div_b",
        "helicity",
        "pb_orth",
        "circulation",
        "vorticity_residual",
    )

    def row(self) -> tuple:
        """The values in CSV_COLUMNS order."""
        return (
            self.time,
            self.energy,
            *self.momentum,
            self.div_d,
            self.div_b,
            self.helicity,
            self.pb_orth,
            self.circulation,
            self.vorticity_residual,
        )

    def validate(self) -> None:
        if not np.all(np.isfinite([v for v in self.row() if v is not None])):
            raise NumericalError(f"non-finite diagnostics at t={self.time}")

    def csv_row(self) -> list[str]:
        return ["" if v is None else repr(float(v)) for v in self.row()]


# ---------------------------------------------------------------------------
# integrals


def total_energy(
    model: ModelSpec, grid: GridSpec, arrs: Arrays, u: np.ndarray | None = None
) -> float:
    """Volume integral of the model's energy density over its state arrays
    ((D, B), (P, B) or (w,)). u is the vorticity run's velocity curl^-1 w,
    computed here unless the caller already has it."""
    if model.kind == "em":
        D, B = arrs
        if model.closure == "bi":
            dens = bi_density(D, B)[0]
        else:
            dens = 0.5 * np.sum(D**2 + B**2, axis=0)
        return float(np.mean(dens)) * grid.volume
    if model.kind == "mhd":
        h = mhd_density(*arrs)
        hmin = float(np.min(h))
        if hmin <= MHD_H_FLOOR:
            raise NumericalError(
                f"degenerate high-field state: min h = {hmin:.3e} at the floor"
            )
        return float(np.mean(h)) * grid.volume
    if model.kind == "vorticity":
        if u is None:
            u = curl_inv(grid, arrs[0])
        return 0.5 * float(np.mean(np.sum(u * u, axis=0))) * grid.volume
    raise ConstraintError(f"no energy functional for model kind {model.kind!r}")


def total_momentum(
    model: ModelSpec, grid: GridSpec, arrs: Arrays, u: np.ndarray | None = None
) -> np.ndarray:
    """Volume integral of the momentum density (D x B for the field systems,
    P for the high-field limit, the velocity u = curl^-1 w for vorticity
    runs, computed here unless the caller already has it)."""
    if model.kind == "em":
        P = cross(arrs[0], arrs[1])
    elif model.kind == "mhd":
        P = arrs[0]
    elif model.kind == "vorticity":
        P = curl_inv(grid, arrs[0]) if u is None else u
    else:
        raise ConstraintError(f"no momentum functional for model kind {model.kind!r}")
    return P.mean(axis=(1, 2, 3)) * grid.volume


def magnetic_helicity(grid: GridSpec, B: np.ndarray) -> float:
    """int A.B over the box with A the div-free zero-mean potential.

    Gauge invariant on the torus: shifting A by any gradient changes the
    integral by int grad(psi).B = -int psi div B = 0. B must meet curl_inv's
    precondition, which collect_record checks.
    """
    A = curl_inv(grid, B)
    return float(np.mean(np.sum(A * B, axis=0))) * grid.volume


def pb_orthogonality(P: np.ndarray, B: np.ndarray) -> float:
    """max |P.B| / h, the monitored constraint of the high-field system."""
    pb = np.abs(np.sum(P * B, axis=0))
    return float(np.max(pb / mhd_density(P, B)))


# ---------------------------------------------------------------------------
# tracer loops


@dataclass(frozen=True)
class TracerLoop:
    """Closed polygonal loop; points stay unwrapped in R^3 so segment vectors
    are geometric while field evaluation wraps them periodically."""

    points: np.ndarray  # (n, 3)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
            raise ValueError("loop needs an (n>=3, 3) array of points")
        object.__setattr__(self, "points", pts)

    @classmethod
    def circle(
        cls,
        center: tuple[float, float, float],
        radius: float,
        n_points: int = 256,
        plane: str = "xy",
    ) -> "TracerLoop":
        theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        c = np.asarray(center, dtype=float)
        pts = np.tile(c, (n_points, 1))
        ax = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}[plane]
        pts[:, ax[0]] += radius * np.cos(theta)
        pts[:, ax[1]] += radius * np.sin(theta)
        return cls(pts)


def loop_circulation(grid: GridSpec, loop: TracerLoop, v: np.ndarray) -> float:
    """Trapezoidal closed-loop integral of v . dx over the polygon."""
    vals = evaluate_at_points(grid, v, loop.points)  # (n, 3)
    seg = np.roll(loop.points, -1, axis=0) - loop.points
    mid = 0.5 * (vals + np.roll(vals, -1, axis=0))
    return float(np.sum(mid * seg))


def advect_loop(
    grid: GridSpec,
    loop: TracerLoop,
    v_start: np.ndarray,
    dt: float,
    v_end: np.ndarray | None = None,
    noise: NoiseModel | None = None,
    dW: np.ndarray | None = None,
) -> TracerLoop:
    """Heun update of the loop points along v dt + sum_i xi_i dW_i.

    The same dW vector that moved the fields over this step must be passed
    here, so the loop rides the identical realization of the transport.
    v_end, when given, is the velocity field after the step (corrector stage).
    """
    xi_eff = None
    if noise is not None and dW is not None and noise.n_modes and np.any(dW):
        xi_eff = noise.combine(np.asarray(dW, dtype=float))

    def displacement(points: np.ndarray, v_field: np.ndarray) -> np.ndarray:
        disp = evaluate_at_points(grid, v_field, points) * dt
        if xi_eff is not None:
            disp = disp + evaluate_at_points(grid, xi_eff, points)
        return disp

    d0 = displacement(loop.points, v_start)
    predictor = loop.points + d0
    d1 = displacement(predictor, v_end if v_end is not None else v_start)
    return TracerLoop(loop.points + 0.5 * (d0 + d1))


# ---------------------------------------------------------------------------
# Hamiltonian-structure identities


def lp_bracket_check(
    grid: GridSpec, D: np.ndarray, A: np.ndarray, xi: np.ndarray, eta: np.ndarray
) -> tuple[float, float]:
    """Canonical bracket of the smeared momentum functionals versus the
    momentum pairing with the vector-field bracket.

    F_xi(D, A) = int A . curl(xi x D) has the closed-form derivatives
    dF/dA = curl(xi x D) and dF/dD = (curl A) x xi, so the canonical bracket
    is assembled directly; the right side is LP_BRACKET_SIGN * <P, [xi, eta]>
    with P = D x curl A and [xi, eta] = (xi.grad)eta - (eta.grad)xi.
    """
    for name, f in (("D", D), ("xi", xi), ("eta", eta)):
        check_divfree(grid, f, "lp_bracket_check", name, LP_BRACKET_DIV_TOL)
    vol = grid.cell_volume
    B = curl(grid, A)

    def pair(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(a * b) * vol)

    dF_dD = cross(B, xi)
    dF_dA = curl(grid, cross(xi, D))
    dK_dD = cross(B, eta)
    dK_dA = curl(grid, cross(eta, D))
    lhs = pair(dF_dD, dK_dA) - pair(dK_dD, dF_dA)

    gxi = _grad_vector_arr(grid, xi)
    geta = _grad_vector_arr(grid, eta)
    bracket = np.einsum("j...,jk...->k...", xi, geta) - np.einsum(
        "j...,jk...->k...", eta, gxi
    )
    P = cross(D, B)
    rhs = LP_BRACKET_SIGN * pair(P, bracket)
    return lhs, rhs


def km_bracket_residual(grid: GridSpec, D: np.ndarray, B: np.ndarray) -> float:
    """Relative L2 mismatch between the two routes to the momentum equation:
    the conservative stress form versus transport plus the force terms built
    from independent variational derivatives (B/H and D/H).

    Both routes are assembled from raw (untruncated) products; for smooth
    band-limited states the mismatch sits at spectral-tail level.
    """
    Hd, P = bi_density(D, B)
    v, gam, bet = hydro_variables(D, B, Hd, P)

    # stress-divergence route
    T = (P[None, :] * P[:, None] - D[None, :] * D[:, None] - B[None, :] * B[:, None]) / Hd
    spec = grid.rfft(T)
    dP1 = grid.irfft(-1j * (grid.kx * spec[0] + grid.ky * spec[1] + grid.kz * spec[2]))
    dP1 += grad(grid, 1.0 / Hd)

    # transport + diamond-force route
    lie_p = _lie_1form_density_arr(grid, v, _grad_vector_arr(grid, v), P)
    forces = cross(B, curl(grid, bet)) + cross(D, curl(grid, gam))
    dP2 = -lie_p - forces

    num = float(np.sqrt(np.sum((dP1 - dP2) ** 2) * grid.cell_volume))
    den = float(np.sqrt(np.sum(dP1**2) * grid.cell_volume))
    return num / max(den, 1e-30)


def vorticity_transport_residual(
    model: ModelSpec, grid: GridSpec, D: np.ndarray, B: np.ndarray
) -> float:
    """Relative L2 residual of the curl of the momentum-velocity equation:
    d(curl v)/dt - curl(v x curl v) + curl(gamma x curl gamma
    + beta x curl beta), with the time derivative chained through the
    model's field equations. Vanishes at spectral-tail level on smooth states.
    """
    Hd, P, E, Hf = bi_closure(D, B)
    v, gam, bet = hydro_variables(D, B, Hd, P)

    dD, dB = make_drift(model, grid)((D, B))
    dP = cross(dD, B) + cross(D, dB)
    dH = np.sum(E * dD + Hf * dB, axis=0)
    dv = (dP - v * dH[None]) / Hd
    d_vort = curl(grid, dv)

    vort = curl(grid, v)
    transport = curl(grid, cross(v, vort))
    forces = curl(grid, hydro_force(grid, gam, bet))
    residual = d_vort - transport + forces
    num = float(np.sqrt(np.sum(residual**2) * grid.cell_volume))
    den = float(np.sqrt(np.sum(d_vort**2) * grid.cell_volume))
    return num / max(den, 1e-30)


# ---------------------------------------------------------------------------
# per-model record assembly


def collect_record(
    model: ModelSpec,
    grid: GridSpec,
    arrs: Arrays,
    time: float,
    u: np.ndarray | None = None,
) -> DiagnosticsRecord:
    """One diagnostics sample of the model's state arrays ((D, B), (P, B) or
    (w,)); the vorticity velocity u = curl^-1 w is computed once, here
    unless the caller already has it, and shared by the energy and the
    momentum. An MHD sample checks curl_inv's precondition on B before the
    helicity, and records the max|div B| that check computed."""
    if model.kind == "em":
        checks = {"div_d": max_div(grid, arrs[0]), "div_b": max_div(grid, arrs[1])}
    elif model.kind == "mhd":
        B = arrs[1]
        checks = {
            "div_b": check_divfree(grid, B, "curl_inv", "B", CURL_INV_DIV_TOL, zero_mean=True),
            "helicity": magnetic_helicity(grid, B),
            "pb_orth": pb_orthogonality(*arrs),
        }
    else:
        checks = {"div_b": max_div(grid, arrs[0])}
        if u is None:
            u = curl_inv(grid, arrs[0])
    rec = DiagnosticsRecord(
        time=time,
        energy=total_energy(model, grid, arrs, u),
        momentum=tuple(float(m) for m in total_momentum(model, grid, arrs, u)),
        **checks,
    )
    rec.validate()
    return rec
