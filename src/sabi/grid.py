"""Periodic-box field containers and Fourier pseudo-spectral operators.

Everything lives on a uniform grid over the 3-torus [0,Lx) x [0,Ly) x [0,Lz).
Differential operators act in spectral space, so the discrete div/curl/grad
commute exactly and div(curl F) = 0, curl(grad f) = 0 hold to roundoff.

Dealiasing policy: the 2/3-rule mask is applied to *products* (the transport
kernels and the composite nonlinear fluxes assembled by the dynamics layer),
never to the linear operators themselves. Pointwise non-polynomial closures (sqrt, 1/H)
are evaluated from raw products so pointwise bounds like H >= 1 survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError

TWO_PI = 2.0 * np.pi

# Absolute tolerances for structural preconditions on unit-scale fields.
DIV_FREE_TOL = 1e-10
CURL_INV_DIV_TOL = 1e-8
MEAN_MODE_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Sample counts, box lengths and dealiasing choice for a periodic grid.

    nx, ny, nz must be even and >= 4 (real-to-complex transform layout).
    Spectral machinery (wavenumbers, masks) is computed lazily and cached.
    """

    nx: int
    ny: int
    nz: int
    Lx: float = TWO_PI
    Ly: float = TWO_PI
    Lz: float = TWO_PI
    dealias: bool = True

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name}={n}: sample counts must be even and >= 4")
        for name, length in (("Lx", self.Lx), ("Ly", self.Ly), ("Lz", self.Lz)):
            if not length > 0.0:
                raise ValueError(f"{name}={length}: box lengths must be positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def n_points(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def volume(self) -> float:
        return self.Lx * self.Ly * self.Lz

    @property
    def cell_volume(self) -> float:
        return self.volume / self.n_points

    @property
    def min_spacing(self) -> float:
        return min(self.Lx / self.nx, self.Ly / self.ny, self.Lz / self.nz)

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (self.Lx / self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * (self.Ly / self.ny)

    @cached_property
    def z(self) -> np.ndarray:
        return np.arange(self.nz) * (self.Lz / self.nz)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, self.z, indexing="ij")

    # Wavenumbers broadcast against the rfftn layout (nx, ny, nz//2 + 1).
    @cached_property
    def kx(self) -> np.ndarray:
        k = TWO_PI * np.fft.fftfreq(self.nx, d=self.Lx / self.nx)
        return k[:, None, None]

    @cached_property
    def ky(self) -> np.ndarray:
        k = TWO_PI * np.fft.fftfreq(self.ny, d=self.Ly / self.ny)
        return k[None, :, None]

    @cached_property
    def kz(self) -> np.ndarray:
        k = TWO_PI * np.fft.rfftfreq(self.nz, d=self.Lz / self.nz)
        return k[None, None, :]

    @cached_property
    def k2(self) -> np.ndarray:
        return self.kx**2 + self.ky**2 + self.kz**2

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0."""
        k2 = self.k2.copy()
        k2[0, 0, 0] = 1.0
        inv = 1.0 / k2
        inv[0, 0, 0] = 0.0
        return inv

    @cached_property
    def dealias_keep(self) -> tuple[int, int, int]:
        """Largest mode index kept per axis; 3*k < n guarantees alias-free
        quadratic products in the kept band."""
        return ((self.nx - 1) // 3, (self.ny - 1) // 3, (self.nz - 1) // 3)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        mx = np.abs(np.fft.fftfreq(self.nx) * self.nx) <= self.dealias_keep[0]
        my = np.abs(np.fft.fftfreq(self.ny) * self.ny) <= self.dealias_keep[1]
        mz = np.fft.rfftfreq(self.nz) * self.nz <= self.dealias_keep[2]
        return mx[:, None, None] & my[None, :, None] & mz[None, None, :]

    def rfft(self, arr: np.ndarray) -> np.ndarray:
        """Real-to-complex transform over the trailing three axes."""
        return np.fft.rfftn(arr, axes=(-3, -2, -1))

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spec, s=self.shape, axes=(-3, -2, -1))


@dataclass(frozen=True)
class ScalarField:
    """A real scalar sampled on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"scalar values shape {self.values.shape} != grid {self.grid.shape}"
            )


@dataclass(frozen=True)
class VectorField:
    """A real 3-vector field stored as one (3, nx, ny, nz) array."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (3, *self.grid.shape):
            raise ValueError(
                f"vector values shape {self.values.shape} != (3, {self.grid.shape})"
            )

    def max_norm(self) -> float:
        """max over the grid of the pointwise Euclidean norm."""
        return float(np.sqrt(np.max(np.sum(self.values**2, axis=0))))


# ---------------------------------------------------------------------------
# spectral helpers on raw arrays


def _truncate(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """Project physical-space samples onto the 2/3 dealias band."""
    spec = grid.rfft(arr)
    spec *= grid.dealias_mask
    return grid.irfft(spec)


def _maybe_truncate(grid: GridSpec, arr: np.ndarray, dealias: bool | None) -> np.ndarray:
    use = grid.dealias if dealias is None else dealias
    return _truncate(grid, arr) if use else arr


def _curl_spec(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    kx, ky, kz = grid.kx, grid.ky, grid.kz
    return 1j * np.stack(
        [
            ky * spec[2] - kz * spec[1],
            kz * spec[0] - kx * spec[2],
            kx * spec[1] - ky * spec[0],
        ]
    )


def _curl_arr(grid: GridSpec, arr: np.ndarray, mask: bool = False) -> np.ndarray:
    spec = grid.rfft(arr)
    if mask:
        spec *= grid.dealias_mask
    return grid.irfft(_curl_spec(grid, spec))


def _div_arr(grid: GridSpec, arr: np.ndarray, mask: bool = False) -> np.ndarray:
    spec = grid.rfft(arr)
    if mask:
        spec *= grid.dealias_mask
    dspec = 1j * (grid.kx * spec[0] + grid.ky * spec[1] + grid.kz * spec[2])
    return grid.irfft(dspec)


def _grad_arr(grid: GridSpec, arr: np.ndarray, mask: bool = False) -> np.ndarray:
    spec = grid.rfft(arr)
    if mask:
        spec *= grid.dealias_mask
    return grid.irfft(1j * np.stack([grid.kx * spec, grid.ky * spec, grid.kz * spec]))


def _grad_vector_arr(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """All nine partials of a vector field: out[k, j] = d_k arr[j]."""
    spec = grid.rfft(arr)
    out = np.empty((3, 3, *grid.shape))
    for k, kk in enumerate((grid.kx, grid.ky, grid.kz)):
        out[k] = grid.irfft(1j * kk * spec)
    return out


def _curl_inv_arr(grid: GridSpec, B: np.ndarray) -> np.ndarray:
    """Biot-Savart inverse -curl(Laplacian^-1 B); the zero mode maps to 0."""
    spec = grid.rfft(B)
    inv = grid.inv_k2
    pot = 1j * np.stack(
        [
            (grid.ky * spec[2] - grid.kz * spec[1]) * inv,
            (grid.kz * spec[0] - grid.kx * spec[2]) * inv,
            (grid.kx * spec[1] - grid.ky * spec[0]) * inv,
        ]
    )
    return grid.irfft(pot)


def _transport_2form_arr(grid: GridSpec, xi: np.ndarray, F: np.ndarray, mask: bool) -> np.ndarray:
    """Transport of a flux (2-form) field along xi, curl(xi x F): minus its
    Lie derivative. Every caller but lie2form wants this sign."""
    return _curl_arr(grid, np.cross(xi, F, axis=0), mask=mask)


def _lie_1form_density_arr(
    grid: GridSpec, xi: np.ndarray, grad_xi: np.ndarray, P: np.ndarray
) -> np.ndarray:
    """Lie derivative of a momentum (1-form density) field, componentwise
    d_j(xi^j P_k) + P_j d_k xi^j, from raw (untruncated) products.

    grad_xi holds the partials in the layout grad_xi[k, j] = d_k xi^j.
    """
    out = np.empty_like(P)
    for k in range(3):
        out[k] = _div_arr(grid, xi * P[k][None])
    out += np.einsum("j...,kj...->k...", P, grad_xi)
    return out


# ---------------------------------------------------------------------------
# public operators


def grad(f: ScalarField) -> VectorField:
    return VectorField(f.grid, _grad_arr(f.grid, f.values))


def div(F: VectorField) -> ScalarField:
    return ScalarField(F.grid, _div_arr(F.grid, F.values))


def curl(F: VectorField) -> VectorField:
    """Spectral curl; div(curl F) vanishes to machine precision."""
    return VectorField(F.grid, _curl_arr(F.grid, F.values))


def max_div(F: VectorField) -> float:
    return float(np.max(np.abs(_div_arr(F.grid, F.values))))


def mean_component(F: VectorField) -> np.ndarray:
    return F.values.mean(axis=(1, 2, 3))


def project_divfree(F: VectorField) -> VectorField:
    """Helmholtz projection onto divergence-free fields; the k=0 (mean)
    component carries no gradient part and is preserved."""
    grid = F.grid
    spec = grid.rfft(F.values)
    s = (grid.kx * spec[0] + grid.ky * spec[1] + grid.kz * spec[2]) * grid.inv_k2
    spec[0] -= grid.kx * s
    spec[1] -= grid.ky * s
    spec[2] -= grid.kz * s
    return VectorField(grid, grid.irfft(spec))


def curl_inv(B: VectorField, check: bool = True) -> VectorField:
    """Divergence-free vector potential A with curl A = B.

    Requires div B ~ 0 and a vanishing mean component (the zero mode has no
    preimage under curl). Returns the unique zero-mean, div-free gauge
    representative A = -curl(Laplacian^-1 B).
    """
    grid = B.grid
    if check:
        d = max_div(B)
        if d > CURL_INV_DIV_TOL:
            raise ConstraintError(f"curl_inv: max|div B| = {d:.3e} exceeds {CURL_INV_DIV_TOL}")
        m = float(np.max(np.abs(mean_component(B))))
        if m > MEAN_MODE_TOL:
            raise ConstraintError(f"curl_inv: nonzero mean component |{m:.3e}|")
    return VectorField(grid, _curl_inv_arr(grid, B.values))


def lie2form(
    xi: VectorField,
    D: VectorField,
    check: bool = True,
    dealias: bool | None = None,
) -> VectorField:
    """Lie transport of a flux (2-form) field: -curl(xi x D).

    For divergence-free xi and D this equals the vector-field bracket
    (xi.grad)D - (D.grad)xi; the preconditions keep the two formulas in
    agreement, and the result is exactly divergence-free (it is a curl).
    """
    if check:
        for name, f in (("xi", xi), ("D", D)):
            d = max_div(f)
            if d > DIV_FREE_TOL:
                raise ConstraintError(
                    f"lie2form: max|div {name}| = {d:.3e} exceeds {DIV_FREE_TOL}"
                )
    grid = xi.grid
    use = grid.dealias if dealias is None else dealias
    return VectorField(grid, -_transport_2form_arr(grid, xi.values, D.values, use))


def evaluate_at_points(
    field: ScalarField | VectorField, points: np.ndarray
) -> np.ndarray:
    """Exact Fourier evaluation of a band-limited field at arbitrary points.

    points: (m, 3) physical coordinates (wrapped periodically by the phase
    factors themselves). Returns (m,) for scalars, (m, 3) for vectors.
    """
    grid = field.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    kx1 = TWO_PI * np.fft.fftfreq(grid.nx, d=grid.Lx / grid.nx)
    ky1 = TWO_PI * np.fft.fftfreq(grid.ny, d=grid.Ly / grid.ny)
    kz1 = TWO_PI * np.fft.fftfreq(grid.nz, d=grid.Lz / grid.nz)
    ex = np.exp(1j * np.outer(pts[:, 0], kx1))
    ey = np.exp(1j * np.outer(pts[:, 1], ky1))
    ez = np.exp(1j * np.outer(pts[:, 2], kz1))

    def _eval_one(vals: np.ndarray) -> np.ndarray:
        coef = np.fft.fftn(vals) / grid.n_points
        t = np.einsum("pa,abc->pbc", ex, coef)
        t = np.einsum("pb,pbc->pc", ey, t)
        return np.einsum("pc,pc->p", ez, t).real

    if isinstance(field, ScalarField):
        return _eval_one(field.values)
    return np.stack([_eval_one(field.values[i]) for i in range(3)], axis=-1)
