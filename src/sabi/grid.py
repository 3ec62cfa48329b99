"""The periodic grid and its Fourier pseudo-spectral operators.

Everything lives on a uniform grid over the 3-torus [0,Lx) x [0,Ly) x [0,Lz),
and every field is a bare array: (nx, ny, nz) for a scalar, (3, nx, ny, nz)
for a vector. Each operator takes (grid, array) and validates nothing; the
structural preconditions (div-free, zero mean) are checked by one function,
check_divfree, at the boundaries that need them.
Differential operators act in spectral space, so the discrete div/curl/grad
commute exactly and div(curl F) = 0, curl(grad f) = 0 hold to roundoff.

Dealiasing policy: the 2/3 rule truncates *products* (the transport
kernels and the composite nonlinear fluxes assembled by the dynamics layer),
never the linear operators themselves. Pointwise non-polynomial closures
(sqrt, 1/H) are evaluated from raw products so pointwise bounds like H >= 1
survive. A truncation transforms only the band: rfft(arr, band=True) runs
the per-axis transforms on the lines that reach the dealias band and returns
the compact (..., bx, by, bz) block, with the bits of rfftn(arr) *
dealias_mask there; irfft(block, band=True) is its inverse and skips the
lines that hold only zeros, and band_k holds the block's wavenumbers. Only
the spectral path's noise operator multiplies by the full-layout
dealias_mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError

TWO_PI = 2.0 * np.pi

# Absolute tolerances for structural preconditions on unit-scale fields.
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
    def _axis_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mx = np.abs(np.fft.fftfreq(self.nx) * self.nx) <= self.dealias_keep[0]
        my = np.abs(np.fft.fftfreq(self.ny) * self.ny) <= self.dealias_keep[1]
        mz = np.fft.rfftfreq(self.nz) * self.nz <= self.dealias_keep[2]
        return mx, my, mz

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        mx, my, mz = self._axis_masks
        return mx[:, None, None] & my[None, :, None] & mz[None, None, :]

    @cached_property
    def band_k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kx, ky, kz) on the compact dealias band block (bx, by, bz), the
        layout of rfft(arr, band=True); the values are those of kx, ky, kz."""
        mx, my, mz = self._axis_masks
        return self.kx[mx], self.ky[:, my], self.kz[..., mz]

    def rfft(self, arr: np.ndarray, band: bool = False) -> np.ndarray:
        """Real-to-complex transform over the trailing three axes.

        With band=True it returns only the compact (..., bx, by, bz) block of
        the dealias band, with the bits of rfftn(arr) * dealias_mask there:
        the per-axis transforms of rfftn (rfft along z, fft along y, fft
        along x), each run in place and only on the lines that reach the
        band. The kept kz are a prefix of rfftfreq's order. The last copy is
        np.compress, whose result is C-ordered, as a boolean index's is not:
        later reductions over the block sum in memory order."""
        if not band:
            return np.fft.rfftn(arr, axes=(-3, -2, -1))
        mx, my, mz = self._axis_masks
        t = np.fft.rfft(arr, axis=-1)[..., : mz.sum()]
        np.fft.fft(t, axis=-2, out=t)
        t = t[..., my, :]
        np.fft.fft(t, axis=-3, out=t)
        block = np.compress(mx, t, axis=-3)
        block *= True  # the mask's product, which may flip the sign of a zero
        return block

    def irfft(self, spec: np.ndarray, band: bool = False) -> np.ndarray:
        """Inverse of rfft. With band=True spec is a compact band block and
        the result has the bits of irfftn of that block zero-padded to the
        full layout; the lines that hold only zeros are not transformed."""
        if not band:
            return np.fft.irfftn(spec, s=self.shape, axes=(-3, -2, -1))
        mx, my, _ = self._axis_masks
        lead, bz = spec.shape[:-3], spec.shape[-1]
        t = np.zeros((*lead, self.nx, *spec.shape[-2:]), complex)
        t[..., mx, :, :] = spec
        np.fft.ifft(t, axis=-3, out=t)
        full = np.zeros((*lead, self.nx, self.ny, self.nz // 2 + 1), complex)
        full[..., my, :bz] = t
        np.fft.ifft(full[..., :bz], axis=-2, out=full[..., :bz])
        return np.fft.irfft(full, n=self.nz, axis=-1)


# ---------------------------------------------------------------------------
# spectral kernels on raw arrays


def _maybe_truncate(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """Project physical-space samples onto the 2/3 dealias band when the grid
    dealiases."""
    if not grid.dealias:
        return arr
    return grid.irfft(grid.rfft(arr, band=True), band=True)


def _wavenumbers(grid: GridSpec, band: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kx, ky, kz) of the full rfft layout, or of the band block."""
    return grid.band_k if band else (grid.kx, grid.ky, grid.kz)


def _curl_spec(grid: GridSpec, spec: np.ndarray, band: bool = False) -> np.ndarray:
    """i k x spec, on the full rfft layout or (band=True) on a band block."""
    kx, ky, kz = _wavenumbers(grid, band)
    out = np.empty(spec.shape, complex)
    np.subtract(ky * spec[2], kz * spec[1], out=out[0])
    np.subtract(kz * spec[0], kx * spec[2], out=out[1])
    np.subtract(kx * spec[1], ky * spec[0], out=out[2])
    out *= 1j
    return out


def _grad_vector_arr(grid: GridSpec, arr: np.ndarray) -> np.ndarray:
    """All nine partials of a vector field: out[k, j] = d_k arr[j]."""
    spec = grid.rfft(arr)
    out = np.empty((3, 3, *grid.shape))
    for k, kk in enumerate((grid.kx, grid.ky, grid.kz)):
        out[k] = grid.irfft(1j * kk * spec)
    return out


def _transport_2form_arr(grid: GridSpec, xi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Transport of a flux (2-form) field along xi, curl(xi x F): minus its
    Lie derivative, truncated when the grid dealiases."""
    return curl(grid, cross(xi, F), mask=grid.dealias)


def _lie_1form_density_arr(
    grid: GridSpec, xi: np.ndarray, grad_xi: np.ndarray, P: np.ndarray
) -> np.ndarray:
    """Lie derivative of a momentum (1-form density) field, componentwise
    d_j(xi^j P_k) + P_j d_k xi^j, from raw (untruncated) products.

    grad_xi holds the partials in the layout grad_xi[k, j] = d_k xi^j.
    """
    out = np.empty_like(P)
    for k in range(3):
        out[k] = div(grid, xi * P[k][None])
    out += np.einsum("j...,kj...->k...", P, grad_xi)
    return out


# ---------------------------------------------------------------------------
# public operators: scalars are (nx, ny, nz) arrays, vectors (3, nx, ny, nz)


def grad(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    spec = grid.rfft(f)
    return grid.irfft(1j * np.stack([grid.kx * spec, grid.ky * spec, grid.kz * spec]))


def div(grid: GridSpec, F: np.ndarray) -> np.ndarray:
    spec = grid.rfft(F)
    return grid.irfft(1j * (grid.kx * spec[0] + grid.ky * spec[1] + grid.kz * spec[2]))


def curl(grid: GridSpec, F: np.ndarray, mask: bool = False) -> np.ndarray:
    """Spectral curl, on the dealias band with mask=True; div(curl F)
    vanishes to machine precision."""
    spec = grid.rfft(F, band=mask)
    return grid.irfft(_curl_spec(grid, spec, band=mask), band=mask)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise a x b of two (3, ...) arrays into a new C-ordered array:
    the values of numpy's cross(a, b, axis=0), whose result is not
    C-ordered (so reductions over the two may differ in the last bit)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    tmp = np.empty_like(out[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp
    return out


def max_div(grid: GridSpec, F: np.ndarray) -> float:
    return float(np.max(np.abs(div(grid, F))))


def project_divfree(grid: GridSpec, F: np.ndarray) -> np.ndarray:
    """Helmholtz projection onto divergence-free fields; the k=0 (mean)
    component carries no gradient part and is preserved."""
    spec = grid.rfft(F)
    s = (grid.kx * spec[0] + grid.ky * spec[1] + grid.kz * spec[2]) * grid.inv_k2
    spec[0] -= grid.kx * s
    spec[1] -= grid.ky * s
    spec[2] -= grid.kz * s
    return grid.irfft(spec)


def curl_inv(grid: GridSpec, B: np.ndarray) -> np.ndarray:
    """Biot-Savart inverse: the zero-mean, div-free vector potential
    A = -curl(Laplacian^-1 B), with curl A = B when div B ~ 0 and the mean
    component of B vanishes (the zero mode has no preimage under curl and
    maps to 0). check_divfree(..., zero_mean=True) checks both."""
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


def evaluate_at_points(grid: GridSpec, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact Fourier evaluation of a band-limited field at arbitrary points.

    points: (m, 3) physical coordinates (wrapped periodically by the phase
    factors themselves). Returns (m,) for a scalar f, (m, 3) for a vector.
    """
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

    if f.ndim == 3:
        return _eval_one(f)
    return np.stack([_eval_one(f[i]) for i in range(3)], axis=-1)


# ---------------------------------------------------------------------------
# structural preconditions


def check_divfree(
    grid: GridSpec,
    F: np.ndarray,
    caller: str,
    name: str,
    tol: float,
    zero_mean: bool = False,
) -> float:
    """Raise ConstraintError, naming the caller and the field, unless
    max|div F| <= tol and, with zero_mean, F's mean component vanishes (to
    MEAN_MODE_TOL). Returns max|div F|."""
    d = max_div(grid, F)
    if d > tol:
        raise ConstraintError(f"{caller}: max|div {name}| = {d:.3e} exceeds {tol}")
    if zero_mean:
        m = float(np.max(np.abs(F.mean(axis=(1, 2, 3)))))
        if m > MEAN_MODE_TOL:
            raise ConstraintError(f"{caller}: nonzero mean component |{m:.3e}|")
    return d
