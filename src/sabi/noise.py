"""Spatial correlation fields for cylindrical noise and seeded Wiener drivers.

The correlation fields xi_i(x) are time-independent and divergence-free:
constants, or single transverse harmonics a_perp * cos(k.x + phase). Wiener
increments come from numpy's counter-based Philox generator, keyed so that
the draw for (seed, member, step) is a pure function of that tuple — members
and steps can be sampled in any order, on any worker, with identical results.

Two key spaces are used: key word 0 for per-step driver increments, key word
1 for the dyadically refinable Brownian paths used in strong-convergence
studies (refining a path never changes its coarse-level increments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError
from .grid import GridSpec, _grad_vector_arr, check_divfree

XI_DIV_TOL = 1e-10
_DRIVER_STREAM = 0
_BRIDGE_STREAM = 1


def make_divfree_mode(
    grid: GridSpec,
    k: tuple[int, int, int],
    a: tuple[float, float, float],
    phase: float = 0.0,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Single-harmonic transverse mode a_perp cos(k.x + phase).

    The amplitude vector is projected onto the plane normal to k, which
    enforces k.a_perp = 0 and hence div xi = 0 to roundoff. k is in integer
    mode units (physical wavevector 2*pi*k_i/L_i).
    """
    kint = np.asarray(k, dtype=float)
    if np.all(kint == 0):
        raise ConstraintError("make_divfree_mode: k = 0 (build constant fields directly)")
    kphys = np.array(
        [
            2.0 * np.pi * kint[0] / grid.Lx,
            2.0 * np.pi * kint[1] / grid.Ly,
            2.0 * np.pi * kint[2] / grid.Lz,
        ]
    )
    avec = np.asarray(a, dtype=float)
    aperp = avec - kphys * (kphys @ avec) / (kphys @ kphys)
    if np.linalg.norm(aperp) < 1e-12:
        raise ConstraintError(
            "make_divfree_mode: amplitude parallel to k (divergence-free violation)"
        )
    X, Y, Z = grid.meshgrid()
    carrier = np.cos(kphys[0] * X + kphys[1] * Y + kphys[2] * Z + phase)
    return amplitude * aperp[:, None, None, None] * carrier[None]


def make_constant_mode(
    grid: GridSpec, a: tuple[float, float, float], amplitude: float = 1.0
) -> np.ndarray:
    avec = amplitude * np.asarray(a, dtype=float)
    if np.linalg.norm(avec) == 0.0:
        raise ConstraintError("constant noise mode with zero amplitude vector")
    return np.broadcast_to(avec[:, None, None, None], (3, *grid.shape)).copy()


class NoiseModel:
    """The set {xi_i(x)} of divergence-free correlation fields, held as one
    (n_modes, 3, nx, ny, nz) array.

    constant_flags marks the modes that are spatially uniform; those get
    exact spectral fast paths. The others are the harmonic modes (indices
    `harmonic`).
    """

    def __init__(self, grid: GridSpec, modes=()):
        self.grid = grid
        self.modes = np.stack(modes) if len(modes) else np.zeros((0, 3, *grid.shape))
        if self.modes.shape[1:] != (3, *grid.shape):
            raise ValueError(f"noise modes of shape {self.modes.shape[1:]} on grid {grid.shape}")
        for i, xi in enumerate(self.modes):
            check_divfree(grid, xi, f"noise mode {i}", "xi", XI_DIV_TOL)
        self.constant_flags = tuple(_is_uniform(xi) for xi in self.modes)
        self.harmonic = [i for i, const in enumerate(self.constant_flags) if not const]

    @cached_property
    def harmonic_grads(self) -> np.ndarray:
        """The harmonic modes' partials, harmonic_grads[h, k, j] = d_k xi_h^j
        (a uniform mode's partials vanish), computed on first use: only the
        1-form density transport reads them."""
        if not self.harmonic:
            return np.zeros((0, 3, 3, *self.grid.shape))
        return np.stack([_grad_vector_arr(self.grid, self.modes[i]) for i in self.harmonic])

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def combine(self, weights: np.ndarray) -> np.ndarray:
        """Pointwise sum_i weights[i] * xi_i(x), shape (3, nx, ny, nz)."""
        return np.tensordot(np.asarray(weights), self.modes, axes=(0, 0))

    def constant_vectors(self) -> np.ndarray:
        """(n_const, 3) uniform values of the constant modes."""
        const = [i for i, c in enumerate(self.constant_flags) if c]
        return self.modes[const, :, 0, 0, 0]


def _is_uniform(vals: np.ndarray) -> bool:
    ref = vals[:, :1, :1, :1]
    return bool(np.all(vals == ref))


@dataclass(frozen=True)
class WienerDriver:
    """Counter-based source of per-step Brownian increments.

    The vector of increments for (seed, member_index, step) is a pure
    function of that tuple; distinct tuples give independent draws.
    """

    seed: int
    member_index: int
    n_modes: int

    def _generator(self, step: int) -> np.random.Generator:
        bits = np.random.Philox(
            key=[np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_DRIVER_STREAM)],
            counter=[0, 0, np.uint64(self.member_index), np.uint64(step)],
        )
        return np.random.Generator(bits)

    def increments(self, step: int, dt: float) -> np.ndarray:
        if dt <= 0.0:
            raise ValueError(f"dt = {dt} must be positive")
        if self.n_modes == 0:
            return np.zeros(0)
        return self._generator(step).standard_normal(self.n_modes) * np.sqrt(dt)


class DyadicBrownianPath:
    """A Brownian path on [0, t_end] refinable by midpoint bridging.

    Nodes at dyadic level L (2**L intervals) are built from level L-1 by
    inserting bridge midpoints; every draw is keyed by (level, index), so
    requesting finer increments never changes the coarse path. increments(n)
    requires n to be a power of two and returns shape (n, n_modes).
    """

    def __init__(self, seed: int, member_index: int, n_modes: int, t_end: float):
        if t_end <= 0.0:
            raise ValueError("t_end must be positive")
        self.seed = seed
        self.member_index = member_index
        self.n_modes = n_modes
        self.t_end = t_end
        w_end = self._normal(level=0, index=0) * np.sqrt(t_end)
        self._nodes: dict[int, np.ndarray] = {
            0: np.stack([np.zeros(n_modes), w_end])
        }

    def _normal(self, level: int, index: int) -> np.ndarray:
        bits = np.random.Philox(
            key=[np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_BRIDGE_STREAM)],
            counter=[0, np.uint64(self.member_index), np.uint64(level), np.uint64(index)],
        )
        return np.random.Generator(bits).standard_normal(self.n_modes)

    def _level_nodes(self, level: int) -> np.ndarray:
        if level not in self._nodes:
            coarse = self._level_nodes(level - 1)
            n_coarse = coarse.shape[0] - 1
            h = self.t_end / n_coarse
            fine = np.empty((2 * n_coarse + 1, self.n_modes))
            fine[::2] = coarse
            for i in range(n_coarse):
                mid = 0.5 * (coarse[i] + coarse[i + 1])
                fine[2 * i + 1] = mid + self._normal(level, i) * np.sqrt(h / 4.0)
            self._nodes[level] = fine
        return self._nodes[level]

    def increments(self, n_steps: int) -> np.ndarray:
        if n_steps < 1 or (n_steps & (n_steps - 1)) != 0:
            raise ValueError(f"n_steps = {n_steps} must be a power of two")
        level = n_steps.bit_length() - 1
        nodes = self._level_nodes(level)
        return np.diff(nodes, axis=0)
