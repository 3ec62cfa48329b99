"""BI closure, hydrodynamic-variable and momentum-map tests on (D, B) arrays.

The finite-difference oracle perturbs single samples of the discrete energy
functional sum(H) * cell_volume and compares against the closed-form
derivatives; hand values come from uniform-field arithmetic.
"""

import numpy as np
import pytest

from sabi.dynamics import get_model, make_drift
from sabi.em_fields import bi_closure, bi_density, hydro_variables, momentum_map_pairing
from sabi.errors import ConstraintError
from sabi.grid import GridSpec, curl, grad

from test_grid import max_norm, random_band_limited

TWO_PI = 2.0 * np.pi


def uniform_state(grid, d, b):
    D = np.zeros((3, *grid.shape))
    B = np.zeros((3, *grid.shape))
    for i in range(3):
        D[i] = d[i]
        B[i] = b[i]
    return D, B


def zero_state(grid):
    return np.zeros((3, *grid.shape)), np.zeros((3, *grid.shape))


def random_state(grid, seed, amplitude, kmax=3):
    D = random_band_limited(grid, seed=seed, kmax=kmax, divfree=True)
    B = random_band_limited(grid, seed=seed + 1000, kmax=kmax, divfree=True)
    return amplitude * D, amplitude * B


@pytest.fixture(scope="module")
def grid8():
    return GridSpec(8, 8, 8)


class TestEnergyDensity:
    def test_vacuum(self, grid8):
        H, _ = bi_density(*zero_state(grid8))
        assert np.max(np.abs(H - 1.0)) == 0.0

    def test_uniform_crossed_fields(self, grid8):
        H, _ = bi_density(*uniform_state(grid8, (1, 0, 0), (0, 1, 0)))
        # 1 + 1 + 1 + 1 under the root
        assert np.max(np.abs(H - 2.0)) < 1e-14

    @pytest.mark.parametrize("amp", [1e-2, 1e-3])
    def test_weak_field_series(self, grid8, amp):
        D, B = random_state(grid8, seed=1, amplitude=amp)
        H, _ = bi_density(D, B)
        quad = 1.0 + 0.5 * np.sum(D**2 + B**2, axis=0)
        assert np.max(np.abs(H - quad)) < 2.0 * amp**4

    def test_lower_bound(self, grid8):
        D, B = random_state(grid8, seed=2, amplitude=0.7)
        H, _ = bi_density(D, B)
        P = np.cross(D, B, axis=0)
        for F in (D, B, P):
            assert np.all(H >= np.sqrt(np.sum(F * F, axis=0)))
        assert np.all(H >= 1.0)

    def test_pointwise_identity(self, grid8):
        D, B = random_state(grid8, seed=3, amplitude=0.5)
        H, _ = bi_density(D, B)
        P = np.cross(D, B, axis=0)
        lhs = np.sum(P * P + D * D + B * B, axis=0) + 1.0
        assert np.max(np.abs(lhs - H * H)) < 1e-12 * np.max(H * H)


class TestVariationalDerivatives:
    def test_zero_state(self, grid8):
        _, _, E, H = bi_closure(*zero_state(grid8))
        assert max_norm(E) == 0.0
        assert max_norm(H) == 0.0

    def test_uniform_hand_value(self, grid8):
        # P=(0,0,1), BxP=(1,0,0), DxP=(0,-1,0), H=2
        _, _, E, H = bi_closure(*uniform_state(grid8, (1, 0, 0), (0, 1, 0)))
        assert np.max(np.abs(E - np.array([1.0, 0, 0])[:, None, None, None])) < 1e-14
        assert np.max(np.abs(H - np.array([0, 1.0, 0])[:, None, None, None])) < 1e-14

    def test_finite_difference_oracle(self, grid8):
        D, B = random_state(grid8, seed=4, amplitude=0.4)
        _, _, E, H = bi_closure(D, B)
        vol = grid8.cell_volume
        rng = np.random.default_rng(5)
        eps = 1e-6

        def functional(D, B):
            return float(np.sum(bi_density(D, B)[0])) * vol

        scales = {
            id(E): max_norm(E),
            id(H): max_norm(H),
        }
        for _ in range(40):
            c = rng.integers(0, 3)
            idx = tuple(rng.integers(0, n) for n in grid8.shape)
            for base, deriv in ((D, E), (B, H)):
                plus = base.copy()
                minus = base.copy()
                plus[(c, *idx)] += eps
                minus[(c, *idx)] -= eps
                if base is D:
                    fd = (functional(plus, B) - functional(minus, B)) / (2 * eps)
                else:
                    fd = (functional(D, plus) - functional(D, minus)) / (2 * eps)
                got = deriv[(c, *idx)]
                assert abs(fd / vol - got) < 1e-6 * scales[id(deriv)]

    def test_maxwell_identity_map(self, grid8):
        # the weak-field closure is E = D, H = B verbatim, so the Maxwell
        # drift is exactly (curl B, -curl D)
        D, B = random_state(grid8, seed=6, amplitude=0.5)
        dD, dB = make_drift(get_model("maxwell"), grid8)((D, B))
        assert np.array_equal(dD, curl(grid8, B))
        assert np.array_equal(dB, -curl(grid8, D))

    def test_weak_field_agreement(self, grid8):
        D, B = random_state(grid8, seed=7, amplitude=1e-3)
        _, _, E, H = bi_closure(D, B)
        scale = max(max_norm(D), max_norm(B))
        assert np.max(np.abs(E - D)) < 1e-5 * scale
        assert np.max(np.abs(H - B)) < 1e-5 * scale


class TestPoynting:
    """P = D x B, the momentum density that bi_density returns."""

    def test_uniform(self, grid8):
        _, P = bi_density(*uniform_state(grid8, (1, 0, 0), (0, 1, 0)))
        assert np.max(np.abs(P - np.array([0, 0, 1.0])[:, None, None, None])) < 1e-14

    def test_parallel_fields_vanish(self, grid8):
        X, _, _ = grid8.meshgrid()
        D = np.stack([np.cos(X), 0 * X, 0 * X])
        _, P = bi_density(D, 2.0 * D)
        assert max_norm(P) < 1e-14

    def test_orthogonality(self, grid8):
        D, B = random_state(grid8, seed=8, amplitude=0.6)
        _, P = bi_density(D, B)
        assert np.max(np.abs(np.sum(P * D, axis=0))) < 1e-13
        assert np.max(np.abs(np.sum(P * B, axis=0))) < 1e-13

    def test_eh_form_agrees(self, grid8):
        # D x B = E x H through the closure's variational derivatives
        _, P, E, H = bi_closure(*random_state(grid8, seed=9, amplitude=0.6))
        alt = np.cross(E, H, axis=0)
        scale = max(float(np.max(np.abs(P))), 1e-30)
        assert float(np.max(np.abs(P - alt))) / scale <= 1e-9


class TestHydroVars:
    def test_vacuum(self, grid8):
        D, B = zero_state(grid8)
        Hd, P = bi_density(D, B)
        v, _, _ = hydro_variables(D, B, Hd, P)
        assert np.max(np.abs(Hd - 1.0)) == 0.0
        assert max_norm(v) == 0.0

    def test_uniform_hand_values(self, grid8):
        D, B = uniform_state(grid8, (1, 0, 0), (0, 1, 0))
        v, gamma, beta = hydro_variables(D, B, *bi_density(D, B))
        assert np.max(np.abs(v - np.array([0, 0, 0.5])[:, None, None, None])) < 1e-14
        assert np.max(np.abs(gamma - np.array([0.5, 0, 0])[:, None, None, None])) < 1e-14
        assert np.max(np.abs(beta - np.array([0, 0.5, 0])[:, None, None, None])) < 1e-14

    def test_normalization_identity(self, grid8):
        D, B = random_state(grid8, seed=12, amplitude=0.5)
        Hd, P = bi_density(D, B)
        v, gamma, beta = hydro_variables(D, B, Hd, P)
        total = np.sum(v**2 + gamma**2 + beta**2, axis=0) + Hd**-2
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestMomentumMapPairing:
    def test_zero_xi(self, grid8):
        D = random_band_limited(grid8, seed=13, kmax=2, divfree=True)
        A = random_band_limited(grid8, seed=14, kmax=2)
        lhs, rhs = momentum_map_pairing(grid8, A, D, np.zeros((3, *grid8.shape)))
        assert lhs == 0.0 and rhs == 0.0

    def test_zero_d(self, grid8):
        A = random_band_limited(grid8, seed=15, kmax=2)
        xi = random_band_limited(grid8, seed=16, kmax=2, divfree=True)
        lhs, rhs = momentum_map_pairing(grid8, A, np.zeros((3, *grid8.shape)), xi)
        assert lhs == 0.0 and rhs == 0.0

    def test_pairing_identity_random(self):
        g = GridSpec(16, 16, 16)
        A = random_band_limited(g, seed=17, kmax=3)
        D = random_band_limited(g, seed=18, kmax=3, divfree=True)
        xi = random_band_limited(g, seed=19, kmax=3, divfree=True)
        lhs, rhs = momentum_map_pairing(g, A, D, xi)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1e-30)

    def test_rejects_divergent_inputs(self, grid8):
        A = random_band_limited(grid8, seed=20, kmax=2)
        f = random_band_limited(grid8, seed=21, kmax=2, vector=False)
        D = random_band_limited(grid8, seed=22, kmax=2, divfree=True)
        with pytest.raises(ConstraintError):
            momentum_map_pairing(grid8, A, D, grad(grid8, f))


class TestEMState:
    def test_vacuum_energy_volume(self, grid8):
        H, _ = bi_density(*zero_state(grid8))
        assert float(np.mean(H)) * grid8.volume == pytest.approx(TWO_PI**3, rel=1e-13)
