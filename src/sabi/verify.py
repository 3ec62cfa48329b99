"""Canned verification suites.

Each suite checks one acceptance property at its stated tolerance and desk
scale, printing one line per check and a summary per suite. Everything runs
in memory (no output directories); suites are deterministic given their
hard-coded seeds.

Suite names: operators, variational-derivatives, energy-deterministic,
stochastic-energy, momentum-dichotomy, ito-stratonovich, expectation-pde,
pure-transport, mhd, hamiltonian-structure, kelvin, or "all".
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import parse_config
from .diagnostics import (
    TracerLoop,
    advect_loop,
    km_bracket_residual,
    loop_circulation,
    lp_bracket_check,
)
from .dynamics import _TRANSPORT, TWO_FORM, get_model, make_drift, make_noise_op
from .em_fields import (
    bi_closure,
    bi_density,
    hydro_force,
    hydro_variables,
    momentum_map_pairing,
)
from .errors import ConfigError
from .grid import GridSpec, _grad_vector_arr, cross, curl, grad, max_div
from .integrators import heun_stratonovich_step, rk4_step
from .noise import DyadicBrownianPath, NoiseModel, make_constant_mode, make_divfree_mode
from .presets import random_divfree_field
from .runner import run_ensemble


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(
        self, name: str, value: float, threshold: float, larger_is_better: bool = False
    ) -> CheckResult:
        ok = value >= threshold if larger_is_better else value <= threshold
        rel = ">=" if larger_is_better else "<="
        c = CheckResult(name, value, threshold, ok, f"{value:.3e} {rel} {threshold:.3e}")
        self.checks.append(c)
        return c

    def print(self) -> None:
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            print(f"[{tag}] {self.suite}/{c.name}: {c.note}")
        for n in self.notes:
            print(f"[info] {self.suite}: {n}")
        tag = "PASS" if self.passed else "FAIL"
        print(f"[{tag}] {self.suite} ({self.elapsed:.1f} s)")


def _band_limited(grid, seed, kmax, amplitude=1.0, vector=True, divfree=False):
    f = random_divfree_field(grid, seed, salt=9, kmax=kmax, amplitude=amplitude, divfree=divfree)
    return f if vector else f[0]


# ---------------------------------------------------------------------------


def suite_operators(grid_n: int = 32, **_) -> SuiteReport:
    """Spectral operator identities on random band-limited inputs."""
    rep = SuiteReport("operators")
    grid = GridSpec(grid_n, grid_n, grid_n)
    F = _band_limited(grid, seed=101, kmax=grid.dealias_keep[0])
    rep.check("div-curl", max_div(grid, curl(grid, F)), 1e-12)
    f = _band_limited(grid, seed=102, kmax=grid.dealias_keep[0], vector=False)
    cg = curl(grid, grad(grid, f))
    rep.check("curl-grad", float(np.sqrt(np.max(np.sum(cg**2, axis=0)))), 1e-12)

    # bracket form needs products to stay below Nyquist: kmax <= n/8; the
    # Lie derivative is minus the 2-form transport, untruncated
    kb = max(2, grid_n // 8)
    xi = _band_limited(grid, seed=103, kmax=kb, divfree=True)
    D = _band_limited(grid, seed=104, kmax=kb, divfree=True)
    raw = GridSpec(grid_n, grid_n, grid_n, dealias=False)
    out = -_TRANSPORT[TWO_FORM](raw, xi, None, D)
    gxi = _grad_vector_arr(grid, xi)
    gD = _grad_vector_arr(grid, D)
    bracket = np.einsum("j...,jk...->k...", xi, gD) - np.einsum("j...,jk...->k...", D, gxi)
    rep.check("transport-vs-bracket", float(np.max(np.abs(out - bracket))), 1e-10)
    return rep


def suite_variational_derivatives(grid_n: int = 8, **_) -> SuiteReport:
    """Centered finite differences of the discrete energy functional against
    the closed-form derivatives, every sample of both fields."""
    rep = SuiteReport("variational-derivatives")
    grid = GridSpec(grid_n, grid_n, grid_n)
    D = _band_limited(grid, seed=111, kmax=2, amplitude=0.4, divfree=True)
    B = _band_limited(grid, seed=112, kmax=2, amplitude=0.4, divfree=True)
    _, _, E, H = bi_closure(D, B)
    eps = 1e-6

    def functional(Dv, Bv):
        P = cross(Dv, Bv)
        return float(np.sum(np.sqrt(1.0 + np.sum(Dv * Dv + Bv * Bv + P * P, axis=0))))

    worst = {"E": 0.0, "H": 0.0}
    for label, base, other, deriv, d_first in (
        ("E", D, B, E, True),
        ("H", B, D, H, False),
    ):
        scale = float(np.max(np.abs(deriv)))
        for c in range(3):
            for idx in np.ndindex(grid.shape):
                plus = base.copy()
                minus = base.copy()
                plus[(c, *idx)] += eps
                minus[(c, *idx)] -= eps
                if d_first:
                    fd = (functional(plus, other) - functional(minus, other)) / (2 * eps)
                else:
                    fd = (functional(other, plus) - functional(other, minus)) / (2 * eps)
                worst[label] = max(worst[label], abs(fd - deriv[(c, *idx)]) / scale)
    rep.check("electric-derivative", worst["E"], 1e-6)
    rep.check("magnetic-derivative", worst["H"], 1e-6)
    return rep


def _base_config(**over) -> dict:
    cfg = {
        "model": "bi",
        "grid": {"nx": 16, "ny": 16, "nz": 16},
        "initial": {},
        "noise": {"modes": []},
        "integrator": {},
        "ensemble": {},
        "output": {"diagnostics_interval": 10},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def suite_energy_deterministic(grid_n: int = 32, dt: float = 1e-3, **_) -> SuiteReport:
    """Energy and momentum conservation of the deterministic nonlinear run."""
    rep = SuiteReport("energy-deterministic")
    cfg = parse_config(
        _base_config(
            model="bi",
            grid={"nx": grid_n, "ny": grid_n, "nz": grid_n},
            initial={"preset": "random-band-limited", "seed": 7, "amplitude": 0.3, "kmax": 2},
            integrator={"scheme": "rk4", "dt": dt, "t_end": 1.0},
            output={"diagnostics_interval": 100},
        )
    )
    result = run_ensemble(cfg)
    recs = result.members[0].records
    e0 = recs[0].energy
    p0 = np.array(recs[0].momentum)
    e_drift = max(abs(r.energy - e0) for r in recs) / abs(e0)
    p_scale = float(np.linalg.norm(p0))
    p_drift = max(
        float(np.linalg.norm(np.array(r.momentum) - p0)) for r in recs
    ) / p_scale
    rep.notes.append(f"energy {e0:.6f}, |momentum| {p_scale:.6f} at t=0")
    rep.check("energy-drift", e_drift, 1e-8)
    rep.check("momentum-drift", p_drift, 1e-8)
    return rep


def _heun_error_scan(
    state0, drift, noise_op, error, seed: int, step_counts, n_paths: int, t_end: float
) -> tuple[list[float], float]:
    """Mean per-path error of Heun runs along fixed dyadic Brownian paths for
    each step count, and its log2-log2 slope against dt. error(arrs, dWs)
    scores one path's final state."""
    errors = []
    for n in step_counts:
        dt = t_end / n
        err = 0.0
        for member in range(n_paths):
            path = DyadicBrownianPath(seed=seed, member_index=member, n_modes=1, t_end=t_end)
            dWs = path.increments(n)
            arrs = tuple(a.copy() for a in state0)
            for i in range(n):
                arrs = heun_stratonovich_step(arrs, drift, noise_op, dt, dWs[i])
            err += error(arrs, dWs)
        errors.append(err / n_paths)
    dts = [t_end / n for n in step_counts]
    return errors, float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])


def _energy_error_scan(
    grid_n: int, amplitude: float, noise_mode, seed: int, t_end: float = 0.5
) -> tuple[list[float], float]:
    """Per-path total-energy error vs dt along fixed dyadic Brownian paths."""
    grid = GridSpec(grid_n, grid_n, grid_n)
    D = _band_limited(grid, seed=121, kmax=2, amplitude=amplitude, divfree=True)
    B = _band_limited(grid, seed=122, kmax=2, amplitude=amplitude, divfree=True)
    noise = NoiseModel(grid, [noise_mode(grid)])
    model = get_model("bi-stratonovich")
    state0 = (D, B)

    def energy(arrs):
        return float(np.mean(bi_density(*arrs)[0])) * grid.volume

    e0 = energy(state0)
    return _heun_error_scan(
        state0,
        make_drift(model, grid),
        make_noise_op(model, grid, noise),
        lambda arrs, dWs: abs(energy(arrs) - e0) / e0,
        seed,
        (32, 64, 128, 256),  # dt = 2^-6 .. 2^-9
        4,
        t_end,
    )


def suite_stochastic_energy(grid_n: int = 16, **_) -> SuiteReport:
    """Per-path energy behavior under Stratonovich transport at fixed
    Brownian path.

    The asserted check uses a single harmonic correlation field, as the
    acceptance statement requires. It is expected to FAIL: the transport
    Hamiltonian <P, xi> commutes with the field energy only when xi
    generates an isometry, so for a non-uniform xi the per-path energy error
    converges to the integrated flux-stretching contribution instead of
    zero (see the analysis in the project notes). The uniform-xi scan that
    follows shows order ~1 where the conservation law actually holds,
    separating integrator quality from the structural obstruction.
    """
    rep = SuiteReport("stochastic-energy")
    errors, slope = _energy_error_scan(
        grid_n, 0.4,
        lambda g: make_divfree_mode(g, k=(0, 0, 1), a=(0.4, 0, 0)),
        seed=3001,
    )
    rep.notes.append(
        "harmonic-xi per-path energy errors: " + ", ".join(f"{e:.3e}" for e in errors)
    )
    rep.check("energy-error-order-harmonic", slope, 0.8, larger_is_better=True)

    errors_k, slope_k = _energy_error_scan(
        grid_n, 0.4, lambda g: make_constant_mode(g, (0.4, 0, 0)), seed=3001
    )
    rep.notes.append(
        "uniform-xi (isometry) errors: " + ", ".join(f"{e:.3e}" for e in errors_k)
    )
    rep.check("energy-error-order-killing", slope_k, 0.8, larger_is_better=True)
    return rep


def suite_momentum_dichotomy(grid_n: int = 16, dt: float = 5e-3, **_) -> SuiteReport:
    """Uniform noise amplitude conserves total momentum to integrator order;
    a harmonic amplitude drives a drift at least 10x larger."""
    rep = SuiteReport("momentum-dichotomy")
    members, t_end, sigma = 64, 0.25, 0.3

    def drift_of(noise_mode: dict, dt_run: float) -> tuple[float, float]:
        cfg = parse_config(
            _base_config(
                model="bi-stratonovich",
                grid={"nx": grid_n, "ny": grid_n, "nz": grid_n},
                initial={"preset": "random-band-limited", "seed": 7, "amplitude": 0.3, "kmax": 2},
                noise={"modes": [noise_mode]},
                integrator={"scheme": "heun", "dt": dt_run, "t_end": t_end},
                ensemble={"members": members, "seed": 11},
                output={"diagnostics_interval": 5},
            )
        )
        result = run_ensemble(cfg)
        drifts = []
        for mem in result.members:
            p0 = np.array(mem.records[0].momentum)
            drifts.append(
                max(float(np.linalg.norm(np.array(r.momentum) - p0)) for r in mem.records)
            )
        p_scale = float(np.linalg.norm(result.members[0].records[0].momentum))
        return float(np.mean(drifts)), p_scale

    const_mode = {"type": "constant", "a": [sigma, 0.0, 0.0]}
    const_drift, p_scale = drift_of(const_mode, dt)
    const_fine, _ = drift_of(const_mode, dt / 2)
    harm_drift, _ = drift_of(
        {"type": "harmonic", "k": [0, 0, 1], "a": [sigma, 0.0, 0.0], "phase": 0.0}, dt
    )
    rep.notes.append(
        f"|momentum(0)| = {p_scale:.4f}; mean max drift: constant {const_drift:.3e} "
        f"(dt/2: {const_fine:.3e}), harmonic {harm_drift:.3e}"
    )
    # integrator-order conservation: the constant-xi drift shrinks with dt
    rep.check("constant-drift-dt-refinement", const_fine / const_drift, 0.75)
    rep.check("dichotomy-ratio", harm_drift / const_drift, 10.0, larger_is_better=True)
    return rep


def _weak_field_config(
    model: str, grid_n: int, sigma: float, dt: float, t_end: float, ensemble: dict
):
    return parse_config(
        _base_config(
            model=model,
            grid={"nx": grid_n, "ny": grid_n, "nz": grid_n},
            initial={"preset": "plane-wave", "amplitude": 0.05, "k": 1},
            noise={"modes": [{"type": "constant", "a": [sigma, 0.0, 0.0]}]},
            integrator={"dt": dt, "t_end": t_end},
            ensemble=ensemble,
            output={"diagnostics_interval": 1000000},
        )
    )


@lru_cache(maxsize=None)
def _weak_field_ensemble(model: str, members: int, grid_n: int, sigma: float, dt: float, t_end: float):
    """Ensemble mean and variance of the mean of the final (D, B); integrated
    once per process and argument tuple (C6 and C7 share the maxwell-ito
    ensemble), so the arrays are read-only."""
    cfg = _weak_field_config(model, grid_n, sigma, dt, t_end, {"members": members, "seed": 23})
    result = run_ensemble(cfg)
    finals = np.array([np.stack(m.final_arrays) for m in result.members])
    # shape (members, 2, 3, nx, ny, nz)
    mean = finals.mean(axis=0)
    var = finals.var(axis=0, ddof=1) / members
    mean.flags.writeable = False
    var.flags.writeable = False
    return mean, var


def _component_l2_comparison(mean_a, var_a, mean_b, var_b) -> list[tuple[str, float, float]]:
    """Per component: L2 of the mean difference against the pooled-SE scale."""
    labels = [f"{f}_{c}" for f in ("D", "B") for c in "xyz"]
    out = []
    for fi in range(2):
        for ci in range(3):
            diff = mean_a[fi, ci] - mean_b[fi, ci]
            l2 = float(np.sqrt(np.sum(diff**2)))
            se = float(np.sqrt(np.sum(var_a[fi, ci] + var_b[fi, ci])))
            out.append((labels[fi * 3 + ci], l2, se))
    return out


def _check_means(rep: SuiteReport, comparisons) -> None:
    """Mean differences within 3 pooled standard errors per component."""
    for label, l2, se in comparisons:
        if se == 0.0:  # component never excited and both means identical
            rep.check(f"mean-{label}", l2, 1e-12)
        else:
            rep.check(f"mean-{label}", l2 / se, 3.0)


def suite_ito_stratonovich(grid_n: int = 16, dt: float = 0.01, **_) -> SuiteReport:
    """Weak-field ensemble means of the two calculi agree within 3 pooled
    standard errors per component."""
    rep = SuiteReport("ito-stratonovich")
    members, sigma, t_end = 512, 0.4, 0.5
    mean_s, var_s = _weak_field_ensemble("maxwell-stratonovich", members, grid_n, sigma, dt, t_end)
    mean_i, var_i = _weak_field_ensemble("maxwell-ito", members, grid_n, sigma, dt, t_end)
    _check_means(rep, _component_l2_comparison(mean_s, var_s, mean_i, var_i))
    return rep


def suite_expectation_pde(grid_n: int = 16, dt: float = 0.01, **_) -> SuiteReport:
    """Ensemble mean of Ito runs matches the deterministic expectation solve;
    the k=1 mode envelope decays at the predicted rate."""
    rep = SuiteReport("expectation-pde")
    members, sigma, t_end = 512, 0.4, 0.5
    mean_i, var_i = _weak_field_ensemble("maxwell-ito", members, grid_n, sigma, dt, t_end)

    cfg = _weak_field_config("maxwell-expectation", grid_n, sigma, dt / 2, t_end, {})
    mean_e = np.stack(run_ensemble(cfg).members[0].final_arrays)
    _check_means(rep, _component_l2_comparison(mean_i, var_i, mean_e, np.zeros_like(var_i)))

    grid = cfg.grid
    d0 = 0.05  # plane-wave amplitude: |D_y mode| = amp/2 at t=0
    spec = grid.rfft(mean_e[0][1])
    envelope = 2.0 * abs(spec[1, 0, 0]) / grid.n_points / d0
    predicted = float(np.exp(-0.5 * sigma**2 * t_end))
    rep.notes.append(f"mode envelope {envelope:.6f} vs predicted {predicted:.6f}")
    rep.check("mode-envelope", abs(envelope - predicted) / predicted, 0.05)
    return rep


def suite_pure_transport(grid_n: int = 16, **_) -> SuiteReport:
    """Drift-free constant-noise run reproduces the translated initial data
    with strong L2 error of order ~1 in dt."""
    rep = SuiteReport("pure-transport")
    grid = GridSpec(grid_n, grid_n, grid_n)
    sigma, t_end = 0.5, 0.5
    D0 = _band_limited(grid, seed=131, kmax=2, amplitude=0.4, divfree=True)
    noise = NoiseModel(grid, [make_constant_mode(grid, (sigma, 0, 0))])
    g = make_noise_op(get_model("bi-stratonovich"), grid, noise)
    zero_drift = lambda arrs: tuple(np.zeros_like(a) for a in arrs)
    spec0 = grid.rfft(D0)

    def strong_error(arrs, dWs):
        exact = grid.irfft(spec0 * np.exp(-1j * grid.kx * (sigma * float(dWs.sum()))))
        return float(np.sqrt(np.mean((arrs[0] - exact) ** 2)))

    errors, slope = _heun_error_scan(
        (D0,), zero_drift, g, strong_error, 3002, (16, 32, 64, 128, 256), 8, t_end
    )
    rep.notes.append(
        "strong errors: " + ", ".join(f"{e:.3e}" for e in errors)
    )
    rep.check("transport-order-low", slope, 0.8, larger_is_better=True)
    rep.check("transport-order-high", slope, 1.35)
    return rep


def suite_mhd(grid_n: int = 32, dt: float = 2e-3, **_) -> SuiteReport:
    """High-field limit: helicity, orthogonality and energy over a run."""
    rep = SuiteReport("mhd")
    cfg = parse_config(
        _base_config(
            model="mhd",
            grid={"nx": grid_n, "ny": grid_n, "nz": grid_n},
            initial={
                "preset": "helical-orthogonal",
                "seed": 5,
                "amplitude": 0.04,
                "kmax": 1,
                "momentum_amplitude": 0.12,
            },
            integrator={"scheme": "rk4", "dt": dt, "t_end": 0.5},
            output={"diagnostics_interval": 25},
        )
    )
    recs = run_ensemble(cfg).members[0].records
    hel0 = recs[0].helicity
    e0 = recs[0].energy
    hel_drift = max(abs(r.helicity - hel0) for r in recs) / abs(hel0)
    pb = max(r.pb_orth for r in recs)
    e_drift = max(abs(r.energy - e0) for r in recs) / e0
    rep.notes.append(f"helicity {hel0:.6f}, energy {e0:.6f} at t=0")
    rep.check("helicity-drift", hel_drift, 1e-6)
    rep.check("pb-orthogonality", pb, 1e-6)
    rep.check("energy-drift", e_drift, 1e-8)
    return rep


def suite_hamiltonian_structure(grid_n: int = 16, **_) -> SuiteReport:
    """Momentum-map pairing, bracket identity, and the two-route momentum
    equation residual."""
    rep = SuiteReport("hamiltonian-structure")
    grid = GridSpec(grid_n, grid_n, grid_n)
    A = _band_limited(grid, seed=141, kmax=3)
    D = _band_limited(grid, seed=142, kmax=3, divfree=True)
    xi = _band_limited(grid, seed=143, kmax=3, divfree=True)
    eta = _band_limited(grid, seed=144, kmax=3, divfree=True)
    lhs, rhs = momentum_map_pairing(grid, A, D, xi)
    rep.check("momentum-map-pairing", abs(lhs - rhs) / max(abs(lhs), 1e-14), 1e-8)

    blhs, brhs = lp_bracket_check(grid, D, A, xi, eta)
    rep.check("bracket-identity", abs(blhs - brhs) / max(abs(blhs), 1e-14), 1e-8)

    X, Y, _ = grid.meshgrid()
    zero = np.zeros_like(X)
    xi2 = np.stack([zero, np.cos(X), zero])
    eta2 = np.stack([zero, zero, np.cos(Y)])
    blhs2, brhs2 = lp_bracket_check(grid, D, A, xi2, eta2)
    rep.check("bracket-harmonic-pair", abs(blhs2 - brhs2) / max(abs(blhs2), 1e-14), 1e-8)

    big = GridSpec(32, 32, 32)
    D_big = _band_limited(big, seed=145, kmax=2, amplitude=0.3, divfree=True)
    B_big = _band_limited(big, seed=146, kmax=2, amplitude=0.3, divfree=True)
    rep.check(
        "momentum-equation-residual",
        km_bracket_residual(big, D_big, B_big),
        1e-6,
    )
    return rep


def _kelvin_residual(grid_n: int, n_steps: int, n_loop: int, stochastic: bool = False) -> float:
    """Tracked-loop residual of the circulation law over one nonlinear BI
    run: c(T) - c(0) + int F dt along the advected loop. The stochastic run
    adds Stratonovich transport along one harmonic correlation field, and the
    loop rides the same dW as the fields; its n_steps must be a power of two
    (the increments of a dyadic Brownian path on [0, t_end])."""
    grid = GridSpec(grid_n, grid_n, grid_n)
    seed, amplitude = (161, 0.3) if stochastic else (151, 0.15)
    D = _band_limited(grid, seed=seed, kmax=2, amplitude=amplitude, divfree=True)
    B = _band_limited(grid, seed=seed + 1, kmax=2, amplitude=amplitude, divfree=True)
    arrs = (D, B)
    drift = make_drift(get_model("bi"), grid)
    t_end = 0.25
    dt = t_end / n_steps
    noise = None
    dWs = [None] * n_steps
    if stochastic:
        noise = NoiseModel(grid, [make_divfree_mode(grid, k=(0, 0, 1), a=(0.2, 0, 0))])
        g = make_noise_op(get_model("bi-stratonovich"), grid, noise)
        path = DyadicBrownianPath(seed=3003, member_index=0, n_modes=1, t_end=t_end)
        dWs = path.increments(n_steps)  # ValueError unless a power of two
    loop = TracerLoop.circle((np.pi, np.pi, np.pi), 1.2, n_loop)

    def fields_of(arrs):
        Hd, P = bi_density(*arrs)
        v, gam, bet = hydro_variables(*arrs, Hd, P)
        return v, hydro_force(grid, gam, bet)

    v, force = fields_of(arrs)
    circ0 = loop_circulation(grid, loop, v)
    force_integral = 0.0
    for dW in dWs:
        f_prev = loop_circulation(grid, loop, force)
        if dW is None:
            new_arrs = rk4_step(arrs, drift, dt)
        else:
            new_arrs = heun_stratonovich_step(arrs, drift, g, dt, dW)
        v_new, force_new = fields_of(new_arrs)
        loop = advect_loop(grid, loop, v, dt, v_end=v_new, noise=noise, dW=dW)
        f_next = loop_circulation(grid, loop, force_new)
        force_integral += 0.5 * (f_prev + f_next) * dt
        arrs, v, force = new_arrs, v_new, force_new
    circ1 = loop_circulation(grid, loop, v)
    return abs(circ1 - circ0 + force_integral)


def suite_kelvin(grid_n: int = 16, **_) -> SuiteReport:
    """Circulation-law residual under simultaneous dt and loop refinement
    (dt 3x finer and the polygon 2x finer per level)."""
    rep = SuiteReport("kelvin")
    levels = ((6, 64), (18, 128), (54, 256))
    residuals = [_kelvin_residual(grid_n, n_steps, n_loop) for n_steps, n_loop in levels]
    rep.notes.append(
        "residuals per level: " + ", ".join(f"{r:.3e}" for r in residuals)
    )
    for i in range(len(residuals) - 1):
        rep.check(
            f"refinement-{i}",
            residuals[i] / residuals[i + 1],
            4.0,
            larger_is_better=True,
        )

    # informational: the same residual along a stochastic loop sharing the
    # fields' dW (its dW-scaling is reported, never asserted)
    rep.notes.append(
        "stochastic-loop residual (reported only): "
        f"{_kelvin_residual(grid_n, 64, 128, stochastic=True):.3e}"
    )
    return rep


SUITES = {
    "operators": suite_operators,
    "variational-derivatives": suite_variational_derivatives,
    "energy-deterministic": suite_energy_deterministic,
    "stochastic-energy": suite_stochastic_energy,
    "momentum-dichotomy": suite_momentum_dichotomy,
    "ito-stratonovich": suite_ito_stratonovich,
    "expectation-pde": suite_expectation_pde,
    "pure-transport": suite_pure_transport,
    "mhd": suite_mhd,
    "hamiltonian-structure": suite_hamiltonian_structure,
    "kelvin": suite_kelvin,
}


def run_suite(name: str, **overrides) -> SuiteReport:
    if name not in SUITES:
        raise ConfigError(f"unknown verify suite {name!r}; known: {sorted(SUITES)} or 'all'")
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    start = _time.perf_counter()
    rep = SUITES[name](**kwargs)
    rep.elapsed = _time.perf_counter() - start
    return rep


def run_suites(name: str, **overrides) -> list[SuiteReport]:
    names = list(SUITES) if name == "all" else [name]
    reports = []
    for n in names:
        rep = run_suite(n, **overrides)
        rep.print()
        reports.append(rep)
    if len(reports) > 1:
        failed = [r.suite for r in reports if not r.passed]
        if failed:
            print(f"FAILED suites: {', '.join(failed)}")
        else:
            print(f"all {len(reports)} suites passed")
    return reports
