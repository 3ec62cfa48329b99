"""The benchmark's workloads: config generators and output checks.

Each workload turns the command-line seed into a plain config dict, which is
the only thing the library sees. One iteration of a workload is one
`run_ensemble` call (plus one `resume_member` call on the I/O workload); its
output checks run after the iteration and are not timed.

Why these three:
- bi-rk4-64: one deterministic Born-Infeld member at 64^3. Large transforms,
  the BI closure and the cross products dominate; no fan-out, no noise, no I/O.
- ito-ensemble-16: hundreds of Maxwell-Ito members at 16^3, sampled only at
  t=0 and t_end. Per-member fixed costs, Philox draws and small transforms
  dominate; no closure, no I/O.
- mhd-io-32: a few MHD-Stratonovich Heun members at 32^3 with diagnostics
  every step, frequent snapshots and checkpoints, then a resume from a middle
  checkpoint. Writes beside reads, and the 1-form noise operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from spans import WRITES

# max|div| of unit-scale fields after spectral curls sits near 1e-14.
DIV_ROUNDOFF = 1e-10
# C3's tolerance on the relative energy and momentum drift of a BI run.
CONSERVATION_TOL = 1e-8
# C7's threshold on the mean difference in pooled standard errors.
SE_LIMIT = 3.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    make_config: Callable[[int], dict]
    # (api, cfg, work_dir) -> (member_steps, outputs); api holds the library entry points.
    iterate: Callable
    # (cfg, outputs) -> list[Check]
    check: Callable
    # Boundaries the workload does not call by design; their metrics read 0.
    bypasses: tuple[str, ...] = ()


def _bi_config(seed: int) -> dict:
    return {
        "model": "bi",
        "grid": {"nx": 64, "ny": 64, "nz": 64},
        "initial": {"preset": "random-band-limited", "seed": seed, "amplitude": 0.3, "kmax": 2},
        "integrator": {"scheme": "rk4", "dt": 0.005, "t_end": 0.05},
        "output": {"diagnostics_interval": 5},
    }


def _ito_config(seed: int) -> dict:
    return {
        "model": "maxwell-ito",
        "grid": {"nx": 16, "ny": 16, "nz": 16},
        "initial": {"preset": "plane-wave", "amplitude": 0.05, "k": 1},
        "noise": {"modes": [{"type": "constant", "a": [0.4, 0.0, 0.0]}]},
        "integrator": {"scheme": "euler-maruyama", "dt": 0.01, "t_end": 0.08},
        "ensemble": {"members": 256, "seed": seed},
        "output": {"diagnostics_interval": 1000000},
    }


def _mhd_config(seed: int) -> dict:
    return {
        "model": "mhd-stratonovich",
        "grid": {"nx": 32, "ny": 32, "nz": 32},
        "initial": {
            "preset": "helical-orthogonal",
            "seed": seed,
            "amplitude": 0.04,
            "kmax": 1,
            "momentum_amplitude": 0.12,
        },
        "noise": {
            "modes": [
                {"type": "constant", "a": [0.1, 0.05, 0.0]},
                {"type": "harmonic", "k": [0, 0, 1], "a": [0.1, 0.0, 0.0], "phase": 0.0},
            ]
        },
        "integrator": {"scheme": "heun", "dt": 0.01, "t_end": 0.2},
        "ensemble": {"members": 4, "seed": seed},
        "output": {
            "directory": "out",
            "diagnostics_interval": 1,
            "snapshot_interval": 5,
            "checkpoint_interval": 5,
        },
    }


def _member_steps(result) -> int:
    return len(result.members) * result.config.integrator.n_steps


def _iterate_plain(api, cfg, work_dir: Path):
    result = api.run_ensemble(cfg)
    return _member_steps(result), result


def _iterate_resume(api, cfg, work_dir: Path):
    full_root, resumed_root = work_dir / "full", work_dir / "resumed"
    result = api.run_ensemble(cfg, full_root)
    mid = _middle_checkpoint_step(cfg)
    ckpt = full_root / cfg.output.directory / "member_0000" / f"checkpoint_{mid:06d}.npz"
    resumed = api.resume_member(ckpt, resumed_root)
    steps = _member_steps(result) + cfg.integrator.n_steps - mid
    return steps, (result, resumed, full_root, resumed_root)


def _middle_checkpoint_step(cfg) -> int:
    every = cfg.output.checkpoint_interval
    return max(every, (cfg.integrator.n_steps // 2) // every * every)


def _max_rel_drift(series: list[np.ndarray]) -> float:
    ref = series[0]
    scale = float(np.linalg.norm(ref))
    return max(float(np.linalg.norm(s - ref)) for s in series) / scale


def _check_bi(cfg, result) -> list[Check]:
    recs = result.members[0].records
    e_drift = _max_rel_drift([np.array([r.energy]) for r in recs])
    p_drift = _max_rel_drift([np.array(r.momentum) for r in recs])
    div = max(max(r.div_d, r.div_b) for r in recs)
    return [
        Check("energy-drift", e_drift <= CONSERVATION_TOL, f"{e_drift:.3e} <= {CONSERVATION_TOL}"),
        Check("momentum-drift", p_drift <= CONSERVATION_TOL, f"{p_drift:.3e} <= {CONSERVATION_TOL}"),
        Check("max-div-D-B", div <= DIV_ROUNDOFF, f"{div:.3e} <= {DIV_ROUNDOFF}"),
    ]


@lru_cache(maxsize=1)
def _expectation(config_json: str) -> np.ndarray:
    """The maxwell-expectation solve at dt/2 for an Ito ensemble config (as
    C7 does it); it depends only on the config, so a round solves it once."""
    from sabi.config import parse_config
    from sabi.runner import run_ensemble

    data = json.loads(config_json)
    data["model"] = "maxwell-expectation"
    data["integrator"].update(scheme="rk4", dt=data["integrator"]["dt"] / 2)
    data["ensemble"] = {"members": 1, "seed": 0}
    return np.stack(run_ensemble(parse_config(data)).members[0].final_arrays)


def _check_ito(cfg, result) -> list[Check]:
    from sabi.verify import _component_l2_comparison

    finals = np.array([np.stack(m.final_arrays) for m in result.members])
    mean = finals.mean(axis=0)
    var = finals.var(axis=0, ddof=1) / len(result.members)
    ref = _expectation(cfg.canonical_json())
    worst = 0.0
    ok = True
    for _label, l2, se in _component_l2_comparison(mean, var, ref, np.zeros_like(var)):
        if se == 0.0:
            ok &= l2 <= 1e-12
        else:
            worst = max(worst, l2 / se)
    ok &= worst <= SE_LIMIT
    return [Check("ensemble-mean-vs-expectation", ok, f"worst {worst:.3f} SE <= {SE_LIMIT}")]


def _check_mhd(cfg, outputs) -> list[Check]:
    result, resumed, full_root, resumed_root = outputs
    full = result.members[0]
    arrays_same = len(full.final_arrays) == len(resumed.final_arrays) and all(
        a.tobytes() == b.tobytes() for a, b in zip(full.final_arrays, resumed.final_arrays)
    )
    rel_csv = Path(cfg.output.directory) / "member_0000" / "diagnostics.csv"
    csv_same = (
        full.csv_text == resumed.csv_text
        and (full_root / rel_csv).read_bytes() == (resumed_root / rel_csv).read_bytes()
    )
    out_dir = full_root / cfg.output.directory
    listed = json.loads((out_dir / "manifest.json").read_text())["files"]
    absent = [f for f in listed if not (out_dir / f).is_file()]
    div = max(r.div_b for m in [*result.members, resumed] for r in m.records)
    return [
        Check("resume-final-arrays-identical", arrays_same, "byte compare"),
        Check("resume-csv-identical", csv_same, "in memory and on disk"),
        Check("manifest-files-exist", not absent and bool(listed), f"{len(listed)} listed, {len(absent)} absent"),
        Check("max-div-B", div <= DIV_ROUNDOFF, f"{div:.3e} <= {DIV_ROUNDOFF}"),
    ]


NO_IO = (*WRITES, "outputs.read_checkpoint")
NO_NOISE = ("noise.increments", "noise.combine", "dynamics.noise_op", "dynamics.ito_correction")

WORKLOADS = {
    "bi-rk4-64": Workload(_bi_config, _iterate_plain, _check_bi, (*NO_NOISE, *NO_IO)),
    "ito-ensemble-16": Workload(_ito_config, _iterate_plain, _check_ito, NO_IO),
    "mhd-io-32": Workload(_mhd_config, _iterate_resume, _check_mhd, ("dynamics.ito_correction",)),
}
