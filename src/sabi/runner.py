"""Run orchestration: single-member integration loops, ensemble dispatch,
checkpoint/resume, and the output tree.

Members are independent: each one draws its Wiener increments from a
counter-based stream keyed by (ensemble seed, member index, step), so the
sequential loop here could be replaced by any worker pool without changing a
single byte of the results. Resume is bit-exact because the loop is indexed
by absolute step number and carries no hidden state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .diagnostics import DiagnosticsRecord, collect_record
from .dynamics import (
    ModelSpec,
    get_model,
    make_drift,
    make_ito_correction,
    make_noise_op,
    spectral_path,
    sum_drifts,
)
from .errors import NumericalError
from .grid import GridSpec, curl_inv
from .integrators import check_finite, euler_maruyama_step, heun_stratonovich_step, rk4_step
from .noise import NoiseModel, WienerDriver
from .outputs import (
    read_checkpoint,
    write_checkpoint,
    write_ensemble_summary,
    write_manifest,
    write_snapshot,
)
from .presets import build_initial_state


@dataclass
class MemberResult:
    member: int
    records: list[DiagnosticsRecord]
    final_arrays: tuple[np.ndarray, ...]
    csv_text: str
    files: list[str]


@dataclass
class EnsembleResult:
    config: RunConfig
    members: list[MemberResult]
    output_dir: Path | None


def initial_arrays(config: RunConfig) -> tuple[np.ndarray, ...]:
    model = get_model(config.model)
    ic = config.initial
    return build_initial_state(
        model.kind,
        config.grid,
        ic.preset,
        ic.seed,
        ic.amplitude,
        ic.kmax,
        ic.k,
        ic.momentum_amplitude,
    )


def _check_cfl(config: RunConfig, u: np.ndarray | None) -> None:
    """u is a vorticity run's velocity curl^-1 w; for the other systems
    (u None) the wave speed 1 bounds the material velocity."""
    speed = 1.0 if u is None else float(np.sqrt(np.max(np.sum(u * u, axis=0))))
    courant = speed * config.integrator.dt / config.grid.min_spacing
    if courant > config.integrator.cfl_guard:
        raise NumericalError(
            f"CFL guard breached: speed*dt/dx = {courant:.3f} > {config.integrator.cfl_guard}"
        )


def make_stepper(
    model: ModelSpec,
    grid: GridSpec,
    noise: NoiseModel,
    scheme: str,
    dt: float,
    spectral: bool = False,
):
    """step(state, dW) -> state after one step of the configured scheme; dW is
    ignored by deterministic steps. With spectral=True the state is the
    tuple of rfft spectra (see dynamics.spectral_path)."""
    drift = make_drift(model, grid, noise if model.expectation else None, spectral=spectral)
    noise_op = None
    if model.calculus is not None:
        noise_op = make_noise_op(model, grid, noise, spectral=spectral)
    if model.calculus == "ito":
        ito_drift = sum_drifts(drift, make_ito_correction(model, grid, noise, spectral=spectral))
    else:
        ito_drift = drift
    if model.calculus is None or scheme == "rk4":
        # rk4 on a transport model runs without modes
        return lambda state, dW: rk4_step(state, drift, dt)
    if scheme == "heun":
        return lambda state, dW: heun_stratonovich_step(state, drift, noise_op, dt, dW)
    return lambda state, dW: euler_maruyama_step(state, ito_drift, noise_op, dt, dW)


def run_member(
    config: RunConfig,
    member: int,
    out_dir: Path | None = None,
    start_step: int = 0,
    start_arrays: tuple[np.ndarray, ...] | None = None,
    csv_prefix: str | None = None,
) -> MemberResult:
    """Integrate one ensemble member from start_step to the end of the run.

    On the spectral path the state stays as rfft spectra between steps; the
    physical arrays are made only for samples, snapshots, checkpoints and
    the result, and a checkpoint step re-derives the spectra from the arrays
    it wrote, so a resumed run continues from exactly the same state."""
    grid = config.grid
    model = get_model(config.model)
    noise = config.noise
    dt = config.integrator.dt
    n_steps = config.integrator.n_steps
    spectral = spectral_path(model, noise)
    step_fn = make_stepper(model, grid, noise, config.integrator.scheme, dt, spectral)

    def to_state(arrs):
        return tuple(grid.rfft(a) for a in arrs) if spectral else arrs

    def to_arrays(state):
        return tuple(grid.irfft(s) for s in state) if spectral else state

    driver = WienerDriver(config.ensemble.seed, member, noise.n_modes)
    arrs = tuple(a.copy() for a in (start_arrays or initial_arrays(config)))
    records: list[DiagnosticsRecord] = []
    if csv_prefix is not None:
        csv_lines = csv_prefix.rstrip("\n").split("\n")
    else:
        csv_lines = [",".join(DiagnosticsRecord.CSV_COLUMNS)]
    files: list[str] = []
    member_dir = None
    if out_dir is not None:
        member_dir = Path(out_dir) / f"member_{member:04d}"
        member_dir.mkdir(parents=True, exist_ok=True)

    def velocity() -> np.ndarray | None:
        """u = curl^-1 w of a vorticity state, shared by a sample's
        diagnostics and its CFL check."""
        return curl_inv(grid, arrs[0]) if model.kind == "vorticity" else None

    def sample(step: int, u: np.ndarray | None) -> None:
        rec = collect_record(model, grid, arrs, time=step * dt, u=u)
        records.append(rec)
        csv_lines.append(",".join(rec.csv_row()))

    def snapshot(step: int) -> None:
        if member_dir is None:
            return
        for (name, _), vals in zip(model.components, arrs):
            paths = write_snapshot(
                member_dir,
                f"step_{step:06d}_{name}",
                vals,
                grid,
                time=step * dt,
                step=step,
                seed=config.ensemble.seed,
            )
            files.extend(str(p.relative_to(out_dir)) for p in paths)

    def checkpoint(step: int) -> None:
        if member_dir is None:
            return
        path = member_dir / f"checkpoint_{step:06d}.npz"
        write_checkpoint(
            path,
            config.canonical_json(),
            member,
            step,
            step * dt,
            arrs,
            "\n".join(csv_lines) + "\n",
        )
        files.append(str(path.relative_to(out_dir)))

    diag_every = config.output.diagnostics_interval
    snap_every = config.output.snapshot_interval
    ckpt_every = config.output.checkpoint_interval

    try:
        u = velocity()
        _check_cfl(config, u)
        if start_step == 0:
            sample(0, u)
            if snap_every:
                snapshot(0)
        state = to_state(arrs)
        for step in range(start_step, n_steps):
            arrs = u = None  # only `state` lives across steps; outputs remake the arrays
            dW = driver.increments(step, dt) if model.calculus is not None else None
            state = step_fn(state, dW)
            done = step + 1
            check_finite(state, context=f"at step {done}")
            do_sample = done % diag_every == 0 or done == n_steps
            do_snap = snap_every and (done % snap_every == 0 or done == n_steps)
            do_ckpt = ckpt_every and done % ckpt_every == 0
            if not (do_sample or do_snap or do_ckpt or done == n_steps):
                continue
            arrs = to_arrays(state)
            if do_sample:
                u = velocity()
                sample(done, u)
                if u is not None:
                    _check_cfl(config, u)
            if do_snap:
                snapshot(done)
            if do_ckpt:
                checkpoint(done)
                state = to_state(arrs)
    except NumericalError as exc:
        raise NumericalError(f"member {member}: {exc}") from exc

    if member_dir is not None and not snap_every:
        snapshot(n_steps)  # final state is always preserved

    csv_text = "\n".join(csv_lines) + "\n"
    if member_dir is not None:
        csv_path = member_dir / "diagnostics.csv"
        csv_path.write_text(csv_text)
        files.append(str(csv_path.relative_to(out_dir)))

    return MemberResult(member, records, arrs, csv_text, files)


def _summary_stats(members: list[MemberResult]) -> tuple[np.ndarray, dict]:
    times = np.array([r.time for r in members[0].records])
    stats: dict[str, dict[str, list[float]]] = {}
    m = len(members)
    # energy and the three momentum components
    for col, name in enumerate(DiagnosticsRecord.CSV_COLUMNS[1:5], start=1):
        series = np.array([[r.row()[col] for r in mem.records] for mem in members])
        mean = series.mean(axis=0)
        stderr = (
            series.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.zeros_like(mean)
        )
        stats[name] = {
            "mean": [float(v) for v in mean],
            "stderr": [float(v) for v in stderr],
        }
    return times, stats


def run_ensemble(config: RunConfig, output_root: str | Path | None = None) -> EnsembleResult:
    """Integrate all members; write snapshots, diagnostics, summary and the
    manifest when an output directory is configured. Bit-reproducible for a
    fixed config."""
    out_dir: Path | None = None
    if config.output.directory is not None:
        root = Path(output_root) if output_root is not None else Path(".")
        out_dir = root / config.output.directory
        out_dir.mkdir(parents=True, exist_ok=True)

    members = [run_member(config, m, out_dir) for m in range(config.ensemble.members)]

    if out_dir is not None:
        times, stats = _summary_stats(members)
        summary = write_ensemble_summary(out_dir, times, stats)
        files = [str(summary.relative_to(out_dir))]
        for mem in members:
            files.extend(mem.files)
        seeds = [
            {"member": m.member, "base_seed": config.ensemble.seed, "stream": [config.ensemble.seed, m.member]}
            for m in members
        ]
        write_manifest(
            out_dir, config.to_dict(), config.sha256(), __version__, seeds, files
        )
    return EnsembleResult(config, members, out_dir)


def resume_member(checkpoint_path: str | Path, output_root: str | Path | None = None) -> MemberResult:
    """Continue a checkpointed member to the end of its configured run.

    The continuation takes the identical code path as the uninterrupted run
    (absolute step indexing, counter-based noise), so the final state and
    the diagnostics CSV are bit-identical to a run that never stopped.
    """
    ck = read_checkpoint(checkpoint_path)
    config = parse_config(json.loads(ck.config_json))
    out_dir: Path | None = None
    if config.output.directory is not None:
        root = Path(output_root) if output_root is not None else Path(".")
        out_dir = root / config.output.directory
    return run_member(
        config,
        ck.member,
        out_dir,
        start_step=ck.step,
        start_arrays=ck.state_arrays,
        csv_prefix=ck.csv_text,
    )
