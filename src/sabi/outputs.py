"""On-disk artifacts: field snapshots, diagnostics CSV, checkpoints, and the
run manifest.

Snapshot format: raw little-endian float64, x-fastest order, one file per
vector component, with a JSON sidecar naming the grid, field, time, step and
seed. Diagnostics are CSV with a fixed, documented column set; floats are
written with repr (shortest round-trip), so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import GridSpec

_COMPONENTS = ("x", "y", "z")


def write_snapshot(
    directory: str | Path,
    name: str,
    values: np.ndarray,  # (3, nx, ny, nz) or (nx, ny, nz)
    grid: GridSpec,
    time: float,
    step: int,
    seed: int,
) -> list[Path]:
    """Write one field snapshot; returns the paths created."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    comps = values if values.ndim == 4 else values[None]
    labels = _COMPONENTS[: comps.shape[0]] if values.ndim == 4 else ("scalar",)
    paths = []
    for label, comp in zip(labels, comps):
        stem = f"{name}_{label}" if values.ndim == 4 else name
        data_path = directory / f"{stem}.f64"
        # x-fastest: transpose (nx,ny,nz) -> (nz,ny,nx) then C-order bytes
        data_path.write_bytes(np.ascontiguousarray(comp.T).astype("<f8").tobytes())
        sidecar = {
            "field": name,
            "component": label,
            "dims": [grid.nx, grid.ny, grid.nz],
            "lengths": [grid.Lx, grid.Ly, grid.Lz],
            "order": "x-fastest",
            "dtype": "<f8",
            "time": time,
            "step": step,
            "seed": seed,
        }
        meta_path = directory / f"{stem}.json"
        meta_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
        paths.extend([data_path, meta_path])
    return paths


def read_snapshot_component(data_path: str | Path) -> tuple[np.ndarray, dict]:
    """Read one component file back using its sidecar."""
    data_path = Path(data_path)
    meta = json.loads(data_path.with_suffix(".json").read_text())
    nx, ny, nz = meta["dims"]
    flat = np.frombuffer(data_path.read_bytes(), dtype="<f8")
    if flat.size != nx * ny * nz:
        raise ConfigError(f"{data_path}: size {flat.size} != {nx * ny * nz}")
    return flat.reshape(nz, ny, nx).T.copy(), meta


def read_diagnostics_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Columns as float arrays (NaN for empty cells)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(float(cell) if cell else np.nan)
    return {h: np.array(v) for h, v in cols.items()}


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(
    path: str | Path,
    config_json: str,
    member: int,
    step: int,
    time: float,
    state_arrays: tuple[np.ndarray, ...],
    csv_text: str,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {f"state_{i}": a for i, a in enumerate(state_arrays)}
    np.savez(
        path,
        config_json=np.array(config_json),
        member=np.array(member),
        step=np.array(step),
        time=np.array(time),
        n_state=np.array(len(state_arrays)),
        csv_text=np.array(csv_text),
        **payload,
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


@dataclass
class Checkpoint:
    config_json: str
    member: int
    step: int
    time: float
    state_arrays: tuple[np.ndarray, ...]
    csv_text: str


def read_checkpoint(path: str | Path) -> Checkpoint:
    with np.load(path, allow_pickle=False) as data:
        n = int(data["n_state"])
        return Checkpoint(
            config_json=str(data["config_json"]),
            member=int(data["member"]),
            step=int(data["step"]),
            time=float(data["time"]),
            state_arrays=tuple(data[f"state_{i}"] for i in range(n)),
            csv_text=str(data["csv_text"]),
        )


# ---------------------------------------------------------------------------
# manifest and ensemble summary


def write_manifest(
    directory: str | Path,
    config_dict: dict,
    config_sha256: str,
    version: str,
    member_seeds: list[dict],
    files: list[str],
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": 1,
        "config": config_dict,
        "config_sha256": config_sha256,
        "package_version": version,
        "members": member_seeds,
        "files": sorted(files),
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def write_ensemble_summary(
    directory: str | Path, times: np.ndarray, stats: dict[str, dict[str, list[float]]]
) -> Path:
    """Per-diagnostic {mean, stderr} arrays over the ensemble at sample times."""
    directory = Path(directory)
    payload = {"times": [float(t) for t in times], "diagnostics": stats}
    path = directory / "ensemble_summary.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path
