"""Run configuration: a versioned, human-writable JSON schema with strict
validation (unknown keys are errors) and deterministic serialization.

The canonical dict form produced by to_dict() contains every field with
defaults applied; load(to_dict()) round-trips to an equal config, and its
sha256 identifies the run in manifests and checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

from .dynamics import ModelSpec, get_model
from .errors import ConfigError
from .grid import GridSpec, TWO_PI
from .integrators import IntegratorConfig
from .noise import NoiseModel, make_constant_mode, make_divfree_mode
from .presets import check_preset

SCHEMA_VERSION = 1

# the scheme that converges to each calculus; ModelSpec.calculus picks it
_CALCULUS_SCHEME = {None: "rk4", "stratonovich": "heun", "ito": "euler-maruyama"}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _require_keys(section: str, data: dict, allowed: set[str], required: set[str] = frozenset()):
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object, got {data!r}")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"{section}: missing required key(s) {sorted(missing)}")


def _typed(name: str, value, kind: type):
    """value checked against its JSON type: int (an integer, not a bool),
    float (a finite number; integers are accepted and converted), bool or
    str."""
    if kind is float:  # the bound also rejects NaN and integers beyond float range
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and abs(value) <= sys.float_info.max
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _typed_vector(name: str, value, kind: type) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{name}: need 3 components, got {value!r}")
    return tuple(_typed(f"{name}[{i}]", x, kind) for i, x in enumerate(value))


@dataclass(frozen=True)
class InitialConfig:
    preset: str
    seed: int = 0
    amplitude: float = 0.1
    kmax: int = 2
    k: int = 1
    momentum_amplitude: float = 0.3


@dataclass(frozen=True)
class NoiseModeConfig:
    type: str  # "constant" | "harmonic"
    a: tuple[float, float, float]
    amplitude: float = 1.0
    k: tuple[int, int, int] = (0, 0, 0)
    phase: float = 0.0

    def to_dict(self) -> dict:
        d = {"type": self.type, "a": list(self.a), "amplitude": self.amplitude}
        if self.type == "harmonic":
            d["k"] = list(self.k)
            d["phase"] = self.phase
        return d


@dataclass(frozen=True)
class EnsembleConfig:
    members: int = 1
    seed: int = 0


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None
    snapshot_interval: int = 0  # steps; 0 disables (final state still written)
    diagnostics_interval: int = 10
    checkpoint_interval: int = 0  # steps; 0 disables


@dataclass(frozen=True)
class RunConfig:
    model: str
    grid: GridSpec
    initial: InitialConfig
    noise_modes: tuple[NoiseModeConfig, ...]
    integrator: IntegratorConfig
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "grid": asdict(self.grid),
            "initial": asdict(self.initial),
            "noise": {"modes": [m.to_dict() for m in self.noise_modes]},
            "integrator": asdict(self.integrator),
            "ensemble": asdict(self.ensemble),
            "output": asdict(self.output),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def noise(self) -> NoiseModel:
        """The noise model of the modes, shared by every config with the same
        grid and modes (a run, its resume, its expectation solve)."""
        modes_json = json.dumps([m.to_dict() for m in self.noise_modes])
        return _noise_model(self.grid, self.noise_modes, modes_json)


@lru_cache(maxsize=1)
def _noise_model(
    grid: GridSpec, modes: tuple[NoiseModeConfig, ...], modes_json: str
) -> NoiseModel:
    """Builds a noise model (its modes' divergence checks and the harmonic
    modes' partials) and keeps the last one. modes_json is in the key because
    equal modes may still differ in the sign of a zero."""
    built = []
    for i, m in enumerate(modes):
        try:
            if m.type == "constant":
                built.append(make_constant_mode(grid, m.a, m.amplitude))
            else:
                built.append(make_divfree_mode(grid, m.k, m.a, m.phase, m.amplitude))
        except Exception as exc:
            raise ConfigError(f"noise.modes[{i}]: {exc}") from exc
    return NoiseModel(grid, built)


def _parse_grid(data: dict) -> GridSpec:
    _require_keys(
        "grid", data, {"nx", "ny", "nz", "Lx", "Ly", "Lz", "dealias"}, {"nx", "ny", "nz"}
    )
    try:
        return GridSpec(
            nx=_typed("grid.nx", data["nx"], int),
            ny=_typed("grid.ny", data["ny"], int),
            nz=_typed("grid.nz", data["nz"], int),
            Lx=_typed("grid.Lx", data.get("Lx", TWO_PI), float),
            Ly=_typed("grid.Ly", data.get("Ly", TWO_PI), float),
            Lz=_typed("grid.Lz", data.get("Lz", TWO_PI), float),
            dealias=_typed("grid.dealias", data.get("dealias", True), bool),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_initial(data: dict, model_kind: str, grid: GridSpec) -> InitialConfig:
    _require_keys(
        "initial",
        data,
        {"preset", "seed", "amplitude", "kmax", "k", "momentum_amplitude"},
    )
    default_preset = "helical-orthogonal" if model_kind == "mhd" else "random-band-limited"
    preset = _typed("initial.preset", data.get("preset", default_preset), str)
    check_preset(preset, model_kind, grid)
    return InitialConfig(
        preset=preset,
        seed=_typed("initial.seed", data.get("seed", 0), int),
        amplitude=_typed("initial.amplitude", data.get("amplitude", 0.1), float),
        kmax=_typed("initial.kmax", data.get("kmax", 2), int),
        k=_typed("initial.k", data.get("k", 1), int),
        momentum_amplitude=_typed(
            "initial.momentum_amplitude", data.get("momentum_amplitude", 0.3), float
        ),
    )


def _parse_noise(data: dict) -> tuple[NoiseModeConfig, ...]:
    _require_keys("noise", data, {"modes"})
    raw_modes = data.get("modes", [])
    if not isinstance(raw_modes, list):
        raise ConfigError(f"noise.modes: expected a list, got {raw_modes!r}")
    modes = []
    for i, m in enumerate(raw_modes):
        name = f"noise.modes[{i}]"
        _require_keys(name, m, {"type", "a", "k", "phase", "amplitude"}, {"type", "a"})
        mtype = m["type"]
        if mtype not in ("constant", "harmonic"):
            raise ConfigError(f"{name}.type: {mtype!r} not in (constant, harmonic)")
        a = _typed_vector(f"{name}.a", m["a"], float)
        if mtype == "harmonic":
            if "k" not in m:
                raise ConfigError(f"{name}: harmonic modes need a wavevector k")
            k = _typed_vector(f"{name}.k", m["k"], int)
        else:
            k = (0, 0, 0)
        modes.append(
            NoiseModeConfig(
                type=mtype,
                a=a,
                amplitude=_typed(f"{name}.amplitude", m.get("amplitude", 1.0), float),
                k=k,
                phase=_typed(f"{name}.phase", m.get("phase", 0.0), float),
            )
        )
    return tuple(modes)


def _parse_integrator(
    data: dict, model: ModelSpec, grid: GridSpec, has_noise: bool
) -> IntegratorConfig:
    _require_keys("integrator", data, {"scheme", "dt", "t_end", "cfl_guard"})
    cfl_guard = _typed("integrator.cfl_guard", data.get("cfl_guard", 0.5), float)
    calculus_scheme = _CALCULUS_SCHEME[model.calculus]
    vorticity = model.kind == "vorticity"  # runs without noise modes use rk4
    allowed = ("rk4", calculus_scheme) if vorticity else (calculus_scheme,)
    default_scheme = "rk4" if vorticity and not has_noise else calculus_scheme
    scheme = data.get("scheme", default_scheme)
    if scheme not in allowed:
        raise ConfigError(
            f"integrator.scheme: {scheme!r} is not valid for model {model.name!r} "
            f"(allowed: {allowed})"
        )
    if vorticity and has_noise and scheme != "heun":
        raise ConfigError("integrator.scheme: noisy euler-vorticity runs need heun")
    dt = data.get("dt")
    if dt is None:
        dt = cfl_guard * grid.min_spacing  # unit characteristic speed
    return IntegratorConfig(
        scheme=scheme,
        dt=_typed("integrator.dt", dt, float),
        t_end=_typed("integrator.t_end", data.get("t_end", 1.0), float),
        cfl_guard=cfl_guard,
    )


def parse_config(data: dict) -> RunConfig:
    """Validate a configuration dict and apply defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(
        "config",
        data,
        {"schema", "model", "grid", "initial", "noise", "integrator", "ensemble", "output"},
        {"model", "grid"},
    )
    schema = _typed("schema", data.get("schema", SCHEMA_VERSION), int)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: version {schema} unsupported (expected {SCHEMA_VERSION})")
    model_name = data["model"]
    try:
        model = get_model(model_name)
    except Exception as exc:
        raise ConfigError(f"model: {exc}") from exc
    grid = _parse_grid(data["grid"])
    initial = _parse_initial(data.get("initial", {}), model.kind, grid)
    noise_modes = _parse_noise(data.get("noise", {"modes": []}))
    if noise_modes and model.calculus is None and not model.expectation:
        raise ConfigError(
            f"noise: model {model_name!r} is deterministic; use its stochastic variant"
        )
    integrator = _parse_integrator(
        data.get("integrator", {}), model, grid, bool(noise_modes)
    )

    ens_data = data.get("ensemble", {})
    _require_keys("ensemble", ens_data, {"members", "seed"})
    ensemble = EnsembleConfig(
        members=_typed("ensemble.members", ens_data.get("members", 1), int),
        seed=_typed("ensemble.seed", ens_data.get("seed", 0), int),
    )
    if ensemble.members < 1:
        raise ConfigError("ensemble.members: must be >= 1")

    out_data = data.get("output", {})
    _require_keys(
        "output",
        out_data,
        {"directory", "snapshot_interval", "diagnostics_interval", "checkpoint_interval"},
    )
    directory = out_data.get("directory")
    intervals = {}
    for key, default, least in (
        ("snapshot_interval", 0, 0),
        ("diagnostics_interval", 10, 1),
        ("checkpoint_interval", 0, 0),
    ):
        intervals[key] = _typed(f"output.{key}", out_data.get(key, default), int)
        if intervals[key] < least:
            raise ConfigError(f"output.{key}: must be >= {least}")
    output = OutputConfig(
        directory=None if directory is None else _typed("output.directory", directory, str),
        **intervals,
    )

    config = RunConfig(
        model=model_name,
        grid=grid,
        initial=initial,
        noise_modes=noise_modes,
        integrator=integrator,
        ensemble=ensemble,
        output=output,
    )
    config.noise  # builds the noise model: bad modes fail at load time
    return config


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(data)
