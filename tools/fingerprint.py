"""Byte-identity fingerprints of what sabi computes.

Prints one line `<sha256>  <entry>` per member CSV text, final array
(`tobytes()`), written file (a checkpoint `.npz` by its arrays, since the zip
container carries timestamps), `canonical_json()`, direct factory output and
verification check value. Two source trees that compute the same bits print
the same lines, so a refactor is checked by running this file in both
checkouts (it imports sabi from the `src/` beside it) and comparing:

    cp tools/fingerprint.py ../parent/tools/
    (cd ../parent && python3 tools/fingerprint.py) > parent.txt
    python3 tools/fingerprint.py > change.txt
    diff parent.txt change.txt

It uses only the config-level API (`parse_config`, `run_ensemble`,
`resume_member`, `cfg.noise` with the three dynamics factories, and
`verify.run_suite`), so the same file runs on older trees. The matrix: all
ten models at 16^3 (generic and spectral paths, dealias on and off, uniform,
harmonic and mixed noise) and `bi` at 10^3, the factories' outputs on those
runs' final states, one iteration of each perfbench workload at seed 1234
(with the mhd-io-32 resume and every file it writes), and the check values
of the operators, variational-derivatives, ito-stratonovich,
expectation-pde, pure-transport and hamiltonian-structure suites. A full
run takes about a minute on one core.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CONST = {"type": "constant", "a": [0.3, 0.2, 0.0]}
CONST2 = {"type": "constant", "a": [0.0, 0.1, 0.25], "amplitude": 0.8}
HARMONIC = {"type": "harmonic", "k": [0, 0, 1], "a": [0.3, 0.0, 0.0], "phase": 0.2}
HARMONIC2 = {"type": "harmonic", "k": [1, 1, 0], "a": [0.0, 0.0, 0.2], "phase": 0.0}

SUITES = (
    "operators",
    "variational-derivatives",
    "ito-stratonovich",
    "expectation-pde",
    "pure-transport",
    "hamiltonian-structure",
)


def emit(name: str, data: bytes) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def run_config(
    model: str,
    modes=(),
    dealias: bool = True,
    members: int = 1,
    initial: dict | None = None,
    scheme: str | None = None,
    n: int = 16,
) -> dict:
    """An n^3 run of 4 steps with diagnostics every step."""
    integrator = {"dt": 0.01, "t_end": 0.04}
    if scheme is not None:
        integrator["scheme"] = scheme
    return {
        "model": model,
        "grid": {"nx": n, "ny": n, "nz": n, "dealias": dealias},
        "initial": initial or {},
        "noise": {"modes": list(modes)},
        "integrator": integrator,
        "ensemble": {"members": members, "seed": 5},
        "output": {"diagnostics_interval": 1, "directory": "out", "checkpoint_interval": 2},
    }


def run_matrix() -> list[tuple[str, dict]]:
    cases: list[tuple[str, dict]] = []
    for dealias in (True, False):
        tag = "" if dealias else "-nodealias"
        cases.append((f"bi{tag}", run_config("bi", dealias=dealias)))
        for model in ("bi-stratonovich", "bi-ito", "maxwell-stratonovich", "mhd-stratonovich"):
            cases.append(
                (f"{model}-mixed{tag}", run_config(model, (CONST, HARMONIC), dealias, members=2))
            )
        # spectral path: uniform modes only
        for model in ("maxwell-ito", "maxwell-stratonovich", "maxwell-expectation"):
            for n, modes in enumerate(((), (CONST,), (CONST, CONST2))):
                cases.append((f"{model}-uniform{n}{tag}", run_config(model, modes, dealias)))
    cases += [
        ("bi-plane-wave", run_config("bi", initial={"preset": "plane-wave", "amplitude": 0.2})),
        # at 10^3 the dealias band keeps mode 3, whose float frequency
        # 0.3 * 10 exceeds 3
        ("bi-10", run_config("bi", n=10)),
        ("maxwell", run_config("maxwell")),
        ("maxwell-ito-mixed", run_config("maxwell-ito", (CONST, HARMONIC), members=2)),
        ("maxwell-ito-harmonic", run_config("maxwell-ito", (HARMONIC, HARMONIC2))),
        ("maxwell-stratonovich-harmonic", run_config("maxwell-stratonovich", (HARMONIC,))),
        ("maxwell-expectation-mixed", run_config("maxwell-expectation", (CONST, HARMONIC))),
        ("maxwell-expectation-harmonic", run_config("maxwell-expectation", (HARMONIC,))),
        ("mhd-stratonovich-uniform", run_config("mhd-stratonovich", (CONST, CONST2))),
        ("mhd-stratonovich-harmonic", run_config("mhd-stratonovich", (HARMONIC, HARMONIC2))),
        ("bi-ito-harmonic", run_config("bi-ito", (HARMONIC2,))),
        ("mhd-helical", run_config("mhd", initial={"preset": "helical-orthogonal", "seed": 3})),
        ("mhd-random", run_config("mhd", initial={"preset": "random-band-limited", "seed": 3})),
        (
            "euler-vorticity-taylor-green",
            run_config("euler-vorticity", initial={"preset": "taylor-green", "amplitude": 0.5}),
        ),
        (
            "euler-vorticity-random",
            run_config("euler-vorticity", initial={"preset": "random-band-limited", "seed": 4}),
        ),
        (
            "euler-vorticity-abc-noise",
            run_config(
                "euler-vorticity",
                (CONST, HARMONIC),
                initial={"preset": "abc", "amplitude": 0.3},
                scheme="heun",
            ),
        ),
    ]
    return cases


def emit_files(prefix: str, out_dir: Path) -> None:
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir)
        if path.suffix == ".npz":
            with np.load(path, allow_pickle=False) as data:
                for key in sorted(data.files):
                    emit(f"{prefix}/file/{rel}[{key}]", data[key].tobytes())
        else:
            emit(f"{prefix}/file/{rel}", path.read_bytes())


def emit_member(prefix: str, mem) -> None:
    emit(f"{prefix}/member{mem.member}/csv", mem.csv_text.encode())
    for i, arr in enumerate(mem.final_arrays):
        emit(f"{prefix}/member{mem.member}/final{i}", arr.tobytes())


def emit_factories(name: str, cfg, state) -> None:
    """The dynamics factories on one run's final state: the drift, the noise
    operator at a fixed dW and the Ito correction, all on the generic path."""
    from sabi.dynamics import get_model, make_drift, make_ito_correction, make_noise_op

    model = get_model(cfg.model)
    grid, noise = cfg.grid, cfg.noise
    outputs = {"drift": make_drift(model, grid, noise if model.expectation else None)(state)}
    if noise.n_modes:
        dW = np.linspace(0.3, -0.2, noise.n_modes)
        outputs["noise_op"] = make_noise_op(model, grid, noise)(state, dW)
        outputs["ito_correction"] = make_ito_correction(model, grid, noise)(state)
    for label, arrs in outputs.items():
        for i, arr in enumerate(arrs):
            emit(f"factory/{name}/{label}{i}", arr.tobytes())


def fingerprint_runs(work: Path) -> None:
    from sabi.config import parse_config
    from sabi.runner import run_ensemble

    for name, data in run_matrix():
        cfg = parse_config(data)
        emit(f"run/{name}/config", cfg.canonical_json().encode())
        result = run_ensemble(cfg, work / name)
        for mem in result.members:
            emit_member(f"run/{name}", mem)
        emit_files(f"run/{name}", work / name / "out")
        emit_factories(name, cfg, result.members[-1].final_arrays)


def fingerprint_workloads(work: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    from sabi.config import parse_config
    from sabi.runner import resume_member, run_ensemble

    api = SimpleNamespace(run_ensemble=run_ensemble, resume_member=resume_member)
    for name, wl in workloads.WORKLOADS.items():
        cfg = parse_config(wl.make_config(1234))
        emit(f"workload/{name}/config", cfg.canonical_json().encode())
        wdir = work / f"workload-{name}"
        wdir.mkdir()
        _, outputs = wl.iterate(api, cfg, wdir)
        if isinstance(outputs, tuple):  # the resume workload
            result, resumed, full_root, resumed_root = outputs
            emit_member(f"workload/{name}/resumed", resumed)
            emit_files(f"workload/{name}/full", full_root / cfg.output.directory)
            emit_files(f"workload/{name}/resumed", resumed_root / cfg.output.directory)
        else:
            result = outputs
        for mem in result.members:
            emit_member(f"workload/{name}", mem)


def fingerprint_suites() -> None:
    from sabi.verify import run_suite

    for suite in SUITES:
        rep = run_suite(suite)
        for c in rep.checks:
            emit(f"verify/{suite}/{c.name}", repr(float(c.value)).encode())
        for i, note in enumerate(rep.notes):
            emit(f"verify/{suite}/note{i}", note.encode())


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        fingerprint_runs(Path(tmp))
        fingerprint_workloads(Path(tmp))
    fingerprint_suites()


if __name__ == "__main__":
    main()
