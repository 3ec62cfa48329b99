"""Guard for the boundaries the traced benchmark wraps.

perfbench/spans.py wraps the names that sabi.runner looks up, and patches
methods through their class __dict__. A refactor that moves or renames one
of them, or a fast path that routes around one, would make a per-layer
benchmark metric read -1 (missing); these tests fail instead. spans.py is
parsed with ast, never imported.
"""

import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np

import sabi.runner
from sabi.config import parse_config
import sabi.verify
from sabi.grid import GridSpec
from sabi.noise import NoiseModel, WienerDriver

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def runner_boundaries() -> list[str]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "RUNNER_BOUNDARIES" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no RUNNER_BOUNDARIES in {SPANS}")


def test_runner_exposes_wrapped_names():
    names = runner_boundaries() + ["make_drift", "make_noise_op", "make_ito_correction"]
    assert len(names) > 3
    assert [n for n in names if not hasattr(sabi.runner, n)] == []


def test_patched_methods_live_in_class_dict():
    assert "rfft" in GridSpec.__dict__
    assert "irfft" in GridSpec.__dict__
    assert "increments" in WienerDriver.__dict__
    assert "combine" in NoiseModel.__dict__


def test_ensemble_check_helper_exists():
    assert callable(sabi.verify._component_l2_comparison)


def spy_on_runner(monkeypatch, names) -> Counter:
    """Count calls of the given names where sabi.runner looks them up."""
    calls = Counter()
    for name in names:
        original = getattr(sabi.runner, name)

        def wrapped(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sabi.runner, name, wrapped)
    return calls


def test_spectral_run_calls_every_wrapped_boundary(monkeypatch):
    calls = spy_on_runner(
        monkeypatch, ("make_drift", "make_noise_op", "make_ito_correction", "euler_maruyama_step")
    )
    cfg = parse_config(
        {
            "model": "maxwell-ito",
            "grid": {"nx": 8, "ny": 8, "nz": 8},
            "initial": {"preset": "plane-wave", "amplitude": 0.05},
            "noise": {"modes": [{"type": "constant", "a": [0.4, 0.0, 0.0]}]},
            "integrator": {"dt": 0.01, "t_end": 0.05},
        }
    )
    sabi.runner.run_member(cfg, 0)
    assert calls["make_drift"] == calls["make_noise_op"] == calls["make_ito_correction"] == 1
    assert calls["euler_maruyama_step"] == cfg.integrator.n_steps == 5


def test_generic_noise_run_calls_every_wrapped_boundary(monkeypatch):
    # the mhd-io-32 path: mhd-stratonovich under Heun, a uniform and a
    # harmonic mode, through the physical-space noise operator
    calls = spy_on_runner(
        monkeypatch, ("make_drift", "make_noise_op", "make_ito_correction", "heun_stratonovich_step")
    )
    cfg = parse_config(
        {
            "model": "mhd-stratonovich",
            "grid": {"nx": 8, "ny": 8, "nz": 8},
            "initial": {"preset": "helical-orthogonal", "amplitude": 0.04, "kmax": 1},
            "noise": {
                "modes": [
                    {"type": "constant", "a": [0.1, 0.05, 0.0]},
                    {"type": "harmonic", "k": [0, 0, 1], "a": [0.1, 0.0, 0.0]},
                ]
            },
            "integrator": {"dt": 0.01, "t_end": 0.04},
        }
    )
    sabi.runner.run_member(cfg, 0)
    assert calls["make_drift"] == calls["make_noise_op"] == 1
    assert calls["make_ito_correction"] == 0
    assert calls["heun_stratonovich_step"] == cfg.integrator.n_steps == 4


def spy_on_scalar_transforms(monkeypatch) -> Counter:
    """Count scalar transforms by spans.py's rule, prod(args[1].shape[:-3])
    per GridSpec.rfft/irfft call; so every transform, band or full, must
    pass its array positionally."""
    counts = Counter()
    for name in ("rfft", "irfft"):
        original = GridSpec.__dict__[name]

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += math.prod(args[1].shape[:-3])
            return _original(*args, **kwargs)

        monkeypatch.setattr(GridSpec, name, spy)
    return counts


def random_state(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(3)
    return tuple(0.1 * rng.standard_normal((3, *grid.shape)) for _ in range(2))


def test_bi_drift_counts_twelve_scalar_transforms(monkeypatch):
    from sabi.dynamics import get_model, make_drift

    counts = spy_on_scalar_transforms(monkeypatch)
    grid = GridSpec(8, 8, 8)
    make_drift(get_model("bi"), grid)(random_state(grid))
    # two curls of (3, ...) fields: 6 forward and 6 inverse scalar transforms
    assert counts == {"rfft": 6, "irfft": 6}


def test_mhd_noise_op_counts_twenty_two_scalar_transforms(monkeypatch):
    from sabi.dynamics import get_model, make_noise_op
    from sabi.noise import make_divfree_mode

    grid = GridSpec(8, 8, 8)
    noise = NoiseModel(grid, [make_divfree_mode(grid, k=(0, 0, 1), a=(0.3, 0.0, 0.0))])
    g = make_noise_op(get_model("mhd-stratonovich"), grid, noise)
    counts = spy_on_scalar_transforms(monkeypatch)
    g(random_state(grid), np.ones(1))
    # P: grad(xi.P) 1 + 3, curl P 3 + 3 and the band truncation 3 + 3;
    # B: the band curl of xi x B, 3 + 3
    assert counts == {"rfft": 10, "irfft": 12}


def test_fft_calls_live_in_gridspec_and_point_evaluation():
    """Every numpy transform in src/sabi runs inside GridSpec, where spans.py
    counts it, or in evaluate_at_points (a diagnostic, never in a step)."""
    transforms = {"fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"}
    outside = []
    for path in sorted((ROOT / "src" / "sabi").glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                name = owner
                if owner is None and isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    name = child.name
                if (
                    isinstance(child, ast.Attribute)
                    and child.attr in transforms
                    and ast.unparse(child.value) == "np.fft"
                    and owner not in ("GridSpec", "evaluate_at_points")
                ):
                    outside.append(f"{path.name}:{child.lineno} np.fft.{child.attr}")
                visit(child, name)

        visit(tree, None)
    assert outside == []
