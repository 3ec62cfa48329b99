"""Guard for the boundaries the traced benchmark wraps.

perfbench/spans.py wraps the names that sabi.runner looks up, and patches
methods through their class __dict__. A refactor that moves or renames one
of them, or a fast path that routes around one, would make a per-layer
benchmark metric read -1 (missing); these tests fail instead. spans.py is
parsed with ast, never imported.
"""

import ast
from collections import Counter
from pathlib import Path

import sabi.runner
from sabi.config import parse_config
import sabi.verify
from sabi.grid import GridSpec
from sabi.noise import NoiseModel, WienerDriver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_spectral_run_calls_every_wrapped_boundary(monkeypatch):
    calls = Counter()

    def spy(name):
        original = getattr(sabi.runner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sabi.runner, name, wrapped)

    for name in ("make_drift", "make_noise_op", "make_ito_correction", "euler_maruyama_step"):
        spy(name)
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
