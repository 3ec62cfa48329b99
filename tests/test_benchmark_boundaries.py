"""Guard for the boundaries the traced benchmark wraps.

perfbench/spans.py wraps the names that sabi.runner looks up, and patches
methods through their class __dict__. A refactor that moves or renames one
of them would make a per-layer benchmark metric read -1 (missing); these
tests fail instead. spans.py is parsed with ast, never imported.
"""

import ast
from pathlib import Path

import sabi.runner
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
