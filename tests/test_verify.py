"""Helpers of the verification suites that the acceptance gate relies on."""

import numpy as np
import pytest

from sabi.verify import _kelvin_residual, _weak_field_ensemble


def test_weak_field_ensemble_is_integrated_once_and_read_only():
    args = ("maxwell-ito", 3, 8, 0.4, 0.01, 0.02)
    mean, var = _weak_field_ensemble(*args)
    again = _weak_field_ensemble(*args)
    assert again[0] is mean and again[1] is var
    assert mean.shape == var.shape == (2, 3, 8, 8, 8)
    assert np.all(var >= 0.0)
    with pytest.raises(ValueError):
        mean[0, 0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        var += 1.0


def test_stochastic_kelvin_path_needs_power_of_two_steps():
    with pytest.raises(ValueError, match="power of two"):
        _kelvin_residual(8, 50, 16, stochastic=True)
