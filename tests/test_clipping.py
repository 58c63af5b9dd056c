"""Global-norm clipping on overflowing, non-finite and negative settings."""

import warnings

import numpy as np
import pytest

from stunet.errors import NumericError, UsageError
from stunet.tensor import clip_global_norm
from stunet.training import RunConfig


def test_finite_norm_keeps_the_plain_arithmetic():
    rng = np.random.default_rng(3)
    grads = [rng.normal(size=(4, 3)) * 10, rng.normal(size=7) * 10]
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    got = clip_global_norm(grads, 5.0)
    for g, out in zip(grads, got):
        assert out.tobytes() == (g * (5.0 / total)).tobytes()


def test_overflowing_norm_is_rescaled_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = clip_global_norm([np.array([1e200]), np.array([0.0, -1e200])], 5.0)
    assert np.allclose(out[0], [5.0 / np.sqrt(2)]) and np.allclose(out[1], [0.0, -5.0 / np.sqrt(2)])
    big = [np.array([1e200])]
    assert clip_global_norm(big, 0.0) is big  # off: unchanged


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_names_its_parameter(bad):
    grads = [np.ones(3), np.array([1.0, bad])]
    with pytest.raises(NumericError, match="gradient of enc0.theta holds NaN or inf"):
        clip_global_norm(grads, 5.0, ["readout.bias", "enc0.theta"])
    with pytest.raises(NumericError, match="gradient of parameter 1"):
        clip_global_norm(grads, 0.0)


def test_negative_clip_norm_is_rejected_by_name():
    with pytest.raises(UsageError, match="clip_norm must be >= 0"):
        RunConfig(clip_norm=-1).validate()
    RunConfig(clip_norm=0).validate()
