"""Stored forecasts, gradients and checkpoints of a small U model, byte for byte.

A p=2 model on a 6x6 grid, built for every combination of ``unpool_mode``,
``pool_mode`` and ``layer_norm``, must forecast the bytes under
``data/unet_golden/``, give the parameter gradients of one recorded loss
stored beside them, and write the stored checkpoint. The 6x6 grid takes the
dense Laplacian product; one more case on a 10x10 grid takes the
padded-neighbour (ELL) gather. This pins the parameter
names and their order, the pooling and unpooling arithmetic, the channel order
of the skip join (the encoder's channels come last) and every pullback
against refactors that should change none of them. After a deliberate change of the
arithmetic or of the checkpoint format, rewrite the files from the repository
root with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import itertools
import os

import numpy as np
import pytest

from stunet import tensor as T
from stunet.data import knn_grid_graph
from stunet.model import STUNetConfig, build, loss, save_checkpoint
from stunet.sampling import UNPOOL_MODES
from stunet.tensor import Tensor

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "unet_golden")
CASES = [c + (6,) for c in itertools.product(UNPOOL_MODES, ("max", "mean"), (False, True))]
CASES.append(("weighted_deconv", "max", True, 10))


def _name(unpool_mode, pool_mode, layer_norm, side):
    grid = "" if side == 6 else f"-grid{side}"
    return f"{unpool_mode}-{pool_mode}-ln{int(layer_norm)}{grid}"


def _render(tmp_dir, unpool_mode, pool_mode, layer_norm, side):
    """(forecast bytes, gradient bytes, checkpoint bytes) of the case's fresh
    model; the gradients are those of every trainable parameter, in order."""
    cfg = STUNetConfig(k=2, p=2, s=2, hidden_sizes=(3, 4, 5), pool_mode=pool_mode,
                       unpool_mode=unpool_mode, layer_norm=layer_norm, j=5, h=2, seed=7)
    model = build(cfg, knn_grid_graph(side, side))
    model.norm_mean.data[...] = 1.25
    model.norm_std.data[...] = 0.5
    x = np.random.default_rng(11).normal(size=(cfg.j, 2, side * side, 1))
    T.reset_tape()
    pred = model.forward(Tensor(x))
    target = Tensor(np.random.default_rng(12).normal(size=pred.shape))
    grads = T.grads(loss(pred, target), model.trainable_params())
    path = os.path.join(tmp_dir, _name(unpool_mode, pool_mode, layer_norm, side) + ".ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        return pred.data.tobytes(), b"".join(g.tobytes() for g in grads), fh.read()


@pytest.mark.parametrize("case", CASES, ids=[_name(*c) for c in CASES])
def test_forecast_and_checkpoint_bytes_are_pinned(tmp_path, case):
    forecast, _, ckpt = _render(str(tmp_path), *case)
    stem = os.path.join(GOLDEN, _name(*case))
    with open(stem + ".fwd", "rb") as fh:
        assert forecast == fh.read()
    with open(stem + ".ckpt", "rb") as fh:
        assert ckpt == fh.read()


@pytest.mark.parametrize("case", CASES, ids=[_name(*c) for c in CASES])
def test_gradient_bytes_are_pinned(tmp_path, case):
    _, grads, _ = _render(str(tmp_path), *case)
    with open(os.path.join(GOLDEN, _name(*case) + ".grad"), "rb") as fh:
        assert grads == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        forecast, grads, _ = _render(GOLDEN, *case)
        for ext, data in ((".fwd", forecast), (".grad", grads)):
            with open(os.path.join(GOLDEN, _name(*case) + ext), "wb") as fh:
                fh.write(data)
