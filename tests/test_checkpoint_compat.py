"""A version 2 checkpoint written before graphs were stored as edge arrays.

``data/v2_parent/`` holds a checkpoint and one forecast written by commit
65a0844, when ``Graph`` held a dense matrix, for the model and the weighted
graph below (non-integer weights, one isolated node, edges given twice). The
checkpoint must still load through its stored partition and λmax, which needs
the graph fingerprint to be unchanged, and forecast the same values. Degrees
of non-integer weights are now summed in column order, not pairwise, so the
forecast may move in the last bits (1.4e-15 at most, measured). Run from
the repository root, ``PYTHONPATH=src python tests/test_checkpoint_compat.py``
writes the files with the checked-out code.
"""

import os

import numpy as np

from stunet import model as stmodel
from stunet import tensor as T
from stunet.graph import Graph
from stunet.model import STUNetConfig, build, load_checkpoint, save_checkpoint
from stunet.tensor import Tensor

DATA = os.path.join(os.path.dirname(__file__), "data", "v2_parent")
CONFIG = STUNetConfig(k=3, p=2, s=2, hidden_sizes=(3, 4, 5), j=5, h=2, seed=5)


def _graph() -> Graph:
    rng = np.random.default_rng(2024)
    n = 30  # node 29 has no edge
    edges = [(i, j, float(rng.uniform(0.1, 3.0)))
             for i in range(n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.15]
    twice = [(j, i, w * 0.5) for i, j, w in edges[::4]]  # lighter duplicates: max keeps w
    return Graph.from_edges(n, edges + twice)


def _forecast(model) -> np.ndarray:
    x = np.random.default_rng(9).normal(size=(CONFIG.j, 2, model.graph.n, 1))
    T.reset_tape()
    return model.forward(Tensor(x)).data


def test_parent_checkpoint_loads_through_its_stored_graph_block(monkeypatch):
    g = _graph()
    path = os.path.join(DATA, "model.ckpt")
    with open(path, "rb") as fh:
        raw = fh.read()
    assert stmodel._graph_fingerprint(g) in raw

    def no_search(*_):
        raise AssertionError("the stored partition was not used")

    monkeypatch.setattr(stmodel, "multilevel_partition", no_search)
    monkeypatch.setattr(stmodel.np.linalg, "eigvalsh", no_search)  # nor the stored λmax
    model = load_checkpoint(path, g)
    monkeypatch.undo()
    with open(os.path.join(DATA, "forecast.fwd"), "rb") as fh:
        want = np.frombuffer(fh.read()).reshape(-1, 2, 30, 1)
    np.testing.assert_allclose(_forecast(model), want, rtol=0, atol=1e-13)
    fresh = build(CONFIG, g)  # derived again: the same partition, λmax to the last bits
    assert [p.tobytes() for p in fresh.pm.parents] == [p.tobytes() for p in model.pm.parents]
    np.testing.assert_allclose([lap.lambda_max for lap in fresh.laps],
                               [lap.lambda_max for lap in model.laps], rtol=1e-14)


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    m = build(CONFIG, _graph())
    m.norm_mean.data[...] = 0.25
    m.norm_std.data[...] = 1.5
    save_checkpoint(m, os.path.join(DATA, "model.ckpt"))
    with open(os.path.join(DATA, "forecast.fwd"), "wb") as fh:
        fh.write(_forecast(m).tobytes())
