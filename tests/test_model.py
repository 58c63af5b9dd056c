"""U-shaped model assembly, variants, loss, and binary checkpoints."""

import functools
import os
import re

import numpy as np
import pytest

from conftest import check_gradients, random_graph, track_bases
from stunet import tensor as T
from stunet.data import knn_grid_graph
from stunet.errors import CheckpointError, DimensionError, ModelError, UsageError
from stunet.graph import ChebKernel, cheb_conv, normalized_laplacian
from stunet.model import (
    CHECKPOINT_MAGIC,
    STUNet,
    STUNetConfig,
    VARIANTS,
    build,
    load_checkpoint,
    loss,
    read_checkpoint_config,
    save_checkpoint,
    variant,
)
from stunet.recurrent import (
    GCGRUState, decode, dilated_layer_forward, init_gcgru_weights, teacher_steps,
)
from stunet.tensor import Tensor


def setup_function(_):
    T.reset_tape()


def tiny_config(**kw):
    base = dict(
        k=2, p=1, s=2, hidden_sizes=(3, 4), pool_mode="mean",
        unpool_mode="direct_copy", layer_norm=False, j=4, h=2,
        d_in=1, d_out=1, seed=0,
    )
    base.update(kw)
    return STUNetConfig(**base)


def tiny_graph(seed=0, n=6):
    return random_graph(np.random.default_rng(seed), n, density=0.7)


def test_config_validation():
    tiny_config().validate()
    with pytest.raises(ModelError):
        tiny_config(p=2).validate()  # needs 3 stages
    with pytest.raises(ModelError):
        tiny_config(hidden_sizes=()).validate()
    with pytest.raises(ModelError):
        tiny_config(pool_mode="sum").validate()
    with pytest.raises(ModelError):
        tiny_config(unpool_mode="nearest").validate()
    with pytest.raises(ModelError):
        tiny_config(j=0).validate()


def test_config_line_roundtrip():
    cfg = tiny_config(hidden_sizes=(8, 16, 8), layer_norm=True, seed=9)
    assert STUNetConfig.from_lines(cfg.to_lines()) == cfg


def test_variant_table():
    cfg = tiny_config(p=1, s=2)
    assert variant(cfg, "GCGRU").p == 0 and variant(cfg, "GCGRU").s == 1
    assert variant(cfg, "T-UNet").p == 0 and variant(cfg, "T-UNet").s == 2
    assert variant(cfg, "S-UNet").p == 1 and variant(cfg, "S-UNet").s == 1
    assert variant(cfg, "ST-UNet") == cfg
    assert VARIANTS == ("GCGRU", "T-UNet", "S-UNet", "ST-UNet")
    with pytest.raises(UsageError):
        variant(cfg, "UNet")


def test_plain_stack_flag():
    assert tiny_config(p=0, s=1).is_plain_stack
    assert not tiny_config(p=0, s=2).is_plain_stack
    assert not tiny_config(p=1, s=1).is_plain_stack


def test_loss_hand_value():
    # 0.5 * (mean|e| + mean e^2) with e = [1, 2] -> 0.5 * (1.5 + 2.5) = 2
    pred = Tensor(np.array([2.0, 4.0]))
    target = Tensor(np.array([1.0, 2.0]))
    assert abs(loss(pred, target).item() - 2.0) < 1e-15
    zero = loss(target, target).item()
    assert zero == 0.0


def test_forward_shapes_unbatched_and_batched():
    g = tiny_graph()
    for p, s in ((0, 1), (1, 2), (0, 2), (1, 1)):
        model = build(tiny_config(p=p, s=s), g)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 6, 1)))
        out = model.forward(x)
        assert out.shape == (2, 6, 1)
        xb = Tensor(np.random.default_rng(2).normal(size=(4, 5, 6, 1)))
        outb = model.forward(xb)
        assert outb.shape == (2, 5, 6, 1)


def test_forward_validates_input_shape():
    model = build(tiny_config(), tiny_graph())
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((3, 6, 1))))  # wrong J
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((4, 5, 1))))  # wrong node count
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((4, 6, 2))))  # wrong feature count


def test_same_seed_same_init_different_seed_differs():
    g = tiny_graph()
    a = build(tiny_config(seed=5), g)
    b = build(tiny_config(seed=5), g)
    c = build(tiny_config(seed=6), g)
    for (na, ta), (nb, tb) in zip(a.params.entries, b.params.entries):
        assert na == nb and np.array_equal(ta.data, tb.data)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.params.entries, c.params.entries)
    )


def test_buffers_excluded_from_training():
    model = build(tiny_config(), tiny_graph())
    trainable = model.trainable_params()
    assert model.norm_mean not in trainable
    assert model.norm_std not in trainable
    names = [n for n, _ in model.params.entries]
    assert "norm.mean" in names and "norm.std" in names
    assert len(trainable) == len(names) - 2


def test_a_duplicate_parameter_name_is_rejected_by_name():
    model = build(tiny_config(), tiny_graph())
    before = list(model.params.entries)
    with pytest.raises(ModelError, match="duplicate parameter name 'readout.bias'"):
        model.params.register("readout.bias", Tensor(np.zeros(1)))
    assert model.params.entries == before
    extra = model.params.register("extra", Tensor(np.zeros(1)))
    assert model.params.entries[-1] == ("extra", extra)


def test_scheduled_sampling_affects_forward():
    model = build(tiny_config(), tiny_graph())
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 6, 1)))
    targets = Tensor(rng.normal(size=(2, 6, 1)))
    free = model.forward(x)
    teacher = teacher_steps(1.0, 2, np.random.default_rng(0))
    forced = model.forward(x, targets=targets, teacher=teacher)
    assert np.array_equal(free.data[0], forced.data[0])
    assert not np.allclose(free.data[1], forced.data[1])
    with pytest.raises(UsageError):
        model.forward(x, teacher=(True,))


def test_plain_stack_matches_direct_seq2seq():
    """p=0, s=1 must reduce to a stacked recurrent encoder plus decoder built
    by hand from the same seed's parameter stream."""
    g = tiny_graph(seed=7, n=5)
    cfg = tiny_config(p=0, s=1, hidden_sizes=(3, 4), layer_norm=True, j=5, h=3)
    model = build(cfg, g)
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(5, 5, 1)))
    got = model.forward(x)

    # rebuild the exact parameter stream: encoder cells, decoder cell,
    # readout kernel, readout bias
    stream = np.random.default_rng(cfg.seed)
    lap = normalized_laplacian(g)
    enc = [
        init_gcgru_weights(stream, cfg.k, 1, 3, layer_norm=True),
        init_gcgru_weights(stream, cfg.k, 3, 4, layer_norm=True),
    ]
    dec = init_gcgru_weights(stream, cfg.k, cfg.d_out, 4, layer_norm=True)
    readout_k = ChebKernel.init(stream, cfg.k, c_in=4, c_out=cfg.d_out)
    readout_b = Tensor(np.zeros(cfg.d_out), requires_grad=True)

    seq = x
    for w in enc:
        seq = dilated_layer_forward(w, lap, seq, 1)
    h0 = GCGRUState(T.select_step(seq, cfg.j - 1))
    go = Tensor(np.zeros((5, cfg.d_out)))
    readout = lambda h: T.add_bias(cheb_conv(readout_k, lap, h), readout_b)
    want = decode(dec, lap, h0, cfg.h, go, readout)

    assert np.array_equal(got.data, want.data)  # bit-identical


def test_end_to_end_gradients_small():
    g = tiny_graph(seed=8, n=4)
    cfg = tiny_config(p=1, s=2, hidden_sizes=(2, 3), j=3, h=2, layer_norm=True,
                      unpool_mode="weighted_deconv")
    model = build(cfg, g)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 4, 1)))
    target = Tensor(rng.normal(size=(2, 4, 1)))
    params = model.trainable_params()

    check_gradients(
        lambda: loss(model.forward(x), target), params, rel_tol=1e-4, max_checks=2
    )


def checkpoint_roundtrip(tmp_path, cfg, g):
    model = build(cfg, g)
    # make the buffers nontrivial so the roundtrip covers them
    model.norm_mean.data[...] = 1.25
    model.norm_std.data[...] = 0.5
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(model, path)
    return model, path


def test_checkpoint_roundtrip_bitwise(tmp_path):
    g = tiny_graph(seed=9)
    cfg = tiny_config(unpool_mode="weighted_deconv", layer_norm=True)
    model, path = checkpoint_roundtrip(str(tmp_path), cfg, g)
    loaded = load_checkpoint(path, g)
    assert loaded.config == cfg
    for (name_a, ta), (name_b, tb) in zip(model.params.entries, loaded.params.entries):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)
    assert read_checkpoint_config(path) == cfg


def test_checkpoint_rejects_corruption(tmp_path):
    g = tiny_graph(seed=10)
    _, path = checkpoint_roundtrip(str(tmp_path), tiny_config(), g)
    raw = open(path, "rb").read()
    assert raw[:4] == CHECKPOINT_MAGIC

    bad_magic = os.path.join(tmp_path, "bad_magic.ckpt")
    open(bad_magic, "wb").write(b"NOPE" + raw[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic, g)

    truncated = os.path.join(tmp_path, "trunc.ckpt")
    open(truncated, "wb").write(raw[: len(raw) - 9])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated, g)

    padded = os.path.join(tmp_path, "padded.ckpt")
    open(padded, "wb").write(raw + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(padded, g)


@pytest.mark.parametrize("name, value, message", [
    ("enc0.w_z", np.nan, "holds NaN or inf"),
    ("enc0.w_z", -np.inf, "holds NaN or inf"),
    ("norm.std", np.nan, "holds NaN or inf"),
    ("norm.std", 0.0, "not above 0"),
    ("norm.std", -0.5, "not above 0"),
])
def test_checkpoint_rejects_a_bad_tensor_naming_file_and_tensor(tmp_path, name, value, message):
    g = tiny_graph(seed=12)
    model = build(tiny_config(), g)
    dict(model.params.entries)[name].data.flat[0] = value
    path = os.path.join(tmp_path, "bad.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=f"^{re.escape(path)}: tensor {name} .*{message}"):
        load_checkpoint(path, g)


def test_checkpoint_rejects_version_and_shape_mismatch(tmp_path):
    import struct

    g = tiny_graph(seed=11)
    _, path = checkpoint_roundtrip(str(tmp_path), tiny_config(), g)
    raw = bytearray(open(path, "rb").read())

    bumped = os.path.join(tmp_path, "version.ckpt")
    other = bytearray(raw)
    other[4:8] = struct.pack("<I", 999)
    open(bumped, "wb").write(bytes(other))
    with pytest.raises(CheckpointError):
        load_checkpoint(bumped, g)

    # corrupt the first stored tensor's leading extent
    config_len = struct.unpack("<I", raw[8:12])[0]
    off = 12 + config_len
    name_len = struct.unpack("<I", raw[off : off + 4])[0]
    extent_off = off + 4 + name_len + 4  # skip name and rank
    extent = struct.unpack("<I", raw[extent_off : extent_off + 4])[0]
    raw[extent_off : extent_off + 4] = struct.pack("<I", extent + 1)
    warped = os.path.join(tmp_path, "shape.ckpt")
    open(warped, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(warped, g)


def test_interrupted_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    from stunet import model as model_module

    g = tiny_graph(seed=14)
    _, path = checkpoint_roundtrip(str(tmp_path), tiny_config(), g)
    before = open(path, "rb").read()
    real_open = open

    class HalfWriter:
        """A file that takes half the checkpoint's bytes, then fails."""

        def __init__(self, fh):
            self.fh, self.room = fh, len(before) // 2

        def write(self, data):
            if len(data) > self.room:
                self.fh.write(data[: self.room])
                raise OSError("no space left on device")
            self.room -= len(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(
        model_module, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError):
        save_checkpoint(build(tiny_config(seed=5), g), path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_checkpoint_weights_are_graph_agnostic(tmp_path):
    # kernel parameters carry no node extent, so a checkpoint reloads cleanly
    # against a different graph of any size
    g = tiny_graph(seed=12)
    model, path = checkpoint_roundtrip(str(tmp_path), tiny_config(), g)
    other = random_graph(np.random.default_rng(2), 9, density=0.7)
    loaded = load_checkpoint(path, other)
    for (_, ta), (_, tb) in zip(model.params.entries, loaded.params.entries):
        assert np.array_equal(ta.data, tb.data)
    out = loaded.forward(Tensor(np.zeros((4, 9, 1))))
    assert out.shape == (2, 9, 1)


def test_forward_drops_nothing_from_tape_between_calls():
    model = build(tiny_config(), tiny_graph())
    x = Tensor(np.random.default_rng(6).normal(size=(4, 6, 1)))
    target = Tensor(np.random.default_rng(7).normal(size=(2, 6, 1)))
    T.reset_tape()
    out = loss(model.forward(x), target)
    grads = T.grads(out, model.trainable_params())
    assert any(np.abs(g).max() > 0 for g in grads)


def test_config_lines_keep_the_stored_format():
    assert STUNetConfig().to_lines() == (
        "k=3\np=2\ns=2\nhidden_sizes=64,64,64\npool_mode=max\nunpool_mode=direct_copy\n"
        "layer_norm=1\nj=12\nh=3\nd_in=1\nd_out=1\nseed=0\n"
    )
    cfg = STUNetConfig(
        k=2, p=1, s=3, hidden_sizes=(3, 4, 5), pool_mode="mean",
        unpool_mode="weighted_deconv", layer_norm=False, j=7, h=2, d_in=2, d_out=3, seed=11,
    )
    assert cfg.to_lines() == (
        "k=2\np=1\ns=3\nhidden_sizes=3,4,5\npool_mode=mean\nunpool_mode=weighted_deconv\n"
        "layer_norm=0\nj=7\nh=2\nd_in=2\nd_out=3\nseed=11\n"
    )
    assert STUNetConfig.from_lines(cfg.to_lines()) == cfg


def test_checkpoint_config_errors_name_file_and_field(tmp_path):
    g = tiny_graph(seed=13)
    _, path = checkpoint_roundtrip(str(tmp_path), tiny_config(), g)
    raw = open(path, "rb").read()
    assert raw[12:16] == b"k=2\n"  # the config block opens the file after the header
    for name, field_text, message in (
        ("value.ckpt", b"k=x\n", r"value\.ckpt: config field k='x'"),
        ("missing.ckpt", b"K=2\n", r"missing\.ckpt: config block missing key 'k'"),
        ("utf8.ckpt", b"k=\xff\n", r"utf8\.ckpt: .*utf-8"),
    ):
        bad = os.path.join(str(tmp_path), name)
        open(bad, "wb").write(raw[:12] + field_text + raw[16:])
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad, g)


def test_batch1_forecast_op_budget(monkeypatch):
    # the benchmark model config on an 8x8 grid: a change that splits the
    # fused cell step back into separate ops exceeds this budget
    from stunet import graph
    from stunet.data import knn_grid_graph
    from stunet.training import predict_windows

    model = build(STUNetConfig(k=3, p=2, s=2, hidden_sizes=(32, 32, 32)), knn_grid_graph(8, 8))
    calls = []
    apply_op = T.apply_op

    def counting(*args):
        calls.append(1)
        return apply_op(*args)

    for owner in (T, graph):
        monkeypatch.setattr(owner, "apply_op", counting)
    window = np.random.default_rng(0).normal(size=(1, model.config.j, 64, 1))
    predict_windows(model, window, batch_size=1)
    assert 0 < len(calls) <= 300


# -- checkpoint version 2: the stored partition and lambda_max --------------


def two_level_config():
    return tiny_config(p=2, hidden_sizes=(3, 4, 5))


def forecast_bytes(model):
    x = np.random.default_rng(3).normal(size=(model.config.j, model.graph.n, 1))
    return model.forward(Tensor(x)).data.tobytes()


def assert_same_graph_structure(a, b):
    if a.pm is None or b.pm is None:
        assert a.pm is b.pm
    else:
        assert len(a.pm.parents) == len(b.pm.parents)
        for pa, pb in zip(a.pm.parents, b.pm.parents):
            assert pa.tobytes() == pb.tobytes()
        for ga, gb in zip(a.pm.graphs, b.pm.graphs):
            assert ga.weights.tobytes() == gb.weights.tobytes()
    assert [lap.lambda_max for lap in a.laps] == [lap.lambda_max for lap in b.laps]


def count_rebuilds(monkeypatch):
    """Calls of the partition search and the eigensolve, by name."""
    from stunet import model as model_module

    calls = []
    partition, eigvalsh = model_module.multilevel_partition, np.linalg.eigvalsh

    def counted(name, fn):
        return lambda *a, **kw: calls.append(name) or fn(*a, **kw)

    monkeypatch.setattr(model_module, "multilevel_partition", counted("partition", partition))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    return calls


@pytest.mark.parametrize("p", [2, 0])
def test_v2_load_on_the_training_graph_reuses_partition_and_lambda_max(tmp_path, monkeypatch, p):
    g = knn_grid_graph(3, 4)
    cfg = two_level_config() if p else tiny_config(p=0, s=1)
    model, path = checkpoint_roundtrip(str(tmp_path), cfg, g)
    calls = count_rebuilds(monkeypatch)
    loaded = load_checkpoint(path, g)
    assert calls == []
    assert_same_graph_structure(loaded, model)
    assert forecast_bytes(loaded) == forecast_bytes(model)


def test_version1_checkpoint_loads_through_the_rebuild(monkeypatch):
    r"""``data/v1_tiny.ckpt`` holds no graph block. The version 1 writer made it:
    at commit 52dcc01, from the repository root,

        PYTHONPATH=src python -c "from stunet.data import knn_grid_graph; \
        from stunet.model import STUNetConfig, build, save_checkpoint; \
        cfg = STUNetConfig(k=2, p=1, s=2, hidden_sizes=(3, 4), \
        unpool_mode='weighted_deconv', j=4, h=2); \
        save_checkpoint(build(cfg, knn_grid_graph(2, 3)), 'tests/data/v1_tiny.ckpt')"
    """
    path = os.path.join(os.path.dirname(__file__), "data", "v1_tiny.ckpt")
    assert open(path, "rb").read()[4:8] == b"\x01\x00\x00\x00"
    g = knn_grid_graph(2, 3)
    calls = count_rebuilds(monkeypatch)
    loaded = load_checkpoint(path, g)
    assert calls == ["partition", "eigvalsh", "eigvalsh"]
    fresh = build(loaded.config, g)
    assert loaded.config == STUNetConfig(
        k=2, p=1, s=2, hidden_sizes=(3, 4), unpool_mode="weighted_deconv", j=4, h=2
    )
    for (name_a, ta), (name_b, tb) in zip(loaded.params.entries, fresh.params.entries):
        assert name_a == name_b and ta.data.tobytes() == tb.data.tobytes()
    assert forecast_bytes(loaded) == forecast_bytes(fresh)


@pytest.mark.parametrize("n", [12, 9])
def test_v2_load_on_another_graph_equals_a_fresh_build(tmp_path, n):
    _, path = checkpoint_roundtrip(str(tmp_path), two_level_config(), knn_grid_graph(3, 4))
    other = random_graph(np.random.default_rng(n), n, density=0.5)
    loaded = load_checkpoint(path, other)
    fresh = build(two_level_config(), other)
    for (_, stored), (_, t) in zip(loaded.params.entries, fresh.params.entries):
        t.data[...] = stored.data
    assert_same_graph_structure(loaded, fresh)
    assert forecast_bytes(loaded) == forecast_bytes(fresh)


def test_damaged_graph_block_is_rejected(tmp_path):
    g = knn_grid_graph(3, 4)
    model, path = checkpoint_roundtrip(str(tmp_path), two_level_config(), g)
    raw = open(path, "rb").read()
    lam = len(raw) - 8 * len(model.laps)  # the block ends with lambda_max per level
    last = lam - 4 * model.pm.graphs[-2].n  # preceded by the last level's parents
    count_at = lam - sum(4 + 4 * fine.n for fine in model.pm.graphs[:-1]) - 4
    other = random_graph(np.random.default_rng(1), 12, density=0.5)
    first = 12 + int.from_bytes(raw[8:12], "little")  # past the config block
    nan = np.array([np.nan], dtype="<f8").tobytes()
    gap = np.array([2] + [0] * ((lam - last) // 4 - 1), dtype="<u4").tobytes()  # none in 1
    for name, data, message in (
        ("cut_lambda.ckpt", raw[: lam + 4], r"truncated in graph block lambda_max"),
        ("cut_parents.ckpt", raw[: last + 2], r"truncated in graph block parents\[1\]"),
        ("cut_tensor.ckpt", raw[: first + 40], r"truncated in tensor enc0\.w_z"),
        ("bad_id.ckpt", raw[:last] + b"\x63" + raw[last + 1 :],
         r"graph block parents\[1\]: parent id 99 out of range"),
        ("empty_super.ckpt", raw[:last] + gap + raw[lam:],
         r"graph block parents\[1\]: supernode 1 has no members"),
        ("nan_lambda.ckpt", raw[:lam] + nan + raw[lam + 8 :],
         r"lambda_max \[nan .*\] not all finite and > 0"),
        ("count.ckpt", raw[:count_at] + b"\x01\x00\x00\x00" + raw[count_at + 4 :],
         r"graph block holds 1 parent arrays, p=2"),
        ("trailing.ckpt", raw + b"\x00", r"trailing bytes"),
    ):
        bad = os.path.join(str(tmp_path), name)
        open(bad, "wb").write(data)
        for graph in (g, other):
            with pytest.raises(CheckpointError, match=re.escape(bad) + ": .*" + message):
                load_checkpoint(bad, graph)


def test_a_recorded_forward_keeps_only_what_its_pullbacks_read(monkeypatch):
    # outputs that no pullback reads die with the forward's locals, and
    # backward consumes the tape, so traced memory returns to its start
    import tracemalloc
    import weakref

    from stunet import model as model_module
    from stunet import recurrent

    cfg = tiny_config(k=3, hidden_sizes=(8, 8), pool_mode="max", unpool_mode="weighted_deconv",
                      j=6, h=2)
    net = build(cfg, knn_grid_graph(4, 8))
    refs = {}

    def keep(name, fn):
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            refs.setdefault(name, weakref.ref(out.data))
            return out
        return wrapper

    monkeypatch.setattr(model_module, "unpool", keep("unpool", model_module.unpool))
    monkeypatch.setattr(recurrent.FoldedCell, "input_side",
                        keep("input side", recurrent.FoldedCell.input_side))
    # every Chebyshev basis, of an input side, a readout or a cell step's
    # state, is rebuilt in backward; the pool and fuse outputs, which input
    # sides filter, are read by their pullbacks and so stay
    bases = track_bases(monkeypatch)
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 8, 32, 1)))
    y = Tensor(rng.normal(size=(2, 8, 32, 1)))
    params = net.trainable_params()
    T.grads(loss(net.forward(x, targets=y), y), params)  # first-call caches
    refs.clear()
    bases.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pred = net.forward(x, targets=y)
        dead = {name: ref() is None for name, ref in refs.items()}
        dead["every basis"] = bool(bases) and all(ref() is None for ref in bases)
        recorded = tracemalloc.get_traced_memory()[0] - before
        got = T.grads(loss(pred, y), params)
        del pred, got
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dead == {"input side": True, "unpool": True, "every basis": True}
    assert len(T.tape()) == 0
    # what is left is small objects the interpreter keeps on its free lists
    assert after < recorded / 100, (recorded, after)


@pytest.mark.parametrize("mode, bound", [("direct_copy", 3.8), ("ordered_deconv", 3.8),
                                         ("weighted_deconv", 5.0)])
def test_a_no_grad_forward_builds_each_skip_join_in_place(mode, bound):
    # the join is built in place, so the unpooled copy and the encoder output
    # are never live next to it (4.25 and 5.72 units when they were)
    units = no_grad_forward_units(mode)
    assert units <= bound, units


@functools.lru_cache(maxsize=None)
def no_grad_forward_units(mode):
    """The traced peak of a no-grad forward of a 12x12-grid U model above the
    start, in units of one sequence-sized array (J * W * N * d_h float64s).
    Measured once per unpool mode."""
    import tracemalloc

    cfg = STUNetConfig(k=3, p=2, s=2, hidden_sizes=(32, 32, 32), j=12, h=3, unpool_mode=mode)
    g = knn_grid_graph(12, 12)
    net = build(cfg, g)
    x = Tensor(np.random.default_rng(4).normal(size=(12, 8, g.n, 1)))
    with T.no_grad():
        net.forward(x)  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak / (12 * 8 * g.n * 32 * 8)


@functools.lru_cache(maxsize=None)
def recorded_forward_units(mode):
    """(held, peak): what a recorded forward of a 12x12-grid U model holds
    for backward, and the peak through backward, by tracemalloc above the
    start, in units of one sequence-sized array (J * W * N * d_h float64s).
    Measured once per unpool mode; the tests that bound it share the figure."""
    import tracemalloc

    cfg = STUNetConfig(k=3, p=2, s=2, hidden_sizes=(32, 32, 32), j=12, h=3, unpool_mode=mode)
    g = knn_grid_graph(12, 12)
    net = build(cfg, g)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(12, 8, g.n, 1)))
    y = Tensor(rng.normal(size=(3, 8, g.n, 1)))
    params = net.trainable_params()
    T.grads(loss(net.forward(x, targets=y), y), params)  # first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pred = net.forward(x, targets=y)
        held = tracemalloc.get_traced_memory()[0] - before
        got = T.grads(loss(pred, y), params)
        peak = tracemalloc.get_traced_memory()[1] - before
        del pred, got
    finally:
        tracemalloc.stop()
    unit = 12 * 8 * g.n * 32 * 8
    return held / unit, peak / unit


@pytest.mark.parametrize("mode, bound", [("direct_copy", 32.0), ("ordered_deconv", 32.0),
                                         ("weighted_deconv", 34.0)])
def test_a_recorded_cell_step_keeps_no_basis(mode, bound):
    # backward rebuilds each cell step's two state bases, so no step keeps
    # them (40.9 to 42.6 units held and 41.9 to 43.6 at peak when each step
    # kept blocks 1..K-1 of both)
    held, peak = recorded_forward_units(mode)
    assert held <= bound and peak <= bound, (held, peak)


@pytest.mark.parametrize("mode, bound", [("direct_copy", 27.0), ("ordered_deconv", 27.0),
                                         ("weighted_deconv", 29.0)])
def test_a_recorded_filter_keeps_no_basis(mode, bound):
    # backward also rebuilds each input side's and readout's basis, so no op
    # keeps one (23.1 to 24.8 units held and 24.9 to 26.6 at peak; 28.4 to
    # 30.1 and 29.5 to 31.1 when input sides and readouts kept theirs)
    held, peak = recorded_forward_units(mode)
    assert held <= bound and peak <= bound, (held, peak)


@pytest.mark.parametrize("mode", ["direct_copy", "ordered_deconv", "weighted_deconv"])
def test_a_recorded_forward_keeps_no_layer_norm_statistics_or_lift_rows(mode):
    # backward rebuilds each cell step's layer-norm statistics, and each
    # weighted_deconv level's mixing-product input, from arrays it holds
    # anyway (23.1 to 24.8 units held and 24.9 to 26.6 at peak when the
    # steps and levels kept them)
    held, peak = recorded_forward_units(mode)
    assert held <= 20.0 and peak <= 22.5, (held, peak)
