"""Datasets, loaders, windows, normalization, and the synthetic generator."""

import os
import tracemalloc

import numpy as np
import pytest

import dense_reference as ref
from conftest import path_graph, scaling_model
from stunet.data import (
    Normalizer,
    TimeSeriesDataset,
    WindowConfig,
    knn_grid_graph,
    load_adjacency,
    load_series,
    make_windows,
    read_manifest,
    save_adjacency_dense,
    save_series,
    synth_diffusion,
    write_manifest,
)
from stunet.errors import DataError, UsageError
from stunet.graph import Graph


def write(tmp_path, name, text):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def small_dataset(t=20, n=3, d=1, seed=0):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(t, n, d))
    return TimeSeriesDataset(series=series, graph=path_graph(n))


def test_dataset_validation():
    small_dataset()
    with pytest.raises(DataError):
        TimeSeriesDataset(series=np.zeros((5, 4, 1)), graph=path_graph(3))
    bad = np.zeros((5, 3, 1))
    bad[2, 1, 0] = np.nan
    with pytest.raises(DataError):
        TimeSeriesDataset(series=bad, graph=path_graph(3))
    with pytest.raises(DataError):
        TimeSeriesDataset(
            series=np.zeros((5, 3, 1)), graph=path_graph(3), splits=(0.5, 0.2, 0.2)
        )


def test_split_ranges_are_contiguous():
    ds = small_dataset(t=20)
    tr = ds.split_range("train")
    va = ds.split_range("val")
    te = ds.split_range("test")
    assert tr == (0, 14)  # int(20*0.7)
    assert va == (14, 16)  # int(20*0.8)
    assert te == (16, 20)
    with pytest.raises(UsageError):
        ds.split_range("dev")


def test_window_count_formula_holds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = int(rng.integers(4, 40))
        j = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        series = rng.normal(size=(t, 2, 1))
        ds = TimeSeriesDataset(series=series, graph=path_graph(2), splits=(1.0, 0.0, 0.0))
        if t >= j + h:
            ins, tgs = make_windows(ds, WindowConfig(j, h), "train")
            assert ins.shape[0] == t - j - h + 1
            assert tgs.shape == (ins.shape[0], h, 2, 1)
        else:
            with pytest.raises(DataError):
                make_windows(ds, WindowConfig(j, h), "train")


def test_window_counts_and_contents():
    series = np.arange(15.0).reshape(5, 3)[:, :, None] * 0  # zeros, shape (5,3,1)
    series = np.arange(5.0)[:, None, None] * np.ones((1, 3, 1))
    ds = TimeSeriesDataset(series=series, graph=path_graph(3), splits=(1.0, 0.0, 0.0))
    ins, tgs = make_windows(ds, WindowConfig(3, 1), "train")
    assert ins.shape == (2, 3, 3, 1) and tgs.shape == (2, 1, 3, 1)
    # window 0 inputs are rows 0..2, target is row 3
    assert np.array_equal(ins[0, :, 0, 0], [0.0, 1.0, 2.0])
    assert tgs[0, 0, 0, 0] == 3.0

    exact = TimeSeriesDataset(
        series=series[:4], graph=path_graph(3), splits=(1.0, 0.0, 0.0)
    )
    one_in, one_tg = make_windows(exact, WindowConfig(3, 1), "train")
    assert one_in.shape[0] == 1

    with pytest.raises(DataError):
        make_windows(exact, WindowConfig(4, 1), "train")


def test_windows_are_read_only_views_with_the_bytes_of_stacked_copies():
    rng = np.random.default_rng(8)
    ds = TimeSeriesDataset(series=rng.normal(size=(80, 3, 2)), graph=path_graph(3))
    wc = WindowConfig(4, 3)
    for split in ("train", "val", "test"):
        rows = ds.split_series(split)
        count = rows.shape[0] - wc.j - wc.h + 1
        ins, tgs = make_windows(ds, wc, split)
        want_in = np.stack([rows[i : i + wc.j] for i in range(count)])
        want_tg = np.stack([rows[i + wc.j : i + wc.j + wc.h] for i in range(count)])
        for got, want in ((ins, want_in), (tgs, want_tg)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            assert np.shares_memory(got, ds.series) and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0, 0, 0] = 1.0


def test_a_window_map_reads_only_the_splits_rows():
    # the map sees the split's rows alone, and its windows have the bytes of
    # windows cut from the whole series mapped first
    rng = np.random.default_rng(9)
    ds = TimeSeriesDataset(series=rng.normal(size=(80, 3, 2)), graph=path_graph(3))
    mapped = TimeSeriesDataset(series=ds.series * 3.0 - 1.0, graph=ds.graph)
    wc = WindowConfig(4, 3)
    for split in ("train", "val", "test"):
        seen = []

        def fn(rows):
            seen.append(rows.shape)
            return rows * 3.0 - 1.0

        got = make_windows(ds, wc, split, fn)
        want = make_windows(mapped, wc, split)
        assert seen == [ds.split_series(split).shape]
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()
            assert not np.shares_memory(g, ds.series)


def test_normalizer_population_statistics():
    norm = Normalizer().fit(np.array([1.0, 2.0, 3.0])[:, None, None])
    assert abs(norm.mean[0] - 2.0) < 1e-15
    assert abs(norm.std[0] - np.sqrt(2.0 / 3.0)) < 1e-15


def test_normalizer_roundtrip_and_fallback():
    # the statistics are applied and inverted by the model that holds them
    rng = np.random.default_rng(1)
    x = rng.normal(loc=3.0, scale=2.0, size=(50, 4, 2))
    model = scaling_model(Normalizer().fit(x), 4)
    scaled = model.normalize(x)
    assert np.abs(scaled.mean(axis=(0, 1))).max() < 1e-12
    assert np.abs(scaled.std(axis=(0, 1)) - 1.0).max() < 1e-12
    assert np.abs(model.denormalize(scaled) - x).max() < 1e-12

    const = np.full((10, 2, 1), 5.0)
    flat = Normalizer().fit(const)
    assert flat.std[0] == 1.0
    assert np.abs(scaling_model(flat, 2).normalize(const)).max() == 0.0


def test_load_adjacency_dense(tmp_path):
    path = write(tmp_path, "adj.csv", "0,1\n1,0\n")
    g = load_adjacency(path)
    assert g.n == 2 and g.weights[0, 1] == 1.0

    asym = write(tmp_path, "asym.csv", "0,1\n0.5,0\n")
    with pytest.raises(DataError):
        load_adjacency(asym)

    neg = write(tmp_path, "neg.csv", "0,-1\n-1,0\n")
    with pytest.raises(DataError):
        load_adjacency(neg)

    nan = write(tmp_path, "nan.csv", "0,nan\nnan,0\n")
    with pytest.raises(DataError):
        load_adjacency(nan)

    ragged = write(tmp_path, "ragged.csv", "0,1\n1\n")
    with pytest.raises(DataError):
        load_adjacency(ragged)


def test_load_adjacency_tolerates_tiny_asymmetry(tmp_path):
    path = write(tmp_path, "tiny.csv", f"0,{1 + 4e-9}\n1,0\n")
    g = load_adjacency(path)
    assert abs(g.weights[0, 1] - (1 + 2e-9)) < 1e-12  # symmetrized average


def test_load_adjacency_edge_list(tmp_path):
    path = write(tmp_path, "edges.csv", "i,j,w\n0,1,5\n1,0,2\n1,2,1\n")
    g = load_adjacency(path, "edge_list")
    assert g.n == 3
    assert g.weights[0, 1] == 5.0  # symmetrized by max
    assert g.weights[1, 2] == 1.0

    with pytest.raises(DataError):
        load_adjacency(write(tmp_path, "negid.csv", "-1,0,1\n"), "edge_list")
    with pytest.raises(DataError):
        load_adjacency(write(tmp_path, "negw.csv", "0,1,-3\n"), "edge_list")


def test_load_adjacency_distance_gaussian(tmp_path):
    path = write(tmp_path, "dist.csv", "0,1,0\n1,2,1\n0,2,100\n")
    g = load_adjacency(path, "distance_gaussian", sigma=1.0, eps=1e-4)
    assert g.weights[0, 1] == 1.0  # exp(0)
    assert abs(g.weights[1, 2] - np.exp(-1.0)) < 1e-15
    assert g.weights[0, 2] == 0.0  # dropped below eps

    with pytest.raises(UsageError):
        load_adjacency(path, "sparse_bin")


def test_series_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    series = rng.normal(size=(7, 3, 2))
    path = os.path.join(str(tmp_path), "series.csv")
    save_series(path, series)
    back = load_series(path, 3, 2)
    assert np.array_equal(back, series)

    with pytest.raises(DataError):
        load_series(path, 4, 2)  # wrong column count


def test_adjacency_roundtrip_bitwise(tmp_path):
    g = knn_grid_graph(2, 3)
    path = os.path.join(str(tmp_path), "adj.csv")
    save_adjacency_dense(path, g)
    back = load_adjacency(path)
    assert np.array_equal(back.weights, g.weights)


def test_manifest_roundtrip(tmp_path):
    path = os.path.join(str(tmp_path), "manifest.txt")
    write_manifest(path, {"seed": 3, "alpha": 0.6, "mode": "row"})
    fields = read_manifest(path)
    assert fields == {"seed": "3", "alpha": "0.6", "mode": "row"}
    # keys are emitted sorted for reproducible bytes
    lines = open(path).read().splitlines()
    assert lines == sorted(lines)


def test_grid_graph_examples():
    assert len(knn_grid_graph(1, 2).edges()) == 1
    assert len(knn_grid_graph(2, 2).edges()) == 4
    g = knn_grid_graph(3, 3)
    center = 4  # row-major middle node
    assert g.degrees()[center] == 4.0
    with pytest.raises(UsageError):
        knn_grid_graph(0, 3)


def test_synth_diffusion_basic_properties():
    g = knn_grid_graph(2, 3)
    a = synth_diffusion(g, t=50, alpha=0.6, noise_sigma=0.05, seed=9)
    b = synth_diffusion(g, t=50, alpha=0.6, noise_sigma=0.05, seed=9)
    assert np.array_equal(a.series, b.series)  # same seed, same series
    assert a.series.shape == (50, 6, 1)
    with pytest.raises(UsageError):
        synth_diffusion(g, t=50, alpha=1.0, noise_sigma=0.0, seed=0)
    with pytest.raises(UsageError):
        synth_diffusion(g, t=1, alpha=0.5, noise_sigma=0.0, seed=0)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan"), float("inf")])
def test_synth_diffusion_rejects_a_bad_noise_sigma(bad):
    with pytest.raises(UsageError, match=f"noise_sigma must be finite and >= 0, got {bad}"):
        synth_diffusion(knn_grid_graph(2, 3), t=10, alpha=0.5, noise_sigma=bad, seed=0)


@pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
def test_synth_diffusion_rejects_a_bad_interval(bad):
    with pytest.raises(UsageError, match=f"interval_minutes must be finite and > 0, got {bad}"):
        synth_diffusion(knn_grid_graph(2, 3), t=10, alpha=0.5, noise_sigma=0.0, seed=0,
                        interval_minutes=bad)


def test_synth_diffusion_alpha_zero_is_constant():
    g = knn_grid_graph(2, 2)
    ds = synth_diffusion(g, t=10, alpha=0.0, noise_sigma=0.0, seed=3)
    assert np.abs(ds.series - ds.series[0]).max() == 0.0


def test_synth_diffusion_contracts_toward_average():
    # noiseless averaging never widens the value range on a connected graph
    g = knn_grid_graph(3, 3)
    ds = synth_diffusion(g, t=40, alpha=0.7, noise_sigma=0.0, seed=4)
    spread = ds.series[:, :, 0].max(axis=1) - ds.series[:, :, 0].min(axis=1)
    assert all(b <= a + 1e-12 for a, b in zip(spread, spread[1:]))


def test_synth_diffusion_symmetric_mode_conserves_mean():
    g = knn_grid_graph(3, 4)
    ds = synth_diffusion(g, t=30, alpha=0.5, noise_sigma=0.0, seed=5, mode="symmetric")
    means = ds.series[:, :, 0].mean(axis=1)
    assert np.abs(means - means[0]).max() < 1e-10


DIFFUSION_GRAPHS = {
    "grid4x8": knn_grid_graph(4, 8),
    "grid8x8": knn_grid_graph(8, 8),
    "grid24x24": knn_grid_graph(24, 24),
    # node 4 is isolated, and the weights are not dyadic
    "isolated": Graph.from_edges(6, [(0, 1, 0.3), (1, 2, 0.7), (2, 3, 1.9), (0, 3, 0.1),
                                     (3, 5, 2.3)]),
}


@pytest.mark.parametrize("mode", ["row", "symmetric"])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
@pytest.mark.parametrize("name", list(DIFFUSION_GRAPHS))
def test_synth_diffusion_equals_the_dense_operator_to_the_last_bits(name, noise_sigma, mode):
    # the edge sums add each row in another order than a dense product does,
    # so the series may differ from it in the last bits only
    g = DIFFUSION_GRAPHS[name]
    for seed in range(3):
        got = synth_diffusion(g, 500, 0.6, noise_sigma, seed, mode).series
        want = ref.diffusion_series(g, 500, 0.6, noise_sigma, seed, mode)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_synth_diffusion_isolated_node_keeps_its_value():
    g = DIFFUSION_GRAPHS["isolated"]
    for mode in ("row", "symmetric"):
        x = synth_diffusion(g, 20, 0.6, 0.0, 2, mode).series[:, 4, 0]
        assert np.all(x == x[0])


def test_synth_diffusion_builds_no_n_by_n_array():
    g = knn_grid_graph(64, 64)  # one dense 4096 x 4096 matrix is 134 MB
    for mode in ("row", "symmetric"):
        tracemalloc.start()
        try:
            synth_diffusion(g, 10, 0.6, 0.05, 0, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (mode, peak)


def test_data_errors_carry_file_and_line(tmp_path):
    path = write(tmp_path, "broken.csv", "0,1\noops,0\n")
    with pytest.raises(DataError) as err:
        load_adjacency(path)
    assert "broken.csv:2" in str(err.value)


def test_row_parse_errors_name_line_and_token(tmp_path):
    path = write(tmp_path, "adj.csv", "0, 1\n1 ,inf\n")
    with pytest.raises(DataError, match=r"adj\.csv:2: non-finite value 'inf'"):
        load_adjacency(path)
    path = write(tmp_path, "series.csv", "a,b\n1.0,2.0\n3.0, 4x \n")
    with pytest.raises(DataError, match=r"series\.csv:3: bad number '4x'"):
        load_series(path, 2)


@pytest.mark.parametrize("fmt", ["edge_list", "distance_gaussian"])
def test_edge_lists_reject_non_integer_node_ids(tmp_path, fmt):
    path = write(tmp_path, "ids.csv", "i,j,w\n0,1,1\n1.5,2,1\n")
    with pytest.raises(DataError, match=r"ids\.csv:3: bad node id"):
        load_adjacency(path, fmt)


def test_edge_list_drops_self_loops_but_counts_their_nodes(tmp_path):
    path = write(tmp_path, "loops.csv", "0,0,3\n0,1,2\n1,0,5\n2,2,1\n")
    g = load_adjacency(path, "edge_list")
    assert g.weights.tolist() == [[0.0, 5.0, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
def test_distance_gaussian_rejects_non_positive_sigma(tmp_path, sigma):
    path = write(tmp_path, "dist.csv", "0,1,1\n1,2,2\n")
    with pytest.raises(DataError, match="sigma"):
        load_adjacency(path, "distance_gaussian", sigma=sigma)


@pytest.mark.parametrize("fmt", ["edge_list", "distance_gaussian"])
def test_numeric_first_line_is_an_edge_not_a_header(tmp_path, fmt):
    path = write(tmp_path, "first.csv", "1.5,2,1\n0,1,1\n")
    with pytest.raises(DataError, match=r"first\.csv:1: bad node id"):
        load_adjacency(path, fmt)
    # a header still needs neither of its first two tokens to be a number
    path = write(tmp_path, "head.csv", "# comment\nfrom,to,w\n0,1,1\n")
    assert load_adjacency(path, fmt).n == 2


# tokens the one-call parser must read exactly as float() does; 1_0 is one
# only the row parser accepts, so a table holding it takes the row path
FUZZ_TOKENS = ["0.0", "-0.0", "+0.0", "+1", ".5", "5.", "1e-400", "4.9e-324", " 2.5",
               "3\t", "\t-4 ", " \t1e5", "-.25e-3", "1.7976931348623157e308", "1_0"]


def test_one_call_parse_matches_the_row_parser(tmp_path):
    from stunet.data import _parse_float

    rng = np.random.default_rng(0)
    for trial in range(60):
        pool = FUZZ_TOKENS if trial % 2 else FUZZ_TOKENS[:-1]
        grid = [[str(t) for t in rng.choice(pool, size=4)] for _ in range(5)]
        path = write(tmp_path, "fuzz.csv", "".join(",".join(r) + "\n" for r in grid))
        rows = [[_parse_float(t.strip(), path, k) for t in r] for k, r in enumerate(grid)]
        assert load_series(path, 4).tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("row, message", [
    ("1.0,nan", r"s\.csv:2: non-finite value 'nan'"),
    ("-inf,1.0", r"s\.csv:2: non-finite value '-inf'"),
    ("1.0,", r"s\.csv:2: bad number ''"),
    ("1.0", r"s\.csv:2: expected 2 columns, got 1"),
    ("1.0,2.0,3.0", r"s\.csv:2: expected 2 columns, got 3"),
    ("0x10,1.0", r"s\.csv:2: bad number '0x10'"),
])
def test_bad_rows_raise_the_row_parser_error(tmp_path, row, message):
    path = write(tmp_path, "s.csv", f"0.5,1.5\n{row}\n")
    with pytest.raises(DataError, match=message + "$"):
        load_series(path, 2)
    with pytest.raises(DataError, match=message + "$"):
        load_adjacency(path)


def test_a_first_line_holding_a_number_is_data_not_a_header(tmp_path):
    path = write(tmp_path, "s.csv", "1..5,2.0\n3.0,4.0\n5.0,6.0\n")
    with pytest.raises(DataError, match=r"s\.csv:1: bad number '1\.\.5'"):
        load_series(path, 2)
    path = write(tmp_path, "adj.csv", "x,1\n1,0\n")
    with pytest.raises(DataError, match=r"adj\.csv:1: bad number 'x'"):
        load_adjacency(path)
    # a header is a first line none of whose tokens is a number
    path = write(tmp_path, "head.csv", "# comment\nfrom,to\n0,1\n1,0\n")
    assert load_adjacency(path).n == 2
    assert load_series(path, 2).shape == (2, 2, 1)
    with pytest.raises(DataError, match=r"only\.csv: no data rows"):
        load_series(write(tmp_path, "only.csv", "a,b\n"), 2)
