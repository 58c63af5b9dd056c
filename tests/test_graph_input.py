"""One path from an adjacency file to a Graph, checked against the per-line
list loader, the per-edge ``from_edges`` loop and the two-validator dense
loader it replaced, kept here as references."""

import os

import numpy as np
import pytest

from stunet.data import (
    _data_lines,
    _is_number,
    _parse_float,
    _parse_table,
    knn_grid_graph,
    load_adjacency,
)
from stunet.errors import DataError, StunetError


def reference_from_edges(n, edges):
    """The per-edge loop: parallel entries keep the max weight."""
    w = np.zeros((n, n))
    for i, j, wt in edges:
        w[i, j] = max(w[i, j], wt)
        w[j, i] = w[i, j]
    return w


def reference_load_list(path, fmt, sigma=1.0, eps=0.0):
    """The per-line list loader: weights of an edge or distance list."""
    lines = _data_lines(path)
    if not lines:
        raise DataError(f"{path}: empty adjacency file")
    if fmt == "distance_gaussian" and not sigma > 0:
        raise DataError(f"{path}: distance_gaussian needs sigma > 0, got {sigma}")
    edges = []
    n = 0
    for lineno, line in lines:
        toks = [t.strip() for t in line.split(",")]
        if len(toks) != 3:
            raise DataError(f"{path}:{lineno}: expected `i,j,value`")
        if lineno == lines[0][0] and not any(map(_is_number, toks[:2])):
            continue  # header line
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad node id in {line!r}") from None
        v = _parse_float(toks[2], path, lineno)
        if i < 0 or j < 0:
            raise DataError(f"{path}:{lineno}: negative node id")
        if v < 0:
            raise DataError(f"{path}:{lineno}: negative weight/distance")
        n = max(n, i + 1, j + 1)
        if i == j:
            continue
        if fmt == "distance_gaussian":
            v = float(np.exp(-(v * v) / (sigma * sigma)))
            if v < eps:
                continue
        edges.append((i, j, v))
    if not n:
        raise DataError(f"{path}: no edges parsed")
    return reference_from_edges(n, edges)


def reference_load_dense(path):
    """The dense loader with its own validator ahead of Graph's."""
    lines = _data_lines(path)
    if not lines:
        raise DataError(f"{path}: empty adjacency file")
    w = _parse_table(lines, path)
    if w.shape[0] != w.shape[1]:
        raise DataError(f"{path}: dense adjacency must be square, got {w.shape}")
    gap = np.abs(w - w.T).max(initial=0.0)
    if gap > 1e-8:
        raise DataError(f"{path}: adjacency asymmetric by {gap:.3e}")
    w = 0.5 * (w + w.T)
    if w.size and w.min() < 0:
        raise DataError(f"{path}: negative weight in adjacency")
    np.fill_diagonal(w, 0.0)
    return w + 0.0  # a -0.0 non-edge reads +0.0, as a graph's edge-built weights do


def outcome(load, *args):
    """(weights bytes, None) on success, (error class, text) on failure."""
    try:
        g = load(*args)
    except StunetError as exc:
        return type(exc), str(exc)
    return (g if isinstance(g, np.ndarray) else g.weights).tobytes(), None


def write(tmp_path, name, text):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


WEIGHT_TOKENS = ["0", "-0", "1", "2.5", " 0.75", "1e-3", "3\t", "0.3", "0.55", "12", ".5"]
HEADERS = ["i,j,w", "from, to, dist", "a,b,c"]


def fuzz_list(rng, n=7):
    """Lines of an edge or distance list: both orientations, parallel
    entries, self-loops, comments, blank lines and an optional header."""
    lines = []
    for _ in range(int(rng.integers(1, 14))):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if rng.random() < 0.3:
            i, j = j, i
        lines.append(f"{i},{j},{rng.choice(WEIGHT_TOKENS)}")
        if rng.random() < 0.1:
            lines.append("# a comment")
        if rng.random() < 0.1:
            lines.append("")
    if rng.random() < 0.5:
        lines.insert(0, str(rng.choice(HEADERS)))
    if rng.random() < 0.2:
        lines.insert(0, "# leading comment")
    return lines


KERNELS = [(1.0, 0.0), (0.5, 0.3), (3.0, 0.9), (0.7, 0.0)]


def both_loaders_agree(path):
    for fmt, kernels in (("edge_list", [(1.0, 0.0)]), ("distance_gaussian", KERNELS)):
        for sigma, eps in kernels:
            assert outcome(load_adjacency, path, fmt, sigma, eps) == outcome(
                reference_load_list, path, fmt, sigma, eps
            ), (open(path).read(), fmt, sigma, eps)


def test_valid_lists_load_to_the_reference_weights(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(150):
        path = write(tmp_path, "list.csv", "\n".join(fuzz_list(rng)) + "\n")
        assert outcome(reference_load_list, path, "edge_list")[1] is None
        both_loaders_agree(path)


# single faults whose error text is the same through both loaders
SAME_TEXT_FAULTS = [(0, "1.5"), (1, "-1"), (0, "1e20"), (1, "-2.5"), (2, "-2"),
                    (2, "nan"), (2, "inf"), (2, "x"), (2, "-1e-300")]
# single faults that are still DataErrors, with the common table parser's text
SAME_CLASS_FAULTS = [(0, "a"), (1, "0x10"), (2, "1,2"), (1, "nan")]


@pytest.mark.parametrize("column, token", SAME_TEXT_FAULTS + SAME_CLASS_FAULTS)
def test_single_fault_lists_raise_the_reference_error(tmp_path, column, token):
    rng = np.random.default_rng(column + 31 * len(token))
    for trial in range(20):
        lines = fuzz_list(rng)
        rows = [k for k, line in enumerate(lines) if line[:1].isdigit()]
        k = int(rng.choice(rows))
        toks = lines[k].split(",")
        toks[column] = token
        lines[k] = ",".join(toks)
        path = write(tmp_path, "bad.csv", "\n".join(lines) + "\n")
        for fmt in ("edge_list", "distance_gaussian"):
            new, ref = outcome(load_adjacency, path, fmt), outcome(reference_load_list, path, fmt)
            assert new[0] is ref[0] is DataError, (lines, fmt)
            if (column, token) in SAME_TEXT_FAULTS:
                assert new == ref, (lines, fmt)


def test_dense_files_load_to_the_reference_weights(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(300):
        n = int(rng.integers(1, 7))
        w = rng.choice([0.0, 0.0, 1.0, 0.25, 3.5, -0.0], size=(n, n))
        w = np.triu(w, 1) + np.triu(w, 1).T
        if rng.random() < 0.3:
            w[w == 0] = -0.0
        kind = trial % 5
        if kind == 1:  # tiny asymmetry, averaged away
            w[rng.integers(n), rng.integers(n)] += float(rng.choice([3e-9, 1e-8, -4e-9]))
        elif kind == 2:  # a nonzero diagonal, dropped (or rejected when negative)
            w[np.diag_indices(n)] = rng.choice([0.0, 2.0, -1.0], size=n)
        elif kind == 3:  # a negative entry, alone or with its mirror
            i, j = rng.integers(n, size=2)
            w[i, j] = -0.5
            if rng.random() < 0.5:
                w[j, i] = -0.5
        elif kind == 4:  # asymmetry past the tolerance
            w[rng.integers(n), rng.integers(n)] += 2e-8
        body = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in w)
        path = write(tmp_path, "adj.csv", body)
        assert outcome(load_adjacency, path) == outcome(reference_load_dense, path), body


def test_grid_graphs_match_the_per_edge_loop():
    for rows in range(1, 25):
        for cols in range(1, 25):
            ids = np.arange(rows * cols).reshape(rows, cols)
            right, down = ids[:, :-1].ravel().tolist(), ids[:-1].ravel().tolist()
            edges = [(i, i + 1, 1.0) for i in right] + [(i, i + cols, 1.0) for i in down]
            ref = reference_from_edges(rows * cols, edges)
            assert knn_grid_graph(rows, cols).weights.tobytes() == ref.tobytes()


def test_integral_float_ids_are_node_ids(tmp_path):
    path = write(tmp_path, "ids.csv", "1.0,0,2\n2e0,1.0,3\n")
    assert load_adjacency(path, "edge_list").weights.tolist() == [
        [0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 0.0]
    ]


def test_a_list_header_holds_no_number(tmp_path):
    path = write(tmp_path, "head.csv", "from,to,1\n0,1,1\n")
    for fmt in ("edge_list", "distance_gaussian"):
        with pytest.raises(DataError, match=r"head\.csv:1: bad number 'from'$"):
            load_adjacency(path, fmt)


def test_dense_errors_name_the_file(tmp_path):
    path = write(tmp_path, "asym.csv", "0,1\n0.5,0\n")
    with pytest.raises(DataError, match=r"asym\.csv: adjacency asymmetric by 5\.000e-01$"):
        load_adjacency(path)
    path = write(tmp_path, "diag.csv", "-1,0\n0,0\n")
    with pytest.raises(DataError, match=r"diag\.csv: negative weight in adjacency$"):
        load_adjacency(path)
