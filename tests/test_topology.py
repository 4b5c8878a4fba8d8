from __future__ import annotations

import numpy as np
import pytest

from sparselb.topology import (Topology, bethe_size, build_bethe,
                               build_ccc, build_config_model, build_cyc1d,
                               build_torus, from_edges, load_edge_list,
                               save_edge_list)


def validate(topo):
    """The builders' structural oracle: in-range, sorted, duplicate-free,
    loop-free and symmetric neighbor lists; raises ValueError otherwise."""
    for i, nb in enumerate(topo.neighbors):
        arr = np.asarray(nb, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= topo.n_nodes):
            raise ValueError(f"node {i}: neighbor index out of range")
        if np.any(arr == i):
            raise ValueError(f"node {i}: self-loop")
        if arr.size != np.unique(arr).size:
            raise ValueError(f"node {i}: duplicate neighbor")
        if np.any(np.diff(arr) < 0):
            raise ValueError(f"node {i}: neighbor list not sorted")
        for j in arr:
            if i not in topo.neighbors[j]:
                raise ValueError(f"edge ({i},{j}) not symmetric")


def test_cyc1d_structure():
    topo = build_cyc1d(9)
    assert topo.n_nodes == 9
    assert np.all(topo.degrees == 2)
    assert topo.neighbors[0] == (1, 8)
    assert topo.is_connected()
    validate(topo)


def test_cyc1d_rejects_small():
    with pytest.raises(ValueError):
        build_cyc1d(2)


@pytest.mark.parametrize("order,n", [(3, 24), (5, 160)])
def test_ccc_node_count(order, n):
    topo = build_ccc(order)
    assert topo.n_nodes == n
    assert np.all(topo.degrees == 3)
    assert topo.is_connected()
    validate(topo)


def test_ccc_adjacency_spot_check():
    # node (p=0, v=0) with order 3: cycle partners (1,0),(2,0), cube flip (0,1)
    topo = build_ccc(3)
    assert topo.neighbors[0] == (1, 8, 16)


def test_ccc_rejects_small():
    with pytest.raises(ValueError):
        build_ccc(2)


def test_torus_structure():
    topo = build_torus(11)
    assert topo.n_nodes == 121
    assert np.all(topo.degrees == 4)
    assert topo.is_connected()
    validate(topo)
    small = build_torus(3)
    assert small.n_nodes == 9
    assert np.all(small.degrees == 4)


def test_bethe_sizes():
    assert bethe_size(1, 3) == 4
    assert bethe_size(5, 3) == 94
    assert bethe_size(11, 3) == 6142


def test_bethe_structure():
    star = build_bethe(1, 3)
    assert star.n_nodes == 4
    assert star.degrees[0] == 3
    assert np.all(star.degrees[1:] == 1)
    tree = build_bethe(5, 3)
    assert tree.n_nodes == 94
    assert tree.is_connected()
    assert tree.max_degree == 3
    # leaves sit exactly at the last level
    assert int((tree.degrees == 1).sum()) == 3 * 2 ** 4
    validate(tree)


def test_bethe_rejects_bad_args():
    with pytest.raises(ValueError):
        build_bethe(0, 3)
    with pytest.raises(ValueError):
        build_bethe(3, 2)


def test_config_model_basic():
    topo = build_config_model(101, {2, 3}, seed=11)
    assert topo.n_nodes == 101
    assert topo.is_connected()
    assert topo.max_degree <= 3
    assert topo.degrees.min() >= 1
    validate(topo)


def test_config_model_deterministic():
    a = build_config_model(60, {2, 3}, seed=5)
    b = build_config_model(60, {2, 3}, seed=5)
    assert a.neighbors == b.neighbors


def test_config_model_k4_when_no_erasure():
    # with degrees {3} and n=4, a matching that survives erasure intact is
    # forced to be the complete graph; some seeds lose edges to erasure
    seen_k4 = False
    for seed in range(30):
        topo = build_config_model(4, {3}, seed=seed)
        if np.all(topo.degrees == 3):
            assert topo.neighbors == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
            seen_k4 = True
    assert seen_k4


def test_config_model_parity_repair():
    # n=5 with degree set {3}: odd stub total forces one degree to 4
    topo = build_config_model(5, {3}, seed=2)
    assert topo.is_connected()
    assert topo.max_degree <= 4


def test_config_model_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_config_model(3, {2}, seed=0)
    with pytest.raises(ValueError):
        build_config_model(10, {0, 2}, seed=0)
    with pytest.raises(ValueError):
        build_config_model(5, {5}, seed=0)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 5)])


def test_validate_catches_asymmetry():
    broken = Topology(3, ((1,), (), ()))
    with pytest.raises(ValueError):
        validate(broken)


def test_is_connected_false():
    topo = from_edges(4, [(0, 1), (2, 3)])
    assert not topo.is_connected()


def test_degree_histogram():
    topo = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert topo.degree_histogram() == {1: 2, 2: 2}


def test_padded_neighbors_shape():
    # degrees 0 to 3: each row lists the sorted neighbors, then repeats the
    # node itself; the mask marks the first degree slots of a row
    topo = from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3)])
    pad, mask = topo.padded_neighbors, topo.padded_mask
    assert pad.shape == mask.shape == (6, 3) and pad.dtype == np.int64
    for i in range(6):
        nb = topo.neighbors[i]
        assert tuple(pad[i, :len(nb)]) == nb and np.all(pad[i, len(nb):] == i)
    assert np.array_equal(mask, np.arange(3) < topo.degrees[:, None])
    assert not pad.flags.writeable and not mask.flags.writeable
    tree = build_bethe(2, 3)
    assert tree.padded_neighbors.shape == (tree.n_nodes, 3)
    assert np.array_equal(tree.padded_neighbors[0], [1, 2, 3])


def test_edge_list_round_trip(tmp_path):
    topo = build_ccc(3)
    path = tmp_path / "graph.txt"
    save_edge_list(topo, path)
    text = path.read_text().splitlines()
    assert text[0] == "n_nodes=24"
    assert all(len(line.split()) == 2 for line in text[1:])
    back = load_edge_list(path)
    assert back.n_nodes == topo.n_nodes
    assert back.neighbors == topo.neighbors
    assert back == topo


def test_edge_list_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 4\n0 1\n")
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_padded_table_of_an_edgeless_graph_has_one_masked_column():
    topo = from_edges(3, [])
    assert np.array_equal(topo.padded_neighbors, [[0], [1], [2]])
    assert topo.padded_mask.shape == (3, 1) and not topo.padded_mask.any()
