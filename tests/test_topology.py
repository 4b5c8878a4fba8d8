from __future__ import annotations

import numpy as np
import pytest

from sparselb.topology import (Topology, bethe_size, build_bethe,
                               build_ccc, build_config_model, build_cyc1d,
                               build_torus, from_edges, load_edge_list,
                               save_edge_list)


def test_cyc1d_structure():
    topo = build_cyc1d(9)
    assert topo.n_nodes == 9
    assert np.all(topo.degrees == 2)
    assert topo.neighbors[0] == (1, 8)
    assert topo.is_connected()
    topo.validate()


def test_cyc1d_rejects_small():
    with pytest.raises(ValueError):
        build_cyc1d(2)


@pytest.mark.parametrize("order,n", [(3, 24), (5, 160)])
def test_ccc_node_count(order, n):
    topo = build_ccc(order)
    assert topo.n_nodes == n
    assert np.all(topo.degrees == 3)
    assert topo.is_connected()
    topo.validate()


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
    topo.validate()
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
    tree.validate()


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
    topo.validate()


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
        broken.validate()


def test_is_connected_false():
    topo = from_edges(4, [(0, 1), (2, 3)])
    assert not topo.is_connected()


def test_degree_histogram():
    topo = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert topo.degree_histogram() == {1: 2, 2: 2}


def test_padded_neighbors_shape():
    topo = build_bethe(2, 3)
    pad = topo.padded_neighbors
    assert pad.shape == (topo.n_nodes, 3)
    assert np.array_equal(pad[0], np.array([1, 2, 3]))
    # leaf rows carry padding
    leaf = topo.n_nodes - 1
    assert (pad[leaf] >= 0).sum() == 1


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


def test_candidates_list_each_node_then_its_neighbors():
    # degrees 0 to 3: the own node first, then the sorted neighbors, and
    # padding (read as node 0) scored +inf
    topo = from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3)])
    cand, pad = topo.candidates, topo.candidate_padding
    assert cand.shape == pad.shape == (1 + topo.max_degree, 6)
    for i in range(6):
        nb = topo.neighbors[i]
        assert cand[0, i] == i and tuple(cand[1:1 + len(nb), i]) == nb
        assert np.all(cand[1 + len(nb):, i] == 0)
        assert np.all(pad[:1 + len(nb), i] == 0) and np.all(pad[1 + len(nb):, i] == np.inf)
    assert not cand.flags.writeable and not pad.flags.writeable
