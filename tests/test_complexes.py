import pytest

from acyclo import (
    Chain,
    Hypergraph,
    boundary_column,
    boundary_matrix,
    coboundary_apply,
    complete_hypergraph,
    cycle_space_dim,
    permutation_sign,
    rank,
)
from acyclo.complexes import simplex_index


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(4, 0, ())
    with pytest.raises(ValueError):
        Hypergraph(4, 4, ())
    with pytest.raises(ValueError):
        Hypergraph.from_edges(4, 2, [[1, 1, 2]])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(4, 2, [[1, 2, 5]])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(4, 2, [[1, 2, 3], [3, 2, 1]])


@pytest.mark.parametrize(
    "edges, message",
    [
        (((1, 2),), "edge (1, 2) has 2 vertices, expected 3"),
        (((1, 2, 5),), "edge (1, 2, 5) has a vertex outside 1..4"),
        (((1, 3, 2),), "edge (1, 3, 2) is not strictly increasing"),
        (((1, 2, 3), (1, 2, 3)), "duplicate edge (1, 2, 3)"),
        (((1, 2, 4), (1, 2, 3)), "edges must be listed in lexicographic order"),
    ],
    ids=["size", "range", "increasing", "duplicate", "order"],
)
def test_hypergraph_rejects_each_malformed_edge_list(edges, message):
    with pytest.raises(ValueError) as exc:
        Hypergraph(4, 2, edges)
    assert str(exc.value) == message


def test_hypergraph_edges_must_be_a_tuple():
    # a list is unhashable, so the caches keyed by the hypergraph could not take it
    with pytest.raises((TypeError, ValueError)):
        Hypergraph(4, 2, [(1, 2, 3)])


def test_from_edges_canonicalizes():
    h = Hypergraph.from_edges(4, 2, [[3, 1, 2], [2, 4, 3]])
    assert h.edges == ((1, 2, 3), (2, 3, 4))


def test_single_edge_column_d2():
    # edge {1,2,3}: +1 on {2,3}, -1 on {1,3}, +1 on {1,2}
    col = boundary_column(4, (1, 2, 3))
    idx = simplex_index(4, 2)
    assert col[idx.index_of((2, 3))] == 1
    assert col[idx.index_of((1, 3))] == -1
    assert col[idx.index_of((1, 2))] == 1
    assert sum(abs(x) for x in col) == 3


def test_graph_edge_column():
    col = boundary_column(5, (2, 4))
    idx = simplex_index(5, 1)
    assert col[idx.index_of((4,))] == 1
    assert col[idx.index_of((2,))] == -1
    assert sum(abs(x) for x in col) == 2


def test_k34_boundary_matrix(k34):
    b = boundary_matrix(k34)
    expected = [
        [1, 1, 0, 0],
        [-1, 0, 1, 0],
        [0, -1, -1, 0],
        [1, 0, 0, 1],
        [0, 1, 0, -1],
        [0, 0, 1, 1],
    ]
    assert b.row_lists() == expected


def test_cycle_space_dim_values():
    assert cycle_space_dim(4, 2) == 3
    assert cycle_space_dim(5, 3) == 4
    for n in range(2, 9):
        assert cycle_space_dim(n, 1) == n - 1
    with pytest.raises(ValueError):
        cycle_space_dim(4, 0)


def test_complete_hypergraph_sizes():
    assert len(complete_hypergraph(4, 2).edges) == 4
    assert len(complete_hypergraph(6, 2).edges) == 20
    for n in range(2, 8):
        assert len(complete_hypergraph(n, 1).edges) == n * (n - 1) // 2


def test_coboundary_zero(k34):
    out = coboundary_apply(k34, [0] * 6)
    assert tuple(out) == (0, 0, 0, 0)


def test_coboundary_cut_pattern():
    # indicator of {1,2} on K_4: nonzero exactly on edges crossing the cut
    k4 = complete_hypergraph(4, 1)
    idx = simplex_index(4, 1)
    gamma = [0] * 4
    for v in (1, 2):
        gamma[idx.index_of((v,))] = 1
    out = coboundary_apply(k4, gamma)
    for e, val in zip(k4.edges, out):
        crossing = len(set(e) & {1, 2}) == 1
        assert (val != 0) == crossing
        assert val in (-1, 0, 1)


def test_coboundary_unit_cochain(k34):
    idx = simplex_index(4, 2)
    gamma = [0] * 6
    gamma[idx.index_of((1, 2))] = 1
    out = coboundary_apply(k34, gamma)
    # direct transpose evaluation oracle
    b = boundary_matrix(k34)
    expected = [sum(gamma[r] * b.at(r, j) for r in range(6)) for j in range(4)]
    assert list(out) == expected
    assert out[k34.edge_position((1, 2, 3))] == 1
    assert out[k34.edge_position((1, 2, 4))] == 1
    assert out[k34.edge_position((1, 3, 4))] == 0
    assert out[k34.edge_position((2, 3, 4))] == 0


def test_coboundary_dimension_mismatch(k34):
    with pytest.raises(ValueError):
        coboundary_apply(k34, [1, 2, 3])


def test_boundary_of_boundary_is_zero():
    for n in range(3, 8):
        for d in range(2, min(3, n - 1) + 1):
            top = boundary_matrix(complete_hypergraph(n, d))
            lower = boundary_matrix(complete_hypergraph(n, d - 1))
            prod = lower @ top
            assert all(x == 0 for x in prod.entries)


def test_boundary_rank_is_cycle_space_dim():
    for n in range(3, 8):
        for d in range(1, n - 1):
            b = boundary_matrix(complete_hypergraph(n, d))
            assert rank(b) == cycle_space_dim(n, d)


def test_column_antisymmetry():
    base = boundary_column(5, (1, 3, 4))
    swapped = boundary_column(5, (3, 1, 4))  # odd permutation
    cycled = boundary_column(5, (3, 4, 1))  # even permutation
    assert swapped == [-x for x in base]
    assert cycled == base
    assert permutation_sign((3, 1, 4)) == -1
    assert permutation_sign((3, 4, 1)) == 1
    assert permutation_sign((1, 1, 2)) == 0


def test_chain_container():
    c = Chain((1, -2, 3))
    assert len(c) == 3
    assert list(c) == [1, -2, 3]
    assert c[1] == -2
