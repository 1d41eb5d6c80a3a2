import random
from itertools import combinations

import pytest

from acyclo import (
    Hypergraph,
    SubcomplexSelection,
    betti,
    complete_hypergraph,
    cycle_space_dim,
    ehrhart,
    ehrhart_fit_check,
    enumerate_vertices,
    kirchhoff_tree_count,
    lattice_point_count,
    lattice_points_direct,
    matrix_tree_sum,
    signpattern_bruteforce,
    torsion_order,
    torsion_rowreduce,
    volume,
)
from acyclo import oracle
from acyclo.errors import BudgetExceededError
from acyclo.oracle import region_count


def test_kirchhoff_k3(k3):
    assert kirchhoff_tree_count(k3) == 3


def test_kirchhoff_k5():
    assert kirchhoff_tree_count(complete_hypergraph(5, 1)) == 125


def test_kirchhoff_path():
    path = Hypergraph.from_edges(4, 1, [(1, 2), (2, 3), (3, 4)])
    assert kirchhoff_tree_count(path) == 1


def test_kirchhoff_disconnected():
    assert kirchhoff_tree_count(Hypergraph.from_edges(4, 1, [(1, 2), (3, 4)])) == 0


def test_kirchhoff_rejects_non_graph(k34):
    with pytest.raises(ValueError):
        kirchhoff_tree_count(k34)


def test_lattice_points_hexagon(k3):
    assert lattice_points_direct(k3, 1) == 7
    assert lattice_points_direct(k3, 1) == lattice_point_count(k3)


def test_lattice_points_single_edge():
    h = Hypergraph(2, 1, ((1, 2),))
    assert lattice_points_direct(h, 3) == 4


def test_lattice_points_k34(k34):
    assert lattice_points_direct(k34, 1) == 15


def test_lattice_points_cap():
    with pytest.raises(BudgetExceededError):
        lattice_points_direct(complete_hypergraph(5, 1), 1, cap=8)


@pytest.mark.parametrize(
    "oracle_fn", [kirchhoff_tree_count, matrix_tree_sum, lambda h: lattice_points_direct(h, 1)],
    ids=["kirchhoff", "matrix-tree", "lattice-points"],
)
def test_oracle_matrices_over_the_side_cap_are_refused(oracle_fn):
    # one edge, but the Laplacians and the tagged rows grow with the 3000 vertices
    with pytest.raises(BudgetExceededError):
        oracle_fn(Hypergraph(3000, 1, ((1, 2),)))


def test_ehrhart_below_full_degree():
    # two disjoint edges: rank 2, below cycle_space_dim(4, 1) = 3, so both
    # the census and the fitted polynomial drop a zero top coefficient
    h = Hypergraph(4, 1, ((1, 2), (3, 4)))
    poly = ehrhart(h)
    assert poly.coefficients == (1, 2, 1)
    assert poly.degree == 2
    report = ehrhart_fit_check(h, poly.coefficients)
    assert report.agreement
    assert report.oracle_value == (1, 2, 1)
    assert lattice_point_count(h) == lattice_points_direct(h, 1) == 4


def test_fit_check_counts_rank_plus_one_dilates_largest_first(monkeypatch):
    # two disjoint edges: rank 2, below cycle_space_dim(4, 1) = 3
    dilates = []
    direct = oracle.lattice_points_direct
    monkeypatch.setattr(oracle, "lattice_points_direct", lambda h, t, cap: dilates.append(t) or direct(h, t, cap))
    assert ehrhart_fit_check(Hypergraph(4, 1, ((1, 2), (3, 4))), (1, 2, 1)).agreement
    assert dilates == [3, 2, 1]


def test_fit_check_refuses_a_box_over_the_cap_before_any_scan(monkeypatch):
    # an 8-edge path on 20 vertices: rank 8, and the box of the 9-dilate has
    # 10**2 * 19**6 points; the cycle space dimension 19 would ask for t = 20
    path = Hypergraph.from_edges(20, 1, [(i, i + 1) for i in range(1, 9)])
    monkeypatch.setattr(oracle, "solve_feasibility", None)  # any scan would raise TypeError
    with pytest.raises(BudgetExceededError) as exc:
        ehrhart_fit_check(path, ehrhart(path).coefficients)
    assert exc.value.bound == 10**2 * 19**6 > oracle.BOX_CAP
    with pytest.raises(BudgetExceededError):
        lattice_points_direct(path, 2)


def test_fit_check_k3(k3):
    report = ehrhart_fit_check(k3, ehrhart(k3).coefficients)
    assert report.agreement
    assert report.oracle_value == (1, 3, 3)


def test_fit_check_single_edge():
    edge = Hypergraph(2, 1, ((1, 2),))
    report = ehrhart_fit_check(edge, ehrhart(edge).coefficients)
    assert report.agreement
    assert report.oracle_value == (1, 1)


def test_fit_check_k34(k34):
    report = ehrhart_fit_check(k34, ehrhart(k34).coefficients)
    assert report.agreement
    assert report.oracle_value == (1, 4, 6, 4)


def test_bruteforce_counts(k3, k34):
    assert len(signpattern_bruteforce(k34)) == 14
    assert len(signpattern_bruteforce(k3)) == 6
    assert len(signpattern_bruteforce(Hypergraph(2, 1, ((1, 2),)))) == 2


def test_bruteforce_cap(k62):
    with pytest.raises(BudgetExceededError):
        signpattern_bruteforce(k62)


def test_bruteforce_matches_enumeration(k34):
    for h in (k34, complete_hypergraph(5, 2), complete_hypergraph(4, 1)):
        brute = signpattern_bruteforce(h)
        enumerated = {p for p, _ in enumerate_vertices(h)}
        assert brute == enumerated


def test_torsion_rowreduce_examples(k62, rp2_triangles):
    k5 = complete_hypergraph(5, 1)
    tree = SubcomplexSelection.from_edge_sets(k5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert torsion_rowreduce(tree) == 1
    assert torsion_rowreduce(SubcomplexSelection(k62, ())) == 1
    rp2 = SubcomplexSelection.from_edge_sets(k62, rp2_triangles)
    assert torsion_rowreduce(rp2) == 2
    # RP^2 on 10 of the 15 columns a hypertree of A(7,2) needs
    k72 = complete_hypergraph(7, 2)
    assert len(rp2_triangles) < cycle_space_dim(7, 2)
    rp2_in_k72 = SubcomplexSelection.from_edge_sets(k72, rp2_triangles)
    assert torsion_rowreduce(rp2_in_k72) == torsion_order(rp2_in_k72) == 2
    # RP^2 and a dependent tetrahedron boundary on vertices 7-10
    sphere = list(combinations(range(7, 11), 3))
    with_sphere = SubcomplexSelection.from_edge_sets(complete_hypergraph(10, 2), [*rp2_triangles, *sphere])
    assert betti(with_sphere, 2) == 1
    assert torsion_rowreduce(with_sphere) == torsion_order(with_sphere) == 2
    # two disjoint copies of RP^2, on vertices 1-6 and 7-12: the factors multiply
    shifted = [tuple(v + 6 for v in t) for t in rp2_triangles]
    two_rp2 = SubcomplexSelection.from_edge_sets(complete_hypergraph(12, 2), [*rp2_triangles, *shifted])
    assert torsion_rowreduce(two_rp2) == torsion_order(two_rp2) == 4


def test_xgcd_echelon_second_pass_reaches_the_gcd_of_minors():
    # the column (2, 1) spans a saturated lattice: its first-pass pivot is 2,
    # the gcd of its 1 x 1 minors is 1, which the pass on the transpose finds
    assert oracle._xgcd_echelon([[2, 1]]) == [[2, 1]]
    assert oracle._xgcd_echelon([[2], [1]]) == [[1]]


def test_torsion_agreement_on_random_subsets(k62):
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(0, 14)
        chosen = tuple(sorted(rng.sample(range(20), k)))
        sel = SubcomplexSelection(k62, chosen)
        assert torsion_order(sel) == torsion_rowreduce(sel)


def test_volume_vs_kirchhoff_report():
    from acyclo.oracle import OracleReport

    g = complete_hypergraph(4, 1)
    report = OracleReport.compare("volume", volume(g), kirchhoff_tree_count(g))
    assert report.agreement
    assert report.theorem_value == 16


def naive_box_count(h, t):
    """Scan every integer point of the bounding box (no span shortcut)."""
    from itertools import product
    from math import comb

    from acyclo.complexes import edge_columns
    from acyclo.ratlp import solve_feasibility

    cols = edge_columns(h)
    ambient = comb(h.n, h.d)
    num_edges = len(cols)
    lo = [t * sum(min(0, c[r]) for c in cols) for r in range(ambient)]
    hi = [t * sum(max(0, c[r]) for c in cols) for r in range(ambient)]
    bounds = []
    for e in range(num_edges):
        bounds.append((*(1 if j == e else 0 for j in range(num_edges)), 0))
        bounds.append((*(-1 if j == e else 0 for j in range(num_edges)), -t))
    count = 0
    for point in product(*[range(lo[r], hi[r] + 1) for r in range(ambient)]):
        eqs = [(*(cols[j][r] for j in range(num_edges)), point[r]) for r in range(ambient)]
        if solve_feasibility(num_edges, eqs, bounds) is not None:
            count += 1
    return count


def test_direct_count_matches_naive_box_scan(k3):
    for t in (1, 2):
        assert lattice_points_direct(k3, t) == naive_box_count(k3, t)
    path = Hypergraph.from_edges(3, 1, [(1, 2), (2, 3)])
    assert lattice_points_direct(path, 2) == naive_box_count(path, 2)


def test_ehrhart_evaluations_match_direct_counts():
    from conftest import random_connected_graph

    rng = random.Random(31337)
    inputs = [
        complete_hypergraph(3, 1),
        complete_hypergraph(4, 2),
        Hypergraph.from_edges(4, 1, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    ]
    while len(inputs) < 6:
        g = random_connected_graph(rng, 5)
        if len(g.edges) <= 6:
            inputs.append(g)
    for h in inputs:
        poly = ehrhart(h)
        for t in (1, 2):
            assert poly.evaluate(t) == lattice_points_direct(h, t)


@pytest.mark.parametrize("n, d, count", [(4, 2, 14), (5, 2, 544), (6, 1, 720)])
def test_region_count_of_complete_hypergraphs(n, d, count):
    assert region_count(complete_hypergraph(n, d)) == count


def test_region_count_matches_enumeration_on_random_hypergraphs():
    rng = random.Random(6)
    for _ in range(6):
        n = rng.randint(4, 6)
        d = rng.randint(1, min(2, n - 2))
        pool = list(combinations(range(1, n + 1), d + 1))
        h = Hypergraph.from_edges(n, d, rng.sample(pool, rng.randint(1, min(9, len(pool)))))
        assert region_count(h) == sum(1 for _ in enumerate_vertices(h))


def test_region_count_of_edge_cases():
    assert region_count(Hypergraph(3, 1, ())) == 1
    assert region_count(Hypergraph(2, 1, ((1, 2),))) == 2


def test_fit_check_takes_the_theorem_value(k3):
    assert ehrhart_fit_check(k3, theorem_coeffs=(1, 3, 3)).agreement
    report = ehrhart_fit_check(k3, theorem_coeffs=[1, 3, 4])
    assert not report.agreement and report.theorem_value == (1, 3, 4)
