"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every check is exact; there are no tolerances to tune.
"""

import json
import random
import time
from math import comb, factorial

from acyclo import (
    Hypergraph,
    IntMatrix,
    SignPattern,
    SubcomplexSelection,
    boundary_matrix,
    complete_hypergraph,
    cycle_space_dim,
    ehrhart,
    ehrhart_fit_check,
    enumerate_vertices,
    face_lattice,
    facets,
    is_acyclic_hypertournament,
    kalai_census,
    kirchhoff_tree_count,
    lattice_point_count,
    lattice_points_direct,
    partition_pattern,
    permutation_sign,
    rank,
    signpattern_bruteforce,
    snf,
    torsion_order,
    torsion_rowreduce,
    validity_check,
    volume,
)
from acyclo.cli import main
from acyclo.faces import Hypertournament

from conftest import random_connected_graph

# Regression goldens for the 6-vertex 2-dimensional census, frozen after the
# first verified run (kalai_sum is pinned by the formula; the rest by
# exhaustive enumeration over all 184756 candidate 10-subsets).
A62_HYPERTREE_COUNT = 46620
A62_WEIGHTED_VOLUME = 46632
A62_HISTOGRAM = {1: 46608, 2: 12}


def report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_permutohedron_volumes(capsys):
    expected = {3: 3, 4: 16, 5: 125, 6: 1296, 7: 16807}
    start = time.perf_counter()
    results = {}
    for n in range(3, 8):
        code = main(["volume", "--complete", str(n), "1"])
        out = capsys.readouterr().out
        assert code == 0
        results[n] = int(json.loads(out)["volume"])
    elapsed = time.perf_counter() - start
    ok = results == expected and elapsed < 10.0
    with capsys.disabled():
        report(1, f"volume(complete n,1) = n^(n-2) for n=3..7 in {elapsed:.2f}s", ok)


def test_criterion_02_matrix_tree(capsys):
    rng = random.Random(20260810)
    ok = True
    for _ in range(20):
        g = random_connected_graph(rng)
        if volume(g) != kirchhoff_tree_count(g):
            ok = False
            break
    with capsys.disabled():
        report(2, "volume equals Kirchhoff tree count on 20 random connected graphs", ok)


def test_criterion_03_rhombic_dodecahedron(capsys):
    h = complete_hypergraph(4, 2)
    ambient = cycle_space_dim(4, 2)
    vol = volume(h)
    lattice = face_lattice(h)
    fv = lattice.f_vector()
    rhombi = all(len(lattice.vertices_of(f)) == 4 for f in lattice.facets())
    ok = (
        ambient == 3
        and vol == 4
        and fv == {0: 14, 1: 24, 2: 12, 3: 1}
        and rhombi
    )
    with capsys.disabled():
        report(3, "A(4,2) is a rhombic dodecahedron: dim 3, volume 4, f-vector (14,24,12)", ok)


def test_criterion_04_kalai_census(capsys):
    cases = {(4, 2): 4, (5, 2): 125, (5, 3): 5, (6, 4): 6, (6, 2): 46656}
    ok = True
    start = time.perf_counter()
    for (n, d), want in cases.items():
        rep = kalai_census(n, d)
        if rep.kalai_sum != want or rep.kalai_sum != n ** comb(n - 2, d):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and comb(20, 10) == 184756 and elapsed < 600.0
    with capsys.disabled():
        report(4, f"kalai_sum = n^C(n-2,d) for five (n,d) pairs, (6,2) in {elapsed:.1f}s", ok)


def test_criterion_05_volume_differs_from_kalai_sum(capsys):
    rep = kalai_census(6, 2)
    gap_identity = rep.kalai_sum - rep.weighted_volume == sum(
        (order * order - order) * count for order, count in rep.torsion_histogram.items()
    )
    ok = (
        rep.weighted_volume < 46656
        and any(order == 2 for order in rep.torsion_histogram)
        and gap_identity
        and rep.hypertree_count == A62_HYPERTREE_COUNT
        and rep.weighted_volume == A62_WEIGHTED_VOLUME
        and rep.torsion_histogram == A62_HISTOGRAM
    )
    with capsys.disabled():
        report(5, f"A(6,2): volume {rep.weighted_volume} < kalai 46656, order-2 trees present", ok)


def test_criterion_06_ehrhart_cross_checks(capsys):
    rng = random.Random(777)
    while True:
        five_edges = random_connected_graph(rng, 5)
        if five_edges.n == 5 and len(five_edges.edges) == 5:
            break
    inputs = [
        complete_hypergraph(3, 1),
        Hypergraph.from_edges(4, 1, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        five_edges,
        complete_hypergraph(4, 2),
    ]
    ok = True
    for h in inputs:
        fit = ehrhart_fit_check(h, ehrhart(h).coefficients)
        if not fit.agreement:
            ok = False
        if lattice_point_count(h) != lattice_points_direct(h, 1):
            ok = False
    with capsys.disabled():
        report(6, "ehrhart matches interpolated direct counts on 4 inputs (and t=1 counts)", ok)


def test_criterion_07_duality(capsys):
    v52 = volume(complete_hypergraph(5, 2))
    v51 = volume(complete_hypergraph(5, 1))
    ok = v52 == v51 == 125
    with capsys.disabled():
        report(7, "volume A(5,2) == volume A(5,1) == 125", ok)


def test_criterion_08_vertex_tournament_bijection(capsys):
    ok = True
    for n, d in [(3, 1), (4, 1), (5, 1), (4, 2)]:
        h = complete_hypergraph(n, d)
        enumerated = {p for p, _ in enumerate_vertices(h)}
        brute = signpattern_bruteforce(h)
        acyclic = set()
        num_edges = len(h.edges)
        for bits in range(2 ** num_edges):
            orientation = tuple(1 if bits >> j & 1 else -1 for j in range(num_edges))
            if is_acyclic_hypertournament(Hypertournament(n, d, orientation)):
                acyclic.add(SignPattern(orientation))
        if not (enumerated == brute == acyclic):
            ok = False
        if d == 1 and len(enumerated) != factorial(n):
            ok = False
    with capsys.disabled():
        report(8, "vertices == brute-force patterns == acyclic hypertournaments, counts n! for d=1", ok)


def test_criterion_09_facets(capsys):
    ok = True
    for n in (3, 4, 5):
        h = complete_hypergraph(n, 1)
        facet_patterns = {f.pattern.values for f in facets(h)}
        if len(facet_patterns) != 2 ** n - 2:
            ok = False
        partition_patterns = set()
        for bits in range(1, 2 ** n - 1):
            a = [v for v in range(1, n + 1) if bits >> (v - 1) & 1]
            b = [v for v in range(1, n + 1) if not bits >> (v - 1) & 1]
            partition_patterns.add(partition_pattern(n, 1, (a, b)).values)
        if facet_patterns != partition_patterns:
            ok = False
    # the exceptional facet of A(5,2)
    h52 = complete_hypergraph(5, 2)
    values = [0] * 10
    for i in range(5):
        tup = (i % 5 + 1, (i + 1) % 5 + 1, (i + 2) % 5 + 1)
        values[h52.edge_position(tup)] = permutation_sign(tup)
    pattern = SignPattern(tuple(values))
    witness = validity_check(h52, pattern)
    if witness is None:
        ok = False
    else:
        from acyclo.complexes import edge_columns

        cols = edge_columns(h52)
        zero_cols = [cols[j] for j, v in enumerate(pattern.values) if v == 0]
        rows = [[c[r] for c in zero_cols] for r in range(comb(5, 2))]
        if rank(IntMatrix.from_rows(rows, cols=len(zero_cols))) != comb(4, 2) - 1:
            ok = False
    with capsys.disabled():
        report(9, "A(n,1) has 2^n-2 partition facets (n=3,4,5); A(5,2) mod-5 facet has dim 5", ok)


def test_criterion_10_property_suites(capsys):
    ok = True
    # boundary of boundary vanishes
    for n in range(3, 8):
        for d in range(2, min(3, n - 1) + 1):
            top = boundary_matrix(complete_hypergraph(n, d))
            lower = boundary_matrix(complete_hypergraph(n, d - 1))
            if any(x != 0 for x in (lower @ top).entries):
                ok = False
    # Smith-form reconstruction and divisibility on random matrices
    rng = random.Random(4242)
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        res = snf(a)
        if res.left_transform @ a @ res.right_transform != res.diagonal_matrix(r, c):
            ok = False
        if res.left_transform.determinant() not in (1, -1):
            ok = False
        if res.right_transform.determinant() not in (1, -1):
            ok = False
        nonzero = [f for f in res.invariant_factors if f]
        if any(y % x for x, y in zip(nonzero, nonzero[1:])):
            ok = False
        if rank(a) != len(nonzero):
            ok = False
    # torsion agreement between the two elimination routes
    k62 = complete_hypergraph(6, 2)
    for _ in range(200):
        k = rng.randint(0, 14)
        sel = SubcomplexSelection(k62, tuple(sorted(rng.sample(range(20), k))))
        if torsion_order(sel) != torsion_rowreduce(sel):
            ok = False
    # face lattice refinement matches vertex-set containment
    k34 = complete_hypergraph(4, 2)
    lattice = face_lattice(k34)
    vsets = {
        f.pattern.values: frozenset(v.pattern.values for v in lattice.vertices_of(f))
        for f in lattice
    }
    for a in lattice:
        for b in lattice:
            inclusion = vsets[a.pattern.values] <= vsets[b.pattern.values]
            if a.pattern.refines(b.pattern) != inclusion or lattice.contains(b, a) != inclusion:
                ok = False
    with capsys.disabled():
        report(10, "property suites: d(d(.))=0, SNF reconstruction, torsion agreement x200, lattice coherence", ok)
