import gc
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from acyclo import (
    BudgetExceededError,
    CensusReport,
    Hypergraph,
    SubcomplexSelection,
    census,
    complete_hypergraph,
    cycle_space_dim,
    duality_volume_check,
    ehrhart,
    enumerate_spanning_hyperforests,
    hypertree_census,
    kalai_census,
    kirchhoff_tree_count,
    lattice_point_count,
    merge_census_reports,
    rank,
    restricted_boundary_matrix,
    torsion_order,
    volume,
)
from acyclo.census import (
    DEFAULT_SUBSET_BUDGET,
    _cone_columns,
    _count_forests,
    _forest_nodes,
    _frontier_order,
    _hypertree_histogram,
    _torsion_of,
    shard_prefixes,
)
from acyclo.complexes import edge_columns
from acyclo.exactalg import Echelon, IntMatrix, snf
from acyclo.oracle import matrix_tree_sum, torsion_rowreduce
from conftest import RP2_TRIANGLES, random_connected_graph, random_hypergraph


def brute_force_forests(h):
    """Independent edge subsets by direct rank checks (oracle for the DFS)."""
    out = []
    m = len(h.edges)
    for k in range(m + 1):
        for subset in combinations(range(m), k):
            sel = SubcomplexSelection(h, subset)
            if rank(restricted_boundary_matrix(sel)) == k:
                out.append(subset)
    return out


def test_enumerate_k34(k34):
    got = [sel.chosen_edges for sel in enumerate_spanning_hyperforests(k34)]
    assert len(got) == 15
    assert sorted(got) == sorted(brute_force_forests(k34))
    assert len(set(got)) == 15


def test_enumerate_k3(k3):
    got = [sel.chosen_edges for sel in enumerate_spanning_hyperforests(k3)]
    assert len(got) == 7
    assert sorted(got) == sorted(brute_force_forests(k3))


def test_enumerate_empty_hypergraph():
    h = Hypergraph(3, 1, ())
    assert [sel.chosen_edges for sel in enumerate_spanning_hyperforests(h)] == [()]


def test_enumeration_order_is_lexicographic_preorder(k3):
    got = [sel.chosen_edges for sel in enumerate_spanning_hyperforests(k3)]
    assert got == [(), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]


def test_ehrhart_k3(k3):
    assert ehrhart(k3).coefficients == (1, 3, 3)


def test_ehrhart_k34(k34):
    assert ehrhart(k34).coefficients == (1, 4, 6, 4)


def test_ehrhart_single_edge():
    h = Hypergraph(2, 1, ((1, 2),))
    poly = ehrhart(h)
    assert poly.coefficients == (1, 1)
    assert poly.evaluate(3) == 4


def test_ehrhart_constant_term_one():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rng, 6)
        poly = ehrhart(g)
        assert poly.coefficients[0] == 1
        assert all(c >= 0 for c in poly.coefficients)
        assert poly.degree <= cycle_space_dim(g.n, g.d)


def test_volume_complete_graphs():
    for n, want in [(3, 3), (4, 16), (5, 125)]:
        assert volume(complete_hypergraph(n, 1)) == want


def test_volume_k34(k34):
    assert volume(k34) == 4


def test_volume_no_spanning_hypertree():
    h = Hypergraph(4, 1, ((1, 2), (3, 4)))
    assert volume(h) == 0
    h2 = Hypergraph(5, 2, ((1, 2, 3), (1, 2, 4)))
    assert volume(h2) == 0


def test_volume_three_ways():
    for h in (complete_hypergraph(4, 2), complete_hypergraph(5, 2)):
        poly = ehrhart(h)
        m = cycle_space_dim(h.n, h.d)
        lead = poly.coefficients[m] if poly.degree == m else 0
        total = sum(
            torsion_order(sel)
            for sel in enumerate_spanning_hyperforests(h)
            if len(sel.chosen_edges) == m
        )
        assert volume(h) == lead == total


def test_volume_matches_kirchhoff():
    rng = random.Random(99)
    for _ in range(20):
        g = random_connected_graph(rng)
        assert volume(g) == kirchhoff_tree_count(g)


def test_lattice_point_counts(k3, k34):
    assert lattice_point_count(k3) == 7
    assert lattice_point_count(k34) == 15
    assert lattice_point_count(Hypergraph(2, 1, ((1, 2),))) == 2


def test_kalai_census_values():
    for (n, d), want in [((4, 2), 4), ((5, 2), 125), ((5, 3), 5), ((6, 4), 6)]:
        report = kalai_census(n, d)
        assert report.kalai_sum == want == n ** comb(n - 2, d)
        assert report.is_consistent()
        assert report.weighted_volume >= report.hypertree_count
        assert report.kalai_sum >= report.weighted_volume


def test_kalai_census_4_2_counts():
    report = kalai_census(4, 2)
    assert report.hypertree_count == 4
    assert report.weighted_volume == 4
    assert report.torsion_histogram == {1: 4}


def test_census_budget_guard():
    with pytest.raises(BudgetExceededError) as exc:
        kalai_census(7, 2, budget=1000)
    assert exc.value.bound == comb(35, 15)


def test_ehrhart_budget_guard(k62):
    with pytest.raises(BudgetExceededError):
        ehrhart(k62, budget=100)


def test_duality_checks():
    assert duality_volume_check(5, 1) == (125, 125)
    assert duality_volume_check(4, 1) == (16, 16)
    assert duality_volume_check(6, 1) == (1296, 1296)
    assert duality_volume_check(7, 1) == (16807, 16807)
    v1, v2 = duality_volume_check(6, 2, budget=2_000_000)
    assert v1 == v2
    with pytest.raises(ValueError):
        duality_volume_check(4, 2)


def test_kalai_census_dual_dimensions():
    # duals of the graph cases: all torsion-free, counts n**(n-2)
    for (n, d), want in [((6, 3), 1296), ((7, 4), 16807)]:
        report = kalai_census(n, d)
        assert report.kalai_sum == want == n ** comb(n - 2, d)
        assert report.torsion_histogram == {1: want}


def test_a62_ehrhart_regression(k62):
    # frozen after first verified enumeration; structural cross-checks:
    # the t^k coefficient for k <= 3 counts all k-subsets (independent),
    # the t^4 deficit is the 15 sub-tetrahedron relations, and the leading
    # coefficient is the torsion-weighted hypertree count
    poly = ehrhart(k62)
    assert poly.coefficients == (
        1, 20, 190, 1140, 4830, 15264, 36900, 68400, 94800, 90720, 46632,
    )
    assert poly.coefficients[2] == comb(20, 2)
    assert poly.coefficients[3] == comb(20, 3)
    assert comb(20, 4) - poly.coefficients[4] == comb(6, 4)
    assert poly.leading_coefficient == 46632
    assert poly.evaluate(1) == lattice_point_count(k62) == 358897


def test_census_report_merge():
    a = CensusReport.from_histogram({1: 3, 2: 1})
    b = CensusReport.from_histogram({1: 2})
    merged = a.merged(b)
    assert merged.hypertree_count == 6
    assert merged.weighted_volume == 3 + 2 + 2
    assert merged.kalai_sum == 3 + 4 + 2
    assert merged.torsion_histogram == {1: 5, 2: 1}


def test_sharded_census_merges_to_full():
    full = kalai_census(5, 2)
    for total in (2, 3, 4):
        parts = [kalai_census(5, 2, shard=(i, total)) for i in range(total)]
        assert merge_census_reports(parts) == full


def test_sharded_ehrhart_merges_to_full(k34):
    full = ehrhart(k34).coefficients
    for total in (2, 3):
        coeff_sum = [0] * len(full)
        for i in range(total):
            part = ehrhart(k34, shard=(i, total)).coefficients
            for k, c in enumerate(part):
                coeff_sum[k] += c
        assert tuple(coeff_sum) == full


def test_shard_partition_of_forests(k34):
    all_forests = [sel.chosen_edges for sel in enumerate_spanning_hyperforests(k34)]
    sharded = []
    for i in range(3):
        sharded.extend(
            sel.chosen_edges for sel in enumerate_spanning_hyperforests(k34, shard=(i, 3))
        )
    assert sorted(sharded) == sorted(all_forests)


@pytest.mark.parametrize("num_edges, total", [(4, 1), (4, 3), (4, 8), (2, 8), (6, 5)])
def test_shard_prefixes_partition_the_prefixes(num_edges, total):
    shards = [list(shard_prefixes(num_edges, (i, total))) for i in range(total)]
    plen = min(num_edges, (total - 1).bit_length())
    merged = sorted(p for shard in shards for p in shard)
    assert merged == sorted(product((False, True), repeat=plen))
    assert all(len(set(shard)) == len(shard) for shard in shards)


def reference_forest_nodes(cols, exact_size=None, shard=None):
    """The DFS as a recursion that pushes each column afresh into an
    Echelon and pops it on backtrack."""
    ech = Echelon()
    chosen = []
    out = []

    def rec(start):
        if exact_size is None or len(chosen) == exact_size:
            out.append((tuple(chosen), ech.last_pivot))
            if exact_size is not None:
                return
        for j in range(start, len(cols)):
            if exact_size is not None and len(chosen) + len(cols) - j < exact_size:
                break
            if ech.push(cols[j]):
                chosen.append(j)
                rec(j + 1)
                ech.pop()
                chosen.pop()

    for prefix in [()] if shard is None else shard_prefixes(len(cols), shard):
        ok = True
        for j, included in enumerate(prefix):
            if included:
                ok = ok and ech.push(cols[j])
                if ok:
                    chosen.append(j)
        if ok:
            rec(len(prefix))
        while chosen:
            ech.pop()
            chosen.pop()
    return out


STREAM_INPUTS = {
    "A(4,2)": complete_hypergraph(4, 2),
    "A(5,1)": complete_hypergraph(5, 1),
    "A(5,2)": complete_hypergraph(5, 2),
    "A(6,3)": complete_hypergraph(6, 3),
    "random-3-uniform-a": random_hypergraph(random.Random(1), 6, 2, 13),
    "random-3-uniform-b": random_hypergraph(random.Random(15), 7, 2, 16),
}


@pytest.mark.parametrize("shard", [None, (0, 1), (2, 3), (5, 8)])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", STREAM_INPUTS)
def test_forest_stream_matches_the_recursive_echelon_dfs(name, exact, shard):
    h = STREAM_INPUTS[name]
    exact_size = cycle_space_dim(h.n, h.d) if exact else None
    for cols in (_cone_columns(h), edge_columns(h)) if shard is None else (_cone_columns(h),):
        got = list(_forest_nodes(cols, exact_size=exact_size, shard=shard))
        assert got == reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
        assert got or shard



# Columns where node {1} (depth 1) and node {0, 1} (depth 2) carry the same
# last pivot and reduced candidates. Without exact_size their subtrees share
# a key, and {1} replays the edge suffixes {0, 1} stored; with exact_size 4
# they need three and two more edges, so a key without the edges still
# needed would give {1} the 4-edge sets of {0, 1}.
DEPTH_TWINS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1)]


def tiny_table_input(name):
    """(columns, exact size) of an input of the tiny-table test."""
    if name == "depth-twins":
        return DEPTH_TWINS, 4
    if name == "zero-dependent-twisted":
        return ZERO_DEPENDENT_TWISTED, 3
    if name.startswith("large-"):
        cols = large_entry_columns(int(name[len("large-") :]))
        return cols, len(cols[0])
    h = COUNTER_INPUTS[name]
    return _cone_columns(h), cycle_space_dim(h.n, h.d)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "name", [*STREAM_INPUTS, "depth-twins", "zero-dependent-twisted", "twisted-0", "twisted-3", "twisted-7"]
)
def test_forest_stream_with_a_tiny_replay_table(name, exact, monkeypatch):
    # the listing and the counter share the table, so both run on it
    cols, size = tiny_table_input(name)
    exact_size = size if exact else None
    for shard in (None, (2, 3), (5, 8)):
        want = reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
        for slots, items in product((1, 2), (1, 3)):
            monkeypatch.setattr(census, "COUNT_SLOTS", slots)
            monkeypatch.setattr(census, "REPLAY_ITEMS", items)
            assert list(_forest_nodes(cols, exact_size=exact_size, shard=shard)) == want
            assert _count_forests(cols, shard, exact_size) == counted(want, len(cols))


def test_the_counter_replays_a_subtree_that_holds_twisted_sets(monkeypatch):
    # without exact_size or a shard, each set below the start node takes one
    # `lead` unless a table hit replays it: more twisted sets than leads off
    # +-1 means a hit replayed twisted sets
    leads = []
    lead = census.lead
    monkeypatch.setattr(census, "lead", lambda x, b: leads.append(p := lead(x, b)) or p)
    cols = _cone_columns(twisted_hypergraph(3))
    counts, twisted = _count_forests(cols)
    assert (counts, twisted) == counted(reference_forest_nodes(cols), len(cols))
    assert len(twisted) > sum(p not in (1, -1) for p in leads)


def dual_side_inputs():
    """Hypergraphs with fewer than 2m edges, m = cycle_space_dim: the ten
    6-vertex RP^2s plus up to 4 triangles of `twisted_hypergraph`, each with
    a hypertree of torsion 2, and seeded random ones, n 5-7, d 1-3."""
    inputs = [twisted_hypergraph(seed) for seed in range(0, 20, 2)]
    rng = random.Random(1999)
    while len(inputs) < 60:
        n, d = rng.randint(5, 7), rng.randint(1, 3)
        m = cycle_space_dim(n, d)
        top = min(comb(n, d + 1), 2 * m - 1, m + 5)
        if top >= m:
            inputs.append(random_hypergraph(rng, n, d, rng.randint(m, top)))
    return inputs


def test_dual_side_histogram_equals_the_primal_one(monkeypatch):
    calls = []
    snf = census.snf
    monkeypatch.setattr(census, "snf", lambda a: calls.append(a) or snf(a))
    inputs, twisted, nonempty = dual_side_inputs(), 0, 0
    for h in inputs:
        m = cycle_space_dim(h.n, h.d)
        assert len(h.edges) < 2 * m
        primal = Counter(abs(p) for _, p in _forest_nodes(_cone_columns(h), exact_size=m))
        assert _hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, None) == primal
        twisted += any(order > 1 for order in primal)
        nonempty += bool(primal)
    assert len(calls) == len(inputs)
    assert twisted >= 10 and nonempty >= 40


def test_rp2_is_one_hypertree_of_order_two_on_the_dual_side():
    h = Hypergraph.from_edges(6, 2, sorted(RP2_TRIANGLES))  # co-rank 0: no edge to pick
    assert _hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, None) == {2: 1}
    assert [_hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, (i, 2)) for i in range(2)] == [{2: 1}, {}]
    assert volume(h) == 2 and hypertree_census(h).kalai_sum == matrix_tree_sum(h) == 4


@pytest.mark.parametrize(
    "n, d, edges",
    [
        # the tetrahedron boundary on 1-4 is a cycle: rank 5 < m = 6, co-rank 0
        (5, 2, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4)]),
        # no triangle holds the edge 45, which cycles of K5 use: co-rank 1
        (5, 2, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)]),
        # two triangles, disconnected: rank 4 < m = 5, co-rank 1
        (6, 1, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),
    ],
)
def test_rank_deficient_inputs_have_no_hypertree_on_the_dual_side(n, d, edges):
    h = Hypergraph.from_edges(n, d, edges)
    m = cycle_space_dim(n, d)
    assert m <= len(h.edges) < 2 * m
    assert list(_forest_nodes(_cone_columns(h), exact_size=m)) == []
    assert _hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, None) == {}
    assert volume(h) == 0


def test_dual_side_shards_merge_to_the_whole_histogram():
    h = complete_hypergraph(6, 3)  # co-rank 5 below m = 10
    parts = [_hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, (i, 4)) for i in range(4)]
    assert all(parts)
    assert sum(map(Counter, parts), Counter()) == _hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, None) == {1: 1296}


def test_volume_equals_the_census_weighted_volume():
    # `volume` counts per DFS state and the census lists the hypertrees
    rng = random.Random(2010)
    primal = []
    while len(primal) < 20:
        n = rng.randint(5, 7)
        m = cycle_space_dim(n, 1)
        primal.append(random_hypergraph(rng, n, 1, rng.randint(2 * m, min(comb(n, 2), 2 * m + 4))))
    twisted = 0
    for h in dual_side_inputs() + primal:
        report = hypertree_census(h)
        assert volume(h) == report.weighted_volume
        twisted += report.weighted_volume > report.hypertree_count
    assert twisted >= 10


@pytest.mark.parametrize("n, d", [(6, 3), (6, 1)])  # the dual side, then the primal one
def test_volume_shards_sum_to_the_volume(n, d):
    h = complete_hypergraph(n, d)
    parts = [volume(h, shard=(i, 4)) for i in range(4)]
    assert all(parts)
    assert sum(parts) == volume(h) == 6**4


def counted(nodes, num_cols):
    """A stream of (edges, last pivot) in the shape `_count_forests`
    returns, for num_cols columns."""
    counts = [0] * (num_cols + 1)
    twisted = []
    for chosen, pivot in nodes:
        if pivot in (1, -1):
            counts[len(chosen)] += 1
        else:
            twisted.append((chosen, pivot))
    return counts, twisted


def counted_stream(cols, shard=None, exact_size=None):
    """The `_forest_nodes` stream in the shape `_count_forests` returns."""
    return counted(_forest_nodes(cols, exact_size=exact_size, shard=shard), len(cols))


# rank 3: the prefixes of (3, 4) and (7, 8) choose edges 0 and 1, whose last
# pivot is -2, and (7, 8)'s also the zero edge 2
ZERO_DEPENDENT_TWISTED = [(1, 1, 0), (1, -1, 0), (0, 0, 0), (2, 0, 1), (0, 1, 1), (1, 1, 0)]


@pytest.mark.parametrize("cols, rank", [(ZERO_DEPENDENT_TWISTED, 3), (DEPTH_TWINS, 4)])
def test_both_dfss_start_where_the_reference_starts(cols, rank):
    # `_prefix_states` is the one start walk of both DFSs, so they are
    # checked against the independent recursion, not against each other:
    # every size from 0 to one past the rank, and none; on the first
    # columns (3, 4) starts at a twisted pair and (7, 8) at no node, its
    # prefix holding the zero column
    for shard, exact_size in product((None, (0, 2), (1, 2), (3, 4), (7, 8)), (None, *range(rank + 2))):
        want = reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
        assert list(_forest_nodes(cols, exact_size=exact_size, shard=shard)) == want
        assert _count_forests(cols, shard, exact_size) == counted(want, len(cols))


def test_forest_count_of_zero_dependent_and_twisted_columns(monkeypatch):
    cols = ZERO_DEPENDENT_TWISTED
    for slots in (1, 2, census.COUNT_SLOTS):
        monkeypatch.setattr(census, "COUNT_SLOTS", slots)
        for shard, exact_size in product((None, (0, 2), (1, 2), (3, 4), (7, 8)), (None, 0, 1, 2, 3, 4)):
            assert _count_forests(cols, shard, exact_size) == counted_stream(cols, shard, exact_size)
    assert _count_forests(cols, (3, 4))[1][0] == ((0, 1), -2)
    assert _count_forests([]) == _count_forests([], exact_size=0) == ([1], [])
    assert _count_forests([], exact_size=1) == ([0], [])


def dual_columns(h):
    """Edge e's row of the last E - m columns of the Smith form's right
    transform of the cone matrix, m = cycle_space_dim."""
    cols, m = _cone_columns(h), cycle_space_dim(h.n, h.d)
    res = snf(IntMatrix.from_rows(list(zip(*cols)), cols=len(cols)))
    return [res.right_transform.row(e)[m:] for e in range(len(cols))]


@pytest.mark.parametrize("slots", [1, 2, 1024, census.COUNT_SLOTS])
@pytest.mark.parametrize("name", [*STREAM_INPUTS, "depth-twins"])
def test_exact_size_counter_matches_the_stream(name, slots, monkeypatch):
    if name == "depth-twins":
        cases = [(DEPTH_TWINS, 3), (DEPTH_TWINS, 4)]
    else:
        h = STREAM_INPUTS[name]
        m = cycle_space_dim(h.n, h.d)
        cases = [(_cone_columns(h), m), (dual_columns(h), len(h.edges) - m)]
    monkeypatch.setattr(census, "COUNT_SLOTS", slots)
    for (cols, size), shard in product(cases, (None, (2, 3), (5, 8))):
        want = counted_stream(cols, shard, exact_size=size)
        assert _count_forests(cols, shard, exact_size=size) == want
        assert want[0][size] or shard


def test_forest_stream_of_zero_and_dependent_columns():
    cols = [(0, 0), (1, 2), (2, 4), (0, 0), (0, 3), (1, 1)]
    for exact_size in (None, 0, 1, 2, 3):
        for shard in (None, (0, 2), (1, 2), (3, 4), (6, 8)):
            want = reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
            assert list(_forest_nodes(cols, exact_size=exact_size, shard=shard)) == want
    assert list(_forest_nodes([])) == [((), 1)]


def test_forest_stream_of_the_empty_column_list():
    for exact_size in (None, 0, 1):
        for shard in (None, (0, 1), (0, 2), (1, 2)):
            want = reference_forest_nodes([], exact_size=exact_size, shard=shard)
            assert list(_forest_nodes([], exact_size=exact_size, shard=shard)) == want
    assert list(_forest_nodes([], exact_size=1)) == []


def sylvester_hadamard_columns():
    rows = [[1]]
    for _ in range(3):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return [tuple(r[j] for r in rows) for j in range(8)]


def test_forest_stream_at_the_hadamard_bound(monkeypatch):
    # The 8 columns' determinant, 4096, meets the Hadamard bound, so the
    # packed digits must hold it: at 13 bits (half = 4096, one bit short of
    # a digit that holds +4096) the stream goes wrong.
    cols = sylvester_hadamard_columns()
    for exact_size in (None, 8):
        for shard in (None, (1, 4)):
            want = reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
            assert list(_forest_nodes(cols, exact_size=exact_size, shard=shard)) == want
    assert list(_forest_nodes(cols, exact_size=8)) == [(tuple(range(8)), 4096)]
    for shard in (None, (1, 4)):
        assert _count_forests(cols, shard) == counted_stream(cols, shard)
    monkeypatch.setattr(census, "pack_width", lambda vectors: (4096).bit_length())
    assert list(_forest_nodes(cols)) != reference_forest_nodes(cols)


def large_entry_columns(seed):
    """5 to 8 seeded columns of 3 to 5 entries, each 0 or up to 10**9 in
    absolute value, one column all zero."""
    rng = random.Random(seed)
    rows, num_cols = rng.randint(3, 5), rng.randint(5, 8)

    def entry():
        return rng.choice((0, 0, rng.randint(-10**9, 10**9), rng.choice((-10**9, 10**9))))

    cols = [tuple(entry() for _ in range(rows)) for _ in range(num_cols)]
    cols[rng.randrange(num_cols)] = (0,) * rows
    return cols


@pytest.mark.parametrize("seed", [3, 5, 9])
def test_forest_stream_of_large_entries_and_zeros(seed):
    cols = large_entry_columns(seed)
    rows = len(cols[0])
    for exact_size in (None, rows - 1, rows):
        for shard in (None, (0, 1), (2, 3), (5, 8)):
            want = reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
            assert list(_forest_nodes(cols, exact_size=exact_size, shard=shard)) == want
    for shard in (None, (2, 3), (5, 8)):
        assert _count_forests(cols, shard) == counted_stream(cols, shard)


@pytest.mark.parametrize("slots", [1, 2, 8])
@pytest.mark.parametrize(
    "name", [*STREAM_INPUTS, "depth-twins", "twisted-0", "twisted-1", "twisted-3", "large-3", "large-5", "large-9"]
)
def test_forest_stream_while_the_shared_objects_are_dropped(name, slots, monkeypatch):
    # the dict that shares equal key pairs and replay items among the stored
    # entries is cleared once it holds more than COUNT_SLOTS objects, so a
    # tiny table clears it every store or so; what is stored stays valid
    cols, size = tiny_table_input(name)
    monkeypatch.setattr(census, "COUNT_SLOTS", slots)
    for exact_size, shard in product((None, size), (None, (2, 3))):
        want = reference_forest_nodes(cols, exact_size=exact_size, shard=shard)
        assert list(_forest_nodes(cols, exact_size=exact_size, shard=shard)) == want
        assert _count_forests(cols, shard, exact_size) == counted(want, len(cols))


def cone_hypertrees(h):
    """(chosen, |last pivot|) for every spanning hypertree, on the cone rows."""
    m = cycle_space_dim(h.n, h.d)
    return [(chosen, abs(p)) for chosen, p in _forest_nodes(_cone_columns(h), exact_size=m)]


def test_cone_pivot_is_the_torsion_order_on_a62(k62):
    trees = cone_hypertrees(k62)
    assert len(trees) == 46620
    torsion = [(chosen, order) for chosen, order in trees if order != 1]
    assert [order for _, order in torsion] == [2] * 12
    others = [t for t in trees if t[1] == 1]
    for chosen, order in torsion + random.Random(62).sample(others, 300):
        assert torsion_rowreduce(SubcomplexSelection(k62, chosen)) == order


@pytest.mark.parametrize(
    "n, d, num_edges, seed", [(6, 2, 13, 2), (7, 2, 18, 5), (6, 3, 12, 3), (7, 3, 23, 1)]
)
def test_cone_pivot_is_the_torsion_order_on_random_hypergraphs(n, d, num_edges, seed):
    h = random_hypergraph(random.Random(seed), n, d, num_edges)
    trees = cone_hypertrees(h)
    assert trees
    for chosen, order in random.Random(seed).sample(trees, min(len(trees), 150)):
        assert torsion_rowreduce(SubcomplexSelection(h, chosen)) == order


def test_matrix_tree_sum_equals_the_census():
    for (n, d), want in [((6, 2), 6**6), ((7, 4), 7**5)]:
        h = complete_hypergraph(n, d)
        assert matrix_tree_sum(h) == hypertree_census(h).kalai_sum == want
    rng = random.Random(2009)
    sizes = {(6, 1): 8, (7, 1): 10, (6, 2): 13, (7, 2): 18, (6, 3): 12, (7, 3): 23}
    nonzero = 0
    for i in range(20):
        n, d = 6 + i % 2, 1 + i // 2 % 3
        h = random_hypergraph(rng, n, d, sizes[n, d])
        total = matrix_tree_sum(h)
        assert total == hypertree_census(h).kalai_sum
        nonzero += total > 0
    assert nonzero >= 10


def test_matrix_tree_sum_equals_kirchhoff_on_graphs():
    rng = random.Random(1847)
    for _ in range(20):
        g = random_connected_graph(rng)
        assert matrix_tree_sum(g) == kirchhoff_tree_count(g) == volume(g)
    assert matrix_tree_sum(Hypergraph(4, 1, ((1, 2), (3, 4)))) == 0


def stream_ehrhart(h, shard=None, ordered=True):
    """The Ehrhart coefficients summed over the `_forest_nodes` stream, 1 for
    a set whose last pivot is +-1 and its `_torsion_of` otherwise, and the
    sets that took a `_torsion_of` call, in stream order. The stream runs on
    the cone columns in `_frontier_order`, as `ehrhart` does, or with
    ordered false in the order of h's edges."""
    cols = _cone_columns(h)
    if ordered:
        cols = [cols[j] for j in _frontier_order(cols)]
    coeffs, twisted = counted_stream(cols, shard)
    for chosen, _ in twisted:
        coeffs[len(chosen)] += _torsion_of(cols, chosen)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs), [chosen for chosen, _ in twisted]


def twisted_hypergraph(seed):
    """A relabelled RP^2 (a hypertree with torsion 2) on 6 of n = 6 or 7
    vertices, plus up to 4 random triangles."""
    rng = random.Random(seed)
    n = 6 + seed % 2
    label = rng.sample(range(1, n + 1), 6)
    edges = {tuple(sorted(label[v - 1] for v in t)) for t in RP2_TRIANGLES}
    edges.update(rng.sample(list(combinations(range(1, n + 1), 3)), rng.randint(0, 4)))
    return Hypergraph.from_edges(n, 2, sorted(edges))


COUNTER_INPUTS = {**STREAM_INPUTS, **{f"twisted-{seed}": twisted_hypergraph(seed) for seed in range(20)}}


def counted_ehrhart(h, monkeypatch, shard=None):
    """`ehrhart(h)` and the sets it passed to `_torsion_of`."""
    calls = []
    torsion_of = census._torsion_of
    monkeypatch.setattr(census, "_torsion_of", lambda cols, chosen: calls.append(chosen) or torsion_of(cols, chosen))
    coefficients = ehrhart(h, shard=shard).coefficients
    monkeypatch.setattr(census, "_torsion_of", torsion_of)
    return coefficients, calls


@pytest.mark.parametrize("slots", [1, 2, 1024, census.COUNT_SLOTS])
@pytest.mark.parametrize("name", COUNTER_INPUTS)
def test_ehrhart_counter_matches_the_stream(name, slots, monkeypatch):
    h = COUNTER_INPUTS[name]
    want = stream_ehrhart(h)
    assert want[1] or not name.startswith("twisted")
    monkeypatch.setattr(census, "COUNT_SLOTS", slots)
    assert counted_ehrhart(h, monkeypatch) == want


@pytest.mark.parametrize("total", [3, 8])
@pytest.mark.parametrize("name", ["A(5,2)", "A(6,3)", "random-3-uniform-b", "twisted-0", "twisted-1"])
def test_ehrhart_counter_matches_the_stream_on_every_shard(name, total, monkeypatch):
    h = COUNTER_INPUTS[name]
    for i in range(total):
        assert counted_ehrhart(h, monkeypatch, shard=(i, total)) == stream_ehrhart(h, shard=(i, total))


def test_ehrhart_of_a62_makes_22_smith_form_calls_and_no_cyclic_garbage(k62, monkeypatch):
    calls = []
    invariant_factors = census._invariant_factors
    monkeypatch.setattr(census, "_invariant_factors", lambda *args: calls.append(args) or invariant_factors(*args))
    gc.collect()
    assert ehrhart(k62).evaluate(1) == 358897
    assert gc.collect() == 0
    assert len(calls) == 22


def test_ehrhart_of_k8_stays_under_the_table_bound():
    # 28 edges, 2**28 subsets: the table and the dict of shared objects are
    # bounded by COUNT_SLOTS, not by the 561948 forests (OEIS A001858). The
    # peak is taken on a second run, as in the A(6,2) census bound below.
    k8 = complete_hypergraph(8, 1)
    assert ehrhart(k8, budget=1 << 28).evaluate(1) == 561948
    tracemalloc.start()
    try:
        assert ehrhart(k8, budget=1 << 28).evaluate(1) == 561948
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_frontier_order_is_a_deterministic_permutation():
    # supports {0, 1}, {1, 2}, {0, 1}: the second column opens two rows and
    # closes row 2, net 1, against 2 for the others; then the first and the
    # third each open row 0 and close nothing, so the lower index; the third
    # closes rows 0 and 1
    cols = [(1, 1, 0), (0, 2, -1), (3, -1, 0)]
    assert _frontier_order(cols) == [1, 0, 2]
    assert _frontier_order([]) == []
    assert _frontier_order([(0, 0), (0, 0)]) == [0, 1]
    assert _frontier_order([(1, 0), (1, 0), (1, 0)]) == [0, 1, 2]
    # a zero column opens nothing, so it comes first; then the first and the
    # third both open one row net
    assert _frontier_order([(1, 1), (0, 0), (1, 0)]) == [1, 0, 2]
    rng = random.Random(2017)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = [tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(rows)) for _ in range(rng.randint(0, 12))]
        cols += rng.sample(cols, min(len(cols), 2))  # duplicates
        order = _frontier_order(cols)
        assert sorted(order) == list(range(len(cols)))
        assert _frontier_order(list(cols)) == order


def lex_histogram(h):
    """The hypertrees of h by torsion order, listed on the cone columns in
    the order of h's edges."""
    m = cycle_space_dim(h.n, h.d)
    return Counter(abs(p) for _, p in _forest_nodes(_cone_columns(h), exact_size=m))


@pytest.mark.parametrize("name", COUNTER_INPUTS)
def test_frontier_order_gives_the_values_of_the_lexicographic_order(name):
    h = COUNTER_INPUTS[name]
    assert ehrhart(h).coefficients == stream_ehrhart(h, ordered=False)[0]
    want = lex_histogram(h)
    assert _hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, None) == want
    assert volume(h) == sum(order * c for order, c in want.items())


def test_frontier_order_gives_the_lexicographic_values_on_both_sides():
    rng = random.Random(2010)
    graphs = [random_connected_graph(rng) for _ in range(15)]
    for h in dual_side_inputs() + graphs:
        want = lex_histogram(h)
        assert _hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, None) == want
        assert volume(h) == sum(order * c for order, c in want.items())
    for g in graphs:
        assert ehrhart(g).coefficients == stream_ehrhart(g, ordered=False)[0]


@pytest.mark.parametrize("total", [3, 8])
@pytest.mark.parametrize("name", ["A(5,2)", "A(6,3)", "random-3-uniform-b", "twisted-0", "twisted-3"])
def test_frontier_ordered_shards_merge_to_the_whole(name, total):
    h = COUNTER_INPUTS[name]
    shards = [(i, total) for i in range(total)]
    coefficients = [0] * (len(h.edges) + 1)
    for shard in shards:
        for k, c in enumerate(ehrhart(h, shard=shard).coefficients):
            coefficients[k] += c
    want = stream_ehrhart(h, ordered=False)[0]
    assert tuple(coefficients[: len(want)]) == want and not any(coefficients[len(want) :])
    histogram = lex_histogram(h)
    parts = [_hypertree_histogram(h, DEFAULT_SUBSET_BUDGET, shard) for shard in shards]
    assert sum(map(Counter, parts), Counter()) == histogram
    assert sum(volume(h, shard=shard) for shard in shards) == sum(order * c for order, c in histogram.items())


def test_a62_carry_counts_stay_under_the_frontier_bounds(k62, monkeypatch):
    # at 2**14 slots the lexicographic order makes 43696 carries for ehrhart
    # and 28097 for volume, the frontier order 16582 and 13002
    calls = []
    carry = census.carry
    monkeypatch.setattr(census, "carry", lambda *args: calls.append(1) or carry(*args))
    assert ehrhart(k62).leading_coefficient == 46632
    assert len(calls) <= 17000
    calls.clear()
    assert volume(k62) == 46632
    assert len(calls) <= 13500


def test_a62_census_stays_under_the_shared_table_bounds(k62, monkeypatch):
    # one table of COUNT_SLOTS slots, keyed by the edges still needed, the
    # last pivot and the live candidates, its entries holding edge suffixes
    # and sharing equal key pairs and items: 17140 carries at a tracemalloc
    # peak near 0.30 MB (26957 and 0.74 MB at 1024 unshared slots). The
    # peak is taken on a second run: the first also fills the interpreter's
    # free lists, about 0.55 MB whatever the table, by an amount that
    # depends on the tests run before it.
    report = hypertree_census(k62)
    tracemalloc.start()
    try:
        assert hypertree_census(k62) == report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.torsion_histogram == {1: 46608, 2: 12}
    assert peak < 400 << 10
    calls = []
    carry = census.carry
    monkeypatch.setattr(census, "carry", lambda *args: calls.append(1) or carry(*args))
    assert hypertree_census(k62) == report
    assert len(calls) <= 17500
