"""Spanning hyperforest/hypertree enumeration and derived zonotope statistics.

The enumerator walks edge subsets in lexicographic depth-first order of the
columns it is given, on an explicit stack. Each level keeps its remaining
candidate columns reduced, by fraction-free (Bareiss) elimination, against
the chosen ones, each packed into one int of signed digits
(`exactalg.pack`): choosing a column applies one step of `exactalg.carry` to
each later candidate, and a candidate that reduces to zero is dependent in
the whole subtree, so it is dropped there.
The last pivot equals (up to sign) the determinant of the pivot submatrix of
the chosen columns; when it is +-1 the column lattice is saturated and the
torsion order is 1 without a Smith-form call. One DFS, `_forest_nodes`,
serves every caller: the census and the hyperforest enumeration list its
sets, while `ehrhart` and `volume`, through `_count_forests`, have it count
the sets whose last pivot is +-1 and list only the others. It starts from
`_prefix_states` and caches each subtree in one table of COUNT_SLOTS slots:
what the subtree counted and, to replay, the edges of the sets it listed.

How many distinct subtrees the DFS meets depends on the edge order. So
`ehrhart`, `volume` and the census run on the columns in `_frontier_order`,
which keeps few rows shared between the edges already decided and those
still to come; `enumerate_spanning_hyperforests` keeps the input order, as
its stream is lexicographic in the edges of h.

The columns are the boundary columns restricted to the d-subsets that miss
vertex 1 (Duval, Klivans and Martin, *Simplicial matrix-tree theorems*,
2009). That restriction maps the cycle space Z_{d-1} isomorphically onto the
integer lattice of those comb(n-1, d) rows, so independence and saturation
indices are those of the full columns, and a spanning hypertree's columns
form a square matrix whose determinant, the last pivot up to sign, is its
torsion order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import comb, prod
from typing import Iterator, Optional

from .complexes import (
    Hypergraph,
    complete_hypergraph,
    cycle_space_dim,
    edge_columns,
)
from .errors import BudgetExceededError
from .exactalg import IntMatrix, _invariant_factors, carry, lead, pack, pack_width, snf, unpack
from .homology import SubcomplexSelection

DEFAULT_SUBSET_BUDGET = 2_000_000
# Slots of `_forest_nodes`'s subtree table, the one table of the census,
# `ehrhart` and `volume`. A(6,2)'s full DFS in `_frontier_order` carries
# 200812 times into only 3077 distinct states with candidates left (7868 in
# the order of its edges). 2**14 slots cut its carries to 16582 for the
# Ehrhart sum, 13002 for the volume and 17140 for the census (98604 without
# a table, 26957 at 1024 slots), at tracemalloc peaks of about 0.34, 0.33
# and 0.30 MB, as the stored keys and items share their equal values. Of
# 2**12 to 2**16 slots, 2**14 is the smallest within 2% of the least census
# workload time; a table must stay bounded on any input.
COUNT_SLOTS = 1 << 14
REPLAY_ITEMS = 32  # the most items a slot stores to replay

Shard = tuple[int, int]  # (index, total)


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Integer coefficients; index k holds the coefficient of t**k."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1]


@dataclass
class CensusReport:
    """Torsion-weighted spanning hypertree statistics of one enumeration."""

    hypertree_count: int
    weighted_volume: int
    kalai_sum: int
    torsion_histogram: dict[int, int]

    @classmethod
    def from_histogram(cls, histogram: dict[int, int]) -> "CensusReport":
        count = sum(histogram.values())
        weighted = sum(order * c for order, c in histogram.items())
        squared = sum(order * order * c for order, c in histogram.items())
        return cls(count, weighted, squared, dict(sorted(histogram.items())))

    def merged(self, other: "CensusReport") -> "CensusReport":
        hist = Counter(self.torsion_histogram)
        hist.update(other.torsion_histogram)
        return CensusReport.from_histogram(hist)

    def is_consistent(self) -> bool:
        return self == CensusReport.from_histogram(self.torsion_histogram)


def merge_census_reports(reports) -> CensusReport:
    return reduce(CensusReport.merged, reports, CensusReport.from_histogram({}))


def shard_prefixes(num_edges: int, shard: Shard) -> Iterator[tuple[bool, ...]]:
    """Inclusion patterns of the first ceil(log2 m) edges (at most num_edges)
    whose mask, edge j at bit j, is congruent to i mod m for shard (i, m).

    A DFS over edges that starts below each of these prefixes visits its
    shard's part of the search; the parts of shards 0..m-1 partition it.
    """
    index, total = shard
    plen = min(num_edges, max(total - 1, 0).bit_length())
    for mask in range(index, 1 << plen, total):
        yield tuple(bool(mask >> j & 1) for j in range(plen))


def _prefix_states(cols, b: int, shard: Optional[Shard], exact_size: Optional[int]):
    """The nodes a DFS starts from: for each of the shard's `shard_prefixes`
    (one empty prefix without a shard) that heads an independent subset
    which can still reach exact_size, (its chosen edges, their last pivot,
    the live candidates after it, the edges it still needs, 0 without
    exact_size). The columns are packed once, at digit width b."""
    packed = [(j, pack(c, b)) for j, c in enumerate(cols) if any(c)]
    for prefix in [()] if shard is None else shard_prefixes(len(cols), shard):
        chosen, pivot, live = [], 1, packed
        for j, included in enumerate(prefix):
            head = live[0] if live and live[0][0] == j else None
            live = live[1:] if head else live
            if included:
                if head is None:  # dependent: the prefix heads no subset
                    break
                chosen.append(j)
                pv = lead(head[1], b)
                live, pivot = carry(live, head[1], pivot, pv, b), pv
        else:
            need = 0 if exact_size is None else exact_size - len(chosen)
            if 0 <= need <= len(live):
                yield chosen, pivot, live, need


def _forest_nodes(
    cols,
    exact_size: Optional[int] = None,
    shard: Optional[Shard] = None,
    counts: Optional[list[int]] = None,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (edge indices, last Bareiss pivot) for independent subsets.

    Preorder lexicographic DFS; with exact_size set, only subsets of that
    size are yielded: a node's candidates stop where too few are left to
    reach it, and a child whose candidates cannot reach it is cut. With a
    shard, only subsets that start with one of its `shard_prefixes` are
    visited, so shards partition the stream. With counts, a list of
    len(cols) + 1 ints, a set whose last pivot is +-1 is counted instead of
    yielded, and added to counts at its size when the stream ends.

    The frame: `live` holds the current node's candidates, (edge, packed
    column reduced against the chosen ones) for each later edge independent
    of them, in order, `i` the next one to try, `pivot` its last pivot and
    `need` the edges it still needs (0 without exact_size). The stack holds
    the frames of the nodes above, each with the key, trail mark and `total`
    on entry of the node below it. `total` packs the counted sets one digit
    per size (`exactalg.pack`), so a subtree's counts are a difference.

    The sets below a node depend only on its need, last pivot and live
    candidates, after the node's own edges. So a node with two or more
    candidates that needs other than exactly one more edge (below the
    others each set costs a lead and no carry) stores, under that key, in
    the slot of a table of COUNT_SLOTS slots its hash picks, overwriting
    what was there, what it counted and, if it yielded at most
    REPLAY_ITEMS items, their edges after its own; a later equal child adds
    the one and replays the other after its own edges (Haggard, Pearce and
    Royle, *Computing Tutte polynomials*, 2010, cache a result per distinct
    minor the same way). The slot is picked once, on lookup, and kept in the
    frame.

    The stored entries hold few distinct values: on A(6,2) the 17516
    candidate pairs of the keys take 594. So on storing, each key pair and
    replay item is replaced by the first equal one stored, through the dict
    `shared` (hash-consing: Filliatre and Conchon, *Type-safe modular
    hash-consing*, 2006). Once `shared` holds more objects than the table
    has slots it is cleared, which only ends sharing with what is stored.
    """
    b = pack_width(cols)
    table = [None] * COUNT_SLOTS
    shared = {}  # the first stored object equal to each key pair and replay item
    units = () if counts is None else (1, -1)  # the pivots that are counted
    w = len(cols) + 2  # a digit per size holds up to 2**len(cols) sets (`pack`)
    total = 0  # the counted sets, packed by size
    for chosen, pivot, live, need in _prefix_states(cols, b, shard, exact_size):
        if not need:
            if pivot in units:
                total += 1 << w * len(chosen)
            else:
                yield tuple(chosen), pivot
            if exact_size is not None:
                continue
        stack = []
        trail, base, i = [], 0, 0  # the items since the dropped ones, how many were dropped
        while True:
            if i > len(live) - (need or 1):
                if not stack:
                    break
                live, i, pivot, need, key, slot, mark, entered = stack.pop()
                if base + len(trail) - mark > REPLAY_ITEMS:  # as have the nodes above: drop them
                    base, trail = base + len(trail), []
                elif key is not None:
                    if len(shared) > len(table):
                        shared.clear()
                    depth = len(chosen)
                    items = tuple([shared.setdefault(t := (e[depth:], p), t) for e, p in trail[mark - base :]])
                    key = (*key[:2], *[shared.setdefault(c, c) for c in key[2:]])
                    table[slot] = (key, items, total - entered >> w * depth)
                chosen.pop()
                continue
            j, x = live[i]
            i += 1
            pv = lead(x, b)
            if need <= 1:
                if pv in units:
                    total += 1 << w * (len(chosen) + 1)
                else:
                    trail.append(item := ((*chosen, j), pv))
                    yield item
                if need or i == len(live):  # a leaf needs no reduced candidates
                    continue
            rest = carry(live[i:], x, pivot, pv, b)
            if not rest or len(rest) < need - 1:
                continue
            key = slot = None
            if need != 2 and len(rest) > 1:
                key = (need and need - 1, pv, *rest)
                slot = hash(key) % len(table)
                entry = table[slot]
                if entry is not None and entry[0] == key:
                    total += entry[2] << w * (len(chosen) + 1)
                    if entry[1]:
                        trail += [((*chosen, j, *e), p) for e, p in entry[1]]
                        yield from trail[len(trail) - len(entry[1]) :]
                    continue
            chosen.append(j)
            stack.append((live, i, pivot, need, key, slot, base + len(trail), total))
            live, i, pivot, need = rest, 0, pv, need and need - 1
    if counts is not None:
        for k, c in enumerate(unpack(total, w, len(counts))):
            counts[k] += c


def _count_forests(
    cols, shard: Optional[Shard] = None, exact_size: Optional[int] = None
) -> tuple[list[int], list[tuple[tuple[int, ...], int]]]:
    """The `_forest_nodes(cols, exact_size, shard)` stream, counted: entry k
    of the first result is the number of its k-edge sets whose last pivot is
    +-1; the second lists the other, twisted, sets as (edges, pivot), in
    stream order."""
    counts = [0] * (len(cols) + 1)
    twisted = list(_forest_nodes(cols, exact_size, shard, counts))
    return counts, twisted


def _cone_columns(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Boundary columns on the d-subsets that miss vertex 1, the last
    comb(n-1, d) rows in lexicographic order."""
    rows = cycle_space_dim(h.n, h.d)
    return tuple(c[-rows:] for c in edge_columns(h))


def _frontier_order(cols) -> list[int]:
    """A permutation of the column indices that keeps the DFS's frontier
    small: it repeatedly takes the column that opens the fewest rows net, its
    support rows no taken column touches minus those no other untaken column
    touches (which it closes), ties to the lower index (Kawahara, Inoue,
    Iwashita and Minato, *Frontier-based search for enumerating all
    constrained subgraphs with compressed representation*, IEICE Trans.,
    2017)."""
    supports = [{r for r, v in enumerate(c) if v} for c in cols]
    touching = Counter(r for rows in supports for r in rows)
    opened: set[int] = set()

    def net_opened(j: int) -> int:
        return len(supports[j] - opened) - sum(touching[r] == 1 for r in supports[j])

    left, order = list(range(len(cols))), []
    while left:
        j = min(left, key=net_opened)  # the first of the least, so the lowest index
        left.remove(j)
        order.append(j)
        opened |= supports[j]
        touching.subtract(supports[j])
    return order


def _torsion_of(cols, chosen: tuple[int, ...]) -> int:
    rows = [[cols[j][r] for j in chosen] for r in range(len(cols[0]))]
    return prod(filter(None, _invariant_factors(rows, len(rows), len(chosen))))


def _hypertree_side(h: Hypergraph, budget: int):
    """(columns, size, g) whose size-`size` independent sets are h's spanning
    hypertrees, each of torsion order g times its absolute last pivot, or
    None when h has none. The columns are the cone columns, m of them to a
    set, unless the co-rank k = E - m is below m: then they pick the k edges
    each hypertree misses, on the rows of a kernel Z-basis (the Smith form's
    last k right-transform columns), where an m x m minor is g times the
    complementary k x k one up to sign, g the product of the nonzero
    invariant factors (Bjorner et al., *Oriented Matroids*, 1999). Either
    way they come in `_frontier_order`, so the edge indices of a set are
    positions in that order."""
    m = cycle_space_dim(h.n, h.d)
    k = len(h.edges) - m
    if k < 0:
        return None
    bound = comb(len(h.edges), m)
    if bound > budget:
        raise BudgetExceededError(bound, budget, "hypertree enumeration")
    cols, g = _cone_columns(h), 1
    if k < m:
        res = snf(IntMatrix.from_rows(list(zip(*cols)), cols=len(cols)))
        factors = [f for f in res.invariant_factors if f]
        if len(factors) < m:
            return None
        cols, g = [res.right_transform.row(e)[m:] for e in range(len(cols))], prod(factors)
    return [cols[j] for j in _frontier_order(cols)], min(k, m), g


def _hypertree_histogram(h: Hypergraph, budget: int, shard: Optional[Shard]) -> dict[int, int]:
    """Spanning hypertrees of h counted by torsion order, listed on
    `_hypertree_side`'s columns."""
    side = _hypertree_side(h, budget)
    if side is None:
        return {}
    cols, size, g = side
    return Counter(g * abs(p) for _, p in _forest_nodes(cols, exact_size=size, shard=shard))


def enumerate_spanning_hyperforests(
    h: Hypergraph, shard: Optional[Shard] = None
) -> Iterator[SubcomplexSelection]:
    """Every edge subset with independent boundary columns, exactly once."""
    for chosen, _ in _forest_nodes(_cone_columns(h), shard=shard):
        yield SubcomplexSelection(h, chosen)


def ehrhart(
    h: Hypergraph, budget: int = DEFAULT_SUBSET_BUDGET, shard: Optional[Shard] = None
) -> EhrhartPolynomial:
    """Lattice-point counting polynomial of the hypergraphic zonotope.

    The coefficient of t**k is the sum of torsion orders over the k-edge
    spanning hyperforests: 1 for each set `_count_forests` counts, and a
    Smith form for each set whose last pivot is not +-1. The counter runs
    on the cone columns in `_frontier_order`, which the twisted sets index.
    """
    bound = 2 ** len(h.edges)
    if bound > budget:
        raise BudgetExceededError(bound, budget, "hyperforest enumeration")
    cols = _cone_columns(h)
    cols = [cols[j] for j in _frontier_order(cols)]
    coeffs, twisted = _count_forests(cols, shard)
    for chosen, _ in twisted:
        coeffs[len(chosen)] += _torsion_of(cols, chosen)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return EhrhartPolynomial(tuple(coeffs))


def volume(
    h: Hypergraph, budget: int = DEFAULT_SUBSET_BUDGET, shard: Optional[Shard] = None
) -> int:
    """Normalized volume: total torsion over spanning hypertrees (0 if none),
    counted on `_hypertree_side`'s columns: a square set's |last pivot| is
    its torsion order, so no Smith form is needed."""
    side = _hypertree_side(h, budget)
    if side is None:
        return 0
    cols, size, g = side
    counts, twisted = _count_forests(cols, shard, exact_size=size)
    return g * (counts[size] + sum(abs(p) for _, p in twisted))


def lattice_point_count(
    h: Hypergraph, budget: int = DEFAULT_SUBSET_BUDGET, shard: Optional[Shard] = None
) -> int:
    """Number of lattice points of the zonotope (Ehrhart value at t=1)."""
    return sum(ehrhart(h, budget=budget, shard=shard).coefficients)


def hypertree_census(
    h: Hypergraph, budget: int = DEFAULT_SUBSET_BUDGET, shard: Optional[Shard] = None
) -> CensusReport:
    """The spanning hypertrees of h grouped by torsion order."""
    return CensusReport.from_histogram(_hypertree_histogram(h, budget, shard))


def kalai_census(
    n: int, d: int, budget: int = DEFAULT_SUBSET_BUDGET, shard: Optional[Shard] = None
) -> CensusReport:
    """`hypertree_census` of the complete hypergraph, whose squared-torsion
    total is the weighted hypertree count n**comb(n-2, d)."""
    return hypertree_census(complete_hypergraph(n, d), budget, shard)


def duality_volume_check(n: int, d: int, budget: int = DEFAULT_SUBSET_BUDGET) -> tuple[int, int]:
    """Volumes of the acyclohedra for dimensions d and n-d-2 (they agree)."""
    if n < d + 3:
        raise ValueError(f"duality needs n >= d+3, got n={n}, d={d}")
    dual_d = n - d - 2
    return (
        volume(complete_hypergraph(n, d), budget=budget),
        volume(complete_hypergraph(n, dual_d), budget=budget),
    )
