"""Uniform hypergraphs as d-dimensional simplicial complexes.

A (d+1)-uniform hypergraph on vertices 1..n is treated as a complex whose
top simplices are the edges and whose lower skeleton is full. Simplices are
oriented by ascending vertex order; this fixes the boundary matrix and hence
a canonical representative of the associated zonotope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import BudgetExceededError
from .exactalg import IntMatrix

# The most entries `edge_columns` builds, comb(n, d) * (edges + d): its index
# of the d-subsets and its columns. 10**7 tuple slots are about 80 MB, far
# above the 875 that complete(7,4) needs.
DENSE_ENTRY_CAP = 10**7


@dataclass(frozen=True)
class Hypergraph:
    """(d+1)-uniform hypergraph on vertices 1..n, edges stored sorted."""

    n: int
    d: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.d <= self.n - 1:
            raise ValueError(f"d={self.d} must satisfy 1 <= d <= n-1 (n={self.n})")
        for prev, e in zip(((),) + self.edges, self.edges):  # () is below every edge
            if len(e) != self.d + 1:
                raise ValueError(f"edge {e} has {len(e)} vertices, expected {self.d + 1}")
            if any(not 1 <= v <= self.n for v in e):
                raise ValueError(f"edge {e} has a vertex outside 1..{self.n}")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {e} is not strictly increasing")
            if prev == e:
                raise ValueError(f"duplicate edge {e}")
            if prev > e:
                raise ValueError("edges must be listed in lexicographic order")

    @classmethod
    def from_edges(cls, n: int, d: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build a hypergraph, canonicalizing edge vertex order and edge order."""
        canon = sorted(tuple(sorted(int(v) for v in e)) for e in edges)
        return cls(n, d, tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_position(self, edge: Iterable[int]) -> int:
        return _edge_positions(self)[tuple(sorted(edge))]


@lru_cache(maxsize=None)
def _edge_positions(h: Hypergraph) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(h.edges)}


def complete_hypergraph(n: int, d: int) -> Hypergraph:
    """The complete (d+1)-uniform hypergraph on n vertices."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"d={d} must satisfy 1 <= d <= n-1 (n={n})")
    return Hypergraph(n, d, tuple(combinations(range(1, n + 1), d + 1)))


def cycle_space_dim(n: int, d: int) -> int:
    """Dimension of the degree-(d-1) cycle space of the full skeleton on n vertices."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"d={d} must satisfy 1 <= d <= n-1 (n={n})")
    return comb(n - 1, d)


class SimplexIndex:
    """Bijection between size-k subsets of {1..n} and positions, in lex order."""

    def __init__(self, n: int, size: int):
        if size < 0 or size > n:
            raise ValueError(f"subset size {size} out of range for n={n}")
        self.n = n
        self.size = size
        self._subsets = tuple(combinations(range(1, n + 1), size))
        self._positions = {s: i for i, s in enumerate(self._subsets)}

    def __len__(self) -> int:
        return len(self._subsets)

    def __iter__(self):
        return iter(self._subsets)

    def subset_at(self, i: int) -> tuple[int, ...]:
        return self._subsets[i]

    def index_of(self, subset: Iterable[int]) -> int:
        key = tuple(sorted(subset))
        try:
            return self._positions[key]
        except KeyError:
            raise ValueError(f"{key} is not a size-{self.size} subset of 1..{self.n}") from None


@lru_cache(maxsize=None)
def simplex_index(n: int, size: int) -> SimplexIndex:
    return SimplexIndex(n, size)


def permutation_sign(seq: Sequence) -> int:
    """Sign of the permutation sorting seq ascending; 0 if entries repeat."""
    items = list(seq)
    inversions = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j]:
                return 0
            if items[i] > items[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def boundary_column(n: int, vertices: Sequence[int]) -> list[int]:
    """Boundary of one ordered simplex as a column over all codimension-1 subsets.

    The column for a permuted vertex tuple is the canonical column times the
    sign of the permutation.
    """
    sign = permutation_sign(vertices)
    if sign == 0:
        raise ValueError(f"repeated vertices in {tuple(vertices)}")
    sorted_vs = tuple(sorted(vertices))
    k = len(vertices) - 1
    idx = simplex_index(n, k)
    col = [0] * len(idx)
    for i in range(k + 1):
        face = sorted_vs[:i] + sorted_vs[i + 1 :]
        col[idx.index_of(face)] = sign if i % 2 == 0 else -sign
    return col


@lru_cache(maxsize=None)
def edge_columns(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Boundary columns of the edges, one integer tuple per edge; a
    BudgetExceededError before anything is built if they and the index of
    the d-subsets would hold more than DENSE_ENTRY_CAP entries."""
    entries = comb(h.n, h.d) * (len(h.edges) + h.d)
    if entries > DENSE_ENTRY_CAP:
        raise BudgetExceededError(entries, DENSE_ENTRY_CAP, "dense boundary entries")
    return tuple(tuple(boundary_column(h.n, e)) for e in h.edges)


@lru_cache(maxsize=None)
def boundary_matrix(h: Hypergraph) -> IntMatrix:
    """Top boundary map: rows are all d-subsets of 1..n (lex), columns the edges."""
    return IntMatrix.from_rows(edge_columns(h), cols=comb(h.n, h.d)).transpose()


@dataclass(frozen=True)
class Chain:
    """Coefficient vector over the lexicographically indexed simplices of one size."""

    coeffs: tuple

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]


def coboundary_apply(h: Hypergraph, gamma) -> Chain:
    """Coboundary of a cochain on (d-1)-simplices, evaluated on the canonical edges.

    Entry j is the pairing of gamma with the boundary of edge j, i.e. the
    transpose of the boundary matrix applied to gamma.
    """
    values = list(getattr(gamma, "coeffs", gamma))
    size = comb(h.n, h.d)
    if len(values) != size:
        raise ValueError(f"cochain has {len(values)} entries, expected {size}")
    return Chain(tuple(sum(c * x for c, x in zip(col, values) if c) for col in edge_columns(h)))
