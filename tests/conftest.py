import random
from itertools import combinations

import pytest

from acyclo import Hypergraph, complete_hypergraph


RP2_TRIANGLES = (
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (1, 4, 6),
    (1, 5, 6),
    (2, 3, 6),
    (2, 4, 5),
    (2, 5, 6),
    (3, 4, 5),
    (3, 4, 6),
)


@pytest.fixture(scope="session")
def k34():
    return complete_hypergraph(4, 2)


@pytest.fixture(scope="session")
def k3():
    return complete_hypergraph(3, 1)


@pytest.fixture(scope="session")
def k62():
    return complete_hypergraph(6, 2)


@pytest.fixture(scope="session")
def rp2_triangles():
    return RP2_TRIANGLES


def random_connected_graph(rng: random.Random, max_vertices: int = 7) -> Hypergraph:
    """Random connected graph: a random spanning tree plus random extra edges."""
    n = rng.randint(3, max_vertices)
    edges = set()
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    for i in range(1, n):
        a = vertices[rng.randrange(i)]
        b = vertices[i]
        edges.add(tuple(sorted((a, b))))
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add(tuple(sorted((a, b))))
    return Hypergraph.from_edges(n, 1, edges)


def random_hypergraph(rng: random.Random, n: int, d: int, num_edges: int) -> Hypergraph:
    """num_edges distinct random (d+1)-subsets of 1..n."""
    pool = list(combinations(range(1, n + 1), d + 1))
    return Hypergraph.from_edges(n, d, rng.sample(pool, num_edges))
