"""Seeded job lists for the acyclo benchmark.

A job is one `acyclo` command line together with a value that the command's
JSON report must contain. Every expected value comes from outside the code
path the command runs: closed formulas, published counts, a Laplacian
determinant, or the way an input was built.

The builders take the imported `acyclo` package as an argument instead of
importing it here, because the benchmark imports the package afresh for every
set-up it times, and hypergraphs built by one import do not compare equal to
those of another (nor hit its caches).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("census", "faces", "tournaments")

# Kalai's weighted hypertree count n**comb(n-2, d) for A(6,2), and the torsion
# histogram of its 46620 spanning hypertrees.
KALAI_6_2 = (6**6, {1: 46608, 2: 12})
EHRHART_6_2 = (1, 20, 190, 1140, 4830, 15264, 36900, 68400, 94800, 90720, 46632)
# n**(n-2) for the dual pair (7,1) ~ (7,4).
VOLUME_7_4 = 7**5
# Vertices of the permutohedron A(6,1) are the 6! permutations.
VERTICES_6_1 = 720
# f-vector of A(5,2), confirmed by the Zaslavsky rank formula.
F_VECTOR_5_2 = {0: 544, 1: 2040, 2: 2970, 3: 2060, 4: 660, 5: 74, 6: 1}

GRAPH_VERTICES = 8
# The same densities for every seed. With the three fixed jobs the median job
# is then the middle of the five 19-edge graphs, not the boundary between two
# edge counts, whose times differ by about 40%.
GRAPH_EDGE_COUNTS = (16, 17, 18, 19, 19, 19, 19, 19, 20)
# Near-regular graphs: the DFS cost then follows the edge count, not the
# degree imbalance of one draw. Over 40 seeds the spanning-tree count of the
# median graph varies by 3.1% (quartile distance over median) with this
# limit, against 17.6% for unconstrained connected graphs.
DEGREE_SPREAD = 2
# Complete hypergraphs of rank comb(6,2) = 15 and comb(6,3) = 20: both above
# the Fourier-Motzkin variable limit, so every check runs the simplex.
TOURNAMENT_SHAPES = ((7, 2), (7, 3))
TOURNAMENTS_PER_KIND = 10
COCHAIN_RANGE = 10**6


@dataclass(frozen=True)
class Job:
    """One command line and the value `observe` must read from its report."""

    label: str
    argv: tuple[str, ...]
    observe: Callable[[dict], object]
    expected: object


@dataclass(frozen=True)
class Tournament:
    """A proper sign pattern on the edges of the complete hypergraph (n, d).

    `certificate` proves the answer: for an acyclic pattern it is an integer
    cochain on the d-subsets whose coboundary has exactly these signs; for a
    cyclic one it is a cycle z on the edges with z_e * signs_e > 0 wherever
    z_e != 0, which no cochain can be positive against.
    """

    n: int
    d: int
    signs: tuple[int, ...]
    acyclic: bool
    certificate: tuple[int, ...]

    def as_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


def _kalai(report: dict):
    hist = {int(k): int(v) for k, v in report["torsion_histogram"].items()}
    return int(report["kalai_sum"]), hist


def _ehrhart(report: dict):
    return tuple(int(c) for c in report["ehrhart"]["coefficients"])


def _volume(report: dict):
    return int(report["volume"])


def _f_vector(report: dict):
    return {int(k): int(v) for k, v in report["f_vector"].items()}, len(report["faces"])


def _vertices(report: dict):
    return int(report["count"]), len({v["pattern"] for v in report["vertices"]})


def _acyclic(report: dict):
    return report["acyclic"]


def random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct edges on vertices 1..n, redrawn until the graph is connected
    and its degrees differ by at most DEGREE_SPREAD."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = sorted(rng.sample(pairs, m))
        degree = [0] * (n + 1)
        neighbours: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
            neighbours[a].append(b)
            neighbours[b].append(a)
        if max(degree[1:]) - min(degree[1:]) > DEGREE_SPREAD:
            continue
        reached = {1}
        frontier = [1]
        while frontier:
            for w in neighbours[frontier.pop()]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) == n:
            return edges


def acyclic_tournament(rng: random.Random, pkg, n: int, d: int) -> Tournament:
    """Signs of the coboundary of a random cochain, redrawn until none is zero."""
    h = pkg.complete_hypergraph(n, d)
    width = len(pkg.complexes.simplex_index(n, d))
    while True:
        gamma = tuple(rng.randint(-COCHAIN_RANGE, COCHAIN_RANGE) for _ in range(width))
        values = pkg.coboundary_apply(h, gamma).coeffs
        if all(values):
            signs = tuple(1 if v > 0 else -1 for v in values)
            return Tournament(n, d, signs, True, gamma)


def planted_tournament(rng: random.Random, pkg, n: int, d: int) -> Tournament:
    """Random signs, overwritten on the boundary of a random (d+1)-simplex.

    The boundary z of the simplex on d+2 vertices is a cycle; the pattern
    takes z's signs (or their negation) on its support, so by Gordan's
    alternative no cochain realizes it.
    """
    h = pkg.complete_hypergraph(n, d)
    signs = [rng.choice((1, -1)) for _ in h.edges]
    simplex = sorted(rng.sample(range(1, n + 1), d + 2))
    orientation = rng.choice((1, -1))
    cycle = [0] * len(h.edges)
    for i in range(d + 2):
        face = simplex[:i] + simplex[i + 1 :]
        pos = h.edge_position(face)
        cycle[pos] = orientation * (-1) ** i
        signs[pos] = cycle[pos]
    return Tournament(n, d, tuple(signs), False, tuple(cycle))


def _support_rows_warm_up(pkg, shapes):
    """Feasibility checks on complete hypergraphs read the row basis that
    `faces._support_rows` caches (filling `edge_columns` on the way)."""
    return [functools.partial(pkg.faces._support_rows, pkg.complete_hypergraph(n, d)) for n, d in shapes]


def census_jobs(rng: random.Random, pkg, workdir: Path):
    jobs = [
        Job("kalai-census 6 2", ("kalai-census", "--complete", "6", "2"), _kalai, KALAI_6_2),
        Job("ehrhart 6 2", ("ehrhart", "--complete", "6", "2"), _ehrhart, EHRHART_6_2),
        Job("volume 7 4", ("volume", "--complete", "7", "4"), _volume, VOLUME_7_4),
    ]
    hypergraphs = [pkg.complete_hypergraph(6, 2), pkg.complete_hypergraph(7, 4)]
    for i, m in enumerate(GRAPH_EDGE_COUNTS):
        edges = random_graph(rng, GRAPH_VERTICES, m)
        g = pkg.Hypergraph.from_edges(GRAPH_VERTICES, 1, edges)
        path = workdir / f"graph{i:02d}.json"
        path.write_text(json.dumps({"n": GRAPH_VERTICES, "d": 1, "edges": [list(e) for e in edges]}))
        jobs.append(
            Job(
                f"volume graph{i:02d} ({m} edges)",
                ("volume", "--input", str(path)),
                _volume,
                pkg.kirchhoff_tree_count(g),
            )
        )
        hypergraphs.append(g)
    return jobs, [functools.partial(pkg.edge_columns, h) for h in hypergraphs]


def faces_jobs(rng: random.Random, pkg, workdir: Path):
    jobs = [
        Job("faces 5 2", ("faces", "--complete", "5", "2"), _f_vector,
            (F_VECTOR_5_2, sum(F_VECTOR_5_2.values()))),
        Job("vertices 6 1", ("vertices", "--complete", "6", "1"), _vertices,
            (VERTICES_6_1, VERTICES_6_1)),
        Job("vertices 5 2", ("vertices", "--complete", "5", "2"), _vertices,
            (F_VECTOR_5_2[0], F_VECTOR_5_2[0])),
    ]
    return jobs, _support_rows_warm_up(pkg, ((5, 2), (6, 1)))


def tournaments(rng: random.Random, pkg) -> list[Tournament]:
    out = []
    for n, d in TOURNAMENT_SHAPES:
        for _ in range(TOURNAMENTS_PER_KIND):
            out.append(acyclic_tournament(rng, pkg, n, d))
            out.append(planted_tournament(rng, pkg, n, d))
    return out


def tournament_jobs(rng: random.Random, pkg, workdir: Path):
    jobs = []
    for i, t in enumerate(tournaments(rng, pkg)):
        kind = "acyclic" if t.acyclic else "planted"
        argv = ("tournament-check", "--complete", str(t.n), str(t.d), f"--signs={t.as_string()}")
        jobs.append(Job(f"tournament {t.n} {t.d} #{i:02d} ({kind})", argv, _acyclic, t.acyclic))
    return jobs, _support_rows_warm_up(pkg, TOURNAMENT_SHAPES)


BUILDERS = {"census": census_jobs, "faces": faces_jobs, "tournaments": tournament_jobs}


def build(workload: str, seed: int, pkg, workdir: Path):
    """The workload's jobs in a seeded order, and its cache warm-up calls.

    Input files are written under workdir. The same seed gives the same jobs.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs, warm_up = BUILDERS[workload](rng, pkg, workdir)
    rng.shuffle(jobs)
    return jobs, warm_up
