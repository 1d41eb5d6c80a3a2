import hashlib
import json
import random
import signal
from itertools import combinations, permutations, product
from math import comb, factorial, gcd
from operator import mul
from pathlib import Path

import pytest

from acyclo import (
    Hypergraph,
    Hypertournament,
    IntMatrix,
    SignPattern,
    coboundary_apply,
    complete_hypergraph,
    cycle_space_dim,
    enumerate_vertices,
    face_lattice,
    facets,
    is_acyclic_hypertournament,
    nullspace,
    partition_pattern,
    permutation_sign,
    rank,
    vertex_adjacency,
    vertex_point,
)
from acyclo import faces, ratlp
from acyclo.census import shard_prefixes
from acyclo.cli import main
from acyclo.complexes import edge_columns
from acyclo.errors import BudgetExceededError
from acyclo.exactalg import lift, pack, primitive
from acyclo.ratlp import solve_feasibility

from conftest import RP2_TRIANGLES


def signs_of(values):
    return tuple(0 if v == 0 else (1 if v > 0 else -1) for v in values)


def assert_witness_realizes(h, pattern, witness):
    """The witness is a primitive (or zero) integer cochain whose coboundary
    has exactly the pattern's signs."""
    assert type(witness) is tuple and all(type(x) is int for x in witness)
    assert gcd(*witness) in (0, 1)
    assert signs_of(coboundary_apply(h, witness)) == pattern.values


def checked_validity(h, pattern):
    """faces.validity_check, with any witness it returns checked."""
    witness = faces.validity_check(h, pattern)
    if witness is not None:
        assert_witness_realizes(h, pattern, witness)
    return witness


def test_all_zero_pattern_valid(k34):
    w = checked_validity(k34, SignPattern((0, 0, 0, 0)))
    assert w == (0,) * 6


def test_k34_proper_patterns(k34):
    assert checked_validity(k34, SignPattern((1, 1, 1, 1))) is not None
    assert checked_validity(k34, SignPattern((1, -1, 1, -1))) is None
    assert checked_validity(k34, SignPattern((-1, 1, -1, 1))) is None
    count = 0
    for bits in range(16):
        values = tuple(1 if bits >> j & 1 else -1 for j in range(4))
        if checked_validity(k34, SignPattern(values)) is not None:
            count += 1
    assert count == 14


def test_witness_soundness(k34):
    for face in face_lattice(k34):
        assert_witness_realizes(k34, face.pattern, face.witness)


def test_vertices_k34(k34):
    verts = list(enumerate_vertices(k34))
    assert len(verts) == 14
    patterns = {p.values for p, _ in verts}
    assert len(patterns) == 14
    assert (1, -1, 1, -1) not in patterns
    for p, point in verts:
        assert point == vertex_point(k34, p)


@pytest.mark.parametrize("length", [1, 5])
def test_vertex_point_rejects_a_pattern_of_the_wrong_length(k34, length):
    with pytest.raises(ValueError, match=f"pattern covers {length} edges, hypergraph has 4"):
        vertex_point(k34, SignPattern((1,) * length))


def test_vertices_permutohedra():
    for n in (2, 3, 4):
        h = complete_hypergraph(n, 1)
        verts = list(enumerate_vertices(h))
        assert len(verts) == factorial(n)
        # each point, translated by (n-v) per coordinate v, is a permutation
        # of 0..n-1
        seen = set()
        for _, point in verts:
            shifted = tuple(point[v - 1] + (n - v) for v in range(1, n + 1))
            assert sorted(shifted) == list(range(n))
            seen.add(shifted)
        assert len(seen) == factorial(n)


def test_vertices_single_edge():
    h = Hypergraph(2, 1, ((1, 2),))
    verts = list(enumerate_vertices(h))
    assert len(verts) == 2
    points = {point for _, point in verts}
    assert points == {(0, 0), (-1, 1)}


def test_vertex_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_vertices(complete_hypergraph(6, 2), budget=1000))


def test_vertex_shards_partition(k34):
    full = {p.values for p, _ in enumerate_vertices(k34)}
    for total in (2, 3):
        sharded = []
        for i in range(total):
            sharded.extend(p.values for p, _ in enumerate_vertices(k34, shard=(i, total)))
        assert len(sharded) == len(full)
        assert set(sharded) == full


def test_vertex_adjacency(k34):
    plus = SignPattern((1, 1, 1, 1))
    flip0 = SignPattern((-1, 1, 1, 1))
    assert vertex_adjacency(k34, plus, flip0)
    assert not vertex_adjacency(k34, plus, plus)
    flip01 = SignPattern((-1, -1, 1, 1))
    assert not vertex_adjacency(k34, plus, flip01)
    with pytest.raises(ValueError):
        vertex_adjacency(k34, plus, SignPattern((1, 1, 1, 0)))
    with pytest.raises(ValueError):
        vertex_adjacency(k34, plus, SignPattern((1, -1, 1, -1)))


def test_edge_count_k34(k34):
    verts = [p for p, _ in enumerate_vertices(k34)]
    count = sum(
        1
        for a, b in combinations(verts, 2)
        if sum(1 for x, y in zip(a.values, b.values) if x != y) == 1
    )
    assert count == 24


def test_face_lattice_k34(k34):
    lattice = face_lattice(k34)
    assert lattice.f_vector() == {0: 14, 1: 24, 2: 12, 3: 1}
    assert lattice.full_face().pattern.values == (0, 0, 0, 0)
    assert len(lattice.facets()) == 12
    # every facet of the rhombic dodecahedron is a combinatorial rhombus
    for f in lattice.facets():
        assert len(lattice.vertices_of(f)) == 4


def test_face_lattice_hexagon(k3):
    lattice = face_lattice(k3)
    assert lattice.f_vector() == {0: 6, 1: 6, 2: 1}


def test_face_lattice_single_edge():
    h = Hypergraph(2, 1, ((1, 2),))
    lattice = face_lattice(h)
    assert lattice.f_vector() == {0: 2, 1: 1}
    patterns = {f.pattern.values for f in lattice}
    assert patterns == {(-1,), (0,), (1,)}


def test_face_dimension_formula(k34):
    cols = edge_columns(k34)
    for face in face_lattice(k34):
        zero_cols = [cols[j] for j, v in enumerate(face.pattern.values) if v == 0]
        rows = [[c[r] for c in zero_cols] for r in range(6)]
        assert face.dimension == rank(IntMatrix.from_rows(rows, cols=len(zero_cols)))


def test_face_dimension_matches_affine_hull(k34, k3):
    for h in (k34, k3):
        lattice = face_lattice(h)
        for face in lattice:
            pts = [vertex_point(h, f.pattern) for f in lattice.vertices_of(face)]
            base = pts[0]
            diffs = [[p[i] - base[i] for i in range(len(base))] for p in pts[1:]]
            geo_dim = rank(IntMatrix.from_rows(diffs, cols=len(base))) if diffs else 0
            assert geo_dim == face.dimension


def test_lattice_coherence(k34):
    for h in (k34, complete_hypergraph(4, 1)):
        lattice = face_lattice(h)
        vsets = {f.pattern.values: frozenset(v.pattern.values for v in lattice.vertices_of(f)) for f in lattice}
        for a in lattice:
            for b in lattice:
                refines = a.pattern.refines(b.pattern)
                contained = vsets[a.pattern.values] <= vsets[b.pattern.values]
                assert refines == contained


def test_one_faces_join_adjacent_vertices(k34):
    lattice = face_lattice(k34)
    adjacent_pairs = set()
    for f in lattice:
        if f.dimension == 1:
            vs = lattice.vertices_of(f)
            assert len(vs) == 2
            a, b = (v.pattern.values for v in vs)
            assert sum(1 for x, y in zip(a, b) if x != y) == 1
            adjacent_pairs.add(frozenset((a, b)))
    verts = [p.values for p, _ in enumerate_vertices(k34)]
    hamming_pairs = {
        frozenset((a, b))
        for a, b in combinations(verts, 2)
        if sum(1 for x, y in zip(a, b) if x != y) == 1
    }
    assert adjacent_pairs == hamming_pairs


def test_facets_of_graphs():
    for n in (3, 4):
        h = complete_hypergraph(n, 1)
        fs = facets(h)
        assert len(fs) == 2 ** n - 2


# Two hypergraphs whose edge columns have rank below cycle_space_dim(n, d):
# two disjoint edges (rank 2 of 3) and the boundary of a tetrahedron on
# vertices 1..4 inside n = 5 (rank 3 of 6).
SQUARE = Hypergraph(4, 1, ((1, 2), (3, 4)))
TETRAHEDRON_BOUNDARY = Hypergraph(5, 2, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))


@pytest.mark.parametrize(
    "h, full_dimension, count",
    [(SQUARE, 2, 4), (TETRAHEDRON_BOUNDARY, 3, 12)],
    ids=["square", "tetrahedron-boundary"],
)
def test_facets_of_a_rank_deficient_hypergraph(h, full_dimension, count):
    lattice = face_lattice(h)
    assert lattice.full_face().dimension == full_dimension < cycle_space_dim(h.n, h.d)
    fs = lattice.facets()
    assert len(fs) == count
    assert {f.dimension for f in fs} == {full_dimension - 1}
    assert facets(h) == fs


def test_partition_patterns_d1():
    # ordered 2-part splits give exactly the facet patterns of the graph case
    n = 4
    h = complete_hypergraph(n, 1)
    facet_patterns = {f.pattern.values for f in facets(h)}
    part_patterns = set()
    for bits in range(1, 2 ** n - 1):
        a = [v for v in range(1, n + 1) if bits >> (v - 1) & 1]
        b = [v for v in range(1, n + 1) if not bits >> (v - 1) & 1]
        part_patterns.add(partition_pattern(n, 1, (a, b)).values)
    assert part_patterns == facet_patterns


def test_partition_pattern_transversal(k34):
    p = partition_pattern(4, 2, ((1,), (2,), (3, 4)))
    nonzero = {k34.edges[j] for j, v in enumerate(p.values) if v != 0}
    assert nonzero == {(1, 2, 3), (1, 2, 4)}
    assert p.values[k34.edge_position((1, 2, 3))] == 1
    assert p.values[k34.edge_position((1, 2, 4))] == 1


def test_partition_pattern_sign_convention():
    # d=1: a in first block, b in second: sign +1 on (a, b), -1 on (b, a)
    p = partition_pattern(3, 1, ((2,), (1, 3)))
    h = complete_hypergraph(3, 1)
    assert p.value_on(h, (2, 1)) == 1
    assert p.value_on(h, (1, 2)) == -1
    assert p.value_on(h, (2, 3)) == 1


def test_all_ordered_partitions_valid_k34(k34):
    count = 0
    for parts in ordered_partitions(4, 3):
        pattern = partition_pattern(4, 2, parts)
        count += 1
        assert checked_validity(k34, pattern) is not None
    assert count == 36


def ordered_partitions(n, blocks):
    out = []

    def assign(v, acc):
        if v > n:
            if all(acc):
                out.append([list(b) for b in acc])
            return
        for b in acc:
            b.append(v)
            assign(v + 1, acc)
            b.pop()

    assign(1, [[] for _ in range(blocks)])
    return out


def test_partition_pattern_validation():
    with pytest.raises(ValueError):
        partition_pattern(4, 2, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        partition_pattern(4, 1, ((1, 2), (2, 3, 4)))
    with pytest.raises(ValueError):
        partition_pattern(4, 1, ((1, 2), (4,)))


def test_a52_exceptional_facet():
    h = complete_hypergraph(5, 2)
    values = [0] * 10
    for i in range(5):
        tup = (i % 5 + 1, (i + 1) % 5 + 1, (i + 2) % 5 + 1)
        values[h.edge_position(tup)] = permutation_sign(tup)
    pattern = SignPattern(tuple(values))
    assert checked_validity(h, pattern) is not None
    cols = edge_columns(h)
    zero_cols = [cols[j] for j, v in enumerate(pattern.values) if v == 0]
    rows = [[c[r] for c in zero_cols] for r in range(comb(5, 2))]
    dim = rank(IntMatrix.from_rows(rows, cols=len(zero_cols)))
    assert dim == cycle_space_dim(5, 2) - 1 == 5


def test_a52_regression_counts():
    # frozen after first verified enumeration: 544 vertices (the acyclic
    # 2-hypertournaments on 5 vertices) and 74 facets, of which 50 are
    # partition-induced and the other 24 are cyclic mod-5 patterns
    h = complete_hypergraph(5, 2)
    verts = list(enumerate_vertices(h))
    assert len(verts) == 544
    fs = facets(h)
    facet_patterns = {f.pattern.values for f in fs}
    assert len(facet_patterns) == 74
    induced = set()
    for parts in ordered_partitions(5, 3):
        induced.add(partition_pattern(5, 2, parts).values)
    assert len(facet_patterns & induced) == 50
    cyclic = set()
    for perm in permutations(range(1, 6)):
        values = [0] * 10
        for i in range(5):
            tup = (perm[i % 5], perm[(i + 1) % 5], perm[(i + 2) % 5])
            values[h.edge_position(tup)] = permutation_sign(tup)
        cyclic.add(tuple(values))
    assert facet_patterns - induced <= cyclic
    assert len(facet_patterns - induced) == 24


def test_sign_pattern_value_on_permuted(k34):
    p = SignPattern((1, -1, 0, 1))
    assert p.value_on(k34, (1, 2, 3)) == 1
    assert p.value_on(k34, (2, 1, 3)) == -1
    assert p.value_on(k34, (2, 3, 1)) == 1
    assert p.value_on(k34, (1, 2, 4)) == -1
    assert p.value_on(k34, (1, 3, 4)) == 0
    with pytest.raises(ValueError):
        p.value_on(k34, (1, 1, 2))


def test_sign_pattern_strings():
    p = SignPattern.from_string("+-0")
    assert p.values == (1, -1, 0)
    assert p.as_string() == "+-0"
    with pytest.raises(ValueError):
        SignPattern.from_string("+x")


def test_tournament_d1():
    # transitive orientation from a total order is acyclic
    k3 = complete_hypergraph(3, 1)
    transitive = Hypertournament(3, 1, (1, 1, 1))
    assert is_acyclic_hypertournament(transitive)
    # directed 3-cycle 1->2->3->1: sign -1 on canonical (1,3)
    cycle = Hypertournament(3, 1, (1, -1, 1))
    assert not is_acyclic_hypertournament(cycle)


def test_tournament_d2_n4():
    acyclic = 0
    for bits in range(16):
        orientation = tuple(1 if bits >> j & 1 else -1 for j in range(4))
        t = Hypertournament(4, 2, orientation)
        if is_acyclic_hypertournament(t):
            acyclic += 1
        else:
            assert orientation in ((1, -1, 1, -1), (-1, 1, -1, 1))
    assert acyclic == 14


def test_tournament_validation():
    with pytest.raises(ValueError):
        Hypertournament(4, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        Hypertournament(4, 2, (1, 1, 0, 1))


def test_face_budget():
    with pytest.raises(BudgetExceededError):
        face_lattice(complete_hypergraph(6, 2), budget=10)


def test_validity_on_k62(k62):
    valid = partition_pattern(6, 2, ((1, 2), (3, 4), (5, 6)))
    assert checked_validity(k62, valid) is not None
    # alternating signs on the tetrahedron spanned by 1..4, zero elsewhere:
    # the boundary relation among those four columns forbids any witness
    values = [0] * 20
    tetra = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    for sign, e in zip((1, -1, 1, -1), tetra):
        values[k62.edge_position(e)] = sign
    assert checked_validity(k62, SignPattern(tuple(values))) is None


def test_simplex_path_on_k72():
    # rank 15 cochain variables: more than one free variable, so these
    # route through the exact phase-one simplex
    h7 = complete_hypergraph(7, 2)
    valid = partition_pattern(7, 2, ((1, 2, 3), (4, 5), (6, 7)))
    assert checked_validity(h7, valid) is not None
    values = [0] * 35
    tetra = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    for sign, e in zip((1, -1, 1, -1), tetra):
        values[h7.edge_position(e)] = sign
    assert checked_validity(h7, SignPattern(tuple(values))) is None


def _acyclic_signs(rng, h):
    """Coboundary signs of a random integer cochain, redrawn until no edge
    gets zero."""
    while True:
        gamma = [rng.randint(-1000, 1000) for _ in range(comb(h.n, h.d))]
        values = coboundary_apply(h, gamma)
        if all(values):
            return signs_of(values)


def _cyclic_signs(rng, h):
    """Random signs overwritten with the signs of the boundary of a random
    (d+1)-simplex. Its pairing with the coboundary of any cochain is 0, so
    no cochain is positive against it."""
    signs = [rng.choice((1, -1)) for _ in h.edges]
    simplex = sorted(rng.sample(range(1, h.n + 1), h.d + 2))
    orientation = rng.choice((1, -1))
    for i in range(h.d + 2):
        signs[h.edge_position(simplex[:i] + simplex[i + 1 :])] = orientation * (-1) ** i
    return tuple(signs)


@pytest.mark.parametrize("n, d", [(7, 2), (7, 3)], ids=["A(7,2)-rank-15", "A(7,3)-rank-20"])
def test_tournament_check_above_fm_limit(n, d, capsys, monkeypatch):
    # every LP here has two or more free variables, so it runs the simplex
    simplex_calls = []
    simplex = ratlp._phase_one_simplex

    def counted(k, rows):
        simplex_calls.append(k)
        return simplex(k, rows)

    monkeypatch.setattr(ratlp, "_phase_one_simplex", counted)
    h = complete_hypergraph(n, d)
    rng = random.Random(n * 10 + d)
    cases = []
    for _ in range(4):
        cases.append((_acyclic_signs(rng, h), True))
        cases.append((_cyclic_signs(rng, h), False))
    for signs, acyclic in cases:
        text = "".join("+" if s > 0 else "-" for s in signs)
        code = main(["tournament-check", "--complete", str(n), str(d), f"--signs={text}"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["acyclic"] is acyclic
        assert (checked_validity(h, SignPattern(signs)) is not None) is acyclic
    assert len(simplex_calls) == 16
    assert min(simplex_calls) >= 2


def reference_fourier_motzkin(k, rows):
    """A point of the rows as integers X over one denominator D > 0, x = X / D,
    or None, by general Fourier-Motzkin elimination: the independent
    reference the simplex's verdicts are compared against. Each step
    eliminates the remaining variable with the fewest pos * neg
    combinations, the first in index order on a tie."""
    active = set(rows)
    remaining = list(range(k))
    stack = []
    while remaining:
        # eliminated variables are zero in every active row; slot k counts the rhs
        pos, neg = [0] * (k + 1), [0] * (k + 1)
        for r in active:
            for j, c in enumerate(r):
                if c:
                    (pos if c > 0 else neg)[j] += 1
        v = min(remaining, key=lambda j: pos[j] * neg[j])
        pos_rows, neg_rows, zero_rows = [], [], []
        for r in active:
            c = r[v]
            (pos_rows if c > 0 else neg_rows if c < 0 else zero_rows).append(r)
        active = set(zero_rows)
        stack.append((v, pos_rows, neg_rows))
        for rp in pos_rows:
            a = rp[v]
            for rn in neg_rows:
                e = -rn[v]
                combo = primitive([e * p + a * n for p, n in zip(rp, rn)])
                if any(combo[:k]):
                    active.add(combo)
                elif combo[k] > 0:
                    return None
        remaining.remove(v)

    # v takes its largest lower bound if it has one, else its least upper
    # bound, else 0. Bound num / (dv * D), dv > 0, is compared by
    # cross-multiplying; D grows when dv does not divide num.
    x, den = [0] * k, 1
    for v, pos_rows, neg_rows in reversed(stack):
        sign, best = (1 if pos_rows else -1), None
        for row in pos_rows or neg_rows:
            num, dv = sign * (row[k] * den - sum(map(mul, row, x))), sign * row[v]
            if best is None or sign * (num * best[1] - best[0] * dv) > 0:
                best = num, dv
        if best is not None:
            x, den = lift(x, den, v, *best)
    return x, den


def _via_fm_and_simplex(monkeypatch, nv, eqs, ges):
    """The system solved with `reference_fourier_motzkin` in place of both
    solvers, then with the simplex deciding every reduced system, one free
    variable included."""
    simplex = ratlp._phase_one_simplex
    monkeypatch.setattr(ratlp, "_phase_one_simplex", reference_fourier_motzkin)
    monkeypatch.setattr(ratlp, "_fourier_motzkin", lambda rows: reference_fourier_motzkin(1, rows))
    via_fm = solve_feasibility(nv, eqs, ges)
    monkeypatch.setattr(ratlp, "_phase_one_simplex", simplex)
    monkeypatch.setattr(ratlp, "_fourier_motzkin", lambda rows: simplex(1, rows))
    return via_fm, solve_feasibility(nv, eqs, ges)


def _assert_solves(point, nv, eqs, ges):
    """The point (X, D), x = X / D, meets every flat row: coeffs.X == rhs.D
    on the equalities and coeffs.X >= rhs.D on the inequalities."""
    xs, den = point
    assert len(xs) == nv and den > 0
    for row in eqs:
        assert sum(c * x for c, x in zip(row, xs)) == row[nv] * den
    for row in ges:
        assert sum(c * x for c, x in zip(row, xs)) >= row[nv] * den


def test_fm_and_simplex_agree(monkeypatch):
    rng = random.Random(41)
    for _ in range(60):
        nv = rng.randint(1, 4)
        eqs = []
        ges = []
        for _ in range(rng.randint(0, 2)):
            eqs.append((*(rng.randint(-3, 3) for _ in range(nv)), 0))
        for _ in range(rng.randint(1, 4)):
            ges.append((*(rng.randint(-3, 3) for _ in range(nv)), rng.randint(-2, 2)))
        via_fm, via_simplex = _via_fm_and_simplex(monkeypatch, nv, eqs, ges)
        assert (via_fm is None) == (via_simplex is None)
        for point in (via_fm, via_simplex):
            if point is not None:
                _assert_solves(point, nv, eqs, ges)


def _random_system(rng):
    """A system on 5-10 variables with at most 14 rows: equalities, zero and
    negative right-hand sides, scaled copies of rows (ties in the ratio test)
    and opposite copies (slabs, implicit equalities, empty systems). Half the
    time a planted integer point, on which many rows are tight, makes the
    system feasible with degenerate pivots."""
    nv = rng.randint(5, 10)
    point = [rng.randint(-2, 2) for _ in range(nv)] if rng.random() < 0.5 else None

    def coefficients():
        return [rng.choice((0, 0, 0, 0, 0, -1, 1, -2, 2, 3)) for _ in range(nv)]

    def value(coeffs):
        return sum(c * x for c, x in zip(coeffs, point))

    eqs = []
    for _ in range(rng.randint(0, 3)):
        coeffs = coefficients()
        eqs.append((*coeffs, value(coeffs) if point else rng.randint(-2, 2)))
    ges = []
    for _ in range(rng.randint(3, 9)):
        coeffs = coefficients()
        rhs = value(coeffs) - rng.choice((0, 0, 1, 2)) if point else rng.randint(-3, 2)
        ges.append((*coeffs, rhs))
    while len(eqs) + len(ges) < 14 and rng.random() < 0.6:
        *coeffs, rhs = rng.choice(ges)
        c = rng.choice((1, 2, 3, -1))
        if c > 0:
            ges.append((*(c * x for x in coeffs), c * rhs))
        else:
            top = value(coeffs) if point else rhs + rng.choice((-1, 0, 1))
            ges.append((*(-x for x in coeffs), -top))
    return nv, eqs, ges, point is not None


def test_fm_and_simplex_agree_on_larger_systems(monkeypatch):
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(150):
        nv, eqs, ges, planted = _random_system(rng)
        via_fm, via_simplex = _via_fm_and_simplex(monkeypatch, nv, eqs, ges)
        assert (via_fm is None) == (via_simplex is None)
        if planted:
            assert via_simplex is not None
        verdicts.add(via_simplex is None)
        for point in (via_fm, via_simplex):
            if point is not None:
                _assert_solves(point, nv, eqs, ges)
    assert verdicts == {True, False}


def test_phase_one_simplex_matches_its_golden():
    """(k, rows) -> (X, D) or None, recorded from the full-width dense-pivot
    simplex: the 40 LPs of the tournaments benchmark at seed 1, and
    `_random_system` systems whose runs hit ratio-test ties, degenerate
    pivots, entering w columns and pivots p != D."""
    golden = json.loads((Path(__file__).parent / "testdata" / "simplex_golden.json").read_text())
    assert len(golden["tournaments"]) == 40
    for system in golden["tournaments"] + golden["random"]:
        rows = [(*coeffs, rhs) for coeffs, rhs in system["rows"]]
        point = ratlp._phase_one_simplex(system["k"], rows)
        assert (point and list(point)) == system["point"]


def test_fourier_motzkin_matches_its_golden():
    """(k, rows) -> (X, D) or None, recorded from the (coefficients, rhs)
    pair-row elimination: every system an earlier `face_lattice(A(4,2))`
    sent to Fourier-Motzkin, and systems left by seeded `_random_system`s,
    many with tied bounds in the back-substitution. The rows' order in the
    active set follows their hashes; tied bounds are equal rationals, so the
    point does not depend on it. `reference_fourier_motzkin` gives every
    point, and `ratlp._fourier_motzkin` the one-variable ones."""
    golden = json.loads((Path(__file__).parent / "testdata" / "fm_golden.json").read_text())
    assert len(golden["face_lattice_A(4,2)"]) == 25
    one_variable = 0
    for system in golden["face_lattice_A(4,2)"] + golden["random"]:
        rows = [(*coeffs, rhs) for coeffs, rhs in system["rows"]]
        point = reference_fourier_motzkin(system["k"], rows)
        assert (point and list(point)) == system["point"]
        if system["k"] == 1:
            point = ratlp._fourier_motzkin(rows)
            assert (point and list(point)) == system["point"]
            one_variable += 1
    assert one_variable == 1


def test_one_variable_fourier_motzkin_matches_the_reference():
    """Seeded one-variable systems a.x >= b: lower bounds only (a > 0), upper
    bounds only (a < 0), both, with tied bounds written as scaled rows and
    with lower bounds above upper bounds."""
    rng = random.Random(2027)
    shapes = {"lower": 0, "upper": 0, "feasible": 0, "infeasible": 0, "tied": 0}
    for _ in range(400):
        bounds = [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        bounds += rng.sample(bounds, rng.randint(0, len(bounds)))  # ties
        rows = []
        for num, den in bounds:
            side, scale = rng.choice((1, -1)), rng.randint(1, 3)
            rows.append((side * scale * den, side * scale * num))
        rng.shuffle(rows)
        point = ratlp._fourier_motzkin(rows)
        assert point == reference_fourier_motzkin(1, rows)
        if all(a > 0 for a, _ in rows):
            shapes["lower"] += 1
        elif all(a < 0 for a, _ in rows):
            shapes["upper"] += 1
        else:
            shapes["feasible" if point else "infeasible"] += 1
        # two different rows on one side with equal bounds b / a
        if any(a * c > 0 and a * d == b * c and a != c for (a, b), (c, d) in combinations(rows, 2)):
            shapes["tied"] += 1
        if point is not None:
            (x,), den = point
            assert den > 0 and all(a * x >= b * den for a, b in rows)
    assert min(shapes.values()) >= 20, shapes


# 10 variables, 3 equalities and 11 inequalities, 7 free variables: a
# `_random_system`-style draw (coefficients from (0, 0, 0, -1, 1, -2, 2, 3),
# scaled copies only) on which general Fourier-Motzkin, with no redundancy
# rule, ran for more than 5 s.
BLOWUP_EQS = [
    (0, 0, 3, 1, 0, 0, 3, 0, -2, -1, -11),
    (2, 0, 0, 0, 0, 0, -1, 0, 2, 0, 8),
    (0, 0, 2, 0, -2, 1, -1, 3, -1, 0, -6),
]
BLOWUP_GES = [
    (3, 0, 0, 2, 3, 2, 0, 3, 0, 3, -1),
    (-1, -2, 0, 1, -1, 1, -2, -2, 1, -1, 0),
    (1, -1, 0, -1, 3, -2, 0, -2, 1, 0, 14),
    (0, 0, -1, -1, 0, 0, 1, -1, 2, 0, 3),
    (2, 2, -1, -1, 3, 0, 1, 0, 0, -1, 9),
    (0, 2, 0, 0, -2, -2, -2, 0, 2, 2, -2),
    (1, 0, 3, -1, -2, 0, 3, 3, 1, -2, -4),
    (0, 1, -1, -1, 0, -1, 3, -1, -2, 0, -5),
    (3, 2, 0, -1, 0, 0, 2, 3, 1, 0, 2),
    (0, 0, -1, -1, 0, 0, 1, -1, 2, 0, 3),
    (0, 2, 0, 0, -2, -2, -2, 0, 2, 2, -2),
]


def test_seven_free_variables_solve_within_a_time_budget():
    def out_of_time(signum, frame):
        raise TimeoutError("solve_feasibility took more than 5 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        point = solve_feasibility(10, BLOWUP_EQS, BLOWUP_GES)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert point is not None
    _assert_solves(point, 10, BLOWUP_EQS, BLOWUP_GES)


def random_3_uniform(seed, n=6, edges=7):
    rng = random.Random(seed)
    return Hypergraph.from_edges(n, 2, rng.sample(list(combinations(range(1, n + 1), 3)), edges))


@pytest.mark.parametrize(
    "h",
    [complete_hypergraph(4, 2), complete_hypergraph(4, 1), random_3_uniform(7), random_3_uniform(11, edges=6)],
    ids=["A(4,2)", "A(4,1)", "random-7-edges", "random-6-edges"],
)
def test_dfs_matches_bruteforce_validity(h):
    m = len(h.edges)
    valid = {
        values
        for values in product((1, -1, 0), repeat=m)
        if checked_validity(h, SignPattern(values)) is not None
    }
    lattice = face_lattice(h)
    assert len(lattice) == len(valid)
    assert {f.pattern.values for f in lattice} == valid
    for face in lattice:
        assert_witness_realizes(h, face.pattern, face.witness)
    vertices = [p.values for p, _ in enumerate_vertices(h)]
    assert len(vertices) == len(set(vertices))
    assert set(vertices) == {v for v in valid if 0 not in v}


class _CountingLP:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return solve_feasibility(*args, **kwargs)


@pytest.fixture(scope="module")
def a52_lattice_and_lp_calls():
    counter = _CountingLP()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("acyclo.faces.solve_feasibility", counter)
        lattice = face_lattice(complete_hypergraph(5, 2))
    return lattice, counter.calls


def test_a52_every_face_witness_realizes(a52_lattice_and_lp_calls):
    lattice, _ = a52_lattice_and_lp_calls
    h = complete_hypergraph(5, 2)
    assert lattice.f_vector() == {0: 544, 1: 2040, 2: 2970, 3: 2060, 4: 660, 5: 74, 6: 1}
    for face in lattice:
        assert_witness_realizes(h, face.pattern, face.witness)


def test_face_lattice_lp_ceiling(a52_lattice_and_lp_calls):
    # one LP per facet, to build its witness; the search itself solves none
    lattice, calls = a52_lattice_and_lp_calls
    assert calls == len(lattice.facets()) == 74


def test_vertex_lp_ceiling(monkeypatch):
    counter = _CountingLP()
    monkeypatch.setattr("acyclo.faces.solve_feasibility", counter)
    assert len(list(enumerate_vertices(complete_hypergraph(6, 1)))) == 720
    assert counter.calls <= 2899


def test_a52_vertex_shards_union():
    h = complete_hypergraph(5, 2)
    full = [p.values for p, _ in enumerate_vertices(h)]
    sharded = []
    for i in range(4):
        sharded.extend(p.values for p, _ in enumerate_vertices(h, shard=(i, 4)))
    assert len(full) == 544
    assert sorted(sharded) == sorted(full)


TETRAHEDRON_FILE = Hypergraph.from_edges(
    **json.loads((Path(__file__).parent / "testdata" / "tetrahedron_boundary_5_2.json").read_text())
)


def random_4_uniform(seed, n=6, edges=12):
    rng = random.Random(seed)
    return Hypergraph.from_edges(n, 3, rng.sample(list(combinations(range(1, n + 1), 4)), edges))


@pytest.mark.parametrize(
    "h",
    [
        complete_hypergraph(4, 2),
        complete_hypergraph(5, 1),
        random_3_uniform(3, n=5, edges=8),
        random_3_uniform(19, n=6, edges=12),
        complete_hypergraph(5, 2),
        TETRAHEDRON_FILE,  # rank 3, below cycle_space_dim(5, 2) = 6
        random_4_uniform(2),  # rank 9, 7 circuits
        Hypergraph.from_edges(6, 2, RP2_TRIANGLES + ((3, 5, 6), (4, 5, 6))),  # Bareiss pivots of 2
    ],
    ids=[
        "A(4,2)", "A(5,1)", "random-5-8", "random-6-12", "A(5,2)", "tetrahedron-boundary",
        "random-4-uniform-6-12", "rp2-and-two-triangles",
    ],
)
def test_signed_circuits_are_the_minimal_dependent_sets(h):
    cols = edge_columns(h)
    ambient = comb(h.n, h.d)
    m = len(cols)

    independent = []
    for mask in range(1 << m):
        chosen = [cols[j] for j in range(m) if mask >> j & 1]
        independent.append(rank(IntMatrix.from_rows(chosen, cols=ambient)) == len(chosen))
    minimal_dependent = {
        mask
        for mask in range(1, 1 << m)
        if not independent[mask]
        and all(independent[mask & ~(1 << j)] for j in range(m) if mask >> j & 1)
    }
    by_last = faces._signed_circuits(h)
    found = [(e, plus, minus) for e, ending in enumerate(by_last) for plus, minus in ending]
    assert minimal_dependent
    assert sorted(plus | minus for _, plus, minus in found) == sorted(minimal_dependent)
    for e, plus, minus in found:
        support = [j for j in range(m) if (plus | minus) >> j & 1]
        assert max(support) == e and plus >> e & 1 and not plus & minus
        matrix = IntMatrix.from_rows([[cols[j][r] for j in support] for r in range(ambient)])
        (kernel,) = nullspace(matrix)
        signs = tuple(1 if plus >> j & 1 else -1 for j in support)
        assert signs_of(kernel) in (signs, tuple(-s for s in signs))


def test_circuit_counts():
    assert [sum(map(len, faces._signed_circuits(complete_hypergraph(n, d)))) for n, d in
            [(5, 2), (6, 1), (6, 3), (6, 2), (7, 1)]] == [15, 197, 31, 570, 1172]


@pytest.mark.parametrize(
    "n, d, digest",
    [
        (6, 1, "e15fea74b4677c1d39c3d4edaa7d354413441af1523680143c27d44bbb409465"),
        (6, 3, "439ebb511e7230b67afefa634a9979b8a04317b408ee6b5440a40f1dc920b9fc"),
    ],
)
def test_circuit_lists_keep_their_order(n, d, digest):
    # the per-edge lists, in order, of the earlier Echelon-based search
    by_last = faces._signed_circuits(complete_hypergraph(n, d))
    assert hashlib.sha256(repr(by_last).encode()).hexdigest() == digest


@pytest.mark.parametrize("b", [2, 3, 8, 33])
def test_tag_support_reads_the_nonzero_digits(b):
    top, half = (1 << b - 1) - 1, 1 << b - 1
    bias = half * ((1 << b * 6) - 1) // ((1 << b) - 1)
    for tag in ([0] * 6, [top, -top, 0, -half, 1, 0], [0, 0, 0, 0, 0, -1], [-half] * 6, [1, 0, -1, 0, top, -top]):
        x = pack([0, 0] + tag, b)
        assert faces._tag_support(x, 2 * b, b, bias) == sum(1 << j for j, t in enumerate(tag) if t)


@pytest.mark.parametrize("shard", [None, (0, 4), (1, 4), (2, 4), (3, 4)], ids=["all", "0/4", "1/4", "2/4", "3/4"])
@pytest.mark.parametrize("n, d, count", [(6, 1, 720), (5, 2, 544)])
def test_vertex_search_solves_no_lp(n, d, count, shard, monkeypatch):
    counter = _CountingLP()
    monkeypatch.setattr("acyclo.faces.solve_feasibility", counter)
    vertices = list(enumerate_vertices(complete_hypergraph(n, d), shard=shard))
    if shard is None:
        assert len(vertices) == count
    assert counter.calls == 0


def test_face_lattice_lps_only_build_witnesses(monkeypatch):
    outcomes = []

    def recording(*args, **kwargs):
        result = solve_feasibility(*args, **kwargs)
        outcomes.append(result is not None)
        return result

    monkeypatch.setattr("acyclo.faces.solve_feasibility", recording)
    lattice = face_lattice(complete_hypergraph(5, 2))
    assert len(outcomes) == len(lattice.facets())
    assert all(outcomes)


@pytest.mark.parametrize(
    "h",
    [
        complete_hypergraph(4, 2),
        complete_hypergraph(5, 1),
        SQUARE,
        TETRAHEDRON_BOUNDARY,
        random_3_uniform(4, edges=9),
        random_3_uniform(4, edges=10),
    ],
    ids=["A(4,2)", "A(5,1)", "square", "tetrahedron-boundary", "random-6-9", "random-6-10"],
)
def test_witnesses_are_sums_of_facet_kernel_vectors(h, monkeypatch):
    """A facet's witness is +- the primitive kernel vector of its zero columns
    on the support rows, and any other face's is the primitive sum of the
    witnesses of the facets its pattern refines; so neither depends on the
    path that solves the facet LPs."""
    lattice = face_lattice(h)
    simplex = ratlp._phase_one_simplex
    monkeypatch.setattr(ratlp, "_fourier_motzkin", lambda rows: simplex(1, rows))
    assert [f.witness for f in face_lattice(h)] == [f.witness for f in lattice]
    support, restricted, _ = faces._support_rows(h)
    fs = lattice.facets()
    for facet in fs:
        zero_cols = [restricted[j] for j in facet.pattern.zero_positions()]
        (kernel,) = nullspace(IntMatrix.from_rows(zero_cols, cols=len(support)))
        assert facet.witness in (faces._embed(h, kernel), faces._embed(h, [-x for x in kernel]))
    # a face refines a facet when the facet's nonzero signs are among its own
    nonzero = [({(i, v) for i, v in enumerate(f.pattern.values) if v}, f.witness) for f in fs]
    for face in lattice:
        signs = set(enumerate(face.pattern.values))
        total = [sum(column) for column in zip(*(w for facet, w in nonzero if facet <= signs))]
        assert face.witness == primitive(total or [0] * len(face.witness))


@pytest.mark.parametrize(
    "h",
    [complete_hypergraph(4, 2), complete_hypergraph(5, 1), SQUARE, TETRAHEDRON_BOUNDARY],
    ids=["A(4,2)", "A(5,1)", "square", "tetrahedron-boundary"],
)
def test_witnesses_are_primitive_integer_cochains(h):
    for face in face_lattice(h):
        assert_witness_realizes(h, face.pattern, face.witness)
        assert checked_validity(h, face.pattern) is not None


def test_an_lp_failing_where_the_circuits_admit_raises(k34, monkeypatch):
    monkeypatch.setattr("acyclo.faces.solve_feasibility", lambda *args, **kwargs: None)
    with pytest.raises(RuntimeError, match="every signed circuit admits"):
        face_lattice(k34)


def test_a63_vertex_count():
    # confirmed by Zaslavsky's T(2, 0), oracle.region_count, in about 2 s
    assert sum(1 for _ in enumerate_vertices(complete_hypergraph(6, 3))) == 22320


@pytest.mark.parametrize("total", [32, 64])
def test_vertex_shards_whose_prefixes_hold_circuits(total):
    # A(5,1)'s first triangle ends at edge 4, inside these shards' prefixes
    h = complete_hypergraph(5, 1)
    full = list(enumerate_vertices(h))
    sharded = [v for i in range(total) for v in enumerate_vertices(h, shard=(i, total))]
    assert len(full) == 120
    assert sorted(sharded, key=lambda v: v[0].values) == sorted(full, key=lambda v: v[0].values)


@pytest.mark.parametrize("total", [3, 5, 32])
@pytest.mark.parametrize("n, d", [(5, 1), (5, 2)])
def test_vertex_shard_streams_keep_the_unsharded_order(n, d, total):
    # each shard yields, prefix by prefix, the unsharded stream's vertices below that prefix
    h = complete_hypergraph(n, d)
    full = list(enumerate_vertices(h))
    for i in range(total):
        expected = [
            (pattern, point)
            for prefix in shard_prefixes(len(h.edges), (i, total))
            for pattern, point in full
            if all((s > 0) == included for s, included in zip(pattern.values, prefix))
        ]
        assert list(enumerate_vertices(h, shard=(i, total))) == expected
