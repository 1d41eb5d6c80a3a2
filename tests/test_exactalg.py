import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acyclo import (
    IntMatrix,
    Rational,
    SubcomplexSelection,
    boundary_matrix,
    complete_hypergraph,
    nullspace,
    rank,
    restricted_boundary_matrix,
    saturation_index,
    snf,
)
from acyclo.exactalg import Echelon, carry, digit, lead, pack, pack_width, primitive, unpack
from acyclo.oracle import torsion_rowreduce

from conftest import RP2_TRIANGLES


def rp2_matrix():
    k6 = complete_hypergraph(6, 2)
    sel = SubcomplexSelection.from_edge_sets(k6, RP2_TRIANGLES)
    return restricted_boundary_matrix(sel)


def test_snf_identity():
    res = snf(IntMatrix.identity(2))
    assert res.invariant_factors == (1, 1)


def test_snf_divisibility_chain_forced():
    res = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.invariant_factors == (1, 6)


def test_snf_rp2_torsion():
    # Cross-checked against the independent row-reduction oracle: the boundary
    # of the 10-triangle projective-plane triangulation has exactly one
    # invariant factor 2, so the torsion order is 2.
    m = rp2_matrix()
    res = snf(m)
    assert res.invariant_factors == (1,) * 9 + (2,)
    sel = SubcomplexSelection.from_edge_sets(complete_hypergraph(6, 2), RP2_TRIANGLES)
    assert torsion_rowreduce(sel) == 2
    assert saturation_index(m) == 2


def test_snf_matches_golden_factors_and_transforms():
    # Pins snf itself, not only the properties any Smith form has: the
    # factors and both transforms of fixed matrices (the RP^2 boundary, empty
    # shapes, diag(2, 3), a remainder promoted to pivot, a negative pivot,
    # seeded 5x7 and 7x5), recorded before snf was last rewritten.
    cases = json.loads((Path(__file__).parent / "testdata" / "snf_golden.json").read_text())
    assert cases[0]["matrix"] == rp2_matrix().row_lists()
    for case in cases:
        res = snf(IntMatrix.from_rows(case["matrix"], cols=case["cols"]))
        assert res.invariant_factors == tuple(case["invariant_factors"]), case["name"]
        assert res.left_transform.row_lists() == case["left_transform"], case["name"]
        assert res.right_transform.row_lists() == case["right_transform"], case["name"]


def test_rank_zero_matrix():
    assert rank(IntMatrix.zeros(3, 4)) == 0


def test_rank_k34_boundary(k34):
    assert rank(boundary_matrix(k34)) == 3


def test_rank_complete_graph_boundary():
    for n in (3, 4, 5, 6):
        assert rank(boundary_matrix(complete_hypergraph(n, 1))) == n - 1


def test_nullspace_identity():
    assert nullspace(IntMatrix.identity(3)) == []


def test_nullspace_k34_relation(k34):
    assert nullspace(boundary_matrix(k34)) == [(1, -1, 1, -1)]


def test_nullspace_zero_matrix():
    assert nullspace(IntMatrix.zeros(3, 2)) == [(1, 0), (0, 1)]


def test_saturation_unimodular():
    assert saturation_index(IntMatrix.identity(4)) == 1
    assert saturation_index(IntMatrix.from_rows([[1, 2], [0, 1]])) == 1


def test_saturation_single_column():
    assert saturation_index(IntMatrix.from_rows([[2], [0]])) == 2


def test_rational_invariants():
    q = Rational(6, -4)
    assert q.denominator > 0
    assert q == Fraction(-3, 2)


matrices = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda dims: st.lists(
        st.lists(st.integers(-9, 9), min_size=dims[1], max_size=dims[1]),
        min_size=dims[0],
        max_size=dims[0],
    )
)


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_snf_reconstruction_and_chain(rows):
    a = IntMatrix.from_rows(rows)
    res = snf(a)
    assert res.left_transform.determinant() in (1, -1)
    assert res.right_transform.determinant() in (1, -1)
    assert res.left_transform @ a @ res.right_transform == res.diagonal_matrix(a.rows, a.cols)
    factors = res.invariant_factors
    assert all(f >= 0 for f in factors)
    nonzero = [f for f in factors if f]
    # nonzero factors first, each dividing the next, zeros trailing
    assert factors[: len(nonzero)] == tuple(nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    assert rank(a) == len(nonzero)


@settings(max_examples=50, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_saturation_invariant_under_column_ops(rows, rng):
    a = IntMatrix.from_rows(rows)
    cols = list(range(a.cols))
    rng.shuffle(cols)
    flips = [rng.choice((1, -1)) for _ in cols]
    permuted = IntMatrix.from_rows(
        [[flips[k] * row[j] for k, j in enumerate(cols)] for row in a.row_lists()]
    )
    assert saturation_index(a) == saturation_index(permuted)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_vectors_annihilate(rows):
    a = IntMatrix.from_rows(rows)
    for v in nullspace(a):
        assert all(
            sum(a.at(i, j) * v[j] for j in range(a.cols)) == 0 for i in range(a.rows)
        )


def test_random_against_rowreduce_oracle():
    # saturation_index agrees with a handmade dense check on small matrices
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        res = snf(a)
        prod = 1
        for f in res.invariant_factors:
            if f:
                prod *= f
        assert saturation_index(a) == prod


def _product(left, right):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@st.composite
def low_rank_matrices(draw):
    """Products of random r x k and k x c integer matrices with k < min(r, c),
    so that rank is at most k and the elimination meets dependent rows."""
    r, c = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    k = draw(st.integers(0, min(r, c) - 1))
    entries = st.integers(-5, 5)
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
    right = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
    return IntMatrix.from_rows(_product(left, right) if k else [[0] * c for _ in range(r)], cols=c)


@settings(max_examples=120, deadline=None)
@given(low_rank_matrices())
def test_rank_and_nullspace_of_low_rank_matrices(a):
    # snf runs its own elimination (_diagonalize), independent of Echelon
    rk = rank(a)
    assert rk == sum(1 for f in snf(a).invariant_factors if f)
    basis = nullspace(a)
    assert len(basis) == a.cols - rk
    for v in basis:
        assert primitive(v) == v and any(v)
        assert all(sum(x * y for x, y in zip(a.row(i), v)) == 0 for i in range(a.rows))


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices(), matrices)
def test_echelon_pop_restores_push(a, extra):
    ech = Echelon()
    for i in range(a.rows):
        ech.push(a.row(i))
    before = ([list(r) for r in ech.rows], list(ech.pivots), [r[p] for r, p in zip(ech.rows, ech.pivots)])
    for vec in extra:
        vec = (vec + [0] * a.cols)[: a.cols]
        if ech.push(vec):
            ech.pop()
        assert (ech.rows, ech.pivots, [r[p] for r, p in zip(ech.rows, ech.pivots)]) == before


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_echelon_last_pivot_is_the_determinant(rows):
    n = min(len(rows), len(rows[0]))
    a = IntMatrix.from_rows([row[:n] for row in rows[:n]])
    det = a.determinant()
    ech = Echelon()
    accepted = [ech.push(a.row(i)) for i in range(n)]
    if det:
        assert all(accepted)
        assert ech.last_pivot in (det, -det)
    else:
        assert not all(accepted)


@settings(max_examples=120, deadline=None)
@given(st.one_of(low_rank_matrices(), matrices.map(IntMatrix.from_rows)), matrices)
def test_packed_bareiss_step_carries_vectors_to_their_reduction(a, extra):
    # The step on packed ints, `carry`: after each push, every carried
    # vector gets the newest row's Bareiss step, coef being its digit at the
    # row's pivot. Unpacked, the carried vectors equal `reduce` of the
    # originals, and are dropped once that reduction is zero.
    vectors = [(vec + [0] * a.cols)[: a.cols] for vec in extra] + [list(a.row(0))]
    b = pack_width([list(a.row(i)) for i in range(a.rows)] + vectors)
    ech = Echelon()
    carried = [(k, pack(v, b)) for k, v in enumerate(vectors) if any(v)]
    for i in range(a.rows):
        if not ech.push(a.row(i)):
            continue
        w, pp, pv = pack(ech.rows[-1], b), ech.pivots[-1], ech.last_pivot
        prev = ech.rows[-2][ech.pivots[-2]] if len(ech) > 1 else 1
        assert lead(w, b) == pv
        stepped = []
        for k, x in carried:
            coef = digit(x, b, pp)
            x = (pv * x - coef * w) // prev if coef else pv * x // prev
            if x:
                stepped.append((k, x))
        assert carry(carried, w, prev, pv, b) == stepped
        carried = stepped
        want = [(k, ech.reduce(v)) for k, v in enumerate(vectors)]
        assert [(k, unpack(x, b, a.cols)) for k, x in carried] == [(k, r) for k, r in want if any(r)]


@pytest.mark.parametrize("b", [2, 3, 8, 33])
def test_pack_round_trips_the_extreme_digits(b):
    top = (1 << b - 1) - 1
    for v in ([top, -top, 0, top], [-top, -top, -top], [0, 0, top], [1, -1, 0, 0, -top]):
        x = pack(v, b)
        assert unpack(x, b, len(v)) == [digit(x, b, p) for p in range(len(v))] == v
        assert lead(x, b) == next(a for a in v if a)
    assert pack([], b) == 0 and unpack(0, b, 3) == [0, 0, 0]


def test_pack_width_bounds_every_minor():
    # Sylvester-Hadamard of order 8: |det| = 8**4 = 4096 meets the Hadamard
    # bound, and 2**(b-1) must exceed it.
    rows = [[1]]
    for _ in range(3):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    assert abs(IntMatrix.from_rows(rows).determinant()) == 4096
    b = pack_width(rows)
    assert 1 << b - 1 > 4096
    assert pack_width([[0, 0], [0, 0]]) == pack_width([]) == 4  # H = 2


def test_primitive():
    assert primitive([0, -4, 6]) == (0, -2, 3)
    assert primitive([2, 4]) == (1, 2)
    assert primitive([-3, 0, 5]) == (-3, 0, 5)
    assert primitive([0, 0]) == (0, 0)
