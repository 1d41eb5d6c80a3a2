"""Independent brute-force verifiers.

Each oracle recomputes a headline quantity by an algorithm unrelated to the
one used in the main modules: tree counts by Laplacian determinant (for
graphs, and by the simplicial matrix-tree theorem for hypergraphs), lattice
points by direct membership scanning, Ehrhart coefficients by interpolation,
vertices by exhaustive proper-pattern scanning and by Zaslavsky's region
count, and torsion by two passes of an extended-gcd echelon form that shares
no code with the Smith-form routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Sequence

from .complexes import Hypergraph, boundary_matrix, cycle_space_dim, edge_columns, simplex_index
from .errors import BudgetExceededError
from .exactalg import IntMatrix
from .faces import SignPattern, validity_check
from .homology import SubcomplexSelection
from .ratlp import solve_feasibility

DEFAULT_GENERATOR_CAP = 8
DEFAULT_PATTERN_CAP = 12
# The largest matrix side an oracle builds, so that its cubic elimination
# takes seconds at most (2.2 s for the matrix-tree sum of the 300-cycle).
MATRIX_SIDE_CAP = 300
# The most candidate points a direct lattice-point count scans, each by one
# feasibility LP: 4356 for the 5-edge graph of the acceptance tests at its
# top dilate take about 1 s, so this cap stays within seconds.
BOX_CAP = 10**4


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side record of a theorem-path value and an oracle recomputation."""

    quantity: str
    theorem_value: object
    oracle_value: object
    agreement: bool

    @classmethod
    def compare(cls, quantity: str, theorem_value, oracle_value) -> "OracleReport":
        return cls(quantity, theorem_value, oracle_value, theorem_value == oracle_value)


def kirchhoff_tree_count(g: Hypergraph) -> int:
    """Spanning-tree count of a graph via a Laplacian cofactor determinant."""
    if g.d != 1:
        raise ValueError("Kirchhoff count requires a graph (d == 1)")
    n = g.n
    if n > MATRIX_SIDE_CAP:
        raise BudgetExceededError(n, MATRIX_SIDE_CAP, "Kirchhoff Laplacian side")
    lap = [[0] * n for _ in range(n)]
    for i, j in g.edges:
        lap[i - 1][i - 1] += 1
        lap[j - 1][j - 1] += 1
        lap[i - 1][j - 1] -= 1
        lap[j - 1][i - 1] -= 1
    minor = [row[: n - 1] for row in lap[: n - 1]]
    return IntMatrix.from_rows(minor, cols=n - 1).determinant()


def matrix_tree_sum(h: Hypergraph) -> int:
    """Sum over the spanning hypertrees of their squared torsion orders.

    By the simplicial matrix-tree theorem (Duval, Klivans and Martin, 2009),
    with Cauchy-Binet, this is the determinant of the up-Laplacian (boundary
    times its transpose) on the (d-1)-faces that miss vertex 1. For a graph
    it is the Kirchhoff cofactor, the spanning-tree count.
    """
    side = cycle_space_dim(h.n, h.d)  # the (d-1)-faces that miss vertex 1
    if side > MATRIX_SIDE_CAP:
        raise BudgetExceededError(side, MATRIX_SIDE_CAP, "matrix-tree Laplacian side")
    b = boundary_matrix(h)
    faces = [b.row(r) for r, face in enumerate(simplex_index(h.n, h.d)) if 1 not in face]
    laplacian = [[sum(x * y for x, y in zip(f, g)) for g in faces] for f in faces]
    return IntMatrix.from_rows(laplacian, cols=len(faces)).determinant()


def _row_expressions(cols, ambient: int, widths) -> tuple[list[int], list[list[Fraction]]]:
    """Independent rows of the matrix with columns `cols`, picked narrow
    boxes first by one Fraction elimination, and each row's coefficients
    over them. Each row is tagged with its expression in the rows, a unit
    vector, which the elimination carries along: a row that reduces to zero
    is minus the rest of its tag."""
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot, tagged row scaled to 1 there)
    picked: list[int] = []
    expressions: list[list[Fraction]] = [[]] * ambient
    for r in sorted(range(ambient), key=lambda r: (widths[r], r)):
        unit = [Fraction(int(q == r)) for q in range(ambient)]
        v = _reduce_into(basis, [Fraction(c[r]) for c in cols] + unit, len(cols))
        if any(v[: len(cols)]):
            picked.append(r)
            expressions[r] = unit
        else:
            expressions[r] = [-x for x in v[len(cols):]]
    return picked, [[e[q] for q in picked] for e in expressions]


def _generator_columns(h: Hypergraph, cap: int):
    """The edge columns, once the generators (at most cap) and the tagged
    rows (at most MATRIX_SIDE_CAP) fit the direct count's bounds."""
    num_edges = len(h.edges)
    if num_edges > cap:
        raise BudgetExceededError(num_edges, cap, "direct lattice-point generator count")
    ambient = comb(h.n, h.d)  # the rows, each tagged with a unit vector of this length
    if ambient > MATRIX_SIDE_CAP:
        raise BudgetExceededError(ambient, MATRIX_SIDE_CAP, "direct lattice-point row count")
    return edge_columns(h)


def lattice_points_direct(h: Hypergraph, t: int, cap: int = DEFAULT_GENERATOR_CAP) -> int:
    """Count lattice points of the t-dilate by direct membership tests.

    Candidates come from the exact bounding box of the dilate (per-coordinate
    Minkowski sums of the generators' minima and maxima) on independent rows,
    which fix the other coordinates of a point in the span of the generators;
    each integral point inside the box is tested by exact feasibility of its
    generator-coefficient system. A box of more than BOX_CAP points is
    refused before any test.
    """
    if t < 1:
        raise ValueError("dilation factor must be a positive integer")
    cols = _generator_columns(h, cap)
    if not cols:
        return 1
    num_edges, ambient = len(cols), len(cols[0])
    lo = [t * sum(min(0, c[r]) for c in cols) for r in range(ambient)]
    hi = [t * sum(max(0, c[r]) for c in cols) for r in range(ambient)]
    picked, expressions = _row_expressions(cols, ambient, [hi[r] - lo[r] for r in range(ambient)])
    box = prod(hi[p] - lo[p] + 1 for p in picked)
    if box > BOX_CAP:
        raise BudgetExceededError(box, BOX_CAP, "direct lattice-point box")

    bound_rows = []  # 0 <= x_e <= t, as flat rows: coefficients, then rhs
    for e in range(num_edges):
        bound_rows.append(tuple(1 if j == e else 0 for j in range(num_edges)) + (0,))
        bound_rows.append(tuple(-1 if j == e else 0 for j in range(num_edges)) + (-t,))

    rows = [tuple(c[r] for c in cols) for r in range(ambient)]
    count = 0
    for x in product(*(range(lo[p], hi[p] + 1) for p in picked)):
        point = []
        for coefficients, low, high in zip(expressions, lo, hi):
            val = sum(c * xi for c, xi in zip(coefficients, x))
            if val.denominator != 1 or not low <= val <= high:
                break
            point.append(int(val))
        else:
            if solve_feasibility(num_edges, [(*r, p) for r, p in zip(rows, point)], bound_rows) is not None:
                count += 1
    return count


def _interpolate(points: list[tuple[int, int]], max_degree: int) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial of degree <= max_degree
    through the given points, by Newton divided differences."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        new = [Fraction(0)] * n
        new[0] = divided[i]
        for j in range(n - 1):
            new[j + 1] += coeffs[j]
            new[j] -= coeffs[j] * xs[i]
        coeffs = new
    return coeffs[: max_degree + 1]


def ehrhart_fit_check(
    h: Hypergraph, theorem_coeffs: Sequence, cap: int = DEFAULT_GENERATOR_CAP
) -> OracleReport:
    """Interpolate direct dilate counts and compare against the census
    polynomial's coefficients, `theorem_coeffs`.

    The polynomial's degree is the rank r of the edge columns, found by the
    oracle's own elimination, so the dilates t = 1..r+1 fix it. They are
    counted largest first: a box over BOX_CAP is then refused before any
    scan.
    """
    basis: list = []
    rank = sum(any(_reduce_into(basis, [Fraction(x) for x in c])) for c in _generator_columns(h, cap))
    points = [(t, lattice_points_direct(h, t, cap=cap)) for t in range(rank + 1, 0, -1)]
    fitted = _interpolate(points, rank)
    while len(fitted) > 1 and fitted[-1] == 0:
        fitted.pop()
    oracle_coeffs = tuple(int(c) if c.denominator == 1 else c for c in fitted)
    return OracleReport.compare("ehrhart coefficients", tuple(theorem_coeffs), oracle_coeffs)


def signpattern_bruteforce(h: Hypergraph, cap: int = DEFAULT_PATTERN_CAP) -> set[SignPattern]:
    """All valid proper sign patterns, by scanning all 2**|E| candidates."""
    num_edges = len(h.edges)
    if num_edges > cap:
        raise BudgetExceededError(2 ** num_edges, 2 ** cap, "proper sign-pattern scan")
    out = set()
    for bits in range(2 ** num_edges):
        pattern = SignPattern(tuple(1 if bits >> j & 1 else -1 for j in range(num_edges)))
        if validity_check(h, pattern) is not None:
            out.add(pattern)
    return out


def region_count(h: Hypergraph) -> int:
    """Number of vertices, by Zaslavsky's count of the regions of the
    hyperplane arrangement that the edge columns define: T(2, 0), the sum
    over edge subsets A of (-1)^(|A| - rank A).

    A DFS decides the edges in order, keeping the chosen columns in a small
    reduced basis of Fractions, its own elimination. When the next edge lies
    in the span of the chosen ones, each subset B of the later edges pairs
    A + B with A + e + B, of equal rank and one more edge, so the two
    branches cancel and the subtree adds 0. Every subset that reaches a
    leaf is then independent and adds 1.
    """
    return _region_total([[Fraction(x) for x in c] for c in edge_columns(h)], [], 0)


def _region_total(cols: list[list[Fraction]], basis: list, k: int) -> int:
    """region_count's sum over the subsets of the columns k and later, joined
    to the chosen columns that `basis` holds. A module function rather than
    a closure, which would be a reference cycle."""
    if k == len(cols):
        return 1
    if not any(_reduce_into(basis, cols[k])):
        return 0
    with_k = _region_total(cols, basis, k + 1)
    basis.pop()
    return with_k + _region_total(cols, basis, k + 1)


def _reduce_into(basis: list, v: list[Fraction], width: int | None = None) -> list[Fraction]:
    """v's remainder modulo the basis, whose rows are (pivot, row scaled to 1
    there). The remainder joins the basis unless its first `width` entries
    (all by default) are zero."""
    for p, row in basis:
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    p = next((i for i, x in enumerate(v[:width]) if x), None)
    if p is not None:
        basis.append((p, [x / v[p] for x in v]))
    return v


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _xgcd_echelon(rows: list[Sequence[int]]) -> list[Sequence[int]]:
    """The nonzero rows of an echelon form of the integer rows, made in the
    list by clearing each column below its pivot row with unimodular 2x2
    extended-gcd steps."""
    top = 0
    for j in range(len(rows[0]) if rows else 0):
        for i in range(top + 1, len(rows)):
            if rows[i][j]:
                g, x, y = _xgcd(rows[top][j], rows[i][j])
                a, c = rows[top][j] // g, rows[i][j] // g
                rows[top], rows[i] = (
                    [x * p + y * q for p, q in zip(rows[top], rows[i])],
                    [a * q - c * p for p, q in zip(rows[top], rows[i])],
                )
        if top < len(rows) and rows[top][j]:
            top += 1
    return rows[:top]


def torsion_rowreduce(sel: SubcomplexSelection) -> int:
    """Torsion order by two extended-gcd echelon passes, sharing no code with
    the Smith-form routine.

    The torsion order is the product of the nonzero invariant factors of the
    restricted boundary matrix B, that is the gcd of its r x r minors, r its
    rank. Unimodular row or column operations keep that gcd (Kannan and
    Bachem, 1979). The first pass echelons the columns of B, taken as rows:
    r independent columns that span the same lattice. The second echelons
    the rows of that ambient x r matrix into an r x r triangle, whose one
    r x r minor is the product of its diagonal.
    """
    b = boundary_matrix(sel.parent)
    columns = _xgcd_echelon([b.column(j) for j in sel.chosen_edges])
    triangle = _xgcd_echelon(list(zip(*columns)))
    return abs(prod(row[i] for i, row in enumerate(triangle)))
