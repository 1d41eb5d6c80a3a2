"""Exact integer and rational linear algebra.

Smith normal form with unimodular witnesses, built from four operations
(swap two rows, swap two columns, add a multiple of a row, add a multiple of
a column) that each act on the matrix and on the transform they change;
lattice saturation indices; and one incremental fraction-free (Bareiss)
elimination kernel, `Echelon`, on which rank, primitive integer kernels, the
support rows of `faces` and the equalities of `ratlp` all run. `bareiss_step`
is its one elimination step, which `bareiss_pivot` applies to the rows of
`ratlp`'s integer simplex tableau too, and `lift` its one back-substitution
step, shared with `ratlp`'s one-variable solver. The Smith form keeps its
own elimination, so that it can check `rank` independently. `pack`, `digit`, `unpack` and
`lead` keep an integer vector as one Python int of signed base-2**b digits,
`pack_width` choosing b from the Hadamard bound of the vectors so that every
Bareiss minor of them fits a digit, and `carry` is the Bareiss step on such
ints, one big-int step per column: the hyperforest DFS of `census` and the
signed-circuit DFS of `faces` carry their candidate columns that way, and
the face lattice of `faces` sums facet normals that way.
`IntMatrix.determinant` keeps its own Bareiss loop, because the oracles that
check the census (the Kirchhoff tree count and the matrix-tree sum) are built
on it and should not share code with the path they check. Everything runs
on Python's arbitrary-precision integers; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul
from typing import Sequence

# Exact rational carrier. Fraction already keeps denominators positive and in
# lowest terms, which is everything required of the type.
Rational = Fraction


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [list(row) for row in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("rows have inconsistent lengths")
        return cls(len(data), cols, tuple(int(x) for row in data for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            pk = m[k][k]
            row_k = m[k]
            for i in range(k + 1, n):
                row_i = m[i]
                mik = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
                row_i[k] = 0
            prev = pk
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form: left_transform @ A @ right_transform is diagonal.

    Both transforms are unimodular. Nonzero invariant factors divide their
    successors; zero factors come last.
    """

    invariant_factors: tuple[int, ...]
    left_transform: IntMatrix
    right_transform: IntMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        m = [[0] * cols for _ in range(rows)]
        for i, f in enumerate(self.invariant_factors):
            m[i][i] = f
        return IntMatrix.from_rows(m, cols=cols)


def _least(entries) -> tuple[int, int] | None:
    """Position of the first entry of least absolute value among the nonzero
    ones of (position, value) pairs; None if all are zero."""
    best, low = None, 0
    for pos, v in entries:
        if v and (best is None or abs(v) < low):
            best, low = pos, abs(v)
            if low == 1:
                break
    return best


# Each operation acts on every matrix in `mats`: m and left for row
# operations, m and right for column operations.
def _swap_rows(mats: list, i: int, k: int) -> None:
    for a in mats:
        a[i], a[k] = a[k], a[i]


def _swap_cols(mats: list, j: int, k: int) -> None:
    for a in mats:
        for row in a:
            row[j], row[k] = row[k], row[j]


def _add_row(mats: list, dst: int, src: int, q: int) -> None:
    """Row dst += q * row src."""
    for a in mats:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]


def _add_col(mats: list, dst: int, src: int, q: int) -> None:
    """Column dst += q * column src."""
    for a in mats:
        for row in a:
            row[dst] += q * row[src]


def _diagonalize(m: list[list[int]], rows: int, cols: int, left=None, right=None) -> None:
    """Reduce m in place to Smith diagonal form.

    Pivots are chosen by minimal absolute value to limit coefficient growth.
    When given, ``left`` (rows x rows) and ``right`` (cols x cols) undergo
    the same row and column operations as m, accumulating the unimodular
    transforms. Operations span whole rows and columns: at step t, rows t..
    are already zero left of column t and columns t.. above row t.
    """
    on_rows = [m] if left is None else [m, left]
    on_cols = [m] if right is None else [m, right]
    for t in range(min(rows, cols)):
        pos = _least(((i, j), m[i][j]) for i in range(t, rows) for j in range(t, cols))
        if pos is None:
            break
        while True:
            if pos[0] != t:
                _swap_rows(on_rows, t, pos[0])
            if pos[1] != t:
                _swap_cols(on_cols, t, pos[1])
            p = m[t][t]
            for i in range(t + 1, rows):
                q = m[i][t] // p
                if q:
                    _add_row(on_rows, i, t, -q)
            for j in range(t + 1, cols):
                q = m[t][j] // p
                if q:
                    _add_col(on_cols, j, t, -q)
            # Nonzero remainders are strictly smaller than |p|, so (t, t) is
            # the least entry only when row and column t are clear; else
            # promote the least remainder to the pivot slot and repeat.
            column = [((i, t), m[i][t]) for i in range(t, rows)]
            pos = _least(column + [((t, j), m[t][j]) for j in range(t, cols)])
            if pos != (t, t):
                continue
            # Pivot isolated; pull in a row with an entry it does not divide,
            # so the divisibility chain holds.
            bad = next((i for i in range(t + 1, rows) if any(x % p for x in m[i][t + 1 :])), None)
            if bad is None:
                break
            _add_row(on_rows, t, bad, 1)
        if m[t][t] < 0:
            _add_row(on_rows, t, t, -2)  # negate row t


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form of an integer matrix, with transform witnesses."""
    m = a.row_lists()
    left = IntMatrix.identity(a.rows).row_lists()
    right = IntMatrix.identity(a.cols).row_lists()
    _diagonalize(m, a.rows, a.cols, left, right)
    factors = tuple(m[i][i] for i in range(min(a.rows, a.cols)))
    return SnfResult(
        factors,
        IntMatrix.from_rows(left, cols=a.rows),
        IntMatrix.from_rows(right, cols=a.cols),
    )


def _invariant_factors(m: list[list[int]], rows: int, cols: int) -> list[int]:
    # Transform-free fast path for callers that only need the factors.
    _diagonalize(m, rows, cols)
    return [m[i][i] for i in range(min(rows, cols))]


def bareiss_step(v: list[int], w: Sequence[int], s: int, prev: int) -> list[int]:
    """One fraction-free (Bareiss) elimination step: v with its entry at s
    cleared against the pivot row w, whose pivot is p = w[s], prev being the
    pivot of the step before (1 at the first). When v and w are rows of one
    elimination every division is exact. Returns v itself if it is unchanged.
    """
    f, p = v[s], w[s]
    if f:
        return [(p * a - f * b) // prev for a, b in zip(v, w)]
    if p == prev:
        return v
    return [p * a // prev for a in v]


def bareiss_pivot(rows: list[list[int]], r: int, w: Sequence[int], s: int, prev: int) -> None:
    """`bareiss_step` against the pivot row w, p = w[s], on every row but
    row r, in place. When p == prev the step is v - v[s] * w // p, so only
    the rows with v[s] != 0 change, and only where w is nonzero."""
    p = w[s]
    if p != prev:
        rows[:] = [v if i == r else bareiss_step(v, w, s, prev) for i, v in enumerate(rows)]
        return
    support = [(t, b) for t, b in enumerate(w) if b]
    for i, v in enumerate(rows):
        f = v[s]
        if f and i != r:
            for t, b in support:
                v[t] -= f * b // p


class Echelon:
    """Incremental fraction-free (Bareiss) row echelon form over the integers.

    `push` reduces a vector against the stored rows and keeps it if anything
    is left; `pop` undoes the last accepted push. Stored row k is zero on the
    pivot positions of rows 0..k-1, and its pivot is its first nonzero entry.
    Its entries are (k+1)-minors of the accepted vectors, so every division
    is exact, and its pivot value is, up to sign, the determinant of the
    accepted vectors restricted to the pivot positions. `reduce(v)` is the
    last pivot times v's rational remainder modulo the rows.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self) -> None:
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def last_pivot(self) -> int:
        return self.rows[-1][self.pivots[-1]] if self.rows else 1

    def reduce(self, vec: Sequence[int]) -> list[int]:
        v = list(vec)
        prev = 1
        for w, pp in zip(self.rows, self.pivots):
            v = bareiss_step(v, w, pp, prev)
            prev = w[pp]
        return v

    def push(self, vec: Sequence[int]) -> bool:
        """Store vec reduced, unless it lies in the span of the rows."""
        v = self.reduce(vec)
        for pos, x in enumerate(v):
            if x:
                self.rows.append(v)
                self.pivots.append(pos)
                return True
        return False

    def pop(self) -> None:
        self.rows.pop()
        self.pivots.pop()

    def solve(self, x: list[int], den: int) -> tuple[list[int], int]:
        """The rational vector x / den, den > 0, with its pivot positions set so
        that every row pairs to zero with it, as integers over a multiple of
        den; the other positions are read as given."""
        # Row k is zero on the pivots of rows 0..k-1, so solving in reverse
        # meets only positions already set besides its own pivot.
        for row, pc in zip(reversed(self.rows), reversed(self.pivots)):
            x[pc] = 0
            x, den = lift(x, den, pc, -sum(map(mul, row, x)), row[pc])
        return x, den


def lift(x: list[int], den: int, j: int, num: int, dv: int) -> tuple[list[int], int]:
    """x / den with entry j set to num / (dv * den), dv != 0, over a multiple
    of den: x and den scale by |dv| / gcd(num, dv) if dv does not divide num."""
    scale = abs(dv) // gcd(num, dv)
    if scale > 1:
        x, den = [scale * a for a in x], den * scale
    x[j] = scale * num // dv
    return x, den


def pack_width(vectors: Sequence[Sequence[int]]) -> int:
    """Digit width b for `pack`: H's bit length plus 2, so 2**(b-1) > H, where
    H = isqrt(product of the r largest squared norms) + 1 bounds every minor
    of the vectors (Hadamard), r being the largest possible rank."""
    norms = sorted((sum(a * a for a in v) for v in vectors if any(v)), reverse=True)
    return (isqrt(prod(norms[: len(vectors[0]) if vectors else 0])) + 1).bit_length() + 2


def pack(v: Sequence[int], b: int) -> int:
    """The int sum of v[i] << (b*i): linear in v, so a Bareiss step on the
    packed ints is the step on the vectors."""
    return sum(a << b * i for i, a in enumerate(v))


def digit(x: int, b: int, p: int) -> int:
    """Digit p of packed x, centred in [-2**(b-1), 2**(b-1)): half = 2**(b-1)
    added to digits 0..p makes them nonnegative, so none borrows from p."""
    half, mask = 1 << b - 1, (1 << b) - 1
    return (x + half * ((1 << b * p + b) - 1) // mask >> b * p & mask) - half


def unpack(x: int, b: int, length: int) -> list[int]:
    """The first `length` digits of packed x, centred as `digit` centres
    them, in one pass."""
    half, mask = 1 << b - 1, (1 << b) - 1
    x += half * ((1 << b * length) - 1) // mask
    return [(x >> b * p & mask) - half for p in range(length)]


def lead(x: int, b: int) -> int:
    """The lowest nonzero digit of packed x != 0, at its lowest set bit: the
    pivot of a reduced vector. No digit below it needs lifting."""
    half = 1 << b - 1
    return ((x >> ((x & -x).bit_length() - 1) // b * b) + half & (1 << b) - 1) - half


def carry(pending, w, prev, pv, b):
    """Choose packed column w, pivot pv, after a pivot prev: the pending
    candidates after w's Bareiss step, in order, without those that reduce
    to zero. b is the digit width (`pack`), and coef a candidate's centred
    digit at w's pivot (`digit`)."""
    half, mask = 1 << b - 1, (1 << b) - 1
    shift = ((w & -w).bit_length() - 1) // b * b
    low = half * ((1 << shift + b) - 1) // mask  # half in digits 0..pivot
    out = []
    for j, x in pending:
        coef = (x + low >> shift & mask) - half
        if coef:
            x = (pv * x - coef * w) // prev
            if x:
                out.append((j, x))
        elif pv != prev:
            out.append((j, pv * x // prev))
        else:
            out.append((j, x))
    return out


def primitive(values: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of an integer vector: sign
    kept, zeros stay zeros."""
    g = gcd(*values)
    if g <= 1:
        return tuple(values)
    return tuple(x // g for x in values)


def rank(a: IntMatrix) -> int:
    """Rational rank: the number of rows an Echelon accepts."""
    ech = Echelon()
    for i in range(a.rows):
        if ech.push(a.row(i)) and len(ech) == a.cols:
            break
    return len(ech)


def nullspace(a: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the rational kernel, cleared to primitive integer vectors.

    One vector per free (non-pivot) column of the row echelon form, in
    ascending column order: 1 on its free column, 0 on the others, scaled to
    content 1 with positive leading entry.
    """
    ech = Echelon()
    for i in range(a.rows):
        ech.push(a.row(i))
    pivot_set = set(ech.pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [0] * a.cols
        v[free] = 1
        ints = primitive(ech.solve(v, 1)[0])
        lead = next(x for x in ints if x)
        basis.append(ints if lead > 0 else tuple(-x for x in ints))
    return basis


def saturation_index(a: IntMatrix) -> int:
    """Index of the column lattice inside its saturation.

    Equals the product of the nonzero invariant factors; 1 for any matrix
    whose columns generate a saturated (e.g. unimodular) lattice.
    """
    return prod(filter(None, _invariant_factors(a.row_lists(), a.rows, a.cols)))
