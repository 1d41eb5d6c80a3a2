"""Exact rational feasibility of linear equality/inequality systems.

A row is one flat tuple of ints, the coefficients then the right-hand side:
(a_1, ..., a_n, b) reads a.x == b as an equality and a.x >= b as an
inequality. Callers encode open conditions ("> 0") as ">= 1" rows; for the
homogeneous systems built here that homogenization is sound and complete.
Equalities are eliminated first: they go into an `exactalg.Echelon`
(fraction-free Bareiss elimination) as they are, and each inequality is
reduced against it, leaving the free variables only. A remaining system in
one free variable is decided by comparing its bounds (`_fourier_motzkin`,
the one-variable case of Fourier-Motzkin elimination), and any larger one
by a phase-one simplex (Bland's rule). The simplex pivots on integers: its
tableau is an integer matrix over one common denominator that stores
neither the w = -u half of the split variables nor the artificial columns,
and each pivot is `exactalg.bareiss_pivot`, the step `Echelon` uses on
every other row, sparse when the pivot equals the denominator. Both paths
produce an exact point as integers over one common denominator,
back-substitution through the echelon fills in the pivot variables, and
`solve_feasibility` returns it so.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactalg import Echelon, bareiss_pivot, lift, primitive

_Row = tuple[int, ...]  # coefficients then rhs, read as coeffs . x >= rhs


def solve_feasibility(
    n_vars: int, equalities: Sequence[Sequence[int]], inequalities: Sequence[Sequence[int]]
) -> Optional[tuple[list[int], int]]:
    """A point x with coeffs.x == rhs for every equality row and coeffs.x >= rhs
    for every inequality row, as integers X over one denominator D > 0,
    x = X / D with len(X) == n_vars; or None if no such x exists."""
    # The rhs is the last column, so a pivot there reads 0 == rhs != 0.
    ech = Echelon()
    for row in equalities:
        if ech.push(row) and ech.pivots[-1] == n_vars:
            return None
    pivot_set = set(ech.pivots)
    free_vars = [j for j in range(n_vars) if j not in pivot_set]
    k = len(free_vars)

    # A reduced row is the last pivot times the rational remainder, which is
    # zero on the pivot columns; a negative pivot flips the inequality.
    flip = ech.last_pivot < 0
    free_cols = free_vars + [n_vars]
    reduced: list[_Row] = []
    for row in inequalities:
        row = ech.reduce(row)
        row = primitive([-row[j] if flip else row[j] for j in free_cols])
        if not any(row[:k]):
            if row[k] > 0:
                return None
            continue
        reduced.append(row)

    if not reduced:
        point: Optional[tuple[list[int], int]] = ([0] * k, 1)
    elif k == 1:
        point = _fourier_motzkin(reduced)
    else:
        point = _phase_one_simplex(k, reduced)
    if point is None:
        return None

    # x / den extended by -1 pairs to zero with every equality row.
    x_free, den = point
    x = [0] * n_vars + [-den]
    for pos, f in enumerate(free_vars):
        x[f] = x_free[pos]
    x, den = ech.solve(x, den)
    return x[:n_vars], den


def _fourier_motzkin(rows: list[_Row]) -> Optional[tuple[list[int], int]]:
    """A point of one-variable rows a.x >= b, a != 0, as ([X], D), x = X / D,
    or None: the largest lower bound b / a (a > 0) if there is one, else the
    least upper bound (a < 0). Bounds compare by cross-multiplying."""
    low = up = None  # (a, b) of the largest lower and the least upper bound
    for a, b in rows:
        if a > 0:
            if low is None or b * low[0] > low[1] * a:
                low = a, b
        elif up is None or b * up[0] < up[1] * a:
            up = a, b
    if low and up and low[1] * up[0] < up[1] * low[0]:
        return None
    a, b = low or up
    return lift([0], 1, 0, b, a)


def _phase_one_simplex(k: int, rows: list[_Row]) -> Optional[tuple[list[int], int]]:
    """Feasibility of coeffs.x >= rhs over free x, by minimizing artificials;
    the point as integers X over one denominator D > 0, x = X / D.

    Variables are split x = u - w with u, w >= 0; each row gets a surplus and
    an artificial variable. Bland's rule guarantees termination; artificial
    columns are never re-admitted once they leave the basis, so they are not
    stored; nor are the w columns, each being -u in every row, which row
    operations keep. A row holds u, the surplus columns and the right-hand
    side; Bland's rule reads the full column order u, w, surplus.

    The tableau is kept as integers T with one common denominator D > 0, the
    true tableau being T / D (Edmonds 1967; Avis's lrs). Pivoting on (r, s)
    with p = T[r][s] leaves row r alone, maps every other row (the objective
    too) to (p * T[i] - T[i][s] * T[r]) // D, and sets D = p. Each entry is
    a minor of the integer input, so every division is exact. On a w column
    the pivot row is -T[r]. When p == D only the rows with T[i][s] != 0
    change, and only where T[r] is nonzero (`exactalg.bareiss_pivot`).
    """
    m = len(rows)
    rhs_col = k + m
    tableau: list[list[int]] = []
    for r_i, row in enumerate(rows):
        sgn = 1 if row[k] >= 0 else -1
        t = [sgn * c for c in row[:k]] + [0] * m + [sgn * row[k]]
        t[k + r_i] = -sgn
        tableau.append(t)
    tableau.append([sum(col) for col in zip(*tableau)])  # the objective, row m
    # (stored column, sign) of the columns u, w = -u, surplus, in Bland's order
    columns = [(j, 1) for j in range(k)] + [(j, -1) for j in range(k)] + [(k + i, 1) for i in range(m)]
    basis = [2 * k + m + i for i in range(m)]  # full column indices, artificials last
    den = 1

    while True:
        z = tableau[m]
        enter = next((j for j, (c, sign) in enumerate(columns) if sign * z[c] > 0), None)
        if enter is None:
            break
        col, sign = columns[enter]
        # Bland's ratio test, min T[i][rhs] / T[i][enter] over positive
        # entries, compared by cross-multiplying.
        leave = None
        for i in range(m):
            a = sign * tableau[i][col]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                mine = tableau[i][rhs_col] * sign * tableau[leave][col]
                best = tableau[leave][rhs_col] * a
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # objective unbounded; cannot occur for phase one
        pivot_row = tableau[leave] if sign > 0 else [-b for b in tableau[leave]]
        bareiss_pivot(tableau, leave, pivot_row, col, den)
        den = pivot_row[col]
        basis[leave] = enter

    if tableau[m][rhs_col] != 0:
        return None
    x = [0] * k
    for i, b in enumerate(basis):
        if b < k:
            x[b] += tableau[i][rhs_col]
        elif b < 2 * k:
            x[b - k] -= tableau[i][rhs_col]
    return x, den
