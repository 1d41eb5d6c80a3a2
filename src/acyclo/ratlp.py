"""Exact rational feasibility of linear equality/inequality systems.

Rows are integers: coefficients and right-hand side are ints. Callers encode
open conditions ("> 0") as ">= 1" rows; for the homogeneous systems built
here that homogenization is sound and complete. Equalities are eliminated
first: they go into an `exactalg.Echelon` (fraction-free Bareiss elimination)
with the right-hand side as last column, and each inequality is reduced
against it, leaving the free variables only. The remaining system is decided
by Fourier-Motzkin elimination when it has at most `FM_VARIABLE_LIMIT`
variables, and by a phase-one simplex (Bland's rule) above that. The simplex
pivots on integers: its tableau is an integer matrix over one common
denominator, each pivot is `exactalg.bareiss_step` (the step `Echelon` uses)
on every other row, and the artificial columns, which never re-enter the
basis, are not stored. Both paths produce an exact witness on success, and
back-substitution through the echelon fills in the pivot variables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import Echelon, bareiss_step, primitive

FM_VARIABLE_LIMIT = 12

_IntRow = tuple[tuple[int, ...], int]  # (coefficients, rhs), read as coeffs . x >= rhs


def solve_feasibility(
    n_vars: int,
    equalities: Sequence[tuple[Sequence[int], int]],
    inequalities: Sequence[tuple[Sequence[int], int]],
) -> Optional[list[Fraction]]:
    """Find x with coeffs.x == rhs for every equality and coeffs.x >= rhs for
    every inequality, or return None if no such x exists."""
    # Each row carries its rhs as the last column, so a pivot there reads
    # 0 == rhs != 0.
    ech = Echelon()
    for coeffs, rhs in equalities:
        if ech.push((*coeffs, rhs)) and ech.pivots[-1] == n_vars:
            return None
    pivot_set = set(ech.pivots)
    free_vars = [j for j in range(n_vars) if j not in pivot_set]
    k = len(free_vars)

    # A reduced row is the last pivot times the rational remainder, which is
    # zero on the pivot columns; a negative pivot flips the inequality.
    flip = ech.last_pivot < 0
    free_cols = free_vars + [n_vars]
    reduced: list[_IntRow] = []
    for coeffs, rhs in inequalities:
        row = ech.reduce((*coeffs, rhs))
        row = primitive([-row[j] if flip else row[j] for j in free_cols])
        if not any(row[:k]):
            if row[k] > 0:
                return None
            continue
        reduced.append((row[:k], row[k]))

    if not reduced:
        x_free: Optional[list[Fraction]] = [Fraction(0)] * k
    elif k <= FM_VARIABLE_LIMIT:
        x_free = _fourier_motzkin(k, reduced)
    else:
        x_free = _phase_one_simplex(k, reduced)
    if x_free is None:
        return None

    # x extended by -1 pairs to zero with every equality row (coeffs, rhs).
    x: list = [Fraction(0)] * n_vars + [-1]
    for pos, f in enumerate(free_vars):
        x[f] = x_free[pos]
    return ech.solve(x)[:n_vars]


def _fourier_motzkin(k: int, rows: list[_IntRow]) -> Optional[list[Fraction]]:
    active: set[_IntRow] = set(rows)
    remaining = list(range(k))
    stack: list[tuple[int, list[_IntRow]]] = []
    while remaining:
        best_v = None
        best_score = None
        for v in remaining:
            pos = sum(1 for cs, _ in active if cs[v] > 0)
            neg = sum(1 for cs, _ in active if cs[v] < 0)
            score = pos * neg
            if best_score is None or score < best_score:
                best_v, best_score = v, score
        v = best_v
        pos_rows = [r for r in active if r[0][v] > 0]
        neg_rows = [r for r in active if r[0][v] < 0]
        new_active = {r for r in active if r[0][v] == 0}
        stack.append((v, pos_rows + neg_rows))
        for cp, bp in pos_rows:
            a = cp[v]
            for cn, bn in neg_rows:
                e = -cn[v]
                combo = primitive([e * cp[j] + a * cn[j] for j in range(k)] + [e * bp + a * bn])
                if not any(combo[:k]):
                    if combo[k] > 0:
                        return None
                    continue
                new_active.add((combo[:k], combo[k]))
        active = new_active
        remaining.remove(v)

    x: list[Optional[Fraction]] = [None] * k
    for v, vrows in reversed(stack):
        lo = None
        hi = None
        for cs, rhs in vrows:
            a = cs[v]
            rest = rhs - sum(cs[j] * x[j] for j in range(k) if j != v and cs[j])
            bound = Fraction(rest, a)
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None:
            x[v] = lo
        elif hi is not None:
            x[v] = hi
        else:
            x[v] = Fraction(0)
    return x  # type: ignore[return-value]


def _phase_one_simplex(k: int, rows: list[_IntRow]) -> Optional[list[Fraction]]:
    """Feasibility of coeffs.x >= rhs over free x, by minimizing artificials.

    Variables are split x = u - w with u, w >= 0; each row gets a surplus and
    an artificial variable. Bland's rule guarantees termination; artificial
    columns are never re-admitted once they leave the basis, so they are not
    stored.

    The tableau is kept as integers T with one common denominator D > 0, the
    true tableau being T / D (Edmonds 1967; Avis's lrs). Pivoting on (r, s)
    with p = T[r][s] leaves row r alone, maps every other row (the objective
    too) to (p * T[i] - T[i][s] * T[r]) // D, and sets D = p. Each entry is
    a minor of the integer input, so every division is exact.
    """
    m = len(rows)
    nonartificial = 2 * k + m
    rhs_col = nonartificial
    tableau: list[list[int]] = []
    for r_i, (coeffs, rhs) in enumerate(rows):
        sgn = 1 if rhs >= 0 else -1
        row = [0] * (nonartificial + 1)
        for j in range(k):
            row[j] = sgn * coeffs[j]
            row[k + j] = -sgn * coeffs[j]
        row[2 * k + r_i] = -sgn
        row[rhs_col] = sgn * rhs
        tableau.append(row)
    basis = [nonartificial + i for i in range(m)]
    z = [sum(col) for col in zip(*tableau)]
    den = 1

    while True:
        enter = next((j for j in range(nonartificial) if z[j] > 0), None)
        if enter is None:
            break
        # Bland's ratio test, min T[i][rhs] / T[i][enter] over positive
        # entries, compared by cross-multiplying.
        leave = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                mine = tableau[i][rhs_col] * tableau[leave][enter]
                best = tableau[leave][rhs_col] * a
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # objective unbounded; cannot occur for phase one
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i in range(m):
            if i != leave:
                tableau[i] = bareiss_step(tableau[i], pivot_row, enter, p, den)
        z = bareiss_step(z, pivot_row, enter, p, den)
        den = p
        basis[leave] = enter

    if z[rhs_col] != 0:
        return None
    x = [Fraction(0)] * k
    for i, b in enumerate(basis):
        val = Fraction(tableau[i][rhs_col], den)
        if b < k:
            x[b] += val
        elif b < 2 * k:
            x[b - k] -= val
    return x
