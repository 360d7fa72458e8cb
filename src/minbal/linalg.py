"""Exact linear algebra and linear feasibility over the rationals.

Everything in this package bottoms out in three primitives: matrix rank,
the first linear dependency among a family of columns, and feasibility
of a mixed equality/inequality system.  There is no floating point
anywhere, so every positive answer re-substitutes exactly and every
infeasibility verdict carries a checkable Farkas vector.

Every elimination is one fraction-free step on integer rows,
:func:`_eliminate`, followed by :func:`_primitive`, which divides by the
gcd; rational input is scaled to integers first.  Rank and
:func:`dependency` run it through :func:`reduce_mod_rows`, which reduces
a vector against echelon rows with distinct pivots.  In a dependency
search each column ``j`` enters as ``col_j ⊕ e_j`` (see
:func:`augment`), so every echelon row records which combination of the
columns it is.  :func:`solve_unique` is the dependency of the columns
followed by the target, and :func:`conic_feasible` adds a sign test:
independent generators combine into a target in at most one way.  The
enumeration of min-balanced systems keeps its own incremental echelon
on the same kernel.

The feasibility solver is a phase-1 simplex with Bland's pivoting rule,
which terminates on every input without cycling; only the membership
oracles of :mod:`minbal.cones` run it.  Its tableau holds the
split variables x = u - v and one column per row, the row's slack; a
row's artificial column stays a signed copy of that column, so it is
not stored.  Each row is a positive integer multiple of the row of the
rational tableau, so a pivot is the same elimination step, ratios
compare by cross-multiplying and the pivots are those of the rational
simplex; answers are read off as ``Fraction`` values.  The oracles
generate the rows of their core LPs, so a problem has one variable per
player and a working set of coalition rows (at most 15 rows on the
benchmark's games of up to 8 players), where exact pivoting is entirely
adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionError(ValueError):
    """Raised when vectors or rows of mismatched lengths are combined."""


def _checked_rows(rows: Sequence[Sequence], what: str) -> list[list[Rational]]:
    """Rows of equal length with every entry an ``int`` or a ``Fraction``."""
    out = [[e if type(e) is int else Fraction(e) for e in row] for row in rows]
    if out:
        width = len(out[0])
        for row in out:
            if len(row) != width:
                raise DimensionError(f"{what} have inconsistent lengths")
    return out


def _integer_row(entries: Sequence[Rational]) -> list[int]:
    """The entries scaled by the lcm of their denominators."""
    scale = lcm(*(e.denominator for e in entries))
    return [e.numerator * (scale // e.denominator) for e in entries]


def _eliminate(v: list[int], row: list[int], piv: int) -> list[int]:
    """``row[piv] * v - v[piv] * row``, which is zero at ``piv``; with
    ``row[piv] > 0`` it is a positive multiple of ``v`` less a multiple
    of ``row``."""
    lead, c = row[piv], v[piv]
    return [lead * a - c * b for a, b in zip(v, row)]


def _primitive(v: list[int]) -> list[int]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return v if g == 1 else [a // g for a in v]


def reduce_mod_rows(rows: list[tuple[list[int], int]], vec: list[int]) -> Optional[tuple[list[int], int]]:
    """Reduce an integer vector against echelon rows; None when it vanishes.

    ``rows`` holds ``(row, pivot)`` pairs with distinct pivots, each row
    zero at the pivots of the rows before it, as this function returns
    them.  The result is zero at every pivot, divided by its gcd and
    signed so that its first nonzero entry, its pivot, is positive.
    Fraction-free: each elimination step cross-multiplies.
    """
    v = vec
    for row, piv in rows:
        if v[piv]:
            v = _eliminate(v, row, piv)
    piv = next((i for i, a in enumerate(v) if a), -1)
    if piv < 0:
        return None
    if v[piv] < 0:
        v = [-a for a in v]
    return _primitive(v), piv


def augment(vec: list[int], j: int, width: int) -> list[int]:
    """``vec ⊕ e_j`` with ``e_j`` of length ``width``.

    Reduced against rows built this way, a vector whose pivot lies at or
    past ``len(vec)`` vanishes on the leading block: its tail names the
    combination of the augmented vectors that it is.
    """
    tail = [0] * width
    tail[j] = 1
    return vec + tail


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals of the matrix with the given rows.

    Each row is scaled to integers and reduced against the independent
    rows before it; the input is not modified.
    """
    if not rows:
        raise ValueError("rank of an empty matrix is undefined")
    echelon: list[tuple[list[int], int]] = []
    for row in _checked_rows(rows, "matrix rows"):
        reduced = reduce_mod_rows(echelon, _integer_row(row))
        if reduced is not None:
            echelon.append(reduced)
    return len(echelon)


def dependency(columns: Sequence[Sequence]) -> Optional[list[int]]:
    """Integer coefficients of the first linear dependency among ``columns``.

    Column ``j`` enters as ``col_j ⊕ e_j`` and is reduced against the
    columns before it.  The first one that vanishes on the leading block
    returns its tail ``c``: ``sum(c[i] * columns[i]) == 0`` with
    ``c[j] != 0``, zeros after ``j``, a positive first nonzero entry and
    gcd 1.  ``None`` means the columns are linearly independent.
    """
    cols = _checked_rows(columns, "columns")
    k = len(cols)
    d = len(cols[0]) if cols else 0
    # Scaling coordinate i of every column by one positive factor leaves
    # the dependencies unchanged.
    scaled = [_integer_row([c[i] for c in cols]) for i in range(d)]
    echelon: list[tuple[list[int], int]] = []
    for j in range(k):
        r, piv = reduce_mod_rows(echelon, augment([row[j] for row in scaled], j, k))
        if piv >= d:
            return r[d:]
        echelon.append((r, piv))
    return None


def solve_unique(columns: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """Coefficients expressing ``target`` over independent ``columns``.

    Returns the unique coefficient vector ``c`` with
    ``sum(c[j] * columns[j]) == target``, or ``None`` when the target
    lies outside the span of the columns.  Dependent columns raise
    ``ValueError``, which is how :func:`minbal.balance.is_min_balanced`
    tests its members for independence.
    """
    k = len(columns)
    dep = dependency([*columns, target])
    if dep is None:
        return None
    if not dep[k]:
        raise ValueError("columns are linearly dependent")
    return tuple(Fraction(-c, dep[k]) for c in dep[:k])


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a linear feasibility problem.

    Exactly one of ``point`` and ``farkas`` is set.  ``point`` satisfies
    every constraint with exact arithmetic.  ``farkas`` is a row
    multiplier vector ``lam`` over the stacked (inequality, equality)
    rows with ``lam[i] >= 0`` on inequality rows, ``rows^T lam = 0`` and
    ``rhs . lam < 0``, certifying infeasibility.
    """

    point: Optional[Vector]
    farkas: Optional[Vector]

    @property
    def feasible(self) -> bool:
        return self.point is not None


def lp_feasible(
    inequality_rows: Sequence[Sequence],
    equality_rows: Sequence[Sequence],
    rhs: Sequence,
    dimension: Optional[int] = None,
) -> FeasibilityResult:
    """Decide ``A_I x <= b_I`` and ``A_E x == b_E`` exactly.

    ``rhs`` stacks ``b_I`` before ``b_E``.  ``dimension`` is only needed
    when no rows are given.  Variables are unrestricted in sign.
    """
    ineq = _checked_rows(inequality_rows, "inequality rows")
    eq = _checked_rows(equality_rows, "equality rows")
    b = [Fraction(v) for v in rhs]
    mi, me = len(ineq), len(eq)
    if len(b) != mi + me:
        raise DimensionError("right-hand side does not match the number of rows")
    rows = ineq + eq
    if not rows:
        if dimension is None:
            raise ValueError("dimension is required for an empty constraint system")
        return FeasibilityResult(point=tuple([_ZERO] * dimension), farkas=None)
    nvar = len(rows[0])
    if mi and me and len(ineq[0]) != len(eq[0]):
        raise DimensionError("inequality and equality rows have different widths")
    if dimension is not None and dimension != nvar:
        raise DimensionError("explicit dimension does not match the rows")

    m = mi + me
    ncols = 2 * nvar + m          # right-hand side column
    # Split x = u - v with u, v >= 0 and give row i one column holding
    # k_i, the lcm of its denominators signed so that its scaled
    # right-hand side is >= 0: the slack of an inequality row, a column
    # that never enters for an equality row.  Each row is |k_i| times the
    # rational tableau's row, and pivots keep it a positive multiple.
    # Artificial i stays that column times sgn(k_i), as both start on e_i
    # and pivots are row operations, so it is not stored; basis label
    # ncols + i stands for it.  The trailing 0 is the cost row's scale.
    tab: list[list[int]] = []
    for i, row in enumerate(rows):
        *line, r, k = _integer_row(row + [b[i], _ONE])
        if r < 0:
            line, r, k = [-e for e in line], -r, -k
        line += [-e for e in line] + [0] * m + [r, 0]
        line[2 * nvar + i] = k
        tab.append(line)
    # Phase-1 reduced costs: unit cost on artificials, with the artificial
    # basis eliminated; the last coordinate is the cost row's positive
    # scale.  Artificial i's reduced cost is the scale plus sgn(k_i) times
    # row i's column, so eliminating it weighs the scale against |k_i|.
    cost = [0] * (ncols + 1) + [1]
    for i, line in enumerate(tab):
        lead, scale = abs(line[2 * nvar + i]), cost[-1]
        cost = _primitive([lead * c - scale * a for c, a in zip(cost, line)])
    basis = list(range(ncols, ncols + m))

    while True:
        # Bland: entering column is the lowest-index negative reduced
        # cost among u, v and the slacks; artificials never re-enter.
        enter = next((j for j in range(2 * nvar + mi) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, line in enumerate(tab):
            a = line[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                best = tab[leave]
                d = line[ncols] * best[enter] - best[ncols] * a
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective is bounded; no pivot row found")
        prow = tab[leave]
        for i, line in enumerate(tab):
            if i != leave and line[enter]:
                tab[i] = _primitive(_eliminate(line, prow, enter))
        cost = _primitive(_eliminate(cost, prow, enter))
        basis[leave] = enter

    if cost[ncols] == 0:
        x = [_ZERO] * nvar
        for line, bv in zip(tab, basis):
            if bv < 2 * nvar:  # u_j or v_j
                x[bv % nvar] += Fraction(line[ncols], line[bv] if bv < nvar else -line[bv])
        point = tuple(x)
        _verify_point(rows, b, mi, point)
        return FeasibilityResult(point=point, farkas=None)

    # Infeasible: the simplex multipliers y_i = 1 - (reduced cost of
    # artificial i) give the Farkas vector lam = -sgn(k_i) * y_i in the
    # original row signs, which is row i's column entry over the scale.
    lam = tuple(Fraction(cost[2 * nvar + i], cost[-1]) for i in range(m))
    _verify_farkas(rows, b, mi, lam)
    return FeasibilityResult(point=None, farkas=lam)


def _verify_point(rows: list[list[Fraction]], b: list[Fraction], mi: int, x: Vector) -> None:
    for i, row in enumerate(rows):
        lhs = sum((c * x[j] for j, c in enumerate(row) if c != 0), _ZERO)
        ok = lhs <= b[i] if i < mi else lhs == b[i]
        if not ok:
            raise RuntimeError("simplex returned a point violating a constraint")


def _verify_farkas(rows: list[list[Fraction]], b: list[Fraction], mi: int, lam: Vector) -> None:
    if any(lam[i] < 0 for i in range(mi)):
        raise RuntimeError("Farkas vector has a negative inequality multiplier")
    nvar = len(rows[0])
    for j in range(nvar):
        if sum((lam[i] * rows[i][j] for i in range(len(rows))), _ZERO) != 0:
            raise RuntimeError("Farkas vector does not annihilate the rows")
    if sum((lam[i] * b[i] for i in range(len(rows))), _ZERO) >= 0:
        raise RuntimeError("Farkas vector does not certify infeasibility")


def conic_feasible(generators: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """Nonnegative coefficients combining independent ``generators`` into ``target``.

    Independent generators combine into the target in at most one way,
    so the cone test is :func:`solve_unique` and a sign check: returns
    that combination when it is nonnegative and ``None`` otherwise.
    Dependent generators raise ``ValueError``.
    """
    coeffs = solve_unique(generators, target)
    return coeffs if coeffs is not None and all(c >= 0 for c in coeffs) else None
