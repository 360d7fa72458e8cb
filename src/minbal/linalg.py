"""Exact linear algebra and linear feasibility over the rationals.

Everything in this package bottoms out in four primitives: matrix rank,
solving against a linearly independent column family, membership of a
vector in a finitely generated convex cone, and feasibility of a mixed
equality/inequality system.  There is no floating point anywhere, so
every positive answer re-substitutes exactly and every infeasibility
verdict carries a checkable Farkas vector.

Rank and solving share one elimination kernel, :func:`reduce_mod_rows`:
it reduces an integer vector against echelon rows with distinct pivots,
fraction-free, dividing each result by its gcd.  Rational input is
scaled to integers first.  To solve, each column ``j`` enters as
``col_j ⊕ e_j ⊕ 0`` (see :func:`augment`), so every echelon row records
which combination of the columns it is; the target enters as
``t ⊕ 0 ⊕ 1`` and, once reduced, carries the coefficients in its last
block.  The enumeration of min-balanced systems runs the same kernel.

The feasibility solver is a phase-1 simplex over ``fractions.Fraction``
with Bland's pivoting rule, which terminates on every input without
cycling.  Problem sizes in this package stay below a few hundred
constraints, where exact pivoting is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionError(ValueError):
    """Raised when vectors or rows of mismatched lengths are combined."""


def to_vector(entries: Sequence) -> Vector:
    return tuple(Fraction(e) for e in entries)


def _checked_rows(rows: Sequence[Sequence], what: str) -> list[list[Fraction]]:
    out = [[Fraction(e) for e in row] for row in rows]
    if out:
        width = len(out[0])
        for row in out:
            if len(row) != width:
                raise DimensionError(f"{what} have inconsistent lengths")
    return out


def _integer_row(entries: Sequence[Fraction]) -> list[int]:
    """The entries scaled by the lcm of their denominators."""
    scale = lcm(*(e.denominator for e in entries))
    return [int(e * scale) for e in entries]


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
        c = v[piv]
        if c:
            lead = row[piv]
            v = [lead * a - c * b for a, b in zip(v, row)]
    g = 0
    piv = -1
    for i, a in enumerate(v):
        if a:
            g = gcd(g, a)
            if piv < 0:
                piv = i
    if piv < 0:
        return None
    if v[piv] < 0:
        g = -g
    return [a // g for a in v], piv


def augment(vec: list[int], j: int, width: int) -> list[int]:
    """``vec ⊕ e_j ⊕ 0`` with ``e_j`` of length ``width``.

    ``j == width`` gives the target form ``vec ⊕ 0 ⊕ 1``.  A column
    reduced to a pivot at or past ``len(vec)`` depends on the earlier
    columns; a reduced target ``r`` with such a pivot lies in their span,
    with coefficient ``-r[len(vec) + j] / r[len(vec) + width]`` on
    column ``j``.
    """
    tail = [0] * (width + 1)
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


def solve_unique(columns: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """Coefficients expressing ``target`` over independent ``columns``.

    Returns the unique coefficient vector ``c`` with
    ``sum(c[j] * columns[j]) == target``, or ``None`` when the target
    lies outside the span of the columns.  The columns must be linearly
    independent (callers establish this via :func:`rank`); dependent
    columns raise ``ValueError``.
    """
    cols = [to_vector(c) for c in columns]
    t = to_vector(target)
    k = len(cols)
    if k == 0:
        return () if all(v == 0 for v in t) else None
    d = len(cols[0])
    if any(len(c) != d for c in cols) or len(t) != d:
        raise DimensionError("columns and target have inconsistent lengths")
    # Scaling coordinate i of every column and of the target by one
    # positive factor leaves the solution unchanged.
    scaled = [_integer_row([c[i] for c in cols] + [t[i]]) for i in range(d)]
    echelon: list[tuple[list[int], int]] = []
    for j in range(k):
        reduced = reduce_mod_rows(echelon, augment([row[j] for row in scaled], j, k))
        if reduced[1] >= d:
            raise ValueError("columns are linearly dependent")
        echelon.append(reduced)
    r, piv = reduce_mod_rows(echelon, augment([row[k] for row in scaled], k, k))
    if piv < d:
        return None
    return tuple(Fraction(-r[d + j], r[d + k]) for j in range(k))


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
    if rows:
        nvar = len(rows[0])
        if mi and me and len(ineq[0]) != len(eq[0]):
            raise DimensionError("inequality and equality rows have different widths")
        if dimension is not None and dimension != nvar:
            raise DimensionError("explicit dimension does not match the rows")
    else:
        if dimension is None:
            raise ValueError("dimension is required for an empty constraint system")
        nvar = dimension
        return FeasibilityResult(point=tuple([_ZERO] * nvar), farkas=None)

    m = mi + me
    art0 = 2 * nvar + mi          # first artificial column
    ncols = art0 + m
    # Split x = u - v with u, v >= 0, add a slack per inequality and an
    # artificial per row; flip row signs so the right-hand side is >= 0.
    tab: list[list[Fraction]] = []
    sigma: list[Fraction] = []
    for i, row in enumerate(rows):
        s = _ONE if b[i] >= 0 else -_ONE
        sigma.append(s)
        line = [s * e for e in row] + [-s * e for e in row] + [_ZERO] * (mi + m)
        if i < mi:
            line[2 * nvar + i] = s
        line[art0 + i] = _ONE
        line.append(s * b[i])
        tab.append(line)
    # Phase-1 reduced costs: unit cost on artificials, then zero out the
    # starting (artificial) basis.
    cost = [_ZERO] * (ncols + 1)
    for j in range(art0, ncols):
        cost[j] = _ONE
    for line in tab:
        for j in range(ncols + 1):
            if line[j] != 0:
                cost[j] -= line[j]
    basis = list(range(art0, ncols))

    while True:
        # Bland: entering column is the lowest-index negative reduced
        # cost; artificial columns never re-enter.
        enter = next((j for j in range(art0) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective is bounded; no pivot row found")
        _pivot(tab, cost, basis, leave, enter)

    if cost[-1] == 0:
        x = [_ZERO] * nvar
        for i, bv in enumerate(basis):
            val = tab[i][-1]
            if bv < nvar:
                x[bv] += val
            elif bv < 2 * nvar:
                x[bv - nvar] -= val
        point = tuple(x)
        _verify_point(rows, b, mi, point)
        return FeasibilityResult(point=point, farkas=None)

    # Infeasible: the simplex multipliers y are read off from the
    # reduced costs of the artificial columns, and lam = -sigma * y is
    # the Farkas vector in the original row signs.
    lam = tuple(-sigma[i] * (_ONE - cost[art0 + i]) for i in range(m))
    _verify_farkas(rows, b, mi, lam)
    return FeasibilityResult(point=None, farkas=lam)


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], basis: list[int], leave: int, enter: int) -> None:
    prow = tab[leave]
    lead = prow[enter]
    if lead != 1:
        inv = _ONE / lead
        tab[leave] = prow = [v * inv for v in prow]
    support = [(j, v) for j, v in enumerate(prow) if v != 0]
    for row in tab:
        if row is prow:
            continue
        f = row[enter]
        if f != 0:
            for j, v in support:
                row[j] -= f * v
    f = cost[enter]
    if f != 0:
        for j, v in support:
            cost[j] -= f * v
    basis[leave] = enter


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
    """Nonnegative coefficients combining ``generators`` into ``target``.

    Returns ``c >= 0`` with ``sum(c[i] * generators[i]) == target`` or
    ``None`` when the target lies outside the conic hull.
    """
    gens = [to_vector(g) for g in generators]
    t = to_vector(target)
    if gens and any(len(g) != len(t) for g in gens):
        raise DimensionError("generators and target have inconsistent lengths")
    if not gens:
        return () if all(v == 0 for v in t) else None
    m = len(gens)
    eq_rows = [[g[i] for g in gens] for i in range(len(t))]
    ineq_rows = [[-_ONE if j == i else _ZERO for j in range(m)] for i in range(m)]
    res = lp_feasible(ineq_rows, eq_rows, [_ZERO] * m + list(t))
    return res.point
