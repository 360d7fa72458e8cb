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
enumeration of min-balanced systems runs the same step with no gcd
division on vectors packed into one integer each, a bounded field per
entry (:func:`_packed_echelon`).

The feasibility solver, :func:`lp_feasible`, is a phase-1 simplex with
Bland's pivoting rule, which terminates on every input without cycling;
only the membership oracles of :mod:`minbal.cones` run it.  Each row and
its right-hand side are scaled to integers once (``int`` input is used
as it is), and everything after that is integer arithmetic.  The
tableau holds the split variables x = u - v and one column per row, the
row's slack; a row's artificial column stays a signed copy of that
column, so it is not stored.  Each row is a positive integer multiple of
the row of the rational tableau, so a pivot is the same elimination
step, ratios compare by cross-multiplying and the pivots are those of
the rational simplex.  A point comes out as integer numerators over one
common denominator, and a Farkas vector as integer multipliers over the
cost row's scale.  Every answer is checked against the scaled rows
before it is returned (:func:`_verify_point`, :func:`_verify_farkas`),
by integer comparisons that are the rational inequalities multiplied
through by positive integers; ``Fraction`` values are built only for
the caller.  The oracles generate the rows of their core LPs, so a
problem has one variable per player and a working set of coalition rows
(at most 15 rows on the benchmark's games of up to 8 players), where
exact pivoting is entirely adequate.  They pass their game's table
scaled to integers as the right-hand side: scaling every right-hand
side by one positive integer scales the point and leaves the pivots and
the Farkas vector as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Callable, Optional, Sequence

Vector = tuple[Fraction, ...]


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
    """The entries scaled by the lcm of their denominators; ``int``
    entries pass as they are."""
    if all(type(e) is int for e in entries):
        return list(entries)
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


def _packed_echelon(length: int, leading: int, bits: int) -> tuple[Callable, Callable, Callable, Callable]:
    """The fraction-free step on integer vectors of ``length`` entries,
    each packed into one ``int``: entry ``j`` is a signed field of ``w = 2
    * bits + 3`` bits at bit ``j * w``, so one integer expression acts on
    every entry.  Returns ``pack`` and ``unpack``, between a list and its
    ``int``; ``step(v, row, at, lead)``, :func:`_eliminate` with no
    :func:`_primitive`: ``lead * v - f * row`` for ``v``'s entry ``f`` at
    the pivot of ``row``, the field at bit ``at``, where ``row`` holds
    ``lead > 0``; and ``reduce_row(rows, v)``, ``v`` stepped through
    ``rows`` in order, as :func:`reduce_mod_rows` does: None when its
    first ``leading`` entries vanish, else it or its negative, whichever
    is positive at its pivot, its lowest nonzero field, with ``at`` and
    ``lead``.  A field is read with half a field added to every field, so
    that none borrows from the next.

    Every entry a step makes is checked to lie in ``[-B, B)``, ``B =
    2**bits``, else ``ArithmeticError``: adding ``B`` to every field maps
    that range onto each field's low bits, with no borrow, and an entry
    out of it, at the lowest such field, sets a higher bit.  A step on
    such entries makes entries below ``2 * B**2 < 2**(w - 1)`` in size, so
    no field wraps; and a nonzero entry's lowest set bit lies at most
    ``bits`` into its field, so ``(v & -v).bit_length() // w`` is the
    index of the lowest nonzero field.
    """
    w = 2 * bits + 3
    ones = sum(1 << j * w for j in range(length))
    mask, half, low = (1 << w) - 1, 1 << w - 1, (1 << leading * w) - 1
    halves, bound, high = ones * half, ones << bits, ones * (mask >> bits + 1 << bits + 1)
    overflow = f"an entry of a packed echelon row left [-2**{bits}, 2**{bits})"

    def pack(vector: Sequence[int]) -> int:
        return sum(a << j * w for j, a in enumerate(vector))

    def unpack(v: int) -> list[int]:
        v += halves
        return [(v >> j * w & mask) - half for j in range(length)]

    def step(v: int, row: int, at: int, lead: int) -> int:
        if f := (v + halves >> at & mask) - half:
            v = lead * v - f * row
            if v + bound & high:
                raise ArithmeticError(overflow)
        return v

    def reduce_row(rows: list[tuple[int, int, int]], v: int) -> Optional[tuple[int, int, int]]:
        for row, at, lead in rows:  # step, inlined: a call per row made the 5-player search a fifth slower
            if f := (v + halves >> at & mask) - half:
                v = lead * v - f * row
                if v + bound & high:
                    raise ArithmeticError(overflow)
        if not v & low:
            return None
        at = (v & -v).bit_length() // w * w
        lead = ((v >> at) + half & mask) - half
        return (v, at, lead) if lead > 0 else (-v, at, -lead)

    return pack, unpack, reduce_row, step


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

    Exactly one of ``numerators`` and ``farkas`` is set.  A feasible
    system's point is ``numerators`` over the positive ``denominator``,
    in lowest terms; ``point`` gives it as ``Fraction`` values, built on
    first use.  ``farkas`` is a row multiplier vector ``lam`` over the
    stacked (inequality, equality) rows with ``lam[i] >= 0`` on
    inequality rows, ``rows^T lam = 0`` and ``rhs . lam < 0``,
    certifying infeasibility.
    """

    numerators: Optional[tuple[int, ...]]
    denominator: int
    farkas: Optional[Vector]

    @property
    def feasible(self) -> bool:
        return self.numerators is not None

    @cached_property
    def point(self) -> Optional[Vector]:
        """The point, satisfying every constraint exactly, or ``None``."""
        if self.numerators is None:
            return None
        return tuple(Fraction(p, self.denominator) for p in self.numerators)


def lp_feasible(
    inequality_rows: Sequence[Sequence],
    equality_rows: Sequence[Sequence],
    rhs: Sequence,
    dimension: Optional[int] = None,
) -> FeasibilityResult:
    """Decide ``A_I x <= b_I`` and ``A_E x == b_E`` exactly.

    ``rhs`` stacks ``b_I`` before ``b_E``.  ``dimension`` is only needed
    when no rows are given.  Variables are unrestricted in sign.  Each
    row is scaled to integers once, with its right-hand side, and the
    simplex, the point and both checks work on those integer rows:
    before it is returned, the point is re-substituted into every row,
    or the Farkas vector into every row and the right-hand side, as
    integer comparisons, and a failed check raises ``RuntimeError``.
    """
    ineq = _checked_rows(inequality_rows, "inequality rows")
    eq = _checked_rows(equality_rows, "equality rows")
    b = _checked_rows([rhs], "right-hand sides")[0]
    mi, me = len(ineq), len(eq)
    if len(b) != mi + me:
        raise DimensionError("right-hand side does not match the number of rows")
    rows = ineq + eq
    if not rows:
        if dimension is None:
            raise ValueError("dimension is required for an empty constraint system")
        return FeasibilityResult((0,) * dimension, 1, None)
    nvar = len(rows[0])
    if mi and me and len(ineq[0]) != len(eq[0]):
        raise DimensionError("inequality and equality rows have different widths")
    if dimension is not None and dimension != nvar:
        raise DimensionError("explicit dimension does not match the rows")

    m = mi + me
    ncols = 2 * nvar + m          # right-hand side column
    # Row i, its right-hand side and a trailing 1, times the lcm of their
    # denominators: the checks read the row there and the lcm at the end.
    scaled = [_integer_row([*row, r, 1]) for row, r in zip(rows, b)]
    # Split x = u - v with u, v >= 0 and give row i one column holding
    # k_i, that lcm signed so that the scaled right-hand side is >= 0:
    # the slack of an inequality row, a column that never enters for an
    # equality row.  Each row is |k_i| times the rational tableau's row,
    # and pivots keep it a positive multiple.  Artificial i stays that
    # column times sgn(k_i), as both start on e_i and pivots are row
    # operations, so it is not stored; basis label ncols + i stands for
    # it.  The trailing 0 is the cost row's scale.
    tab: list[list[int]] = []
    for i, (*line, r, k) in enumerate(scaled):
        if r < 0:
            line, r, k = [-e for e in line], -r, -k
        line += [-e for e in line] + [0] * m + [r, 0]
        line[2 * nvar + i] = k
        tab.append(line)
    # Phase-1 reduced costs: unit cost on artificials, with the artificial
    # basis eliminated.  Artificial i's reduced cost is the scale plus
    # sgn(k_i) times row i's column, so eliminating it subtracts row i
    # over |k_i|.  Over the lcm of the |k_i|, the last coordinate and the
    # cost row's positive scale, that is one weighted sum of the rows.
    common = lcm(*(row[-1] for row in scaled))
    weighted = tab if common == 1 else [[common // row[-1] * a for a in line] for row, line in zip(scaled, tab)]
    cost = _primitive([-sum(column) for column in zip(*weighted)][:-1] + [common])
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
        # A basic u_j or v_j is its row's right-hand side over its
        # (positive) column entry; the point takes their common
        # denominator.
        basic = [(line[ncols], line[bv], bv) for line, bv in zip(tab, basis) if bv < 2 * nvar]
        den = lcm(*(d for _, d, _ in basic))
        nums = [0] * nvar
        for r, d, bv in basic:
            nums[bv % nvar] += r * (den // d) if bv < nvar else -r * (den // d)
        g = gcd(den, *nums)
        nums, den = tuple(p // g for p in nums), den // g
        _verify_point(scaled, mi, nums, den)
        return FeasibilityResult(nums, den, None)

    # Infeasible: the simplex multipliers y_i = 1 - (reduced cost of
    # artificial i) give the Farkas vector lam = -sgn(k_i) * y_i in the
    # original row signs, which is row i's column entry over the scale.
    multipliers = cost[2 * nvar : ncols]
    _verify_farkas(scaled, mi, multipliers)
    return FeasibilityResult(None, 1, tuple(Fraction(c, cost[-1]) for c in multipliers))


def _verify_point(scaled: list[list[int]], mi: int, numerators: Sequence[int], denominator: int) -> None:
    """Raise unless ``numerators / denominator`` satisfies every row.

    ``scaled[i]`` is row i and its right-hand side times a positive
    integer, as :func:`lp_feasible` builds them, so ``row . x <= r``
    (``==`` from row ``mi`` on) holds exactly when
    ``row . numerators <= r * denominator`` does.
    """
    for i, row in enumerate(scaled):
        # map stops at the last numerator, before r and the scale
        slack = row[-2] * denominator - sum(map(mul, row, numerators))
        if slack < 0 or (i >= mi and slack):
            raise RuntimeError("simplex returned a point violating a constraint")


def _verify_farkas(scaled: list[list[int]], mi: int, multipliers: Sequence[int]) -> None:
    """Raise unless ``multipliers`` over a positive integer is a Farkas vector.

    Row i of the problem is ``scaled[i]`` over its last entry, so the
    multipliers of the scaled rows, brought over the lcm of those
    entries, are ``multipliers[i] * (lcm // scaled[i][-1])``.  They must
    be nonnegative on the first ``mi`` rows, annihilate every column and
    give the right-hand sides a negative sum.
    """
    if any(c < 0 for c in multipliers[:mi]):
        raise RuntimeError("Farkas vector has a negative inequality multiplier")
    common = lcm(*(row[-1] for row in scaled))
    weights = [c * (common // row[-1]) for c, row in zip(multipliers, scaled)]
    *products, total = (sum(map(mul, weights, column)) for column in list(zip(*scaled))[:-1])
    if any(products):
        raise RuntimeError("Farkas vector does not annihilate the rows")
    if total >= 0:
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
