"""Exact linear algebra and linear feasibility over the rationals.

Everything in this package bottoms out in two primitives: the first
linear dependency among a family of columns, and feasibility of a mixed
equality/inequality system.  There is no floating point anywhere, so
every positive answer re-substitutes exactly and every infeasibility
verdict carries a checkable Farkas vector.

Besides the simplex pivot there is one elimination kernel,
:func:`_packed_echelon`: fraction-free steps that divide exactly by the
previous pivot (Bareiss 1968), on integer vectors packed into one
integer each, a signed field per entry.  Every entry it makes is a minor
of its input, so Hadamard's inequality bounds the entries before any
step runs, and :func:`_hadamard_bits` picks the field width from the
input; the bound is checked all the same.  In :func:`dependency` each
column ``j``, its rational coordinates scaled to integers, enters as
``col_j ⊕ e_j``, so every echelon row records which combination of the
columns it is.  :func:`solve_unique` is the dependency of the columns
followed by the target, and :func:`conic_feasible` adds a sign test:
independent generators combine into a target in at most one way.  The
orderly search and the reducibility test run it on 0/1 incidence vectors.

The feasibility solver, :func:`lp_feasible`, is a phase-1 simplex with
Bland's pivoting rule, which terminates on every input without cycling;
only the membership oracles of :mod:`minbal.cones` run it.  Each row and
its right-hand side are scaled to integers once (``int`` input is used
as it is), and everything after that is integer arithmetic.  The
tableau stores u's columns of the split x = u - v and one column per
row, the row's slack; v's columns and the artificials are signed reads
of stored columns.  Each row is a positive integer multiple of the row
of the rational tableau, so a pivot is the same elimination step,
ratios compare by cross-multiplying and the pivots are those of the
rational simplex.  A point comes out as integer numerators over one
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

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from numbers import Rational
from operator import lshift, mul
from typing import Callable, Optional, Sequence

from ._frozen import Frozen

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


def _hadamard_bits(rows: Sequence[Sequence[int]]) -> int:
    """The least ``bits`` with ``2**bits`` above the product of ``max(1,
    ||row||)`` over the integer ``rows``.

    By Hadamard's inequality a square matrix's determinant is at most the
    product of its rows' lengths, and a row cut to some columns is no
    longer than the row, so ``2**bits`` lies above every minor of the
    matrix the rows form.  The product is compared squared, in integers:
    ``4**bits`` lies above the product of the squared lengths.
    """
    return (prod([max(1, sum(map(mul, row, row))) for row in rows]).bit_length() + 1) // 2


@lru_cache(maxsize=64)
def _packed_echelon(length: int, leading: int, bits: int) -> tuple[Callable, list[int], Callable, Callable, Callable, Callable]:
    """Fraction-free elimination that divides exactly by the previous
    pivot (Bareiss 1968), on integer vectors of ``length`` entries, each
    packed into one ``int``: entry ``j`` is a signed field of ``w = 2 *
    bits + 3`` bits at bit ``j * w``, so one integer expression acts on
    every entry.  Returns, in order:

    - ``pack(vector)``, the ``int`` of a vector or of a prefix of one;
    - ``units``, the ``int`` of each unit vector;
    - ``unpack(v)``, the list of ``v``'s entries;
    - ``reduce_row(rows, v, prev)``, ``v`` stepped through the ``(row,
      at, lead)`` triples of ``rows`` in order, each step ``(lead * v - f
      * row) / prev`` for ``v``'s entry ``f`` at the pivot of ``row``, the
      field at bit ``at``, where ``row`` holds ``lead > 0``; ``prev`` is
      the lead before the first row (1 for a fresh echelon), then the
      lead of the row before.  A step with ``f == 0`` still multiplies
      and divides, or the next division is inexact;
    - ``pivot(v)``, ``None`` when the first ``leading`` entries of ``v``
      vanish, else ``v`` or its negative, whichever is positive at its
      pivot, its lowest nonzero field, with ``at`` and ``lead``: the
      triple that ``rows`` takes next; ``v`` is checked as a step is;
    - ``negative(v, start, stop)``, whether the entries ``start`` to
      ``stop - 1`` of ``v`` are all negative.

    A field is read with half a field added to every field, so that none
    borrows from the next.

    Every entry is a minor.  Reducing vectors one at a time against the
    rows before them applies to each the steps that whole-matrix Bareiss
    elimination applies to that row, with the rows' pivots, in order, as
    the pivot columns.  Negating a reduced row commutes with the steps,
    which are linear in the row, and flips signs only.  So by Sylvester's
    identity an entry of a vector stepped through ``k`` rows is, up to
    sign, the minor of the ``k + 1`` input vectors (the rows' and its
    own) on the ``k`` pivot columns and the entry's column, and every
    division is exact.  Where vectors enter as ``x ⊕ e_j``, the pivots
    lie in the leading block, and expanding such a minor along an
    identity column (Laplace) leaves, up to sign, a minor of the ``x``
    alone.  So when ``B = 2**bits`` lies above every minor of the leading
    blocks, as :func:`_hadamard_bits` makes it from the input, every
    entry lies in ``[-B, B)``.  At most ``c`` of the orderly search's
    0/1 vectors of ``c`` entries, members or a union of them, enter a
    minor, none longer than ``1_c``, so it takes ``bits`` from ``c``
    copies of ``1_c``; ``n + 1`` incidence vectors of ``n`` players, as
    :func:`dependency`'s callers pass, take at most the ``bits`` of ``n +
    1`` copies of ``1_n``:

    =====================  ==  ==  ==  ==  ==  ==  ==  ==  ==  ==  ==
    c or n                 2   3   4   5   6   7   8   9   10  11  12
    search ``bits``        2   3   5   6   8   10
    dependency ``bits``    2   4   6   7   10  12  14  16  19  21  24
    =====================  ==  ==  ==  ==  ==  ==  ==  ==  ==  ==  ==

    The bound is still checked.  Every entry a step makes is checked to
    lie in ``[-B, B)``, else ``ArithmeticError``: adding ``B`` to every
    field maps that range onto each field's low bits, with no borrow, and
    an entry out of it, at the lowest such field, sets a higher bit.
    Before the division the entries of ``lead * v - f * row`` are below
    ``2 * B**2 < 2**(w - 1)`` in size, so no field wraps.  A nonzero
    remainder of the packed division raises ``ArithmeticError`` too.
    With that remainder zero and the quotient's entries in ``[-B, B)``,
    each entry times ``prev``, ``0 < prev <= B``, is below ``B**2`` in
    size, so the quotient times ``prev`` has those products as its
    fields, and they are the dividend's: every entry was divided exactly.
    A nonzero entry's lowest set bit lies below bit ``bits`` of its
    field, so ``(v & -v).bit_length() // w`` is the index of the lowest
    nonzero field.

    Linear in ``v``, the steps reduce a sum of 0/1 vectors to the sum of
    theirs, a minor, inside the bound, which ``pivot`` checks still:
    fewer than ``2 * B`` terms in ``[-B, B)`` sum below ``2 * B**2``.
    """
    w = 2 * bits + 3
    shifts = [j * w for j in range(length)]
    units = [1 << at for at in shifts]
    ones = sum(units)
    mask, half, low = (1 << w) - 1, 1 << w - 1, (1 << leading * w) - 1
    halves, bound, high = ones * half, ones << bits, ones * (mask >> bits + 1 << bits + 1)
    overflow = f"an entry of a packed echelon row left [-2**{bits}, 2**{bits})"
    inexact = "a packed echelon step left a remainder dividing by the previous lead"

    def pack(vector: Sequence[int]) -> int:
        return sum(map(lshift, vector, shifts))

    def unpack(v: int) -> list[int]:
        v += halves
        return [(v >> at & mask) - half for at in shifts]

    def reduce_row(rows: list[tuple[int, int, int]], v: int, prev: int) -> int:
        for row, at, lead in rows:
            f = (v + halves >> at & mask) - half
            v = lead * v - f * row
            if prev != 1:
                v, r = divmod(v, prev)
                if r:
                    raise ArithmeticError(inexact)
            if v + bound & high:
                raise ArithmeticError(overflow)
            prev = lead
        return v

    def pivot(v: int) -> Optional[tuple[int, int, int]]:
        if v + bound & high:
            raise ArithmeticError(overflow)
        if not v & low:
            return None
        at = (v & -v).bit_length() // w * w
        lead = ((v >> at) + half & mask) - half
        return (v, at, lead) if lead > 0 else (-v, at, -lead)

    def negative(v: int, start: int, stop: int) -> bool:
        return not v + halves & halves & (1 << stop * w) - (1 << start * w)

    return pack, units, unpack, reduce_row, pivot, negative


def dependency(columns: Sequence[Sequence]) -> Optional[list[int]]:
    """Integer coefficients of the first linear dependency among ``columns``.

    Column ``j`` enters :func:`_packed_echelon` as ``col_j ⊕ e_j``, in
    the width :func:`_hadamard_bits` takes from the scaled columns, and
    is reduced against the columns before it.  The first one that
    vanishes on the leading block returns its tail ``c``, the columns
    before it being independent: ``sum(c[i] * columns[i]) == 0`` with
    ``c[j] != 0``, zeros after ``j``, a positive first nonzero entry and
    gcd 1, which fix the dependency's scale.  ``None`` means the columns
    are linearly independent.
    """
    cols = _checked_rows(columns, "columns")
    k = len(cols)
    d = len(cols[0]) if cols else 0
    # Scaling coordinate i of every column by one positive factor leaves
    # the dependencies unchanged.
    scaled = [_integer_row([c[i] for c in cols]) for i in range(d)]
    vectors = list(zip(*scaled)) if d else [()] * k
    pack, units, unpack, reduce_row, pivot, _ = _packed_echelon(d + k, d, _hadamard_bits(vectors))
    echelon: list[tuple[int, int, int]] = []
    for vector, unit in zip(vectors, units[d:]):
        v = reduce_row(echelon, pack(vector) + unit, 1)
        if (row := pivot(v)) is None:
            tail = unpack(v)[d:]
            return _primitive(tail if next(filter(None, tail)) > 0 else [-a for a in tail])
        echelon.append(row)
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


class FeasibilityResult(Frozen):
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
    ncols = nvar + m              # right-hand side column
    # Row i, its right-hand side and a trailing 1, times the lcm of their
    # denominators: the checks read the row there and the lcm at the end.
    scaled = [_integer_row([*row, r, 1]) for row, r in zip(rows, b)]
    # Split x = u - v with u, v >= 0 and give row i one column holding
    # k_i, that lcm signed so that the scaled right-hand side is >= 0:
    # the slack of an inequality row, a column that never enters for an
    # equality row.  Each row is |k_i| times the rational tableau's row,
    # and pivots keep it a positive multiple.  Only u's columns and the
    # row columns are stored: v_j's column stays u_j's negated, and
    # artificial i stays row i's column times sgn(k_i), as they start so
    # and pivots are row operations.  Basis labels are u_j = j, v_j =
    # nvar + j, slack i = 2 * nvar + i and artificial i = 2 * nvar + m +
    # i.  The trailing 0 is the cost row's scale.
    tab: list[list[int]] = []
    for i, (*line, r, k) in enumerate(scaled):
        if r < 0:
            line, r, k = [-e for e in line], -r, -k
        line += [0] * m + [r, 0]
        line[nvar + i] = k
        tab.append(line)
    # Phase-1 reduced costs: unit cost on artificials, with the artificial
    # basis eliminated.  Artificial i's reduced cost is the scale plus
    # sgn(k_i) times row i's column, so eliminating it subtracts row i
    # over |k_i|.  Over the lcm of the |k_i|, the last coordinate and the
    # cost row's positive scale, that is one weighted sum of the rows.
    common = lcm(*(row[-1] for row in scaled))
    weighted = tab if common == 1 else [[common // row[-1] * a for a in line] for row, line in zip(scaled, tab)]
    cost = _primitive([-sum(column) for column in zip(*weighted)][:-1] + [common])
    basis = list(range(nvar + ncols, nvar + ncols + m))
    # Each label Bland's rule may enter, in order, with its stored column
    # and sign; artificials never re-enter.
    labels = [(j, 1) for j in range(nvar)] + [(j, -1) for j in range(nvar)] + [(nvar + i, 1) for i in range(mi)]

    while True:
        # Bland: entering label is the lowest one with a negative reduced cost.
        enter = next((j for j, (col, sign) in enumerate(labels) if sign * cost[col] < 0), None)
        if enter is None:
            break
        col, sign = labels[enter]
        leave = None
        for i, line in enumerate(tab):
            a = sign * line[col]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                best = tab[leave]
                d = line[ncols] * sign * best[col] - best[ncols] * a
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective is bounded; no pivot row found")
        # Entering v_j steps by the pivot row negated: the full tableau's
        # step on every stored entry, and no gcd changes, as the entries
        # not stored are negations of stored ones.
        prow = tab[leave] if sign > 0 else [-e for e in tab[leave]]
        for i, line in enumerate(tab):
            if i != leave and line[col]:
                tab[i] = _primitive(_eliminate(line, prow, col))
        cost = _primitive(_eliminate(cost, prow, col))
        basis[leave] = enter

    if cost[ncols] == 0:
        # A basic u_j or v_j is its row's right-hand side over its entry in
        # u_j's column, positive for u_j and negative for v_j; the point
        # takes their common denominator.
        basic = [(bv % nvar, line[ncols], line[bv % nvar]) for line, bv in zip(tab, basis) if bv < 2 * nvar]
        den = lcm(*(d for _, _, d in basic))
        nums = [0] * nvar
        for j, r, d in basic:
            nums[j] += r * (den // d)
        g = gcd(den, *nums)
        nums, den = tuple(p // g for p in nums), den // g
        _verify_point(scaled, mi, nums, den)
        return FeasibilityResult(nums, den, None)

    # Infeasible: the simplex multipliers y_i = 1 - (reduced cost of
    # artificial i) give the Farkas vector lam = -sgn(k_i) * y_i in the
    # original row signs, which is row i's column entry over the scale.
    multipliers = cost[nvar:ncols]
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
