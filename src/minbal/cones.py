"""Membership oracles for the balanced, totally balanced and exact cones.

Each oracle returns a :class:`Verdict` whose certificate re-substitutes
exactly against the input game: a core allocation for balancedness, a
table of tight core allocations for exactness, and for negative verdicts
a violated min-balanced inequality, a failing subgame, or (for
exactness) an o-standardized separating functional derived from the
Farkas vector of the infeasible system.  That functional theta is kept
as its nonzero values, at most the LP's working set and the empty set
(:func:`_theta_values`), and its o-standardization is checked once,
there.  A violated min-balanced inequality is reduced from those values
directly; only the exact cone's certificate, a set function, tabulates
theta on all 2^n coalitions (:func:`_theta_from_farkas`).

All three oracles ask one question: is there a core point tight at a
given coalition?  Balancedness asks it once, of the full player set;
exactness of every coalition no earlier point is tight at, after the
marginal vectors of one order per symmetric chain have covered what
they can (:func:`is_exact`); total balancedness of the full game and of
each subgame of two or more players that it could not settle more
cheaply.  A totally balanced game
is one whose every subgame is balanced, a minimum of additive games
(Kalai & Zemel, 1982), and most subgames are settled without that
question (:func:`_settled`): a pair {i, j} is balanced iff
v(ij) >= v(i) + v(j), and the coalitions split into C(n, floor(n/2))
symmetric chains (de Bruijn, Tengbergen & Kruyswijk, 1951;
:func:`_symmetric_chains`), each settled by one marginal vector of its
top's subgame that adds the chain's players link by link: every link
up to the first one holding a coalition the vector violates, and the
whole chain where the vector is in the top's core.  A chain is tried
when the smallest-first scan first reaches one of its links, so a scan
that fails early stops early.  The answer to the question is first
sought in integers as the marginal vector of the order that starts with
the coalition's players (:func:`_marginal_vector`), which is tight at
it; every marginal vector of a convex game is a core element (Shapley,
*Cores of convex games*, 1971).  Only where that vector leaves the core
does the core system run: 2^n - 1 rows in n unknowns, so its rows are
generated (:func:`_tight_feasibility`), and each LP holds the
singletons, the equalities and the few rows a scan of all coalitions
found violated.  A marginal vector passes, and a subgame is settled,
only where a core point exists, so a table without one runs the same
system as an LP-only check, and every negative verdict and its
certificate is that check's.  Everything runs on the game's stored
integer table (``SetFunction.numerators``, the values times their
common ``denominator``), and a subgame's on its part of that table.
The points a positive certificate holds stay integers over one
denominator each (:class:`CoreAllocation`), and ``Fraction`` values are
built only where a negative certificate needs them or a caller asks.
``minbal.balance`` is imported only to build or conjugate a
min-balanced system, so a member's check does not load it.

Set functions that do not vanish at the empty coalition are shifted
first; the oracles then answer for the shifted game, which is the
membership question for the extended cones.
"""

from __future__ import annotations

from functools import cache, cached_property
from fractions import Fraction
from itertools import compress
from math import comb, lcm
from operator import eq, ge, indexOf, not_, sub
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ._frozen import Frozen
from .games import (
    Game,
    Players,
    SetFunction,
    _bit_positions,
    _log,
    _lowest_terms,
    _player_sums,
    as_game,
    is_o_standardized,
    relabelling,
    restrict,
)
from .linalg import FeasibilityResult, dependency, lp_feasible

if TYPE_CHECKING:
    from .balance import InequalityVector, MinBalancedSystem

Payoffs = tuple[Fraction, ...]


class CoreAllocation(Frozen):
    """An efficient payoff vector giving every coalition its worth.

    Stored as integers: payoff i is ``numerators[i] / denominator``, in
    lowest terms.  ``payoffs``, the same numbers as ``Fraction``s, is
    built on first access, or kept from the constructor's argument.  Two
    allocations are equal, and hash alike, when their integers are.
    """

    payoffs: Payoffs

    def __init__(self, payoffs: Payoffs) -> None:
        den = lcm(*(p.denominator for p in payoffs))
        super().__init__(payoffs)
        self.__dict__.update(numerators=tuple(p.numerator * (den // p.denominator) for p in payoffs), denominator=den)

    @classmethod
    def _from_table(cls, numerators: Sequence[int], denominator: int) -> CoreAllocation:
        """The allocation of ``numerators`` over the positive ``denominator``."""
        x = cls.__new__(cls)
        numerators, denominator = _lowest_terms(numerators, denominator)
        x.__dict__.update(numerators=numerators, denominator=denominator)
        return x

    @cached_property
    def payoffs(self) -> Payoffs:
        return tuple(Fraction(p, self.denominator) for p in self.numerators)

    def _values(self) -> tuple:
        return self.numerators, self.denominator


class TightAllocationTable(Frozen):
    """One core allocation per nonempty coalition, tight at it.

    Stored as ``points``: each coalition with its point, a
    :class:`CoreAllocation`, and coalitions that share a point share the
    object.  ``allocations``, the same as ``(coalition, payoffs)`` pairs,
    is built on first access, or kept from the constructor's argument.
    """

    allocations: tuple[tuple[int, Payoffs], ...]

    def __init__(self, allocations: tuple[tuple[int, Payoffs], ...]) -> None:
        super().__init__(allocations)
        point = {x: CoreAllocation(x) for _, x in allocations}
        self.__dict__["points"] = tuple((d, point[x]) for d, x in allocations)

    @classmethod
    def _of(cls, points: tuple[tuple[int, CoreAllocation], ...]) -> TightAllocationTable:
        table = cls.__new__(cls)
        table.__dict__["points"] = points
        return table

    @cached_property
    def allocations(self) -> tuple[tuple[int, Payoffs], ...]:
        return tuple((d, x.payoffs) for d, x in self.points)

    def _values(self) -> tuple:
        return self.points


class ViolatedSystem(Frozen):
    """A min-balanced inequality the game violates (value < 0)."""

    mbs: MinBalancedSystem
    value: Fraction


class NoTightAllocation(Frozen):
    """No core element is tight at ``coalition``.

    ``theta`` is the Farkas certificate in o-standardized form: it is
    non-positive outside the empty set, ``coalition`` and the full
    player set, and pairs strictly negatively with the game.
    """

    coalition: int
    theta: SetFunction


Certificate = Union["FailingSubgame", CoreAllocation, TightAllocationTable, ViolatedSystem, NoTightAllocation]


class FailingSubgame(Frozen):
    """A coalition whose subgame already fails, with the inner evidence."""

    coalition: int
    certificate: Certificate


class Verdict(Frozen):
    member: bool
    certificate: Optional[Certificate]

    def __bool__(self) -> bool:
        return self.member


def _theta_values(n: int, order: list[int], farkas) -> dict[int, int]:
    """A Farkas vector as the nonzero values of an o-standardized set
    function, in integers: the values times the lcm of the vector's
    denominators.

    theta(S) = -lam(S) at each coalition of the working set ``order``
    with a nonzero multiplier, and theta({}) balances the total to zero;
    for a game m this pairs to  -sum lam(S) m(S) < 0.  Every other
    coalition's value is zero, so the per-player sums are checked over
    these values only, once, here.
    """
    scale = lcm(*(lam.denominator for lam in farkas))
    theta = {s: -lam.numerator * (scale // lam.denominator) for s, lam in zip(order, farkas) if lam}
    theta[0] = -sum(theta.values())
    if any(_player_sums(theta.items(), n)):
        raise RuntimeError("Farkas certificate is not o-standardized")
    return theta


def _theta_from_farkas(players: Players, order: list[int], farkas) -> SetFunction:
    """The :func:`_theta_values` of a Farkas vector tabulated on every coalition.

    Only the exact cone's certificate, :class:`NoTightAllocation`, is a
    dense set function; the other oracles keep theta as its nonzero
    values.
    """
    table = [0] * (1 << players.n)
    for s, t in _theta_values(players.n, order, farkas).items():
        table[s] = t
    return SetFunction._from_table(players, table, lcm(*(lam.denominator for lam in farkas)))


def _sums(payoffs: list[int]) -> list[int]:
    """x(S) at every coalition S, in bitmask order, for integer payoffs x.

    Summed by doubling: the coalitions holding player i as their highest
    player are those below bit i, each plus x_i.
    """
    sums = [0]
    for p in payoffs:
        sums += [t + p for t in sums]
    return sums


def _marginal_vector(values: Sequence[int], order: Sequence[int]) -> Optional[tuple[list[int], list[int]]]:
    """The marginal vector of ``order`` and its sums, if it is in the core.

    ``values`` is a game's integer table and ``order`` lists each of its
    players once; each player gets what it adds to the coalition of the
    players before it.  The vector x is efficient and tight at every
    prefix of the order.  Returns ``(x, sums)``, ``sums`` holding x(S) at
    every coalition S in bitmask order, when every excess v(S) - x(S) is
    at most 0, and ``None`` otherwise.  A passing vector is a core point
    tight at every prefix, found without an LP; on a convex game every
    vector passes (Shapley, *Cores of convex games*, 1971).
    """
    x = [0] * len(order)
    prefix = 0
    for i in order:
        x[i] = values[prefix | 1 << i] - values[prefix]
        prefix |= 1 << i
    sums = _sums(x)
    return (x, sums) if all(map(ge, sums, values)) else None


def _starting_with(coalition: int, n: int) -> list[int]:
    """The order of ``n`` players that takes the players of ``coalition``
    in increasing order, then the others in increasing order: its
    marginal vector is tight at ``coalition``."""
    return _bit_positions(coalition) + _bit_positions(((1 << n) - 1) ^ coalition)


@cache
def _symmetric_chains(n: int) -> tuple[tuple[int, ...], ...]:
    """A symmetric chain decomposition of the coalitions of ``n`` players.

    Each chain is a tuple of coalitions, each link one player larger than
    the one before, whose sizes run symmetrically about n/2; every
    coalition lies on exactly one chain, and there are C(n, floor(n/2))
    chains (de Bruijn, Tengbergen & Kruyswijk, 1951).  Built player by
    player: each chain C_0, ..., C_k of the players before player i
    gives C_0, ..., C_k, C_k + i and, when k > 0, C_0 + i, ..., C_(k-1) + i.
    The first chain runs from the empty coalition to the full set,
    adding the players in increasing order.
    """
    chains: list[tuple[int, ...]] = [(0,)]
    for i in range(n):
        bit = 1 << i
        grown = []
        for chain in chains:
            grown.append(chain + (chain[-1] | bit,))
            if len(chain) > 1:
                grown.append(tuple(s | bit for s in chain[:-1]))
        chains = grown
    return tuple(chains)


@cache
def _chain_of(n: int) -> tuple[int, ...]:
    """For each coalition of ``n`` players, the index of its chain in
    :func:`_symmetric_chains`."""
    index = [0] * (1 << n)
    for c, chain in enumerate(_symmetric_chains(n)):
        for s in chain:
            index[s] = c
    return tuple(index)


def _chain_order(chain: tuple[int, ...]) -> list[int]:
    """The players of a chain's top: its bottom's in increasing order,
    then each link's new player.  Every link is a prefix."""
    return _bit_positions(chain[0]) + [(t ^ s).bit_length() - 1 for s, t in zip(chain, chain[1:])]


def _chain_vector(values: Sequence[int], chain: tuple[int, ...]) -> tuple[list[int], int]:
    """The marginal vector of a chain, and the first coalition it violates.

    ``values`` is a game's integer table and ``chain`` one of
    :func:`_symmetric_chains`.  The vector is taken on the subgame of the
    chain's top, in the order that takes the players of its bottom in
    increasing order, then adds the chain's players link by link: the
    top's players renamed in that order, it is the marginal vector in
    player order of the renamed table, and it lists the payoffs in the
    renamed order.  Returns it with the first renamed coalition, in
    bitmask order, whose worth is above its payoff, or ``2**k`` on a top
    of ``k`` players when there is none.  The vector is tight at every
    link, and its restriction to the link of ``j`` players is that link's
    marginal vector in the same order, whose renamed coalitions are those
    below ``2**j``: so where the first violated coalition is not below
    ``2**j``, the restriction is a core point of the link's subgame,
    which is balanced.
    """
    order = _chain_order(chain)
    table = [values[s] for s in relabelling(order)]
    x = [table[(2 << i) - 1] - table[(1 << i) - 1] for i in range(len(order))]
    sums = _sums(x)
    return x, len(table) if all(map(ge, sums, table)) else indexOf(map(ge, sums, table), False)


@cache
def _smallest_first(n: int) -> tuple[int, ...]:
    """The nonempty coalitions of ``n`` players by size, then bitmask: the
    sort is stable, so each size keeps bitmask order."""
    return tuple(sorted(range(1, 1 << n), key=int.bit_count))


def _point(res: FeasibilityResult, scale: int) -> CoreAllocation:
    """The point of a core system on a table times ``scale``."""
    return CoreAllocation._from_table(res.numerators, res.denominator * scale)


def _tight_feasibility(values: Sequence[int], tight_at: int):
    """A core point with x(tight_at) = v(tight_at), or a Farkas vector.

    ``values`` is a game's table times one positive integer, as its
    ``numerators`` are, the table times its ``denominator``, or a
    subgame's part of them: the core system with its right-hand side
    scaled alike takes the same pivots and has the same Farkas vectors,
    and its point is the game's times that integer.  Returns ``(res,
    order, excess)``: the :func:`lp_feasible` result of the last working
    set, its coalitions in row order, and, when ``res`` has a point,
    that point's excesses v(S) - x(S) at every coalition S, in bitmask
    order and times ``res.denominator`` times that integer.

    The core system has a row x(S) >= v(S) for every coalition, with
    equality at the full player set and at ``tight_at``, but only n
    unknowns, so its rows are generated.  The working set starts with
    the equalities and the singleton inequalities.  While
    :func:`lp_feasible` finds a point of the working set, every
    coalition is scanned in integers and the most violated row
    (smallest bitmask on ties) is added.  A point that violates no row
    is in the core.  A Farkas vector of the working set, zero on every
    other row, certifies the full system.  Each round adds a row the
    working set lacked, so the loop ends.  A round that adds a row reads
    only the largest excess and its first coalition off the scan; the
    list of excesses is built on the round that returns it.
    """
    full = len(values) - 1
    n = full.bit_length()
    equalities = [full] if tight_at == full else [full, tight_at]
    working = [1 << i for i in range(n) if 1 << i not in equalities]
    while True:
        order, mi = working + equalities, len(working)
        rows = [[-(s >> i & 1) for i in range(n)] for s in order]
        res = lp_feasible(rows[:mi], rows[mi:], [-values[s] for s in order])
        if not res.feasible:
            return res, order, None
        den = res.denominator
        scaled = values if den == 1 else [v * den for v in values]
        sums = _sums(res.numerators)
        worst = max(map(sub, scaled, sums))
        if worst <= 0:
            return res, order, list(map(sub, scaled, sums))
        working.append(indexOf(map(sub, scaled, sums), worst))


def _core_point(values: Sequence[int], tight_at: int) -> tuple[FeasibilityResult, Optional[list[int]]]:
    """A core point of an integer table, tight at ``tight_at``, or a Farkas vector.

    Tries :func:`_marginal_vector` and runs :func:`_tight_feasibility`
    only when that vector leaves the core.  Returns ``(res, order)``:
    ``res`` holds either the point's numerators over its denominator (1
    for a marginal vector), or the Farkas vector of the core system's
    last working set, whose coalitions ``order`` lists in row order.
    """
    marginal = _marginal_vector(values, _starting_with(tight_at, len(values).bit_length() - 1))
    if marginal is not None:
        return FeasibilityResult(tuple(marginal[0]), 1, None), None
    return _tight_feasibility(values, tight_at)[:2]


def _violated_system(game: Game, theta: dict[int, int]) -> ViolatedSystem:
    """Carathéodory reduction of the empty core's Farkas functional.

    ``theta`` is the functional's nonzero values times a positive
    integer, as :func:`_theta_values` gives them; no table of all 2^n
    coalitions is built.  w_S = -theta(S) / theta(N), for S neither empty
    nor N and in increasing bitmask order, are balanced weights on N with
    sum w_S v(S) > v(N).  While the support is dependent, a dependency
    among its first n + 1 members, oriented not to lower that sum, is
    added to w until a weight drops to zero and leaves the support.  All
    of it runs on integers: theta(N) is positive, as the multiplier of
    the row x(N) = v(N) is negative in every Farkas vector of the core
    system, so the weights are kept as -theta(S) times a positive number,
    and a step of p / q is taken as every weight times q plus p times the
    dependency.  Only the violated inequality's value is a ``Fraction``.
    """
    from .balance import SetSystem, is_min_balanced

    n = game.players.n
    full = game.players.full_mask
    values = game.numerators
    weights = {s: -theta[s] for s in sorted(theta) if s not in (0, full)}
    support = list(weights)
    while (coeffs := dependency([[s >> i & 1 for i in range(n)] for s in support[: n + 1]])) is not None:
        dep = [(s, d) for s, d in zip(support, coeffs) if d]
        if sum(d * values[s] for s, d in dep) < 0:
            dep = [(s, -d) for s, d in dep]
        p, q = 0, 0  # the least ratio weights[s] / -d over d < 0
        for s, d in dep:
            if d < 0 and (not q or weights[s] * q < p * -d):
                p, q = weights[s], -d
        weights = {s: w * q for s, w in weights.items()}
        for s, d in dep:
            weights[s] += p * d
        support = [s for s in support if weights[s]]
    mbs = is_min_balanced(SetSystem(tuple(support)))
    if mbs is None or mbs.carrier != full:
        raise RuntimeError("Farkas support did not reduce to a min-balanced system on the player set")
    value = mbs.alpha.evaluate(game)
    if value >= 0:
        raise RuntimeError("reduced min-balanced inequality is not violated")
    return ViolatedSystem(mbs, value)


def is_balanced(f: SetFunction) -> Verdict:
    """Core non-emptiness, certified.

    Positive verdicts carry a core allocation.  Negative ones carry a
    min-balanced system on the full player set whose inequality the game
    violates, reduced from the Farkas vector of the core system.
    """
    game = as_game(f)
    res, order = _core_point(game.numerators, game.players.full_mask)
    if res.feasible:
        return Verdict(True, _point(res, game.denominator))
    return Verdict(False, _violated_system(game, _theta_values(game.players.n, order, res.farkas)))


def _settled(values: Sequence[int], a: int, vectors: dict[int, tuple[list[int], int]]) -> bool:
    """Whether the subgame on ``a`` is balanced by a test cheaper than an LP.

    ``values`` is a game's integer table.  A coalition of one player is
    balanced, and a pair {i, j} iff v(ij) >= v(i) + v(j).  A larger
    coalition is settled where the vector of its chain
    (:func:`_chain_vector`), restricted to it, is in its core: where the
    first coalition the vector violates, renamed in the chain's order,
    lies outside the coalition, whose renamed coalitions are those below
    ``2**|a|``.  ``vectors`` holds what :func:`_chain_vector` returned
    for the chains tried so far, by index in :func:`_symmetric_chains`:
    each chain is tried once, when a scan first asks about one of its
    links.  The links a chain does not settle may still be balanced.
    """
    size = a.bit_count()
    if size < 3:
        return size < 2 or values[a] >= values[a & -a] + values[a & (a - 1)]
    n = len(values).bit_length() - 1
    c = _chain_of(n)[a]
    if c not in vectors:
        vectors[c] = _chain_vector(values, _symmetric_chains(n)[c])
    return vectors[c][1] >> size != 0


def is_totally_balanced_lp(f: SetFunction) -> Verdict:
    """Balancedness of every subgame, settled along symmetric chains.

    The coalitions are scanned smallest first (by cardinality, then
    bitmask).  Each proper one is first offered to :func:`_settled`,
    which settles pairs in closed form and larger coalitions by the
    marginal vector of their symmetric chain, tried when the scan first
    reaches the chain; the unsettled ones, and the full player set, ask
    :func:`_core_point` for a core point of their subgame.  Settled
    subgames are balanced, so the first subgame without a core point is
    the smallest failing coalition, which is reported with the evidence
    for its subgame, and a scan that fails early tries only the chains
    it reached.  A member carries the core allocation found for the full
    game.  The first chain runs from the empty coalition to the full set
    in player order, so the marginal vector in player order that
    :func:`_core_point` tries first on one of its links is that chain's
    vector restricted to the link.  Once that chain is tried, its links
    are not offered the vector again: the full set takes it as the
    allocation where it passed, and a link it does not settle, or the
    full set where it failed, goes straight to the core LP
    (:func:`_tight_feasibility`).  Each subgame is checked on its part
    of the game's integer table; only a failing subgame is built as a
    game, for its certificate.
    """
    game = as_game(f)
    n, full = game.players.n, game.players.full_mask
    values = game.numerators
    vectors: dict[int, tuple[list[int], int]] = {}
    for a in _smallest_first(n):
        if a != full and _settled(values, a, vectors):
            continue
        first = vectors.get(0) if a & (a + 1) == 0 else None  # a link of the first chain, once it is tried
        if first is not None and first[1] >> n:
            res = FeasibilityResult(tuple(first[0]), 1, None)
            break
        table = [values[s] for s in relabelling(_bit_positions(a))]
        res, order = _core_point(table, len(table) - 1) if first is None else _tight_feasibility(table, len(table) - 1)[:2]
        if not res.feasible:
            theta = _theta_values(a.bit_count(), order, res.farkas)
            return Verdict(False, FailingSubgame(a, _violated_system(restrict(game, a), theta)))
    return Verdict(True, _point(res, game.denominator))


def is_totally_balanced_facets(f: SetFunction, catalogue) -> Verdict:
    """Total balancedness through the facet inequality catalogue.

    ``catalogue`` is the totally-balanced ``Catalogue`` of the game's
    player set; listing its entries searches what is not yet searched and
    checks its counts.  A negative verdict carries the first violated
    entry.  Positive verdicts carry no compact witness (the evidence is
    the exhaustive check itself), so the certificate is ``None``.
    """
    game = as_game(f)
    if catalogue.players != game.players:
        raise ValueError("catalogue was generated for a different player set")
    if catalogue.cone.value != "totally-balanced":
        raise ValueError("a totally-balanced catalogue is required")
    for entry in catalogue.entries:
        value = entry.alpha.evaluate(game)
        if value < 0:
            return Verdict(False, ViolatedSystem(entry.mbs, value))
    return Verdict(True, None)


def is_exact(f: SetFunction) -> Verdict:
    """Exactness: a core element tight at every nonempty coalition.

    A game is exact iff every coalition has a core point tight at it
    (Schmeidler, 1972), and a marginal vector in the core is tight at
    every prefix of its order, so the coalitions are first covered along
    the C(n, floor(n/2)) chains of :func:`_symmetric_chains`.  For each
    chain with a link no earlier point is tight at, the marginal vector
    of the full game in the order that takes its top's players as
    :func:`_chain_order` lists them, then the others in increasing
    order, fills every coalition it is tight at.  The walk stops at the
    first vector that leaves the core.  On a convex game none does
    (Shapley, 1971), and the chains cover every coalition with
    C(n, floor(n/2)) points and no LP.  The first chain's vector is the
    one in player order; the chains are built only once it passes, so a
    game whose first vector fails pays nothing for them.  The coalitions
    the walk leaves uncovered are then visited smallest first: each
    tries the marginal vector that starts with its players
    (:func:`_starting_with`), unless that vector was tried and left the
    core, then its core LP (:func:`_tight_feasibility`), and each point
    found fills every coalition it is tight at.  A covered coalition has
    a tight core point, so the first coalition without one is the
    smallest, and it runs the LP an LP-only check runs there: negative
    verdicts and their certificates are that check's.

    Positive verdicts carry the full table of tight allocations, each
    point kept in integers; negative ones the first failing coalition
    with its separating functional.  A game on 11 or more players logs a
    warning first: each point costs a few passes over all 2^n
    coalitions, and more where its LP runs.  On a 2-core machine a
    seeded convex game took 0.04-0.05 s at 10 players, 0.11-0.13 s at 11
    and 0.44 s at 12 (medians in two processes, no LP), about 3.2-fold
    per player.
    """
    game = as_game(f)
    n = game.players.n
    if n >= 11:
        _log(
            "warning",
            "exactness check on %d players: up to %d marginal vectors along symmetric chains, "
            "then a marginal vector or core LP for each coalition they leave uncovered",
            n,
            comb(n, n // 2),
        )
    values, den = game.numerators, game.denominator
    coalitions = range(len(values))
    points: dict[int, CoreAllocation] = {}
    failed: set[tuple[int, ...]] = set()  # the orders whose marginal vector left the core

    def cover(order: list[int]) -> bool:
        """Fill every coalition the marginal vector of ``order`` is tight
        at, if that vector is in the core."""
        marginal = _marginal_vector(values, order)
        if marginal is None:
            failed.add(tuple(order))
            return False
        x, sums = marginal
        point = CoreAllocation._from_table(x, den)
        for s in compress(coalitions, map(eq, values, sums)):
            points.setdefault(s, point)
        return True

    if cover(list(range(n))):
        full = game.players.full_mask
        for chain in _symmetric_chains(n)[1:]:
            if all(s in points for s in chain):
                continue
            if not cover(_chain_order(chain) + _bit_positions(full ^ chain[-1])):
                break
    smallest = _smallest_first(n)
    for d in smallest:
        if d in points:
            continue
        order = _starting_with(d, n)
        if tuple(order) not in failed and cover(order):
            continue
        res, order, excess = _tight_feasibility(values, d)
        if not res.feasible:
            return Verdict(False, NoTightAllocation(d, _theta_from_farkas(game.players, order, res.farkas)))
        point = _point(res, den)
        for s in compress(coalitions, map(not_, excess)):
            points.setdefault(s, point)
    return Verdict(True, TightAllocationTable._of(tuple(zip(smallest, map(points.__getitem__, smallest)))))


def conjugate(alpha: InequalityVector, players: Players) -> InequalityVector:
    """The coefficient vector of the conjugate inequality.

    Reflection re-keys every coefficient at the complementary coalition;
    applying it twice gives the original vector back.
    """
    from .balance import InequalityVector

    full = players.full_mask
    if any(s > full for s, _ in alpha.items):
        raise ValueError("coefficient vector does not fit the player set")
    return InequalityVector(tuple(sorted((full ^ s, c) for s, c in alpha.items)))


def theta_contains(theta: SetFunction, coalition: int) -> bool:
    """Membership of the cone of o-standardized functionals that are
    non-positive outside the empty set, ``coalition`` and the full set."""
    theta.players._check(coalition)
    if coalition == 0:
        raise ValueError("the distinguished coalition must be nonempty")
    full = theta.players.full_mask
    exempt = {0, coalition, full}
    if any(v > 0 for s, v in enumerate(theta.values) if s not in exempt):
        return False
    return is_o_standardized(theta)


def delta_contains(theta: SetFunction, carrier: int) -> bool:
    """Membership of the polytope slice attached to ``carrier``.

    Requires value 1 at the empty set, non-positive values on the proper
    nonempty subsets of the carrier, zero on every coalition reaching
    outside the carrier, and o-standardization.
    """
    theta.players._check(carrier)
    if carrier.bit_count() < 2:
        raise ValueError("the carrier must have at least two players")
    if theta.values[0] != 1:
        return False
    for s, v in enumerate(theta.values):
        if s & ~carrier:
            if v != 0:
                return False
        elif s not in (0, carrier) and v > 0:
            return False
    return is_o_standardized(theta)
