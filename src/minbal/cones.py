"""Membership oracles for the balanced, totally balanced and exact cones.

Each oracle returns a :class:`Verdict` whose certificate re-substitutes
exactly against the input game: a core allocation for balancedness, a
table of tight core allocations for exactness, and for negative verdicts
a violated min-balanced inequality, a failing subgame, or (for
exactness) an o-standardized separating functional derived from the
Farkas vector of the infeasible system.

Set functions that do not vanish at the empty coalition are shifted
first; the oracles then answer for the shifted game, which is the
membership question for the extended cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .balance import InequalityVector, MinBalancedSystem, SetSystem, is_min_balanced
from .games import (
    MAX_PLAYERS,
    Game,
    Players,
    SetFunction,
    as_game,
    is_o_standardized,
    restrict,
)
from .linalg import augment, lp_feasible, reduce_mod_rows

Payoffs = tuple[Fraction, ...]


@dataclass(frozen=True)
class CoreAllocation:
    """An efficient payoff vector giving every coalition its worth."""

    payoffs: Payoffs


@dataclass(frozen=True)
class TightAllocationTable:
    """One core allocation per nonempty coalition, tight at it."""

    allocations: tuple[tuple[int, Payoffs], ...]

    def allocation(self, coalition: int) -> Payoffs:
        return dict(self.allocations)[coalition]


@dataclass(frozen=True)
class ViolatedSystem:
    """A min-balanced inequality the game violates (value < 0)."""

    mbs: MinBalancedSystem
    value: Fraction


@dataclass(frozen=True)
class NoTightAllocation:
    """No core element is tight at ``coalition``.

    ``theta`` is the Farkas certificate in o-standardized form: it is
    non-positive outside the empty set, ``coalition`` and the full
    player set, and pairs strictly negatively with the game.
    """

    coalition: int
    theta: SetFunction


Certificate = Union["FailingSubgame", CoreAllocation, TightAllocationTable, ViolatedSystem, NoTightAllocation]


@dataclass(frozen=True)
class FailingSubgame:
    """A coalition whose subgame already fails, with the inner evidence."""

    coalition: int
    certificate: Certificate


@dataclass(frozen=True)
class Verdict:
    member: bool
    certificate: Optional[Certificate]

    def __bool__(self) -> bool:
        return self.member


def _check_oracle_cap(players: Players) -> None:
    if players.n > MAX_PLAYERS:
        raise ValueError(f"membership oracles are capped at {MAX_PLAYERS} players")


def _tight_rows(game: Game, tight_at: int):
    """Constraint rows of the core system, with equality at ``tight_at``.

    Every row has the form  -chi_S . x <= -m(S); the rows for the full
    player set and for ``tight_at`` are equalities.  Returns the rows,
    the right-hand side and the coalition order used, inequalities first.
    """
    players = game.players
    n = players.n
    full = players.full_mask
    ineq_order = [s for s in range(1, full + 1) if s not in (full, tight_at)]
    eq_order = [full] if tight_at == full else [full, tight_at]
    order = ineq_order + eq_order
    rows = [[-Fraction(s >> i & 1) for i in range(n)] for s in order]
    rhs = [-game.values[s] for s in order]
    return rows, rhs, ineq_order, eq_order


def _theta_from_farkas(players: Players, order: list[int], farkas) -> SetFunction:
    """Repackage a Farkas vector as an o-standardized set function.

    theta(S) = -lam(S) on nonempty coalitions and theta({}) balances the
    total to zero; for a game m this pairs to  -sum lam(S) m(S) < 0.
    """
    values = [Fraction(0)] * (1 << players.n)
    for s, lam in zip(order, farkas):
        values[s] = -lam
    values[0] = -sum(values)
    theta = SetFunction(players, tuple(values))
    if not is_o_standardized(theta):
        raise RuntimeError("Farkas certificate is not o-standardized")
    return theta


def _tight_feasibility(game: Game, tight_at: int):
    rows, rhs, ineq_order, eq_order = _tight_rows(game, tight_at)
    mi = len(ineq_order)
    res = lp_feasible(rows[:mi], rows[mi:], rhs)
    if res.feasible:
        return res.point, None
    theta = _theta_from_farkas(game.players, ineq_order + eq_order, res.farkas)
    return None, theta


def _dependency(members: list[int], n: int) -> Optional[list[tuple[int, int]]]:
    """Integer coefficients of a linear dependency among the members'
    incidence vectors, keyed by member; None when they are independent."""
    echelon: list[tuple[list[int], int]] = []
    for j, s in enumerate(members):
        r, piv = reduce_mod_rows(echelon, augment([s >> i & 1 for i in range(n)], j, len(members)))
        if piv >= n:
            return [(t, r[n + i]) for i, t in enumerate(members[: j + 1]) if r[n + i]]
        echelon.append((r, piv))
    return None


def _violated_system(game: Game, theta: SetFunction) -> ViolatedSystem:
    """Carathéodory reduction of the empty core's Farkas functional.

    w_S = -theta(S) / theta(N) are balanced weights on N with
    sum w_S v(S) > v(N).  While the support is dependent, a dependency
    among its first n + 1 members, oriented not to lower that sum, is
    added to w until a weight drops to zero and leaves the support.
    """
    n = game.players.n
    full = game.players.full_mask
    weights = {s: -theta.values[s] / theta.values[full] for s in range(1, full) if theta.values[s]}
    support = list(weights)
    while (dep := _dependency(support[: n + 1], n)) is not None:
        if sum(d * game.values[s] for s, d in dep) < 0:
            dep = [(s, -d) for s, d in dep]
        step = min(weights[s] / -d for s, d in dep if d < 0)
        for s, d in dep:
            weights[s] += step * d
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
    violates, reduced from the Farkas vector of the same core system.
    """
    _check_oracle_cap(f.players)
    game = as_game(f)
    point, theta = _tight_feasibility(game, game.players.full_mask)
    if point is not None:
        return Verdict(True, CoreAllocation(point))
    return Verdict(False, _violated_system(game, theta))


def is_totally_balanced_lp(f: SetFunction) -> Verdict:
    """Balancedness of every subgame, checked by one core system each.

    The smallest failing coalition (by cardinality, then bitmask) is
    reported with the evidence for its subgame.  Singleton subgames are
    always balanced and are skipped.
    """
    _check_oracle_cap(f.players)
    game = as_game(f)
    players = game.players
    full = players.full_mask
    coalitions = sorted(
        (s for s in range(1, full + 1) if s.bit_count() >= 2),
        key=lambda s: (s.bit_count(), s),
    )
    core_point: Optional[Payoffs] = None
    for a in coalitions:
        sub = game if a == full else restrict(game, a)
        verdict = is_balanced(sub)
        if not verdict.member:
            return Verdict(False, FailingSubgame(a, verdict.certificate))
        if a == full:
            core_point = verdict.certificate.payoffs
    if core_point is None:  # single-player game: the core is a point
        core_point = (game.values[full],)
    return Verdict(True, CoreAllocation(core_point))


def is_totally_balanced_facets(f: SetFunction, catalogue) -> Verdict:
    """Total balancedness through the facet inequality catalogue.

    ``catalogue`` is the totally-balanced catalogue for the game's
    player set.  A negative verdict carries the first violated entry.
    Positive verdicts carry no compact witness (the evidence is the
    exhaustive check itself), so the certificate is ``None``.
    """
    game = as_game(f)
    if catalogue.players != game.players:
        raise ValueError("catalogue was generated for a different player set")
    if getattr(catalogue.cone, "value", catalogue.cone) != "totally-balanced":
        raise ValueError("a totally-balanced catalogue is required")
    for entry in catalogue.entries:
        value = entry.alpha.evaluate(game)
        if value < 0:
            return Verdict(False, ViolatedSystem(entry.mbs, value))
    return Verdict(True, None)


def is_exact(f: SetFunction) -> Verdict:
    """Exactness: a core element tight at every nonempty coalition.

    Runs one feasibility system per coalition, smallest first.  Positive
    verdicts carry the full table of tight allocations; negative ones
    the first failing coalition with its separating functional.
    """
    _check_oracle_cap(f.players)
    game = as_game(f)
    full = game.players.full_mask
    coalitions = sorted(range(1, full + 1), key=lambda s: (s.bit_count(), s))
    table = []
    for d in coalitions:
        point, theta = _tight_feasibility(game, d)
        if point is None:
            return Verdict(False, NoTightAllocation(d, theta))
        table.append((d, point))
    return Verdict(True, TightAllocationTable(tuple(table)))


def conjugate(alpha: InequalityVector, players: Players) -> InequalityVector:
    """The coefficient vector of the conjugate inequality.

    Reflection re-keys every coefficient at the complementary coalition;
    applying it twice gives the original vector back.
    """
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
