"""Membership oracles for the balanced, totally balanced and exact cones.

Each oracle returns a :class:`Verdict` whose certificate re-substitutes
exactly against the input game: a core allocation for balancedness, a
table of tight core allocations for exactness, and for negative verdicts
a violated min-balanced inequality, a failing subgame, or (for
exactness) an o-standardized separating functional derived from the
Farkas vector of the infeasible system.

Every LP-based oracle asks whether a core point exists, possibly one
tight at a given coalition: 2^n - 1 rows in n unknowns.  The rows are
generated (:func:`_tight_feasibility`), so each LP holds the singletons,
the equalities and the few rows a scan of all coalitions found violated.

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
    Game,
    Players,
    SetFunction,
    as_game,
    is_o_standardized,
    log,
    restrict,
)
from .linalg import _integer_row, dependency, lp_feasible
from .reference import TOTALLY_BALANCED_COUNTS

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


def _excesses(values: list[int], scale: int, point: Payoffs) -> list[int]:
    """v(S) - x(S) at every coalition S, times one positive integer.

    ``values`` is the game's table times ``scale``, both from
    ``_integer_row``.  The payoffs are scaled to integers once and the
    subset sums built by doubling: the coalitions holding player i as
    their highest player are those below bit i, each plus x_i.
    """
    *payoffs, k = _integer_row([*point, 1])
    sums = [0]
    for x in payoffs:
        p = x * scale
        sums += [t + p for t in sums]
    return [v * k - t for v, t in zip(values, sums)]


def _tight_feasibility(game: Game, tight_at: int):
    """A core point with x(tight_at) = v(tight_at), or a Farkas functional.

    Returns ``(point, None)`` or ``(None, theta)``.  The core system has
    a row x(S) >= v(S) for every coalition, with equality at the full
    player set and at ``tight_at``, but only n unknowns, so its rows are
    generated.  The working set starts with the equalities and the
    singleton inequalities.  While :func:`lp_feasible` finds a point of
    the working set, every coalition is scanned in integers and the most
    violated row (smallest bitmask on ties) is added.  A point that
    violates no row is in the core.  A Farkas vector of the working set,
    zero on every other row, certifies the full system, and
    :func:`_theta_from_farkas` repackages it.  Each round adds a row the
    working set lacked, so the loop ends.
    """
    players = game.players
    n, full = players.n, players.full_mask
    equalities = [full] if tight_at == full else [full, tight_at]
    working = [1 << i for i in range(n) if 1 << i not in equalities]
    *values, scale = _integer_row([*game.values, 1])
    while True:
        order, mi = working + equalities, len(working)
        rows = [[-(s >> i & 1) for i in range(n)] for s in order]
        res = lp_feasible(rows[:mi], rows[mi:], [-game.values[s] for s in order])
        if not res.feasible:
            return None, _theta_from_farkas(players, order, res.farkas)
        excess = _excesses(values, scale, res.point)
        worst = max(excess)
        if worst <= 0:
            return res.point, None
        working.append(excess.index(worst))


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
    while (coeffs := dependency([[s >> i & 1 for i in range(n)] for s in support[: n + 1]])) is not None:
        dep = [(s, d) for s, d in zip(support, coeffs) if d]
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
    player set, with the entry and type counts recorded in
    ``minbal.reference``.  A negative verdict carries the first violated
    entry.  Positive verdicts carry no compact witness (the evidence is
    the exhaustive check itself), so the certificate is ``None``.
    """
    game = as_game(f)
    if catalogue.players != game.players:
        raise ValueError("catalogue was generated for a different player set")
    if getattr(catalogue.cone, "value", catalogue.cone) != "totally-balanced":
        raise ValueError("a totally-balanced catalogue is required")
    if (len(catalogue.entries), len(catalogue.types)) != TOTALLY_BALANCED_COUNTS.get(game.players.n):
        raise ValueError("the catalogue's entry and type counts differ from the recorded ones")
    for entry in catalogue.entries:
        value = entry.alpha.evaluate(game)
        if value < 0:
            return Verdict(False, ViolatedSystem(entry.mbs, value))
    return Verdict(True, None)


def is_exact(f: SetFunction) -> Verdict:
    """Exactness: a core element tight at every nonempty coalition.

    Runs one feasibility system per coalition, smallest first, except
    where a core point found earlier is already tight: that point fills
    the coalition's place in the table.  Positive verdicts carry the
    full table of tight allocations; negative ones the first failing
    coalition with its separating functional.  A game on 11 or more
    players logs a warning first: on a 2-core machine a seeded convex
    game took 5 s at 10 players, 17 s at 11 and 47 s at 12 (single
    runs), about threefold per player.
    """
    game = as_game(f)
    players = game.players
    full = players.full_mask
    if players.n >= 11:
        log.warning("exactness check on %d players: up to %d core LPs, expect tens of seconds or more", players.n, full)
    coalitions = sorted(range(1, full + 1), key=lambda s: (s.bit_count(), s))
    *values, scale = _integer_row([*game.values, 1])
    points: dict[int, Payoffs] = {}
    for d in coalitions:
        if d in points:
            continue
        point, theta = _tight_feasibility(game, d)
        if point is None:
            return Verdict(False, NoTightAllocation(d, theta))
        for s, e in enumerate(_excesses(values, scale, point)):
            if s and not e:
                points.setdefault(s, point)
    return Verdict(True, TightAllocationTable(tuple((d, points[d]) for d in coalitions)))


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
