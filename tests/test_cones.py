"""Membership oracles, their certificates, and the structural laws
connecting the three cones."""

import dataclasses
import logging
from fractions import Fraction as F
from random import Random

import pytest

from conftest import tight_rows
from minbal import cones
from minbal.balance import enumerate_min_balanced, is_min_balanced, system_of
from minbal.cones import (
    CoreAllocation,
    FailingSubgame,
    NoTightAllocation,
    TightAllocationTable,
    ViolatedSystem,
    conjugate,
    delta_contains,
    is_balanced,
    is_exact,
    is_totally_balanced_facets,
    is_totally_balanced_lp,
    theta_contains,
)
from minbal.games import (
    Game,
    SetFunction,
    anti_dual,
    game_of,
    inner,
    letters,
    modular_from_payoffs,
    random_game,
    reflect,
    restrict,
    set_function_of,
    shift,
    unanimity,
)
from minbal.linalg import lp_feasible


def _in_core(game, payoffs):
    if sum(payoffs) != game.value(game.players.full_mask):
        return False
    for s in game.players.coalitions():
        if sum(payoffs[i] for i in range(game.players.n) if s >> i & 1) < game.value(s):
            return False
    return True


def verify_verdict(game: Game, verdict) -> None:
    """Exact re-substitution of a verdict's certificate against the game."""
    cert = verdict.certificate
    if isinstance(cert, CoreAllocation):
        assert verdict.member
        assert _in_core(game, cert.payoffs)
    elif isinstance(cert, TightAllocationTable):
        assert verdict.member
        covered = {d for d, _ in cert.allocations}
        assert covered == {s for s in game.players.coalitions() if s}
        for d, payoffs in cert.allocations:
            assert _in_core(game, payoffs)
            assert sum(payoffs[i] for i in range(game.players.n) if d >> i & 1) == game.value(d)
    elif isinstance(cert, ViolatedSystem):
        assert not verdict.member
        assert cert.value < 0
        assert cert.mbs.carrier == game.players.full_mask
        assert not cert.mbs.trivial
        assert cert.mbs.alpha.evaluate(game) == cert.value
        assert is_min_balanced(cert.mbs.system) is not None
    elif isinstance(cert, FailingSubgame):
        assert not verdict.member
        sub = restrict(game, cert.coalition)
        inner_verdict = type(verdict)(False, cert.certificate)
        verify_verdict(sub, inner_verdict)
    elif isinstance(cert, NoTightAllocation):
        assert not verdict.member
        assert theta_contains(cert.theta, cert.coalition)
        assert inner(cert.theta, game) < 0
    else:
        assert cert is None


class TestIsBalanced:
    def test_market_game(self, market_game):
        v = is_balanced(market_game)
        assert v.member
        verify_verdict(market_game, v)

    def test_anti_dual_has_singleton_core(self, market_anti_dual):
        v = is_balanced(market_anti_dual)
        assert v.member
        assert v.certificate.payoffs == (-1, -1, -1)

    def test_violated_three_pairs(self, p3):
        g = game_of(p3, {"abc": 1, "ab": 1, "ac": 1, "bc": 1})
        v = is_balanced(g)
        assert not v.member
        assert isinstance(v.certificate, ViolatedSystem)
        assert v.certificate.mbs.system == system_of(p3, "ab", "ac", "bc")
        assert v.certificate.value == -1
        verify_verdict(g, v)

    def test_violated_system_at_every_player_count(self):
        # the Farkas vector reduces to a violated min-balanced system on
        # the full carrier, also where enumerating those systems is out
        # of reach
        for n in (6, 7, 8):
            p = letters(n)
            values = [F(s.bit_count()) for s in p.coalitions()]
            values[p.full_mask] = F(3)
            g = Game(p, tuple(values))
            v = is_balanced(g)
            assert not v.member
            assert isinstance(v.certificate, ViolatedSystem)
            verify_verdict(g, v)

    def test_violated_system_is_enumerated(self):
        rng = Random(16)
        for n in (2, 3, 4, 5):
            p = letters(n)
            systems = {m.system for m in enumerate_min_balanced(p, p.full_mask)}
            negatives = 0
            for _ in range(20):
                g = random_game(p, rng)
                v = is_balanced(g)
                if not v.member:
                    negatives += 1
                    assert v.certificate.mbs.system in systems
                    verify_verdict(g, v)
            assert negatives > 0

    def test_non_game_input_is_shifted(self, p3, caplog):
        f = set_function_of(p3, {"": 1, "abc": 4, "ab": 3, "ac": 3, "bc": 3}, default=1)
        with caplog.at_level("INFO", logger="minbal"):
            v = is_balanced(f)
        assert v.member == is_balanced(shift(f)).member
        assert any("shifting" in r.message for r in caplog.records)


class TestTotallyBalanced:
    def test_market_game(self, market_game):
        v = is_totally_balanced_lp(market_game)
        assert v.member
        verify_verdict(market_game, v)

    def test_anti_dual_fails_at_first_pair(self, p3, market_anti_dual):
        v = is_totally_balanced_lp(market_anti_dual)
        assert not v.member
        assert isinstance(v.certificate, FailingSubgame)
        assert v.certificate.coalition == p3.coalition_of("ab")
        verify_verdict(market_anti_dual, v)

    def test_modular_games_pass(self, p4):
        rng = Random(5)
        for _ in range(10):
            g = shift(modular_from_payoffs(p4, [rng.randint(-9, 9) for _ in range(4)]))
            assert is_totally_balanced_lp(g).member

    def test_facets_agree_on_examples(self, market_game, market_anti_dual, totally4, p4):
        from minbal.catalogue import generate

        t3 = generate(market_game.players, "totally-balanced")
        assert is_totally_balanced_facets(market_game, t3).member
        assert not is_totally_balanced_facets(market_anti_dual, t3).member

    def test_zero_game_member(self, p4, totally4):
        z = Game(p4, (0,) * 16)
        assert is_totally_balanced_facets(z, totally4).member

    def test_unanimity_member(self, p4, totally4):
        for key in ("ab", "abc", "abcd", "cd"):
            u = shift(unanimity(p4, p4.coalition_of(key)))
            assert is_totally_balanced_facets(u, totally4).member
            assert is_totally_balanced_lp(u).member

    def test_wrong_catalogue_rejected(self, market_game, totally4):
        with pytest.raises(ValueError):
            is_totally_balanced_facets(market_game, totally4)

    def test_short_catalogue_rejected(self, p3):
        from minbal.catalogue import generate

        full = generate(p3, "totally-balanced")
        short = dataclasses.replace(full, entries=full.entries[1:])
        g = game_of(p3, {"a": 2, "b": 2, "ab": 1, "ac": 2, "bc": 2, "abc": 10})
        assert not is_totally_balanced_lp(g).member
        assert not is_totally_balanced_facets(g, full).member
        with pytest.raises(ValueError, match="counts"):
            is_totally_balanced_facets(g, short)


class TestIsExact:
    def test_unanimity_exact(self, p4):
        for key in ("ab", "abc", "abcd"):
            u = shift(unanimity(p4, p4.coalition_of(key)))
            v = is_exact(u)
            assert v.member
            verify_verdict(u, v)

    def test_modular_exact(self, p3):
        g = shift(modular_from_payoffs(p3, [1, 2, 3]))
        v = is_exact(g)
        assert v.member
        verify_verdict(g, v)
        # the single core point is tight everywhere
        for _, payoffs in v.certificate.allocations:
            assert payoffs == (1, 2, 3)

    def test_market_game_not_exact(self, p3, market_game):
        v = is_exact(market_game)
        assert not v.member
        assert isinstance(v.certificate, NoTightAllocation)
        assert v.certificate.coalition == p3.coalition_of("a")
        verify_verdict(market_game, v)


def _convex_game(players, rng):
    """A positive sum of unanimity games, one per nonempty coalition."""
    dividends = [(t, rng.randint(1, 9)) for t in range(1, players.full_mask + 1)]
    return Game(players, tuple(F(sum(c for t, c in dividends if t & s == t)) for s in players.coalitions()))


class TestRowGeneration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_full_system(self, n):
        # the row-generated system against the simplex on all 2^n - 1
        # rows, on a random game, its anti-dual, a convex game (a member
        # of every cone) and that game with the grand coalition's worth
        # cut below the singletons' sum (an empty core)
        rng = Random(900 + n)
        players = letters(n)
        game, convex = random_game(players, rng), _convex_game(players, rng)
        singletons = sum(convex.values[1 << i] for i in range(n))
        cut = Game(players, convex.values[:-1] + (singletons - 1,))
        outcomes = set()
        for g in (game, anti_dual(game), convex, cut):
            for tight_at in range(1, players.full_mask + 1):
                rows, rhs, ineq_order, _ = tight_rows(g, tight_at)
                mi = len(ineq_order)
                point, theta = cones._tight_feasibility(g, tight_at)
                assert (point is not None) == lp_feasible(rows[:mi], rows[mi:], rhs).feasible
                if point is not None:
                    for i, row in enumerate(rows):
                        lhs = sum(c * x for c, x in zip(row, point))
                        assert lhs <= rhs[i] if i < mi else lhs == rhs[i]
                else:
                    assert theta_contains(theta, tight_at)
                    assert inner(theta, g) < 0
                outcomes.add(point is not None)
        assert outcomes == {True, False}

    def _count_calls(self, monkeypatch):
        calls = []
        solve = cones._tight_feasibility

        def counting(game, tight_at):
            calls.append(tight_at)
            return solve(game, tight_at)

        monkeypatch.setattr(cones, "_tight_feasibility", counting)
        return calls

    def test_is_exact_prunes_additive_game(self, monkeypatch, p4):
        # one core point is tight at every coalition
        calls = self._count_calls(monkeypatch)
        g = shift(modular_from_payoffs(p4, [1, -2, 3, F(1, 2)]))
        v = is_exact(g)
        assert calls == [1]
        assert len(v.certificate.allocations) == 15
        verify_verdict(g, v)

    def test_is_exact_prunes_convex_game(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        g = _convex_game(letters(6), Random(31))
        v = is_exact(g)
        assert v.member
        assert len(calls) < 63
        verify_verdict(g, v)

    def test_warns_before_eleven_players(self, monkeypatch, caplog):
        # the first system is reported infeasible, so no search runs
        monkeypatch.setattr(cones, "_tight_feasibility", lambda game, tight_at: (None, None))
        with caplog.at_level(logging.WARNING, logger="minbal"):
            for n in (10, 11):
                assert not is_exact(Game(letters(n), (0,) * (1 << n))).member
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "on 11 players" in warnings[0].getMessage()


class TestConjugate:
    def test_pair_facet(self, p4):
        t1 = is_min_balanced(system_of(p4, "a", "b")).alpha
        expected = {
            p4.coalition_of("abcd"): 1,
            p4.coalition_of("acd"): -1,
            p4.coalition_of("bcd"): -1,
            p4.coalition_of("cd"): 1,
        }
        assert conjugate(t1, p4).as_dict() == expected

    def test_involution(self, p4):
        for keys in (("a", "b"), ("a", "bc"), ("ab", "ac", "bc"), ("ab", "ac", "ad", "bcd")):
            alpha = is_min_balanced(system_of(p4, *keys)).alpha
            assert conjugate(conjugate(alpha, p4), p4) == alpha

    def test_three_pairs_facet(self, p4):
        t3 = is_min_balanced(system_of(p4, "ab", "ac", "bc")).alpha
        expected = {
            p4.coalition_of("d"): 2,
            p4.coalition_of("ad"): -1,
            p4.coalition_of("bd"): -1,
            p4.coalition_of("cd"): -1,
            p4.coalition_of("abcd"): 1,
        }
        assert conjugate(t3, p4).as_dict() == expected


def _alpha_function(players, alpha):
    values = [F(0)] * (1 << players.n)
    for s, c in alpha.items:
        values[s] = F(c)
    return SetFunction(players, tuple(values))


class TestThetaDelta:
    def test_zero_in_every_theta(self, p3):
        zero = SetFunction(p3, (0,) * 8)
        for d in range(1, 8):
            assert theta_contains(zero, d)

    def test_catalogue_vectors_in_theta_full(self, p3, p4, balanced3, balanced4):
        for players, catalogue in ((p3, balanced3), (p4, balanced4)):
            for entry in catalogue.entries:
                theta = _alpha_function(players, entry.alpha)
                assert theta_contains(theta, players.full_mask)
                # nonzero members of the full-carrier cone are positive
                # at the full set and the empty set
                assert theta.values[0] > 0
                assert theta.value(players.full_mask) > 0

    def test_empty_coalition_rejected(self, p3):
        with pytest.raises(ValueError):
            theta_contains(SetFunction(p3, (0,) * 8), 0)

    def test_delta_on_scaled_catalogue_vectors(self, p4, totally4):
        for entry in totally4.entries:
            theta = _alpha_function(p4, entry.alpha)
            scale = F(1) / theta.values[0]
            scaled = SetFunction(p4, tuple(scale * v for v in theta.values))
            assert delta_contains(scaled, entry.mbs.carrier)
            # and fails against a carrier it reaches outside of
            for m in p4.coalitions():
                if m.bit_count() >= 2 and entry.mbs.carrier & ~m:
                    assert not delta_contains(scaled, m)
                    break

    def test_delta_rejects_zero(self, p3):
        assert not delta_contains(SetFunction(p3, (0,) * 8), 7)

    def test_delta_small_carrier_rejected(self, p3):
        with pytest.raises(ValueError):
            delta_contains(SetFunction(p3, (0,) * 8), 1)


class TestStructuralLaws:
    def test_chain_on_corpus(self, p3, p4):
        rng = Random(6)
        corpus = [random_game(p3, rng) for _ in range(40)]
        corpus += [random_game(p4, rng) for _ in range(20)]
        corpus += [shift(unanimity(p4, p4.coalition_of("abc")))]
        for g in corpus:
            e = is_exact(g).member
            t = is_totally_balanced_lp(g).member
            b = is_balanced(g).member
            assert (not e or t) and (not t or b)

    def test_balancedness_closed_under_reflection(self):
        rng = Random(7)
        plan = [(2, 100), (3, 150), (4, 200), (5, 50)]  # 500 games total
        for n, count in plan:
            p = letters(n)
            for _ in range(count):
                g = random_game(p, rng)
                assert is_balanced(g).member == is_balanced(shift(reflect(g))).member

    def test_exactness_closed_under_anti_dual(self):
        rng = Random(8)
        for n, count in ((3, 40), (4, 20)):
            p = letters(n)
            for _ in range(count):
                g = random_game(p, rng)
                assert is_exact(g).member == is_exact(anti_dual(g)).member

    def test_total_balance_not_closed(self, market_game, market_anti_dual):
        assert is_totally_balanced_lp(market_game).member
        assert not is_totally_balanced_lp(market_anti_dual).member

    def test_exact_games_pass_theta_probes(self, p3, balanced3):
        # probes: full-carrier facet vectors (members of every Theta_D
        # cone) and separating functionals harvested from failing games
        rng = Random(9)
        probes = [(d, _alpha_function(p3, e.alpha)) for e in balanced3.entries for d in (1, 3, 7)]
        exact_games = []
        for _ in range(60):
            g = random_game(p3, rng)
            v = is_exact(g)
            if v.member:
                exact_games.append(g)
            elif isinstance(v.certificate, NoTightAllocation):
                probes.append((v.certificate.coalition, v.certificate.theta))
        assert exact_games and len(probes) > 15
        for d, theta in probes:
            assert theta_contains(theta, d)
            for g in exact_games:
                assert inner(theta, g) >= 0

    def test_certificates_verify_on_random_corpus(self):
        rng = Random(10)
        for n in (2, 3, 4):
            p = letters(n)
            for _ in range(25):
                g = random_game(p, rng)
                verify_verdict(g, is_balanced(g))
                verify_verdict(g, is_totally_balanced_lp(g))
                verify_verdict(g, is_exact(g))

    def test_exact_implies_both_orientations_totally_balanced(self):
        # easy inclusion of the conjecture: E is contained in T and T*
        rng = Random(12)
        p = letters(3)
        seen_exact = 0
        for _ in range(80):
            g = random_game(p, rng)
            if is_exact(g).member:
                seen_exact += 1
                assert is_totally_balanced_lp(g).member
                assert is_totally_balanced_lp(anti_dual(g)).member
        assert seen_exact > 0


class TestInnerDescription:
    def test_balanced_cone_generators(self, p4):
        # conic combinations of modular functions and negated set
        # indicators stay balanced after shifting
        rng = Random(13)
        for _ in range(60):
            payoffs = [F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(4)]
            f = modular_from_payoffs(p4, payoffs, constant=rng.randint(-3, 3))
            values = list(f.values)
            for s in range(1, 15):
                if rng.random() < 0.4:
                    values[s] -= F(rng.randint(0, 5), rng.choice((1, 2)))
            g = shift(SetFunction(p4, tuple(values)))
            assert is_balanced(g).member
