"""Membership oracles, their certificates, and the structural laws
connecting the three cones."""

import logging
from fractions import Fraction as F
from math import comb
from random import Random

import pytest

from conftest import lp_only_is_exact, reference_is_totally_balanced, tight_rows
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
from minbal.cli import _certificate_json
from minbal.games import (
    Game,
    SetFunction,
    anti_dual,
    game_from_json,
    game_of,
    game_to_json,
    inner,
    letters,
    modular_from_payoffs,
    random_exact_game,
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
        # of reach; every proper subgame is additive, so total
        # balancedness fails at the full set, and exactness fails too
        for n in (6, 7, 8, 10, 12):
            p = letters(n)
            values = [F(s.bit_count()) for s in p.coalitions()]
            values[p.full_mask] = F(3)
            g = Game(p, tuple(values))
            v = is_balanced(g)
            assert not v.member
            assert isinstance(v.certificate, ViolatedSystem)
            verify_verdict(g, v)
            v = is_totally_balanced_lp(g)
            assert isinstance(v.certificate, FailingSubgame)
            assert v.certificate.coalition == p.full_mask
            verify_verdict(g, v)
            v = is_exact(g)
            assert isinstance(v.certificate, NoTightAllocation)
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

    def test_builds_only_the_failing_subgame(self, monkeypatch):
        # passing subgames are checked on the game's integer table; only
        # the subgame whose certificate is returned is built as a game
        built = []

        def recording(f, coalition):
            built.append(coalition)
            return restrict(f, coalition)

        monkeypatch.setattr(cones, "restrict", recording)
        players = letters(5)
        convex = _convex_game(players, Random(41))
        assert is_totally_balanced_lp(convex).member and built == []
        # b and c alone are worth half a unit more than bc together
        bc = players.coalition_of("bc")
        values = list(convex.values)
        values[bc] = values[2] + values[4] - F(1, 2)
        g = Game(players, tuple(values))
        v = is_totally_balanced_lp(g)
        assert v.certificate.coalition == bc and built == [bc]
        verify_verdict(g, v)

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

    def test_short_catalogue_rejected(self, monkeypatch, p3):
        # a catalogue is its players and cone: its types cannot be swapped
        # out, and a search that loses a type fails the recorded counts
        import minbal.catalogue
        from minbal.catalogue import Catalogue, generate

        full = generate(p3, "totally-balanced")
        with pytest.raises(TypeError):
            Catalogue(p3, "totally-balanced", types=full.types[1:])
        with pytest.raises(AttributeError):
            full.types = full.types[1:]
        g = game_of(p3, {"a": 2, "b": 2, "ab": 1, "ac": 2, "bc": 2, "abc": 10})
        assert not is_totally_balanced_lp(g).member
        assert not is_totally_balanced_facets(g, full).member
        search = minbal.catalogue._types_on
        monkeypatch.setattr(minbal.catalogue, "_types_on", lambda players, c: search(players, c)[: -1 if c == 3 else None])
        counts = "generated 6 entries in 2 types, but 7 in 3 are recorded"
        with pytest.raises(RuntimeError, match=counts):
            generate(p3, "totally-balanced")
        with pytest.raises(RuntimeError, match=counts):
            is_totally_balanced_facets(g, Catalogue(p3, "totally-balanced"))


def _count_systems(monkeypatch):
    """Record the ``tight_at`` of every core system the oracles run."""
    calls = []
    solve = cones._tight_feasibility

    def counting(values, tight_at):
        calls.append(tight_at)
        return solve(values, tight_at)

    monkeypatch.setattr(cones, "_tight_feasibility", counting)
    return calls


def _min_of_additive(players, rng, k):
    """The pointwise minimum of k random nonnegative additive games."""
    weights = [[rng.randint(0, 9) for _ in range(players.n)] for _ in range(k)]
    return Game(
        players,
        tuple(F(min(sum(w[i] for i in range(players.n) if s >> i & 1) for w in weights)) for s in players.coalitions()),
    )


def _lp_only(monkeypatch, oracle, g):
    """``oracle`` on ``g`` with no marginal vector tried, for a subgame or
    along a chain (each chain fails at the empty coalition): a core LP
    wherever the oracle asks for a core point."""
    with monkeypatch.context() as m:
        m.setattr(cones, "_marginal_vector", lambda table, order: None)
        m.setattr(cones, "_chain_vector", lambda values, chain: ([], 0))
        return oracle(g)


class TestGreedyShortcut:
    """Subgames settled along a symmetric chain, or whose marginal vector
    in player order is in their core, run no LP; the verdicts and
    negative certificates are those of the LP-only check."""

    def test_greedy_check_bites(self):
        # an additive table with x = (3, -1, 4, 2): the marginal vector
        # is x itself, the prefix coalitions a, ab, abc, abcd are left
        # alone, and bd is raised one unit above x(bd)
        x = [3, -1, 4, 2]
        table = [sum(x[i] for i in range(4) if s >> i & 1) for s in range(16)]
        assert cones._marginal_vector(table, range(4)) == (x, table)
        bd = 0b1010
        table[bd] += 1
        assert cones._marginal_vector(table, range(4)) is None
        table[bd] -= 1
        assert cones._marginal_vector(table, range(4)) == (x, table)

    def test_convex_game_runs_no_system(self, monkeypatch):
        calls = _count_systems(monkeypatch)
        g = _convex_game(letters(7), Random(71))
        v = is_totally_balanced_lp(g)
        assert v.member and calls == []
        verify_verdict(g, v)

    def test_min_of_additive_games_fall_back(self, monkeypatch):
        # the paper's representation: every such game is totally
        # balanced, but its marginal vectors need not be in the core
        calls = _count_systems(monkeypatch)
        rng = Random(23)
        games = [_min_of_additive(letters(n), rng, k) for n in (4, 5, 6) for k in (2, 3) for _ in range(3)]
        runs = []
        for g in games:
            before = len(calls)
            v = is_totally_balanced_lp(g)
            assert v.member
            verify_verdict(g, v)
            runs.append(len(calls) - before)
        # a system runs only for a subgame whose marginal vector leaves
        # its core: some games run none, others several
        assert 0 in runs and max(runs) > 1

    def test_greedy_fails_on_a_balanced_subgame(self, monkeypatch):
        # on abc, each pair is worth 1 and abc 3/2: the marginal vector
        # (0, 1, 1/2) gives ac only 1/2, yet (1/2, 1/2, 1/2) is a core
        # element; d adds 1 to every coalition it joins, so the full
        # game's marginal vector fails on ac too
        p4 = letters(4)
        base = {"": 0, "a": 0, "b": 0, "c": 0, "ab": 1, "ac": 1, "bc": 1, "abc": F(3, 2)}
        table = {}
        for key, value in base.items():
            table[key] = value
            table[key + "d"] = value + 1
        g = game_of(p4, table)
        values = g.numerators
        assert cones._marginal_vector(values[:8], range(3)) is None
        calls = _count_systems(monkeypatch)
        v = is_totally_balanced_lp(g)
        assert v.member and calls == [7, 15]
        verify_verdict(g, v)
        assert v == _lp_only(monkeypatch, is_totally_balanced_lp, g)

    def test_failing_subgame_above_skipped_ones(self, monkeypatch):
        # a convex game with bcd cut below its singletons' sum: the pairs
        # pass in closed form, the chains through the other triples settle
        # them, and bcd, whose chain fails, is the smallest failing
        # coalition
        p4 = letters(4)
        convex = _convex_game(p4, Random(44))
        bcd = p4.coalition_of("bcd")
        values = list(convex.values)
        values[bcd] = values[2] + values[4] + values[8] - 1
        g = Game(p4, tuple(values))
        calls = _count_systems(monkeypatch)
        v = is_totally_balanced_lp(g)
        assert calls == [7]
        assert isinstance(v.certificate, FailingSubgame) and v.certificate.coalition == bcd
        verify_verdict(g, v)
        lp_only = _lp_only(monkeypatch, is_totally_balanced_lp, g)
        # with no marginal vector the chains settle nothing: the six pairs
        # pass in closed form, and all four triples run their LPs
        assert calls[1:] == [7] * 4
        assert v == lp_only

    def test_agrees_with_facets_on_four_players(self, p4, totally4):
        rng = Random(4)
        games = [random_game(p4, rng) for _ in range(20)]
        games += [_min_of_additive(p4, rng, k) for k in (2, 3) for _ in range(10)]
        outcomes = set()
        for g in games:
            v = is_totally_balanced_lp(g)
            assert v.member == is_totally_balanced_facets(g, totally4).member
            verify_verdict(g, v)
            outcomes.add(v.member)
        assert outcomes == {True, False}


class TestSymmetricChains:
    @pytest.mark.parametrize("n", range(13))
    def test_chains_partition_the_coalitions_symmetrically(self, n):
        chains = cones._symmetric_chains(n)
        assert len(chains) == comb(n, n // 2)
        links = [s for chain in chains for s in chain]
        assert sorted(links) == list(range(1 << n))
        for chain in chains:
            assert chain[0].bit_count() + chain[-1].bit_count() == n
            for s, t in zip(chain, chain[1:]):
                assert s & t == s and (t ^ s).bit_count() == 1

    def test_first_chain_adds_the_players_in_order(self):
        # its top is the full player set, whose marginal vector in player
        # order is also the member certificate's first try
        assert cones._symmetric_chains(4)[0] == (0, 0b1, 0b11, 0b111, 0b1111)


class TestChainSettling:
    """The pair and chain passes settle subgames without an LP; the
    verdicts and certificates are those of the smallest-first scan over
    every subgame (``conftest.reference_is_totally_balanced``)."""

    @staticmethod
    def _games(n, seed):
        players = letters(n)
        rng = Random(f"chains:{n}:{seed}")
        convex = _convex_game(players, rng)
        cut = list(convex.values)
        cut[-1] = sum(cut[1 << i] for i in range(n)) - rng.randint(1, 5)
        return {
            "convex": convex,
            "cut": Game(players, tuple(cut)),
            "random": random_game(players, rng),
            "random_exact_game": random_exact_game(players, rng),
            "min_of_additive": _min_of_additive(players, rng, 3),
        }

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_scan(self, n):
        fallbacks = 0
        for seed in range(1, 6):
            for kind, g in self._games(n, seed).items():
                v = is_totally_balanced_lp(g)
                assert v == reference_is_totally_balanced(g), (kind, seed)
                verify_verdict(g, v)
                if v.member:
                    values = g.numerators
                    chains = [c for c in cones._symmetric_chains(n) if c[-1].bit_count() >= 3]
                    fallbacks += any(cones._chain_vector(values, c)[1] >> c[-1].bit_count() == 0 for c in chains)
        if n >= 5:
            # some member has a chain whose vector leaves its top's core,
            # and those subgames take the core LP
            assert fallbacks

    @staticmethod
    def _count_chains(monkeypatch):
        """Record the chains whose vectors the scan tries."""
        tried = []
        vector = cones._chain_vector

        def counting(values, chain):
            tried.append(chain)
            return vector(values, chain)

        monkeypatch.setattr(cones, "_chain_vector", counting)
        return tried

    def test_failing_pair_skips_the_chains(self, monkeypatch):
        # a pair whose worth is below its members' sum fails in closed
        # form before the scan reaches a triple, so no chain is tried
        p4 = letters(4)
        g = game_of(p4, {"ab": 1, "ac": 2, "bc": -1, "abc": 5, "abcd": 9})
        values = g.numerators
        assert [cones._settled(values, p4.coalition_of(k), {}) for k in ("ab", "ac", "bc", "ad")] == [True, True, False, True]
        with monkeypatch.context() as m:
            tried = self._count_chains(m)
            v = is_totally_balanced_lp(g)
        assert tried == []
        assert v.certificate.coalition == p4.coalition_of("bc")
        assert v == reference_is_totally_balanced(g)

    def test_failing_triple_tries_only_the_chains_it_reached(self, monkeypatch):
        # an 8-player convex game with bcd cut below its singletons' sum:
        # the scan stops at bcd, having tried only the chains through the
        # triples up to it, not one vector per chain
        n = 8
        players = letters(n)
        values = list(_convex_game(players, Random(88)).values)
        bcd = players.coalition_of("bcd")
        values[bcd] = values[2] + values[4] + values[8] - 1
        g = Game(players, tuple(values))
        tried = self._count_chains(monkeypatch)
        v = is_totally_balanced_lp(g)
        assert v.certificate.coalition == bcd
        chains, chain_of = cones._symmetric_chains(n), cones._chain_of(n)
        reached = dict.fromkeys(chains[chain_of[t]] for t in (0b111, 0b1011, 0b1101, bcd))
        assert tried == list(reached) and len(tried) < 5
        assert v == reference_is_totally_balanced(g)

    def test_convex_game_settles_every_chain_once(self, monkeypatch):
        # each chain's vector is taken once and violates no coalition, no
        # subgame's own marginal vector is taken, and the member
        # certificate is the first chain's vector, not a second pass over
        # the table
        n = 6
        g = _convex_game(letters(n), Random(66))
        values = g.numerators
        chains = [c for c in cones._symmetric_chains(n) if c[-1].bit_count() >= 3]
        vectors = {}
        assert all(cones._settled(values, s, vectors) for s in range(1, 1 << n))
        tops = [c[-1] for c in cones._symmetric_chains(n)]
        assert all(first == 1 << tops[c].bit_count() for c, (_, first) in vectors.items()) and len(vectors) == len(chains)
        tried = self._count_chains(monkeypatch)
        marginals = []
        marginal = cones._marginal_vector

        def counting(values, order):
            marginals.append(order)
            return marginal(values, order)

        monkeypatch.setattr(cones, "_marginal_vector", counting)
        v = is_totally_balanced_lp(g)
        assert sorted(tried) == sorted(chains) and marginals == []
        assert v == reference_is_totally_balanced(g)


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
            values, scale = g.numerators, g.denominator
            for tight_at in range(1, players.full_mask + 1):
                rows, rhs, ineq_order, _ = tight_rows(g, tight_at)
                mi = len(ineq_order)
                res, order, _ = cones._tight_feasibility(values, tight_at)
                assert res.feasible == lp_feasible(rows[:mi], rows[mi:], rhs).feasible
                if res.feasible:
                    point = cones._payoffs(res, scale)
                    for i, row in enumerate(rows):
                        lhs = sum(c * x for c, x in zip(row, point))
                        assert lhs <= rhs[i] if i < mi else lhs == rhs[i]
                else:
                    theta = cones._theta_from_farkas(players, order, res.farkas)
                    assert theta_contains(theta, tight_at)
                    assert inner(theta, g) < 0
                outcomes.add(res.feasible)
        assert outcomes == {True, False}

    def test_is_exact_prunes_additive_game(self, monkeypatch, p4):
        # one core point is tight at every coalition
        calls = _count_systems(monkeypatch)
        g = shift(modular_from_payoffs(p4, [1, -2, 3, F(1, 2)]))
        v = is_exact(g)
        assert calls == []
        assert len(v.certificate.allocations) == 15
        verify_verdict(g, v)

    def test_is_exact_prunes_convex_game(self, monkeypatch):
        calls = _count_systems(monkeypatch)
        g = _convex_game(letters(6), Random(31))
        v = is_exact(g)
        assert v.member
        assert len(calls) < 63
        verify_verdict(g, v)

    def test_warns_before_eleven_players(self, caplog):
        # player a alone is worth 1 and the grand coalition 0, so the
        # first system, tight at {a}, is infeasible and no search runs
        with caplog.at_level(logging.WARNING, logger="minbal"):
            for n in (10, 11):
                assert not is_exact(Game(letters(n), (0, 1) + (0,) * ((1 << n) - 2))).member
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "on 11 players" in warnings[0].getMessage()


class TestSparseTheta:
    """The Farkas vector's functional theta kept as its nonzero values."""

    def test_no_dense_theta_on_balanced_paths(self, monkeypatch, p3):
        # is_balanced and is_totally_balanced_lp reduce their violated
        # systems from theta's nonzero values: with the 2^n table
        # disabled they return the same verdicts
        rng = Random(30)
        games = [game_of(p3, {"abc": 1, "ab": 1, "ac": 1, "bc": 1})]
        for n in (5, 6, 7, 8):
            players = letters(n)
            convex = _convex_game(players, rng)
            singletons = sum(convex.values[1 << i] for i in range(n))
            games += [Game(players, convex.values[:-1] + (singletons - 1,)), random_game(players, rng)]
        oracles = (is_balanced, is_totally_balanced_lp)
        expected = [[oracle(g) for oracle in oracles] for g in games]
        assert all(any(not verdicts[i].member for verdicts in expected) for i in range(len(oracles)))

        def dense(*args):
            raise AssertionError("theta was tabulated on every coalition")

        monkeypatch.setattr(cones, "_theta_from_farkas", dense)
        for g, verdicts in zip(games, expected):
            for oracle, verdict in zip(oracles, verdicts):
                assert oracle(g) == verdict
                verify_verdict(g, verdict)

    def test_o_standardization_checked(self):
        # multipliers of the working set {a, b, c, ab, N} whose
        # per-player sums vanish pass, ab's zero multiplier dropped;
        # without c's row, player c's sum is 1
        theta = cones._theta_values(3, [0b001, 0b010, 0b100, 0b011, 0b111], [F(1), F(1), F(1), F(0), F(-1)])
        assert theta == {0b001: -1, 0b010: -1, 0b100: -1, 0b111: 1, 0: 2}
        with pytest.raises(RuntimeError, match="not o-standardized"):
            cones._theta_values(3, [0b001, 0b010, 0b111], [F(1), F(1), F(-1)])


class TestIntegerTable:
    def test_check_path_builds_no_values(self):
        # a game read from JSON is decided, and its certificates written,
        # on its integer table: no Fraction per coalition is built, for a
        # convex member or, with the grand coalition's worth cut below
        # the singletons' sum, a non-member of every cone
        players = letters(8)
        convex = _convex_game(players, Random(8))
        singletons = sum(convex.values[1 << i] for i in range(8))
        cut = Game(players, convex.values[:-1] + (singletons - 1,))
        for game, member in ((convex, True), (cut, False)):
            g = game_from_json(game_to_json(game))
            for oracle in (is_balanced, is_totally_balanced_lp, is_exact):
                v = oracle(g)
                assert v.member == member
                _certificate_json(players, v.certificate, "")
            assert "values" not in g.__dict__
        assert isinstance(v.certificate, NoTightAllocation) and "values" not in v.certificate.theta.__dict__


def _shifted_game(players, rng):
    """A convex game plus an additive one with payoffs in halves and
    thirds: convex, with several denominators in its table."""
    payoffs = [F(rng.randint(-9, 9), rng.choice((2, 3))) for _ in range(players.n)]
    convex = _convex_game(players, rng)
    return Game(players, tuple(v + sum(p for i, p in enumerate(payoffs) if s >> i & 1) for s, v in enumerate(convex.values)))


def _perturbed_game(players, rng):
    """A convex game with three proper coalitions raised by a quarter to
    all of their worth: exact or not, and failing at every size."""
    values = list(_convex_game(players, rng).values)
    for s in rng.sample(range(1, players.full_mask), 3):
        values[s] += F(values[s] * rng.randint(1, 4), 4)
    return Game(players, tuple(values))


class TestMarginalVectors:
    """Each coalition first tries the marginal vector of the order that
    starts with its players; a core LP runs only where that vector leaves
    the core, and the negative verdicts are those of the LP-only check."""

    def test_marginal_vector_is_tight_along_its_order(self):
        # on a convex game every marginal vector is in the core, tight at
        # d and at each prefix of d's players, then of the others
        n = 5
        values = _convex_game(letters(n), Random(55)).numerators
        for d in range(1 << n):
            x, sums = cones._marginal_vector(values, cones._starting_with(d, n))
            assert sums == [sum(x[i] for i in range(n) if s >> i & 1) for s in range(1 << n)]
            assert all(t >= v for t, v in zip(sums, values))
            order = [i for i in range(n) if d >> i & 1] + [i for i in range(n) if not d >> i & 1]
            prefix = 0
            for i in order:
                prefix |= 1 << i
                assert sums[prefix] == values[prefix]
            assert sums[d] == values[d]

    def test_marginal_vector_against_its_definition(self):
        # on exact games that are not convex some marginal vectors leave
        # the core: the vector is returned exactly when it is in the core
        n = 4
        rng = Random(26)
        outcomes = set()
        for _ in range(6):
            values = random_exact_game(letters(n), rng).numerators
            for d in range(1 << n):
                x, prefix = [0] * n, 0
                for i in [i for i in range(n) if d >> i & 1] + [i for i in range(n) if not d >> i & 1]:
                    x[i] = values[prefix | 1 << i] - values[prefix]
                    prefix |= 1 << i
                sums = [sum(x[i] for i in range(n) if s >> i & 1) for s in range(1 << n)]
                in_core = all(t >= v for t, v in zip(sums, values))
                assert cones._marginal_vector(values, cones._starting_with(d, n)) == ((x, sums) if in_core else None)
                outcomes.add(in_core)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_convex_games_run_no_lp(self, monkeypatch, n):
        # in every cone, each core point asked for is a marginal vector
        rng = Random(f"marginal:{n}")
        players = letters(n)
        calls = _count_systems(monkeypatch)
        for g in (_convex_game(players, rng), _shifted_game(players, rng)):
            for oracle in (is_balanced, is_totally_balanced_lp, is_exact):
                v = oracle(g)
                assert v.member
                verify_verdict(g, v)
        assert calls == []

    def test_exact_games_fall_back_to_the_lp(self, monkeypatch):
        # minima of additive games with one common total are exact, but
        # not every marginal vector is in their core
        calls = _count_systems(monkeypatch)
        rng = Random(25)
        for n in range(4, 8):
            for _ in range(2):
                g = random_exact_game(letters(n), rng)
                v = is_exact(g)
                assert v.member
                verify_verdict(g, v)
        assert calls

    def test_negative_verdicts_match_lp_only_reference(self, monkeypatch):
        references = {
            is_balanced: lambda g: _lp_only(monkeypatch, is_balanced, g),
            is_totally_balanced_lp: lambda g: _lp_only(monkeypatch, is_totally_balanced_lp, g),
            is_exact: lp_only_is_exact,
        }
        failing_sizes, outcomes = set(), set()
        for n in range(3, 8):
            rng = Random(f"reference:{n}")
            players = letters(n)
            games = [random_game(players, rng) for _ in range(3)]
            for _ in range(2):
                values = list(_convex_game(players, rng).values)
                values[-1] = sum(values[1 << i] for i in range(n)) - rng.randint(1, 5)
                games.append(Game(players, tuple(values)))
            games += [_perturbed_game(players, rng) for _ in range(6)]
            for g in games:
                for oracle, reference in references.items():
                    v, expected = oracle(g), reference(g)
                    assert v.member == expected.member
                    verify_verdict(g, v)
                    if not v.member:
                        assert v == expected
                    outcomes.add((oracle, v.member))
                    if oracle is is_exact and not v.member:
                        failing_sizes.add(v.certificate.coalition.bit_count())
        assert failing_sizes >= {1, 2, 3, 4}
        assert len(outcomes) == 2 * len(references)


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

    def test_positive_outside_the_exempt_coalitions(self, p3):
        # m(empty) - m(a) - m(bc) + m(abc) is o-standardized; its negation is
        # too, but positive at ``a``, which is neither empty, ``ab`` nor the full set
        assert theta_contains(SetFunction(p3, (1, -1, 0, 0, 0, 0, -1, 1)), 3)
        assert not theta_contains(SetFunction(p3, (-1, 1, 0, 0, 0, 0, 1, -1)), 3)

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

    def test_delta_rejects_positive_inside_the_carrier(self, p3):
        # value 1 at the empty set and 1 at ``a``, a proper subset of ``ab``
        assert not delta_contains(SetFunction(p3, (1, 1, 0, 0, 0, 0, 0, 0)), 3)

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
