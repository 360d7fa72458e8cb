"""Exact linear algebra: worked examples plus brute-force cross-checks."""

from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest

from conftest import conic_lp_system, fraction_lp_feasible, tight_rows
from minbal import reduction
from minbal.balance import enumerate_min_balanced
from minbal.games import Game, anti_dual, letters, random_game
from minbal.linalg import DimensionError, conic_feasible, dependency, lp_feasible, rank, solve_unique

# incidence vectors of {ab, ac, ad, bcd} in a 5-player universe
INCIDENCE = [
    (1, 1, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0),
    (0, 1, 1, 1, 0),
]


class TestRank:
    def test_incidence_matrix(self):
        assert rank(INCIDENCE) == 4

    def test_zero_matrix(self):
        assert rank([[0, 0, 0], [0, 0, 0]]) == 0

    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            rank([[1, 0], [1]])


class TestDependency:
    def test_independent_columns(self):
        assert dependency(INCIDENCE) is None
        assert dependency([]) is None

    def test_first_dependency(self):
        # the third column is the sum of the first two; the columns after
        # it get zero although the first four are dependent too
        cols = [(1, 1, 0), (0, 1, 1), (1, 2, 1), (0, 0, 1), (1, 0, 0)]
        c = dependency(cols)
        assert c == [1, 1, -1, 0, 0]
        assert [sum(v * col[i] for v, col in zip(c, cols)) for i in range(3)] == [0, 0, 0]

    def test_zero_column_depends_on_itself(self):
        assert dependency([(1, 0), (0, 0), (0, 1)]) == [0, 1, 0]


class TestSolveUnique:
    def test_balancing_weights(self):
        sol = solve_unique(INCIDENCE, (1, 1, 1, 1, 0))
        assert sol == (F(1, 3), F(1, 3), F(1, 3), F(2, 3))

    def test_partition_weights(self):
        assert solve_unique([(1, 0), (0, 1)], (1, 1)) == (1, 1)

    def test_outside_span(self):
        assert solve_unique([(1, 0, 0), (0, 1, 0)], (0, 0, 1)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_unique([(1, 0)], (1, 0, 0))

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            solve_unique([(1, 0), (2, 0)], (1, 0))

    def test_no_columns(self):
        assert solve_unique([], (0, 0)) == ()
        assert solve_unique([], (1, 0)) is None


class TestConicFeasible:
    def test_grand_coalition_split(self):
        # chi_N over {abcd, ab, ce, de} in a 5-player universe
        gens = [(1, 1, 1, 1, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)]
        assert conic_feasible(gens, (1, 1, 1, 1, 1)) == (F(1, 2),) * 4

    def test_zero_target(self):
        gens = [(1, 1, 0), (0, 1, 1)]
        assert conic_feasible(gens, (0, 0, 0)) == (0, 0)

    def test_outside_cone(self):
        # chi_abcd over {ab, acd} in a 4-player universe
        assert conic_feasible([(1, 1, 0, 0), (1, 0, 1, 1)], (1, 1, 1, 1)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            conic_feasible([(1, 0)], (1, 0, 0))

    def test_resubstitutes(self):
        gens = [(2, 1, 0), (0, 1, 1), (1, 0, 3)]
        target = (3, 2, 4)
        coeffs = conic_feasible(gens, target)
        if coeffs is not None:
            for j in range(3):
                assert sum(c * g[j] for c, g in zip(coeffs, gens)) == target[j]


class TestLpFeasible:
    def test_core_of_market_game(self):
        # core of the 3-player game with worth 3 / pairs 2 / singletons 0
        ineq = [[-1, -1, 0], [-1, 0, -1], [0, -1, -1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        eq = [[1, 1, 1]]
        rhs = [-2, -2, -2, 0, 0, 0, 3]
        res = lp_feasible(ineq, eq, rhs)
        assert res.feasible
        x = res.point
        assert sum(x) == 3
        for row, bound in zip(ineq, rhs):
            assert sum(c * v for c, v in zip(row, x)) <= bound

    def test_two_player_empty_core(self):
        # x_a + x_b = -3 with x_a, x_b >= -1 is infeasible
        res = lp_feasible([[-1, 0], [0, -1]], [[1, 1]], [1, 1, -3])
        assert not res.feasible
        lam = res.farkas
        assert lam[0] >= 0 and lam[1] >= 0
        assert -lam[0] + lam[2] == 0 and -lam[1] + lam[2] == 0
        assert lam[0] * 1 + lam[1] * 1 + lam[2] * (-3) < 0

    def test_empty_system(self):
        res = lp_feasible([], [], [], dimension=1)
        assert res.point == (0,)

    def test_dimension_required_when_empty(self):
        with pytest.raises(ValueError):
            lp_feasible([], [], [])

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionError):
            lp_feasible([[1, 0]], [], [1, 2])


# -- brute-force oracles -------------------------------------------------

def _det(m):
    if len(m) == 1:
        return F(m[0][0])
    total = F(0)
    for j in range(len(m)):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _brute_rank(rows):
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for rsub in combinations(range(nr), k):
            for csub in combinations(range(nc), k):
                if _det([[rows[i][j] for j in csub] for i in rsub]) != 0:
                    return k
    return 0


def _brute_conic(gens, target):
    # Caratheodory: membership iff some independent subfamily combines
    # into the target with nonnegative coefficients.
    if all(v == 0 for v in target):
        return True
    for size in range(1, len(gens) + 1):
        for subset in combinations(gens, size):
            try:
                sol = solve_unique(list(subset), target)
            except ValueError:
                continue
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def _random_matrix(rng, nr, nc):
    return [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(nc)] for _ in range(nr)]


def test_rank_matches_determinant_oracle():
    rng = Random(101)
    for _ in range(300):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, nr, nc)
        assert rank(m) == _brute_rank(m)


def test_solve_unique_iff_rank_unchanged():
    # presence of a solution must coincide with rank([cols])=rank([cols|t])
    rng = Random(202)
    checked = 0
    while checked < 500:
        d = rng.randint(1, 5)
        k = rng.randint(1, d)
        cols = [tuple(F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(d)) for _ in range(k)]
        if rank(cols) < k:
            continue  # precondition: independent columns
        target = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d))
        sol = solve_unique(cols, target)
        rows = [list(c) for c in cols] + [list(target)]
        grew = _brute_rank(rows) > k
        assert (sol is None) == grew
        if sol is not None:
            for i in range(d):
                assert sum(s * c[i] for s, c in zip(sol, cols)) == target[i]
        checked += 1


def test_dependency_matches_rank_oracle():
    # None exactly on full column rank; otherwise the coefficients end at
    # the first column that depends on the ones before it
    rng = Random(202)
    found = set()
    for _ in range(300):
        d, k = rng.randint(1, 4), rng.randint(1, 5)
        cols = [tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(d)) for _ in range(k)]
        c = dependency(cols)
        found.add(c is None)
        if c is None:
            assert _brute_rank(cols) == k
            continue
        j = max(i for i, v in enumerate(c) if v)
        assert all(isinstance(v, int) for v in c) and len(c) == k
        assert j == 0 or _brute_rank(cols[:j]) == j
        for i in range(d):
            assert sum(v * col[i] for v, col in zip(c, cols)) == 0
    assert found == {True, False}


def test_conic_matches_sign_pattern_oracle():
    rng = Random(303)
    for _ in range(250):
        d = rng.randint(1, 4)
        ngen = rng.randint(1, 4)
        gens = [tuple(F(rng.randint(-2, 3)) for _ in range(d)) for _ in range(ngen)]
        target = tuple(F(rng.randint(-3, 3)) for _ in range(d))
        if _brute_rank(gens) < ngen:
            with pytest.raises(ValueError):
                conic_feasible(gens, target)
            continue
        got = conic_feasible(gens, target)
        assert (got is not None) == _brute_conic(gens, target)
        if got is not None:
            assert all(c >= 0 for c in got)
            for i in range(d):
                assert sum(c * g[i] for c, g in zip(got, gens)) == target[i]


def test_lp_answers_verify_exactly():
    rng = Random(404)
    feasible = infeasible = 0
    for _ in range(300):
        nvar = rng.randint(1, 4)
        mi, me = rng.randint(0, 4), rng.randint(0, 2)
        ineq = [[F(rng.randint(-3, 3)) for _ in range(nvar)] for _ in range(mi)]
        eq = [[F(rng.randint(-3, 3)) for _ in range(nvar)] for _ in range(me)]
        rhs = [F(rng.randint(-4, 4)) for _ in range(mi + me)]
        res = lp_feasible(ineq, eq, rhs, dimension=nvar)
        rows = ineq + eq
        if res.feasible:
            feasible += 1
            for i, row in enumerate(rows):
                lhs = sum(c * v for c, v in zip(row, res.point))
                assert lhs <= rhs[i] if i < mi else lhs == rhs[i]
        else:
            infeasible += 1
            lam = res.farkas
            assert all(lam[i] >= 0 for i in range(mi))
            for j in range(nvar):
                assert sum(lam[i] * rows[i][j] for i in range(len(rows))) == 0
            assert sum(lam[i] * rhs[i] for i in range(len(rows))) < 0
    assert feasible and infeasible  # both branches exercised


# -- the integer tableau against the Fraction simplex ---------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_core_systems_match_fraction_simplex(n):
    # every core system the oracles solve, at every tight coalition, for a
    # random game, its anti-dual and (with a nonempty core) the same game
    # with the grand coalition worth 20 per player
    rng = Random(500 + n)
    players = letters(n)
    outcomes = set()
    game = random_game(players, rng)
    rich = Game(players, game.values[:-1] + (F(20 * n),))
    for g in (game, anti_dual(game), rich):
        for tight_at in range(1, players.full_mask + 1):
            rows, rhs, ineq_order, _ = tight_rows(g, tight_at)
            mi = len(ineq_order)
            res = lp_feasible(rows[:mi], rows[mi:], rhs)
            assert (res.point, res.farkas) == fraction_lp_feasible(rows[:mi], rows[mi:], rhs)
            outcomes.add(res.feasible)
    assert outcomes == {True, False}


def _conic_inputs(monkeypatch):
    """``(generators, target)`` pairs: every call ``is_reducible`` makes
    to ``conic_feasible`` on the carriers of ``letters(4)``, then seeded
    random sets that append to their first generators vectors mixing
    them coordinate by coordinate, mostly dependent ones, with a
    nonnegative mix or a random vector as the target."""
    recorded = []

    def recording(gens, target):
        recorded.append((gens, target))
        return conic_feasible(gens, target)

    monkeypatch.setattr(reduction, "conic_feasible", recording)
    players = letters(4)
    for carrier in range(1, players.full_mask + 1):
        for mbs in enumerate_min_balanced(players, carrier):
            reduction.is_reducible(mbs)
    monkeypatch.undo()
    assert recorded
    seeded = []
    rng = Random(707)
    for _ in range(300):
        d = rng.randint(1, 4)
        gens = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 3)):
            gens.append([sum(rng.randint(-1, 2) * g[i] for g in gens) for i in range(d)])
        rng.shuffle(gens)
        if rng.random() < 0.5:
            target = [sum(rng.randint(0, 2) * g[i] for g in gens) for i in range(d)]
        else:
            target = [F(rng.randint(-3, 3)) for _ in range(d)]
        seeded.append((gens, target))
    return recorded, seeded


def test_mixed_systems_match_fraction_simplex(monkeypatch):
    rng = Random(606)
    systems = []
    for _ in range(300):
        nvar = rng.randint(1, 5)
        mi, me = rng.randint(0, 6), rng.randint(1, 3)
        entry = lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
        ineq = [[entry() for _ in range(nvar)] for _ in range(mi)]
        eq = [[entry() for _ in range(nvar)] for _ in range(me)]
        rhs = [entry() for _ in range(mi + me)]
        systems.append((ineq, eq, rhs))
    # cone-membership systems are degenerate: every sign row has a zero
    # right-hand side, so Bland's tie-break decides the pivots
    recorded, seeded = _conic_inputs(monkeypatch)
    systems += [conic_lp_system(gens, target) for gens, target in recorded + seeded]
    outcomes = set()
    for ineq, eq, rhs in systems:
        res = lp_feasible(ineq, eq, rhs)
        assert (res.point, res.farkas) == fraction_lp_feasible(ineq, eq, rhs)
        outcomes.add(res.feasible)
    assert outcomes == {True, False}
    # is_reducible passes independent generators, whose unique
    # combination is the LP's point; conic_feasible rejects dependent ones
    for gens, target in recorded:
        assert conic_feasible(gens, target) == fraction_lp_feasible(*conic_lp_system(gens, target))[0]
    dependent = [(gens, target) for gens, target in seeded if _brute_rank(gens) < len(gens)]
    assert len(dependent) > len(seeded) // 2
    for gens, target in dependent:
        with pytest.raises(ValueError):
            conic_feasible(gens, target)
