"""Exact linear algebra: worked examples plus brute-force cross-checks."""

from fractions import Fraction as F
from itertools import combinations
from math import gcd
from random import Random

import pytest

import conftest
from conftest import (
    _fraction_pivot,
    augment,
    candidate_sets,
    conic_lp_system,
    det,
    fraction_lp_feasible,
    lp_conic_feasible,
    rank,
    reduce_mod_rows,
    subsets_below,
    tight_rows,
)
from minbal import linalg
from minbal.balance import enumerate_min_balanced
from minbal.games import Game, anti_dual, letters, random_game
from minbal.linalg import (
    DimensionError,
    _eliminate,
    _integer_row,
    _verify_farkas,
    _verify_point,
    conic_feasible,
    dependency,
    lp_feasible,
    solve_unique,
)

# incidence vectors of {ab, ac, ad, bcd} in a 5-player universe
INCIDENCE = [
    (1, 1, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0),
    (0, 1, 1, 1, 0),
]


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

    def test_point_in_lowest_terms(self):
        # x = 1/3 and y = 1/6 over the denominator 6
        res = lp_feasible([], [[3, 0], [0, 6]], [1, 1])
        assert (res.numerators, res.denominator) == ((2, 1), 6)
        assert res.point == (F(1, 3), F(1, 6))
        res = lp_feasible([[-1, 0], [0, -1]], [[1, 1]], [0, 0, F(4, 2)])
        assert gcd(res.denominator, *res.numerators) == 1 and sum(res.point) == 2


def _scaled(rows, rhs):
    """The integer rows ``lp_feasible`` checks its answers on."""
    return [_integer_row([*row, r, 1]) for row, r in zip(rows, rhs)]


class TestAnswerChecks:
    """The integer checks run on every answer, fed wrong answers directly."""

    # x + y <= 4, x - y <= 1 and x/2 + y == 5/2
    POINT_ROWS = _scaled([[1, 1], [1, -1], [F(1, 2), 1]], [4, 1, F(5, 2)])

    def test_point_checks_pass(self):
        _verify_point(self.POINT_ROWS, 2, (1, 2), 1)
        _verify_point(self.POINT_ROWS, 2, (7, 4), 3)  # tight at x - y <= 1

    def test_point_one_unit_off_a_row(self):
        # x - y = 2 exceeds its bound 1 by one unit; the other rows hold
        with pytest.raises(RuntimeError, match="violating a constraint"):
            _verify_point(self.POINT_ROWS, 2, (3, 1), 1)

    def test_equality_missed_by_half(self):
        # x = 1, y = 5/2: x/2 + y = 3, half a unit above 5/2
        with pytest.raises(RuntimeError, match="violating a constraint"):
            _verify_point(self.POINT_ROWS, 2, (2, 5), 2)

    def test_equality_missed_by_half_below(self):
        # x = 1, y = 3/2 satisfies all three rows as inequalities, but
        # x/2 + y = 2 is half a unit below 5/2
        _verify_point(self.POINT_ROWS, 3, (2, 3), 2)
        with pytest.raises(RuntimeError, match="violating a constraint"):
            _verify_point(self.POINT_ROWS, 2, (2, 3), 2)

    # x <= 1, -x <= -2 and x/2 + y/3 == 1/6: infeasible, lam = (1, 1, 0)
    FARKAS_ROWS = _scaled([[1, 0], [-1, 0], [F(1, 2), F(1, 3)]], [1, -2, F(1, 6)])

    def test_farkas_checks_pass(self):
        _verify_farkas(self.FARKAS_ROWS, 2, (1, 1, 0))
        _verify_farkas(self.FARKAS_ROWS, 2, (3, 3, 0))

    def test_negative_inequality_multiplier(self):
        # x/2 <= 3/2 and x/3 == 2/3: (-2, 3) annihilates the rows and pairs
        # to -1 with the right-hand side; only its sign is wrong
        rows = _scaled([[F(1, 2)], [F(1, 3)]], [F(3, 2), F(2, 3)])
        with pytest.raises(RuntimeError, match="negative inequality multiplier"):
            _verify_farkas(rows, 1, (-2, 3))
        _verify_farkas(rows, 0, (-2, 3))  # fine on two equalities

    def test_nonzero_row_product(self):
        # (1, 2, 0) is nonnegative and pairs to -3, but leaves -x
        with pytest.raises(RuntimeError, match="does not annihilate"):
            _verify_farkas(self.FARKAS_ROWS, 2, (1, 2, 0))

    def test_equality_multiplier_product(self):
        # the equality row's weight counts: x/2 + y/3 is left over
        with pytest.raises(RuntimeError, match="does not annihilate"):
            _verify_farkas(self.FARKAS_ROWS, 2, (1, 1, 1))

    def test_no_certificate(self):
        with pytest.raises(RuntimeError, match="does not certify"):
            _verify_farkas(self.FARKAS_ROWS, 2, (0, 0, 0))

    def test_every_answer_is_checked(self, monkeypatch):
        calls = []

        def counted(check):
            def wrapper(*args):
                calls.append(check.__name__)
                return check(*args)

            return wrapper

        for check in (linalg._verify_point, linalg._verify_farkas):
            monkeypatch.setattr(linalg, check.__name__, counted(check))
        feasible = lp_feasible([[-1, 0], [0, -1]], [[1, 1]], [0, 0, 3])
        infeasible = lp_feasible([[-1, 0], [0, -1]], [[1, 1]], [1, 1, -3])
        assert feasible.feasible and not infeasible.feasible
        assert calls == ["_verify_point", "_verify_farkas"]

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionError):
            lp_feasible([[1, 0]], [], [1, 2])

    def test_bounded_phase_one_raises(self, monkeypatch):
        # phase 1 is bounded below by 0, so an entering column always has
        # a pivot row; x <= 1 with the first reduced cost row's variable
        # entries negated makes v_0 enter a column with no positive entry
        real, calls = linalg._primitive, []

        def flipped(row):
            calls.append(row)
            row = real(row)
            return [-e for e in row[:-2]] + row[-2:] if len(calls) == 1 else row

        monkeypatch.setattr(linalg, "_primitive", flipped)
        with pytest.raises(RuntimeError, match="^phase-1 objective is bounded; no pivot row found$"):
            lp_feasible([[1]], [], [1])


# -- brute-force oracles -------------------------------------------------

def _brute_rank(rows):
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for rsub in combinations(range(nr), k):
            for csub in combinations(range(nc), k):
                if det([[rows[i][j] for j in csub] for i in rsub]) != 0:
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


def _large(rng):
    """A rational with a numerator up to 10**20 in size and a denominator
    up to 10**6."""
    return F(rng.randint(-10**20, 10**20), rng.randint(1, 10**6))


def _combination(rng, vectors, coefficient):
    """``sum(coefficient() * v)`` over ``vectors``, coordinate by coordinate."""
    weights = [coefficient() for _ in vectors]
    return tuple(sum(c * v[i] for c, v in zip(weights, vectors)) for i in range(len(vectors[0])))


def test_solve_unique_iff_rank_unchanged():
    # presence of a solution must coincide with rank([cols])=rank([cols|t])
    rng = Random(202)
    inputs = []
    checked = 0
    while checked < 500:
        d = rng.randint(1, 5)
        k = rng.randint(1, d)
        cols = [tuple(F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(d)) for _ in range(k)]
        if rank(cols) < k:
            continue  # precondition: independent columns
        target = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d))
        inputs.append((cols, target))
        checked += 1
    # large rationals, the target half the time in the span of the columns
    for _ in range(100):
        d = rng.randint(1, 5)
        cols = [tuple(_large(rng) for _ in range(d)) for _ in range(rng.randint(1, d))]
        target = _combination(rng, cols, lambda: _large(rng)) if rng.random() < 0.5 else tuple(_large(rng) for _ in range(d))
        inputs.append((cols, target))
    solved = set()
    for cols, target in inputs:
        k, d = len(cols), len(target)
        assert rank(cols) == k
        sol = solve_unique(cols, target)
        solved.add(sol is not None)
        rows = [list(c) for c in cols] + [list(target)]
        grew = _brute_rank(rows) > k
        assert (sol is None) == grew
        if sol is not None:
            for i in range(d):
                assert sum(s * c[i] for s, c in zip(sol, cols)) == target[i]
    assert solved == {True, False}


def test_dependency_matches_rank_oracle():
    # None exactly on full column rank; otherwise the coefficients end at
    # the first column that depends on the ones before it
    rng = Random(202)
    inputs = []
    for _ in range(300):
        d, k = rng.randint(1, 4), rng.randint(1, 5)
        inputs.append([tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(d)) for _ in range(k)])
    # large rationals, half the time with a column that combines the ones before it
    for _ in range(100):
        d = rng.randint(1, 4)
        cols = [tuple(_large(rng) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            cols.insert(rng.randint(1, len(cols)), _combination(rng, cols[: rng.randint(1, len(cols))], lambda: _large(rng)))
        inputs.append(cols)
    found = set()
    for cols in inputs:
        d, k = len(cols[0]), len(cols)
        c = dependency(cols)
        found.add(c is None)
        if c is None:
            assert _brute_rank(cols) == k
            continue
        j = max(i for i, v in enumerate(c) if v)
        assert all(isinstance(v, int) for v in c) and len(c) == k
        assert next(filter(None, c)) > 0 and gcd(*c) == 1
        assert j == 0 or _brute_rank(cols[:j]) == j
        for i in range(d):
            assert sum(v * col[i] for v, col in zip(c, cols)) == 0
    assert found == {True, False}


def test_dependency_matches_list_reduction():
    # the packed kernel returns exactly the dependency of the list
    # reduction, on the same scaled coordinates: the first dependency is
    # unique up to scale, and both fix the scale the same way.  Small and
    # large rationals and 0/1 vectors, half the time with a last column
    # that combines the ones before it
    rng = Random(505)
    draws = [lambda: F(rng.randint(-3, 3), rng.choice((1, 2))), lambda: _large(rng), lambda: rng.randint(0, 1)]
    found = set()
    for _ in range(300):
        entry = rng.choice(draws)
        d, k = rng.randint(0, 5), rng.randint(1, 6)
        cols = [tuple(entry() for _ in range(d)) for _ in range(k)]
        if k > 1 and rng.random() < 0.5:
            cols[-1] = _combination(rng, cols[:-1], lambda: rng.randint(-2, 2))
        scaled = [_integer_row([c[i] for c in cols]) for i in range(d)]
        listed, rows = None, []
        for j in range(k):
            r, piv = reduce_mod_rows(rows, augment([row[j] for row in scaled], j, k))
            if piv >= d:
                listed = r[d:]
                break
            rows.append((r, piv))
        assert dependency(cols) == listed
        found.add(listed is None)
    assert found == {True, False}


def test_conic_matches_sign_pattern_oracle():
    rng = Random(303)
    inputs = []
    for _ in range(250):
        d = rng.randint(1, 4)
        ngen = rng.randint(1, 4)
        gens = [tuple(F(rng.randint(-2, 3)) for _ in range(d)) for _ in range(ngen)]
        inputs.append((gens, tuple(F(rng.randint(-3, 3)) for _ in range(d))))
    # large rationals, the target a combination of the generators with
    # coefficients of either sign
    for _ in range(100):
        d = rng.randint(1, 4)
        gens = [tuple(_large(rng) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        inputs.append((gens, _combination(rng, gens, lambda: _large(rng))))
    verdicts = set()
    for gens, target in inputs:
        d, ngen = len(target), len(gens)
        if _brute_rank(gens) < ngen:
            with pytest.raises(ValueError):
                conic_feasible(gens, target)
            continue
        got = conic_feasible(gens, target)
        verdicts.add(got is not None)
        assert (got is not None) == _brute_conic(gens, target)
        if got is not None:
            assert all(c >= 0 for c in got)
            for i in range(d):
                assert sum(c * g[i] for c, g in zip(got, gens)) == target[i]
    assert verdicts == {True, False}


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
            rows, rhs, ineq_order, eq_order = tight_rows(g, tight_at)
            mi = len(ineq_order)
            res = lp_feasible(rows[:mi], rows[mi:], rhs)
            point, farkas = fraction_lp_feasible(rows[:mi], rows[mi:], rhs)
            assert (res.point, res.farkas) == (point, farkas)
            outcomes.add(res.feasible)
            # the oracles' form: the table scaled to integers, which
            # scales the point and keeps the pivots and the Farkas vector
            *values, scale = _integer_row([*g.values, 1])
            scaled = lp_feasible(rows[:mi], rows[mi:], [-values[s] for s in ineq_order + eq_order])
            assert scaled.farkas == farkas
            assert scaled.point == (None if point is None else tuple(scale * x for x in point))
    assert outcomes == {True, False}


def _conic_inputs():
    """``(generators, target)`` pairs: on every carrier of ``letters(4)``,
    each min-balanced system's cone tests of the reducibility search, the
    incidence vectors of the members below each admissible reduced set A
    and of A, up to the first A in their cone; then seeded random sets
    that append to their first generators vectors mixing them coordinate
    by coordinate, mostly dependent ones, with a nonnegative mix or a
    random vector as the target."""
    recorded = []
    players = letters(4)
    for carrier in range(1, players.full_mask + 1):
        chi = lambda s: tuple(s >> i & 1 for i in range(players.n) if carrier >> i & 1)
        for mbs in enumerate_min_balanced(players, carrier):
            for a in candidate_sets(mbs):
                recorded.append(([chi(s) for s in subsets_below(mbs, a)], chi(a)))
                if lp_conic_feasible(*recorded[-1]) is not None:
                    break
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
    recorded, seeded = _conic_inputs()
    systems += [conic_lp_system(gens, target) for gens, target in recorded + seeded]
    # the integer tableau stores u's columns, one column per row, the
    # right-hand side and the scale, and no v column: every row it
    # eliminates has nvar + m + 2 entries, while the Fraction simplex
    # enters a v label (nvar + j) in 224 of the 300 random systems
    widths, entered = [], []
    monkeypatch.setattr(linalg, "_eliminate", lambda v, row, piv: widths.append((len(v), len(row))) or _eliminate(v, row, piv))
    monkeypatch.setattr(conftest, "_fraction_pivot", lambda tab, cost, basis, leave, enter: entered.append(enter) or _fraction_pivot(tab, cost, basis, leave, enter))
    outcomes, v_entered = set(), []
    for ineq, eq, rhs in systems:
        widths.clear()
        entered.clear()
        res = lp_feasible(ineq, eq, rhs)
        assert (res.point, res.farkas) == fraction_lp_feasible(ineq, eq, rhs)
        nvar, m = len((ineq + eq)[0]), len(ineq) + len(eq)
        assert set(widths) <= {(nvar + m + 2, nvar + m + 2)} and bool(widths) == bool(entered)
        v_entered.append(any(nvar <= j < 2 * nvar for j in entered))
        outcomes.add(res.feasible)
    monkeypatch.undo()
    assert outcomes == {True, False}
    assert sum(v_entered[:300]) == 224
    # the reducibility search's cone tests have independent generators,
    # whose unique combination is the LP's point; conic_feasible rejects
    # dependent ones
    for gens, target in recorded:
        assert conic_feasible(gens, target) == fraction_lp_feasible(*conic_lp_system(gens, target))[0]
    dependent = [(gens, target) for gens, target in seeded if _brute_rank(gens) < len(gens)]
    assert len(dependent) > len(seeded) // 2
    for gens, target in dependent:
        with pytest.raises(ValueError):
            conic_feasible(gens, target)
