"""Shared fixtures: example games from the worked examples and session
catalogues (expensive to generate, shared read-only)."""

from fractions import Fraction

import pytest

from minbal import anti_dual, game_of, generate, letters, lp_feasible


def permute_coalition(coalition: int, perm: tuple[int, ...]) -> int:
    """Image of a coalition when player i becomes player perm[i]; a
    reference for the permutation action independent of the package."""
    bits = 0
    for i in range(len(perm)):
        if coalition >> i & 1:
            bits |= 1 << perm[i]
    return bits


def fraction_lp_feasible(inequality_rows, equality_rows, rhs):
    """``(point, farkas)`` of ``linalg.lp_feasible`` from a phase-1
    simplex on a ``Fraction`` tableau with Bland's rule: a reference for
    the integer tableau, which must take the same pivots."""
    rows = [[Fraction(e) for e in row] for row in list(inequality_rows) + list(equality_rows)]
    b = [Fraction(v) for v in rhs]
    mi, m = len(inequality_rows), len(rows)
    nvar = len(rows[0])
    art0 = 2 * nvar + mi
    ncols = art0 + m
    tab, sigma = [], []
    for i, row in enumerate(rows):
        s = 1 if b[i] >= 0 else -1
        sigma.append(s)
        line = [s * e for e in row] + [-s * e for e in row] + [Fraction(0)] * (mi + m)
        if i < mi:
            line[2 * nvar + i] = Fraction(s)
        line[art0 + i] = Fraction(1)
        line.append(s * b[i])
        tab.append(line)
    cost = [Fraction(int(art0 <= j < ncols)) for j in range(ncols + 1)]
    for line in tab:
        for j in range(ncols + 1):
            if line[j] != 0:
                cost[j] -= line[j]
    basis = list(range(art0, ncols))
    while (enter := next((j for j in range(art0) if cost[j] < 0), None)) is not None:
        leave = best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        _fraction_pivot(tab, cost, basis, leave, enter)
    if cost[-1] == 0:
        x = [Fraction(0)] * nvar
        for i, bv in enumerate(basis):
            if bv < nvar:
                x[bv] += tab[i][-1]
            elif bv < 2 * nvar:
                x[bv - nvar] -= tab[i][-1]
        return tuple(x), None
    return None, tuple(-sigma[i] * (1 - cost[art0 + i]) for i in range(m))


def _fraction_pivot(tab, cost, basis, leave, enter):
    prow = tab[leave]
    lead = prow[enter]
    if lead != 1:
        tab[leave] = prow = [v / lead for v in prow]
    support = [(j, v) for j, v in enumerate(prow) if v != 0]
    for row in tab + [cost]:
        f = row[enter]
        if row is not prow and f != 0:
            for j, v in support:
                row[j] -= f * v
    basis[leave] = enter


def tight_rows(game, tight_at):
    """The full core system with equality at ``tight_at``: a reference
    for the row generation in ``cones._tight_feasibility``.

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
    rows = [[-(s >> i & 1) for i in range(n)] for s in order]
    rhs = [-game.values[s] for s in order]
    return rows, rhs, ineq_order, eq_order


def conic_lp_system(generators, target):
    """``lp_feasible`` arguments for ``c >= 0`` with
    ``sum(c[i] * generators[i]) == target``: one sign row per generator,
    each with a zero right-hand side, then one equality per coordinate."""
    m = len(generators)
    ineq = [[-int(j == i) for j in range(m)] for i in range(m)]
    eq = [[g[i] for g in generators] for i in range(len(target))]
    return ineq, eq, [0] * m + list(target)


def lp_conic_feasible(generators, target):
    """Nonnegative coefficients combining ``generators`` into ``target``
    by linear program, or ``None``: a reference for
    ``linalg.conic_feasible`` that also takes dependent generators."""
    return lp_feasible(*conic_lp_system(generators, target)).point


@pytest.fixture(scope="session")
def p2():
    return letters(2)


@pytest.fixture(scope="session")
def p3():
    return letters(3)


@pytest.fixture(scope="session")
def p4():
    return letters(4)


@pytest.fixture(scope="session")
def p5():
    return letters(5)


@pytest.fixture(scope="session")
def market_game(p3):
    """The worked 3-player game: worth 3 for the grand coalition, 2 for
    every pair, 0 for singletons.  Totally balanced but not exact."""
    return game_of(p3, {"abc": 3, "ab": 2, "ac": 2, "bc": 2})


@pytest.fixture(scope="session")
def market_anti_dual(market_game):
    """Its anti-dual: balanced, with singleton core, not totally balanced."""
    return anti_dual(market_game)


@pytest.fixture(scope="session")
def balanced3(p3):
    return generate(p3, "balanced")


@pytest.fixture(scope="session")
def balanced4(p4):
    return generate(p4, "balanced")


@pytest.fixture(scope="session")
def totally4(p4):
    return generate(p4, "totally-balanced")


@pytest.fixture(scope="session")
def totally5(p5):
    return generate(p5, "totally-balanced")


@pytest.fixture(scope="session")
def exact4(p4):
    return generate(p4, "exact-conjecture")
