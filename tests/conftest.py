"""Shared fixtures: example games from the worked examples and session
catalogues (expensive to generate, shared read-only)."""

import pytest

from minbal import anti_dual, game_of, generate, letters


def permute_coalition(coalition: int, perm: tuple[int, ...]) -> int:
    """Image of a coalition when player i becomes player perm[i]; a
    reference for the permutation action independent of the package."""
    bits = 0
    for i in range(len(perm)):
        if coalition >> i & 1:
            bits |= 1 << perm[i]
    return bits


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
