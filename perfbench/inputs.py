"""Seeded game generator for the check workloads.

Every game is drawn from its own ``random.Random`` keyed by the seed,
the game kind, the player count and a copy number, so the same seed
gives the same files whatever the job order.  Three kinds are written,
each with a verdict known by construction:

* ``convex``: a positive sum of unanimity games, one for every nonempty
  coalition, with weights drawn from 1..9.  Convex games are exact,
  hence totally balanced and balanced: a member of every cone.
* ``cut``: a convex game whose grand-coalition worth is lowered below
  the sum of the singleton worths.  Its core is empty but every proper
  subgame is still convex, so the oracles only fail at the full set.
* ``random``: ``minbal.games.random_game``, redrawn until some pair of
  players is worth more together than apart.  That 2-player subgame has
  an empty core, so the game is neither totally balanced nor exact.
"""

from fractions import Fraction
from pathlib import Path
from random import Random

from minbal.games import Game, game_to_json, letters, random_game


def convex_values(n: int, rng: Random) -> list[Fraction]:
    full = (1 << n) - 1
    dividends = [(t, rng.randint(1, 9)) for t in range(1, full + 1)]
    return [Fraction(sum(c for t, c in dividends if t & s == t)) for s in range(full + 1)]


def make_game(kind: str, n: int, seed: int, copy: int) -> Game:
    rng = Random(f"{seed}:{kind}:{n}:{copy}")
    players = letters(n)
    if kind == "convex":
        return Game(players, tuple(convex_values(n, rng)))
    if kind == "cut":
        values = convex_values(n, rng)
        values[-1] = sum(values[1 << i] for i in range(n)) - rng.randint(1, 5)
        return Game(players, tuple(values))
    if kind == "random":
        while True:
            game = random_game(players, rng)
            v = game.values
            pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
            if any(v[p] > sum(v[1 << i] for i in range(n) if p >> i & 1) for p in pairs):
                return game
    raise ValueError(f"unknown game kind {kind!r}")


def write_game(directory: Path, kind: str, n: int, seed: int, copy: int) -> Path:
    """Write the game as JSON and return its path (reused when present)."""
    path = directory / f"{kind}-{n}-{copy}.json"
    if not path.exists():
        path.write_text(game_to_json(make_game(kind, n, seed, copy)))
    return path
