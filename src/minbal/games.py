"""Players, coalitions, set functions and transferable-utility games.

Coalitions are plain ``int`` bitmasks over the index positions of an
ordered player list; bit ``i`` stands for ``players.names[i]``.
:class:`Players` owns their text keys and rejects names whose keys
collide.  Set functions are dense tables of exact rationals over all
``2**n`` coalitions.  A game is a set function vanishing at the empty
coalition.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Mapping, Sequence, Union

log = logging.getLogger("minbal")

#: Membership oracles keep dense 2**n tables, so the player count is capped.
MAX_PLAYERS = 12

_VALUE_RE = re.compile(r"-?\d+(/\d+)?\Z")


class GameFormatError(ValueError):
    """Raised when a game JSON document is malformed."""


@dataclass(frozen=True)
class Players:
    """An ordered list of distinct player names, owner of the coalition keys.

    A coalition's key is its members' names concatenated in player order.
    Names giving two coalitions one key, like ``a, b, ab``, are rejected.
    """

    names: tuple[str, ...]
    _keys: list[str] = field(init=False, repr=False, compare=False)
    _coalitions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not (1 <= len(self.names) <= MAX_PLAYERS):
            raise ValueError(f"player count must be between 1 and {MAX_PLAYERS}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("player names must be distinct")
        for name in self.names:
            if not isinstance(name, str) or not name:
                raise ValueError("player names must be non-empty strings")
        keys = [""]  # entry s is the key of coalition s
        for name in self.names:
            keys += [key + name for key in keys]
        coalitions = {key: s for s, key in enumerate(keys)}
        if len(coalitions) != len(keys):
            raise ValueError("player names produce ambiguous coalition keys")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_coalitions", coalitions)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def coalitions(self) -> range:
        """All coalition bitmasks, the empty coalition included."""
        return range(1 << self.n)

    def key(self, coalition: int) -> str:
        """Text key of a coalition: player names concatenated in order."""
        self._check(coalition)
        return self._keys[coalition]

    def coalition_of(self, key: str) -> int:
        """The coalition of a text key, e.g. ``"ac"``."""
        if key not in self._coalitions:
            raise ValueError(f"{key!r} is not a coalition key of these players")
        return self._coalitions[key]

    def member_names(self, coalition: int) -> tuple[str, ...]:
        self._check(coalition)
        return tuple(name for i, name in enumerate(self.names) if coalition >> i & 1)

    def _check(self, coalition: int) -> None:
        if not 0 <= coalition <= self.full_mask:
            raise ValueError(f"coalition {coalition:#x} is outside this player set")


def letters(n: int) -> Players:
    """The conventional player set a, b, c, ... of size ``n``."""
    return Players(tuple(chr(ord("a") + i) for i in range(n)))


@dataclass(frozen=True)
class SetFunction:
    """A dense real-valued (rational) function on all coalitions."""

    players: Players
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(Fraction(v) for v in self.values)
        if len(values) != 1 << self.players.n:
            raise ValueError("a value is required for every coalition")
        object.__setattr__(self, "values", values)

    def value(self, coalition: int) -> Fraction:
        self.players._check(coalition)
        return self.values[coalition]


class Game(SetFunction):
    """A set function vanishing at the empty coalition."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.values[0] != 0:
            raise ValueError("a game must vanish at the empty coalition")


def tabulate(players: Players, fn: Callable[[int], Union[Fraction, int]]) -> SetFunction:
    return SetFunction(players, tuple(Fraction(fn(S)) for S in players.coalitions()))


def set_function_of(players: Players, table: Mapping[str, object], default=0) -> SetFunction:
    """Build a set function from a coalition-key table, e.g. {"ab": 2}.

    Keys are player-name concatenations in player order; unlisted
    coalitions take ``default``.
    """
    values = [Fraction(default)] * (1 << players.n)
    for key, value in table.items():
        values[players.coalition_of(key)] = Fraction(value)
    return SetFunction(players, tuple(values))


def game_of(players: Players, table: Mapping[str, object], default=0) -> Game:
    f = set_function_of(players, table, default)
    return Game(f.players, f.values)


def shift(f: SetFunction) -> Game:
    """Subtract the empty-coalition value, yielding a game."""
    c = f.values[0]
    if c == 0 and isinstance(f, Game):
        return f
    return Game(f.players, tuple(v - c for v in f.values))


def as_game(f: SetFunction) -> Game:
    """Coerce a set function into a game, shifting it when necessary.

    Game-level oracles accept arbitrary set functions; a nonzero value at
    the empty coalition is removed by :func:`shift`, with a notice, which
    matches the extension of the game cones to all set functions.
    """
    if isinstance(f, Game):
        return f
    if f.values[0] != 0:
        log.info("set function does not vanish at the empty coalition; shifting")
    return shift(f)


def restrict(f: SetFunction, coalition: int) -> SetFunction:
    """The restriction of ``f`` to subsets of ``coalition`` (a subgame)."""
    f.players._check(coalition)
    if coalition == 0:
        raise ValueError("cannot restrict to the empty coalition")
    positions = [i for i in range(f.players.n) if coalition >> i & 1]
    sub_players = Players(tuple(f.players.names[i] for i in positions))
    kind = Game if isinstance(f, Game) else SetFunction
    return kind(sub_players, tuple(f.values[s] for s in relabelling(positions)))


def relabelling(targets: Sequence[int]) -> list[int]:
    """The renaming of player ``j`` to player ``targets[j]``, on coalitions.

    Entry ``s`` is the image of coalition ``s`` of ``len(targets)``
    players.  Increasing targets give a map that keeps the order of
    coalitions; a permutation of ``range(n)`` gives its action on them.
    """
    table = [0]
    for t in targets:
        table += [s | 1 << t for s in table]
    return table


def reflect(f: SetFunction) -> SetFunction:
    """Composition with complementation: result(T) = f(N minus T)."""
    full = f.players.full_mask
    return SetFunction(f.players, tuple(f.values[full ^ t] for t in f.players.coalitions()))


def anti_dual(m: SetFunction) -> Game:
    """The negated dual game, S -> m(N minus S) - m(N); equals shift(reflect(m))."""
    return shift(reflect(m))


def unanimity(players: Players, coalition: int) -> SetFunction:
    """Indicator of the supersets of ``coalition`` (1 when it is contained)."""
    players._check(coalition)
    one, zero = Fraction(1), Fraction(0)
    return SetFunction(
        players,
        tuple(one if coalition & s == coalition else zero for s in players.coalitions()),
    )


def dirac(players: Players, coalition: int) -> SetFunction:
    """Set indicator of a single coalition."""
    players._check(coalition)
    one, zero = Fraction(1), Fraction(0)
    return SetFunction(players, tuple(one if s == coalition else zero for s in players.coalitions()))


def modular_from_payoffs(players: Players, payoffs: Sequence, constant=0) -> SetFunction:
    """The modular set function S -> constant + sum of payoffs over S."""
    pay = [Fraction(p) for p in payoffs]
    if len(pay) != players.n:
        raise ValueError("one payoff per player is required")
    c = Fraction(constant)
    values = []
    for s in players.coalitions():
        values.append(c + sum((pay[i] for i in range(players.n) if s >> i & 1), Fraction(0)))
    return SetFunction(players, tuple(values))


def inner(theta: SetFunction, f: SetFunction) -> Fraction:
    """The scalar product sum over S of theta(S) * f(S)."""
    if theta.players != f.players:
        raise ValueError("scalar product requires a shared player set")
    return sum((a * b for a, b in zip(theta.values, f.values) if a != 0), Fraction(0))


def is_o_standardized(theta: SetFunction) -> bool:
    """Orthogonality to the modular functions.

    True iff the values sum to zero and, for every player, the values
    over coalitions containing that player sum to zero.
    """
    return sum(theta.values) == 0 and not any(_player_sums(enumerate(theta.values), theta.players.n))


def _player_sums(items: Iterable[tuple[int, object]], n: int) -> list:
    """Per player, the sum of the values of the ``(coalition, value)``
    pairs containing it: o-standardization and balancedness read these."""
    sums = [0] * n
    for s, v in items:
        for i in range(n):
            if s >> i & 1:
                sums[i] += v
    return sums


def is_modular(f: SetFunction) -> bool:
    """Whether f(C | D) + f(C & D) == f(C) + f(D) for all pairs.

    Checked through the closed form: a modular function is determined by
    its values on the empty set and the singletons.
    """
    base = f.values[0]
    singles = [f.values[1 << i] - base for i in range(f.players.n)]
    for s in f.players.coalitions():
        expected = base + sum((singles[i] for i in range(f.players.n) if s >> i & 1), Fraction(0))
        if f.values[s] != expected:
            return False
    return True


def random_game(players: Players, rng: Random) -> Game:
    """A random rational game for property tests.

    Values have numerators uniform in [-20, 20] and denominators in
    {1, 2, 3}; the empty coalition is forced to zero.
    """
    values = [Fraction(0)]
    for _ in range((1 << players.n) - 1):
        values.append(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3))))
    return Game(players, tuple(values))


def _parse_value(raw: object, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise GameFormatError(f"{where}: boolean is not a rational value")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        if not _VALUE_RE.match(raw):
            raise GameFormatError(f"{where}: {raw!r} is not a decimal integer or p/q rational")
        value = Fraction(raw)
        if "/" in raw:
            p, q = raw.split("/")
            if int(q) <= 0 or Fraction(int(p), int(q)) != value or (value.numerator, value.denominator) != (int(p), int(q)):
                raise GameFormatError(f"{where}: {raw!r} is not a reduced rational with positive denominator")
        return value
    raise GameFormatError(f"{where}: values must be integers or rational strings, got {type(raw).__name__}")


def _read_document(data: Union[str, bytes], fields: tuple[str, ...], error: type[ValueError]) -> tuple[dict, Players]:
    """Open a JSON document whose top level has exactly ``fields``, one
    of them ``players``.  Malformed input, a repeated key included,
    raises ``error``."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
            raise error(f"repeated key {repeated!r} in a JSON object")
        return obj

    try:
        doc = json.loads(data, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error("top level must be an object")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise error(f"missing required field {missing[0]!r}")
    if len(doc) != len(fields):
        raise error(f"top-level fields must be {', '.join(fields)}, not {', '.join(doc)}")
    names = doc["players"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise error("'players' must be a list of strings")
    try:
        return doc, Players(tuple(names))
    except ValueError as exc:
        raise error(f"'players': {exc}") from None


def game_from_json(text: Union[str, bytes]) -> Game:
    """Parse the bit-exact game JSON format.

    The document carries the ordered player list and one value for every
    one of the ``2**n`` coalition keys, written as decimal integers or
    reduced ``p/q`` strings.
    """
    doc, players = _read_document(text, ("players", "values"), GameFormatError)
    raw_values = doc["values"]
    if not isinstance(raw_values, dict):
        raise GameFormatError("'values' must be an object keyed by coalitions")
    unknown = set(raw_values) - set(players._coalitions)
    if unknown:
        raise GameFormatError(f"unknown coalition key {sorted(unknown)[0]!r}")
    values = [Fraction(0)] * (1 << players.n)
    for key, s in players._coalitions.items():
        if key not in raw_values:
            raise GameFormatError(f"missing coalition key {key!r}")
        values[s] = _parse_value(raw_values[key], f"values[{key!r}]")
    if values[0] != 0:
        raise GameFormatError("the empty coalition must have value 0")
    return Game(players, tuple(values))


def game_to_json(game: SetFunction) -> str:
    """Serialize a game (or set function) in the bit-exact JSON format."""
    payload = {
        "players": list(game.players.names),
        "values": {game.players.key(s): str(game.values[s]) for s in game.players.coalitions()},
    }
    return json.dumps(payload, indent=2)
