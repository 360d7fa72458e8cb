"""Players, coalitions, set functions and transferable-utility games.

Coalitions are plain ``int`` bitmasks over the index positions of an
ordered player list; bit ``i`` stands for ``players.names[i]``.
:class:`Players` owns their text keys and rejects names whose keys
collide.  Set functions are dense tables of exact rationals over all
``2**n`` coalitions, stored as one integer table: a numerator per
coalition over one positive denominator, the lcm of the values' reduced
denominators.  The membership oracles read that table; the values as
``Fraction``s are built only when first asked for.  A game is a set
function vanishing at the empty coalition.

Nothing here imports ``logging`` until a record is logged
(:func:`_log`), so that a run which logs nothing does not load it.
"""

from __future__ import annotations

import codecs
import json
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from json.decoder import WHITESPACE
from math import gcd, lcm
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from ._frozen import Frozen

#: Called with the ``logging`` module before :func:`_log` logs a record,
#: when set: the command line sets it to configure its output.  The
#: library configures nothing itself.
_log_setup: Optional[Callable] = None


def _log(level: str, message: str, *args: object) -> None:
    """Log ``message % args`` on the ``minbal`` logger at ``level``,
    ``"info"`` or ``"warning"``, importing ``logging`` only now."""
    import logging

    if _log_setup is not None:
        _log_setup(logging)
    getattr(logging.getLogger("minbal"), level)(message, *args)


#: Membership oracles keep dense 2**n tables, so the player count is capped.
MAX_PLAYERS = 12

#: A value string: a decimal integer, perhaps with a ``/`` denominator.
_VALUE_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")

#: Value strings joined by ``,``, each a decimal integer.
_INTEGERS_RE = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*\Z")


class GameFormatError(ValueError):
    """Raised when a game JSON document is malformed."""


class Players(Frozen):
    """An ordered list of distinct player names, owner of the coalition keys.

    A coalition's key is its members' names concatenated in player order.
    Names giving two coalitions one key, like ``a, b, ab``, are rejected.
    Players compare, hash and print by ``names`` alone.
    """

    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__(tuple(names))
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
        # lookup tables derived from the names, so neither compared nor shown
        self.__dict__.update(_keys=keys, _coalitions=coalitions)

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


class SetFunction(Frozen):
    """A dense real-valued (rational) function on all coalitions.

    Stored as an integer table: the value at coalition ``s`` is
    ``numerators[s] / denominator``, and ``denominator`` is the lcm of
    the values' reduced denominators, so each function has exactly one
    table.  ``values``, the same numbers as ``Fraction``s, is built on
    first access, or kept from the constructor's argument.  Two set
    functions are equal, and hash alike, when their players and tables
    are; ``repr`` shows the values.
    """

    players: Players
    numerators: tuple[int, ...]
    denominator: int
    # the constructor's arguments, shown by repr; equality compares the table (``_values``)
    _fields = ("players", "values")

    def __init__(self, players: Players, values: tuple[Fraction, ...]) -> None:
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if len(values) != 1 << players.n:
            raise ValueError("a value is required for every coalition")
        den = lcm(*{v.denominator for v in values})
        super().__init__(players, values)
        self.__dict__.update(numerators=tuple(v.numerator * (den // v.denominator) for v in values), denominator=den)

    @classmethod
    def _from_table(cls, players: Players, numerators: Sequence[int], denominator: int) -> SetFunction:
        """The function of ``numerators`` over the positive ``denominator``,
        one per coalition, in lowest terms.  Nothing else is checked: a
        game's caller gives ``numerators[0] == 0``."""
        g = 1 if denominator == 1 else gcd(denominator, *numerators)
        f = cls.__new__(cls)
        f.__dict__.update(players=players, numerators=tuple(numerators) if g == 1 else tuple(p // g for p in numerators),
                          denominator=denominator // g)
        return f

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The value at every coalition, in bitmask order."""
        return tuple(Fraction(p, self.denominator) for p in self.numerators)

    def _values(self) -> tuple:
        # the table is the values' one integer form
        return self.players, self.numerators, self.denominator

    def value(self, coalition: int) -> Fraction:
        self.players._check(coalition)
        return Fraction(self.numerators[coalition], self.denominator)


class Game(SetFunction):
    """A set function vanishing at the empty coalition; never equal to a
    :class:`SetFunction`, as equality needs one class."""

    def __init__(self, players: Players, values: tuple[Fraction, ...]) -> None:
        super().__init__(players, values)
        if self.numerators[0] != 0:
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
    c = f.numerators[0]
    if c == 0 and isinstance(f, Game):
        return f
    return Game._from_table(f.players, [p - c for p in f.numerators], f.denominator)


def as_game(f: SetFunction) -> Game:
    """Coerce a set function into a game, shifting it when necessary.

    Game-level oracles accept arbitrary set functions; a nonzero value at
    the empty coalition is removed by :func:`shift`, with a notice, which
    matches the extension of the game cones to all set functions.
    """
    if isinstance(f, Game):
        return f
    if f.numerators[0] != 0:
        _log("info", "set function does not vanish at the empty coalition; shifting")
    return shift(f)


def restrict(f: SetFunction, coalition: int) -> SetFunction:
    """The restriction of ``f`` to subsets of ``coalition`` (a subgame)."""
    f.players._check(coalition)
    if coalition == 0:
        raise ValueError("cannot restrict to the empty coalition")
    positions = _bit_positions(coalition)
    sub_players = Players(tuple(f.players.names[i] for i in positions))
    kind = Game if isinstance(f, Game) else SetFunction
    return kind._from_table(sub_players, [f.numerators[s] for s in relabelling(positions)], f.denominator)


def _bit_positions(mask: int) -> list[int]:
    """The players of a coalition, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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
    return SetFunction._from_table(f.players, [f.numerators[full ^ t] for t in f.players.coalitions()], f.denominator)


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
    return SetFunction(players, tuple(c + sum((pay[i] for i in _bit_positions(s)), Fraction(0)) for s in players.coalitions()))


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
    its values on the empty set and the singletons, so ``f`` is modular
    iff it agrees with the modular function those values give.
    """
    base = f.values[0]
    singles = [f.values[1 << i] - base for i in range(f.players.n)]
    return f.values == modular_from_payoffs(f.players, singles, base).values


def random_game(players: Players, rng: Random) -> Game:
    """A random rational game for property tests.

    Values have numerators uniform in [-20, 20] and denominators in
    {1, 2, 3}; the empty coalition is forced to zero.
    """
    values = [Fraction(0)]
    for _ in range((1 << players.n) - 1):
        values.append(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3))))
    return Game(players, tuple(values))


def random_exact_game(players: Players, rng: Random) -> Game:
    """The minimum of three random additive games with one common total.

    Each additive game gives every player an integer weight from 0 to 9,
    and one of its players, drawn at random, is then raised to reach
    the largest total.  Every such game is in the core of the minimum
    and is tight where it attains it, so the minimum is exact
    (Schmeidler, *Cores of exact games*, 1972); it is convex only by
    chance.
    """
    n = players.n
    weights = [[rng.randint(0, 9) for _ in range(n)] for _ in range(3)]
    total = max(map(sum, weights))
    for w in weights:
        w[rng.randrange(n)] += total - sum(w)
    return Game(
        players,
        tuple(Fraction(min(sum(w[i] for i in _bit_positions(s)) for w in weights)) for s in players.coalitions()),
    )


def _parse_value(raw: object, key: str) -> tuple[int, int]:
    """The value at coalition ``key`` as its numerator and positive
    denominator in lowest terms: a JSON integer, or a string of a decimal
    integer or a reduced ``p/q`` rational, read by one match of
    ``_VALUE_RE``; a match with no denominator is read by one ``int``."""
    match = isinstance(raw, str) and _VALUE_RE.match(raw)
    if match and match[2] is None:
        return int(raw), 1
    where = f"values[{key!r}]"
    if match:
        p, q = int(match[1]), int(match[2])
        if q == 0 or gcd(p, q) != 1:
            raise GameFormatError(f"{where}: {raw!r} is not a reduced rational with positive denominator")
        return p, q
    if isinstance(raw, bool):
        raise GameFormatError(f"{where}: boolean is not a rational value")
    if isinstance(raw, int):
        return raw, 1
    if isinstance(raw, str):
        raise GameFormatError(f"{where}: {raw!r} is not a decimal integer or p/q rational")
    raise GameFormatError(f"{where}: values must be integers or rational strings, got {type(raw).__name__}")


#: Bytes of a ``bytes`` document decoded at a time, at least.
_WINDOW = 1 << 16


def _unique_keys(error: type[ValueError], pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise error(f"repeated key {repeated!r} in a JSON object")
    return obj


class _Reader:
    """A JSON text read from its start, one value at a time: a catalogue,
    whose entries are read one at a time, and a game document that
    ``json.loads`` rejected, read again so that its first fault in reading
    order raises.  ``bytes`` are decoded as UTF-8 a window at a time, and
    the text already read is dropped when the next window is decoded.
    Malformed input, a repeated key or bytes that are not UTF-8 included,
    raises ``error`` with the message ``json.loads`` would give."""

    def __init__(self, data: Union[str, bytes], error: type[ValueError]) -> None:
        self.data, self.error = data, error
        self.text = data if isinstance(data, str) else ""
        self.decoded = len(self.text)  # the length of ``data`` read into ``text``: all of a str
        self.at = 0  # the read position in ``text``
        self.dropped = self.lines = self.line_start = 0  # characters and newlines dropped, and where text[0]'s line starts
        self.decoder = json.JSONDecoder(object_pairs_hook=partial(_unique_keys, error))

    def _more(self) -> bool:
        """Drop the text read and decode the next window of ``data``, at
        least as long as the text held, so a long value takes few windows,
        and at least 4 bytes, the longest UTF-8 character; False at the end
        of ``data``."""
        if self.decoded == len(self.data):
            return False
        end = min(len(self.data), self.decoded + max(_WINDOW, len(self.text), 4))
        try:
            chunk, used = codecs.utf_8_decode(memoryview(self.data)[self.decoded:end], "strict", end == len(self.data))
        except UnicodeDecodeError as exc:
            exc = UnicodeDecodeError("utf-8", self.data, self.decoded + exc.start, self.decoded + exc.end, exc.reason)
            raise self.error(f"invalid JSON: {exc}") from None
        newline = self.text.rfind("\n", 0, self.at)
        if newline >= 0:
            self.lines += self.text.count("\n", 0, self.at)
            self.line_start = self.dropped + newline + 1
        self.dropped += self.at
        self.text, self.at = self.text[self.at:] + chunk, 0
        self.decoded += used
        return True

    def _syntax(self, msg: str, pos: int) -> ValueError:
        """``error`` for a syntax error at ``text[pos]``, placed in the
        whole text as ``json.JSONDecodeError`` places it."""
        newline = self.text.rfind("\n", 0, pos)
        line = self.lines + self.text.count("\n", 0, pos) + 1
        at = self.dropped + pos
        column = at - (self.dropped + newline + 1 if newline >= 0 else self.line_start) + 1
        return self.error(f"invalid JSON: {msg}: line {line} column {column} (char {at})")

    def next_char(self) -> str:
        """The next character that is not whitespace, ``""`` at the end;
        the read position moves to it."""
        while True:
            self.at = WHITESPACE.match(self.text, self.at).end()
            if self.at < len(self.text) or not self._more():
                return self.text[self.at:self.at + 1]

    def value(self) -> object:
        """The JSON value at the read position, which moves past it.  A
        value the end of the held text may have cut is decoded again on a
        longer window: one ending fewer than 3 characters before it, as a
        number may go on (``1.``, ``1e+``); an error fewer than 9 characters
        before it, the length of ``-Infinity``; and an unterminated string,
        which strict decoding raises only at the end of the text."""
        while True:
            try:
                value, end = self.decoder.raw_decode(self.text, self.at)
            except json.JSONDecodeError as exc:
                cut = exc.pos + 9 >= len(self.text) or exc.msg.startswith("Unterminated string")
                if not (cut and self._more()):
                    raise self._syntax(exc.msg, exc.pos) from None
                continue
            if end + 3 <= len(self.text) or not self._more():
                self.at = end
                return value

    def members(self) -> Iterator[str]:
        """The keys of the top-level object, in order; after each, the
        read position is at its value, which the caller reads.  A document
        that is not an object raises."""
        char = self.next_char()
        if char != "{":
            if char == "\ufeff" and not self.dropped + self.at:
                raise self._syntax("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
            self.value()
            self.end()
            raise self.error("top level must be an object")
        self.at += 1
        char = self.next_char()
        if char == "}":
            self.at += 1
            return
        while True:
            if char != '"':
                raise self._syntax("Expecting property name enclosed in double quotes", self.at)
            key = self.value()
            if self.next_char() != ":":
                raise self._syntax("Expecting ':' delimiter", self.at)
            self.at += 1
            self.next_char()
            yield key
            char = self.next_char()
            if char not in (",", "}"):
                raise self._syntax("Expecting ',' delimiter", self.at)
            self.at += 1
            if char == "}":
                return
            char = self.next_char()

    def elements(self) -> Iterator[object]:
        """The elements of the list at the read position, one at a time."""
        self.at += 1
        if self.next_char() == "]":
            self.at += 1
            return
        while True:
            yield self.value()
            char = self.next_char()
            if char not in (",", "]"):
                raise self._syntax("Expecting ',' delimiter", self.at)
            self.at += 1
            if char == "]":
                return
            self.next_char()

    def end(self) -> None:
        """Nothing but whitespace may follow the document."""
        if self.next_char():
            raise self._syntax("Extra data", self.at)


def _read_document(data: Union[str, bytes], fields: tuple[str, ...], error: type[ValueError],
                   stop: Optional[str] = None) -> tuple[dict, Players]:
    """Open a JSON document whose top level is an object with exactly
    ``fields``, one of them ``players``.  Malformed input, a repeated key
    or bytes that are not UTF-8 included, raises ``error``.

    Without ``stop`` a valid document is decoded by ``json.loads``
    (:func:`_read_whole`).
    The value of the field ``stop`` must be a list, and ``doc[stop]`` is
    an iterator over its elements.  When ``stop`` follows every other
    field, the document is read only up to its value: the iterator decodes
    one element at a time and, after the last, reads and checks the rest
    of the document.  Otherwise the list is decoded whole, like any other
    field.
    """
    elements = None
    if stop is None:
        doc = _read_whole(data, fields, error)
    else:
        reader, doc = _Reader(data, error), {}
        elements = _read_members(reader, reader.members(), doc, fields, stop)
    names = doc["players"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise error("'players' must be a list of strings")
    try:
        players = Players(tuple(names))
    except ValueError as exc:
        raise error(f"'players': {exc}") from None
    if stop is not None:
        if elements is None:
            if not isinstance(doc[stop], list):
                raise error(f"{stop!r} must be a list")
            elements = iter(doc[stop])
        doc[stop] = elements
    return doc, players


def _read_whole(data: Union[str, bytes], fields: tuple[str, ...], error: type[ValueError]) -> dict:
    """The top-level object decoded by ``json.loads``, ``bytes`` first
    decoded as strict UTF-8, with its fields checked.  A document that
    raises there, or whose top level is not an object, is read again
    member by member by a :class:`_Reader`, where the first fault in
    reading order raises with the catalogue reader's message: one decode
    reports a repeated top-level key only once the whole object is read."""
    try:
        doc = json.loads(data if isinstance(data, str) else str(data, "utf-8"),
                         object_pairs_hook=partial(_unique_keys, error))
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        reader = _Reader(data, error)
        _read_members(reader, reader.members(), {}, fields)
        raise error("invalid JSON")
    _check_fields(doc, fields, error)
    return doc


def _read_members(reader: _Reader, members: Iterator[str], doc: dict, fields: tuple[str, ...],
                  stop: Optional[str] = None) -> Optional[Iterator]:
    """Read members into ``doc`` to the end of the document and check its
    fields, or stop before a list at ``stop`` that follows every other
    field and return its elements, which read the rest after the last."""
    for key in members:
        if key in doc:
            raise reader.error(f"repeated key {key!r} in a JSON object")
        if key == stop and doc.keys() == set(fields) - {stop} and reader.next_char() == "[":
            return _elements_then_rest(reader, members, dict.fromkeys([*doc, key]), fields)
        doc[key] = reader.value()
    reader.end()
    _check_fields(doc, fields, reader.error)
    return None


def _check_fields(doc: dict, fields: tuple[str, ...], error: type[ValueError]) -> None:
    missing = [f for f in fields if f not in doc]
    if missing:
        raise error(f"missing required field {missing[0]!r}")
    if len(doc) != len(fields):
        raise error(f"top-level fields must be {', '.join(fields)}, not {', '.join(doc)}")


def _elements_then_rest(reader: _Reader, members: Iterator[str], seen: dict, fields: tuple[str, ...]) -> Iterator:
    """The elements of the list at the read position, then the rest of
    the document read into ``seen``, the fields read before it."""
    yield from reader.elements()
    _read_members(reader, members, seen, fields)


def game_from_json(text: Union[str, bytes]) -> Game:
    """Parse the bit-exact game JSON format.

    The document carries the ordered player list and one value for every
    one of the ``2**n`` coalition keys, written as decimal integers or
    reduced ``p/q`` strings.  A valid document is decoded by one
    ``json.loads``; a faulty one is read again by the catalogue reader,
    so both formats fail with one message (:func:`_read_whole`).  The
    keys are compared with the players' once.  When every value is a
    string, one match of ``_INTEGERS_RE`` over the values joined by
    ``,`` tells whether all are decimal integers, and one ``map(int,
    ...)`` reads them; otherwise each value is read by
    :func:`_parse_value`.  Either way the values go straight into
    integers: the game is built from its integer table, and no
    ``Fraction`` is made.  Of several faults, an unknown key is
    reported first, then the first missing key or bad value in
    coalition order.
    """
    doc, players = _read_document(text, ("players", "values"), GameFormatError)
    raw_values = doc["values"]
    if not isinstance(raw_values, dict):
        raise GameFormatError("'values' must be an object keyed by coalitions")
    coalitions = players._coalitions  # key -> coalition, in coalition order
    if raw_values.keys() != coalitions.keys():
        unknown = raw_values.keys() - coalitions.keys()
        if unknown:
            raise GameFormatError(f"unknown coalition key {sorted(unknown)[0]!r}")
        for key in coalitions:
            if key not in raw_values:
                raise GameFormatError(f"missing coalition key {key!r}")
            _parse_value(raw_values[key], key)
    raws = list(map(raw_values.__getitem__, coalitions))
    try:
        joined = ",".join(raws)
    except TypeError:  # a value that is not a string
        joined = ""
    # the join's only commas are its own, so each value matched is a decimal integer
    if _INTEGERS_RE.match(joined) and joined.count(",") == len(raws) - 1:
        numerators, den = list(map(int, raws)), 1
    else:
        pairs = [_parse_value(raw, key) for raw, key in zip(raws, coalitions)]
        den = lcm(*{q for _, q in pairs})
        numerators = [p * (den // q) for p, q in pairs]
    if numerators[0] != 0:
        raise GameFormatError("the empty coalition must have value 0")
    return Game._from_table(players, numerators, den)


def game_to_json(game: SetFunction) -> str:
    """Serialize a game (or set function) in the bit-exact JSON format."""
    payload = {
        "players": list(game.players.names),
        "values": {game.players.key(s): str(game.values[s]) for s in game.players.coalitions()},
    }
    return json.dumps(payload, indent=2)
