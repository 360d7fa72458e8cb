"""Facet-inequality catalogues of the game cones.

Three catalogues are generated from min-balanced systems:

* ``balanced``: all non-trivial min-balanced systems on the full player
  set (one facet inequality each);
* ``totally-balanced``: all non-trivial irreducible systems on every
  carrier with at least two players;
* ``exact-conjecture``: the irreducible systems with proper carrier plus
  the conjugate of each of their inequalities.  This list is the
  conjectured facet description of the exact cone and is labeled as a
  conjecture in every output.

Entries are identified by their full coefficient vector, ordered
canonically, typed on the first players of their carrier size, and
serialized to a bit-exact JSON format or a per-type text listing.
``generate`` is the only builder of entries, and a type is the entry of
its lex-least system.  ``minbal enumerate`` lists systems through its
carrier loop, system JSON renderer and list streamer.  ``_pieces``
renders a catalogue in either format: ``serialize`` joins the pieces,
``minbal catalogue`` writes them as they are rendered.  A catalogue is
a fixed function of its players and cone, so ``parse`` regenerates it
and compares the file with its rendering, byte for byte and, only when
the bytes differ, as JSON values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from json.encoder import encode_basestring
from math import comb
from typing import Callable, Iterator, Optional, Union

from .balance import (
    ENUM_PLAYER_CAP,
    InequalityVector,
    MinBalancedSystem,
    SetSystem,
    _enumerate_size,
    _expand,
    _orbit,
    _renamed,
    canonical_type,
    complement_system,
    enumerate_min_balanced,  # not called here: perfbench/spans.py wraps it at this lookup site
    is_min_balanced,  # not called here: perfbench/spans.py wraps it at this lookup site
)
from .cones import conjugate
from .games import Players, _read_document
from .reduction import is_reducible
from .reference import BALANCED_COUNTS, EXACT_FACET_COUNTS, TOTALLY_BALANCED_COUNTS


class ConeKind(Enum):
    BALANCED = "balanced"
    TOTALLY_BALANCED = "totally-balanced"
    EXACT_CONJECTURE = "exact-conjecture"


class CatalogueFormatError(ValueError):
    """Raised when a serialized catalogue is malformed."""


@dataclass(frozen=True)
class CatalogueEntry:
    """One facet inequality with its generating min-balanced system.

    For conjugated entries (exact-conjecture catalogue only) ``mbs`` is
    the generating system with proper carrier and ``alpha`` is the
    reflected coefficient vector; otherwise ``alpha`` is the system's own
    normalized vector.
    """

    mbs: MinBalancedSystem
    alpha: InequalityVector
    irreducible: bool
    conjugated: bool
    type_id: str
    orbit_size: int
    complement_type_id: Optional[str] = None


@dataclass(frozen=True)
class Catalogue:
    """A cone's facet inequalities, ``entries``, and its ``types``: the
    first entry of each type id, in ``exact-conjecture`` each followed by
    its conjugate's.  A type's multiplicity is its ``orbit_size``."""

    players: Players
    cone: ConeKind
    entries: tuple[CatalogueEntry, ...]
    types: tuple[CatalogueEntry, ...]

    @property
    def conjecture(self) -> bool:
        return self.cone is ConeKind.EXACT_CONJECTURE

    def type_table(self) -> dict[str, CatalogueEntry]:
        return {t.type_id: t for t in self.types}


#: (entries, types) per player count that ``parse`` requires of each cone.
_RECORDED_COUNTS = {
    ConeKind.BALANCED: BALANCED_COUNTS,
    ConeKind.TOTALLY_BALANCED: TOTALLY_BALANCED_COUNTS,
    ConeKind.EXACT_CONJECTURE: {n: c for n, c in EXACT_FACET_COUNTS.items() if n >= 3},
}


def _type_id(players: Players, system: SetSystem) -> str:
    """Type id of a system; its conjugate's id adds ``~``."""
    return "|".join(players.key(m) for m in canonical_type(system, players)[0].members)


def _types_on(players: Players, c: int) -> list[tuple[tuple, CatalogueEntry]]:
    """Each type of non-trivial min-balanced system on the first ``c``
    players, in canonical order: the relabelling tables of its orbit,
    ready for ``_expand``, and the entry of its lex-least system.  That
    entry holds what is found from the system alone, as relabelling the
    players commutes with all of it: its irreducibility, type id and orbit
    size, with no conjugate and no complement.  Type ids join coalition
    keys with ``|``, so a player name containing one is rejected."""
    if players.n > ENUM_PLAYER_CAP:
        raise ValueError(f"enumeration is capped at {ENUM_PLAYER_CAP} players")
    for name in players.names:
        if "|" in name:
            raise ValueError(f"player name {name!r} contains '|', which separates the coalitions of a type id")
    types = []
    for mbs in _enumerate_size(c):
        orbit = _orbit(mbs.system.members, c)
        type_id = "|".join(map(players.key, mbs.system.members))
        types.append((tuple(orbit.values()), CatalogueEntry(mbs, mbs.alpha, is_reducible(mbs) is None, False, type_id, len(orbit) * comb(players.n, c))))
    return types


def generate(players: Players, cone: Union[ConeKind, str]) -> Catalogue:
    """Generate the facet catalogue of a cone.

    Deterministic: each type of each carrier size c is classified once, on
    the first c players; only admitted orbits are expanded onto carriers.
    In ``balanced`` the complement of each type's lex-least system is
    classified, once per type.  Types are listed by size, then in search
    order, each with the entry of its lex-least system, then in
    ``exact-conjecture`` its conjugate.
    """
    cone = ConeKind(cone)
    n = players.n
    if not 2 <= n <= ENUM_PLAYER_CAP:
        raise ValueError(f"catalogue generation needs between 2 and {ENUM_PLAYER_CAP} players")
    if cone is ConeKind.EXACT_CONJECTURE and n < 3:
        raise ValueError("the exact-cone conjecture catalogue needs at least 3 players")
    sizes = {ConeKind.BALANCED: [n], ConeKind.TOTALLY_BALANCED: range(2, n + 1),
             ConeKind.EXACT_CONJECTURE: range(2, n)}[cone]
    balanced = cone is ConeKind.BALANCED  # the one cone admitting reducible systems
    admitted = {c: [(tables, rep) for tables, rep in _types_on(players, c) if balanced or rep.irreducible] for c in sizes}
    if balanced:
        admitted[n] = [(tables, replace(rep, complement_type_id=_type_id(players, complement_system(rep.mbs.system, players))))
                       for tables, rep in admitted[n]]
    types = tuple(e for on_size in admitted.values() for _, rep in on_size for e in _entries_of(players, cone, rep.mbs, rep))
    entries = tuple(e for mbs, rep in _carrier_systems(players, admitted) for e in _entries_of(players, cone, mbs, rep))
    if len({e.alpha.items for e in entries}) != len(entries):
        raise RuntimeError("catalogue entries collide as coefficient vectors")
    return Catalogue(players, cone, entries, types)


def _carrier_systems(players: Players, admitted: dict[int, list]) -> Iterator[tuple[MinBalancedSystem, CatalogueEntry]]:
    """The systems of the ``_types_on`` types admitted for each carrier
    size on every carrier of that size, in increasing bitmask order, each
    with the entry of its type's lex-least system."""
    first = {c: _expand((rep.mbs, tables, rep) for tables, rep in types) for c, types in admitted.items()}
    for m in range(players.full_mask + 1):
        if m.bit_count() in first:
            yield from _renamed(first[m.bit_count()], m)


def _entries_of(players: Players, cone: ConeKind, mbs: MinBalancedSystem, rep: CatalogueEntry) -> tuple[CatalogueEntry, ...]:
    """An admitted system's entry, with the fields of its type copied from
    ``rep``, followed in ``exact-conjecture`` by its conjugate.  Its one
    caller is ``generate``."""
    entry = CatalogueEntry(mbs, mbs.alpha, rep.irreducible, False, rep.type_id, rep.orbit_size, rep.complement_type_id)
    if cone is not ConeKind.EXACT_CONJECTURE:
        return (entry,)
    return entry, CatalogueEntry(mbs, conjugate(mbs.alpha, players), rep.irreducible, True, "~" + rep.type_id, rep.orbit_size)


# -- rendering -----------------------------------------------------------

def render_inequality(alpha: InequalityVector, players: Players) -> str:
    """One-line rendering of the inequality  <alpha, m> >= 0.

    The positive term of largest cardinality leads; the negative terms
    follow sorted by cardinality then bitmask, and the remaining positive
    term closes the line.
    """
    positives = [(s, c) for s, c in alpha.items if c > 0]
    negatives = [(s, c) for s, c in alpha.items if c < 0]
    if not positives:
        raise ValueError("cannot render a vector without positive coefficients")
    head = max(positives, key=lambda it: (it[0].bit_count(), it[0]))
    tail = sorted((it for it in positives if it != head), key=lambda it: (it[0].bit_count(), it[0]))
    body = sorted(negatives, key=lambda it: (it[0].bit_count(), it[0]))

    def term(s: int, c: int) -> str:
        key = players.key(s) or "∅"
        mag = abs(c)
        return f"m({key})" if mag == 1 else f"{mag}·m({key})"

    parts = [term(*head)]
    for s, c in body + tail:
        parts.append(("− " if c < 0 else "+ ") + term(s, c))
    return " ".join(parts) + " ≥ 0"


def induced_system(alpha: InequalityVector) -> SetSystem:
    """The set system read off an inequality: its negative support."""
    return SetSystem(alpha.negative_support)


def _render_system(players: Players, system: SetSystem) -> str:
    return "{" + ", ".join(players.key(m) for m in system.members) + "}"


def _text_lines(catalogue: Catalogue) -> list[str]:
    players = catalogue.players
    lines = [
        "# minbal catalogue",
        f"# players: {' '.join(players.names)}",
        f"# cone: {catalogue.cone.value}",
        f"# conjecture: {'yes' if catalogue.conjecture else 'no'}",
        f"# entries: {len(catalogue.entries)}  types: {len(catalogue.types)}",
    ]
    numbers = {t.type_id: i + 1 for i, t in enumerate(catalogue.types)}
    for i, t in enumerate(catalogue.types, start=1):
        notes = []
        if t.complement_type_id is not None:
            if t.complement_type_id == t.type_id:
                notes.append("self-complementary")
            else:
                notes.append(f"complementary type {numbers[t.complement_type_id]}.")
        if catalogue.conjecture:  # a type and its conjugate are neighbours
            notes.append(f"conjugate type {i - 1 if t.conjugated else i + 1}.")
        if t.irreducible and not t.conjugated:
            notes.append("irreducible")
        lines += _type_lines(players, i, t.alpha, t.orbit_size, notes)
    return lines


def _type_lines(players: Players, number: int, alpha: InequalityVector, count: int, notes: list[str]) -> tuple[str, str]:
    """A type's two lines in a text listing: its number, the system its
    inequality induces, its count and notes, then the inequality."""
    note = ("   " + ", ".join(notes)) if notes else ""
    return (f"{number}. {_render_system(players, induced_system(alpha))}   {count}x{note}",
            f"   {render_inequality(alpha, players)}")


# -- serialization -------------------------------------------------------

def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Rendered items as ``json.dumps(indent=2)`` writes a list, or an object with ``"{}"``, at ``pad``."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _json_list(items: Iterator[str], pad: str) -> Iterator[str]:
    """``_json_block`` of a list in pieces, for items rendered one at a
    time: ``[`` with the first item, each further item, ``]``."""
    inner = "\n" + pad + "  "
    sep = "[" + inner
    for item in items:
        yield sep + item
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + pad + "]"


def _system_fields(players: Players, pad: str) -> Callable[[MinBalancedSystem], list[str]]:
    """A renderer of a system's ``system``, ``carrier``, ``weights`` and
    ``k`` fields as ``json.dumps(indent=2)`` writes them in an object
    whose fields sit at ``pad``; every coalition's key and name list is
    rendered once, here."""
    keys = [encode_basestring(players.key(m)) for m in players.coalitions()]
    names = [[encode_basestring(name) for name in players.member_names(m)] for m in players.coalitions()]
    members = [_json_block(member, pad + "  ") for member in names]
    carriers = [_json_block(member, pad) for member in names]

    def fields(mbs: MinBalancedSystem) -> list[str]:
        return [
            '"system": ' + _json_block([members[m] for m in mbs.system.members], pad),
            '"carrier": ' + carriers[mbs.carrier],
            '"weights": ' + _json_block([f'{keys[m]}: "{w}"' for m, w in zip(mbs.system.members, mbs.weights)], pad, "{}"),
            f'"k": {mbs.k}',
        ]

    return fields


def _json_entries(catalogue: Catalogue) -> Iterator[str]:
    """Each entry as ``serialize`` writes it in the ``entries`` list."""
    players = catalogue.players
    keys = [encode_basestring(players.key(m)) for m in players.coalitions()]
    system_fields = _system_fields(players, " " * 6)
    for e in catalogue.entries:
        fields = system_fields(e.mbs) + [
            '"alpha": ' + _json_block([f"{keys[s]}: {c}" for s, c in e.alpha.items], " " * 6, "{}"),
            '"irreducible": ' + str(e.irreducible).lower(),
            '"conjugated": ' + str(e.conjugated).lower(),
            '"type_id": ' + encode_basestring(e.type_id),
            f'"orbit_size": {e.orbit_size}',
        ]
        if e.complement_type_id is not None:
            fields.append('"complement_type": ' + encode_basestring(e.complement_type_id))
        yield _json_block(fields, " " * 4, "{}")


def _pieces(catalogue: Catalogue, format: str) -> Iterator[str]:
    """The text of a catalogue in ``format`` in pieces: in ``text`` its
    lines; in ``json`` the header, the ``_json_list`` pieces of the
    entries, about one entry each, and the closing brace."""
    if format == "text":
        yield from (line + "\n" for line in _text_lines(catalogue))
        return
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    yield (
        '{\n  "players": ' + _json_block([encode_basestring(name) for name in catalogue.players.names], "  ")
        + ',\n  "cone": ' + encode_basestring(catalogue.cone.value)
        + ',\n  "conjecture": ' + str(catalogue.conjecture).lower()
        + ',\n  "entries": '
    )
    yield from _json_list(_json_entries(catalogue), "  ")
    yield "\n}\n"


def serialize(catalogue: Catalogue, format: str = "json") -> bytes:
    """Serialize a catalogue; ``parse`` inverts the JSON format bit-exactly.

    The JSON bytes are ``json.dumps(indent=2, ensure_ascii=False)`` of an
    object with the players, cone, conjecture flag and entries, each entry
    an object of the fields ``system``, ``carrier``, ``weights``, ``k``,
    ``alpha``, ``irreducible``, ``conjugated``, ``type_id``,
    ``orbit_size`` and, in ``balanced``, ``complement_type``.  Either
    format is the UTF-8 of the ``_pieces``, which ``minbal catalogue``
    writes one at a time instead."""
    return b"".join(piece.encode("utf-8") for piece in _pieces(catalogue, format))


def _first_difference(expected: dict, raw) -> Optional[str]:
    """The first field in which ``raw`` differs from ``expected`` as JSON."""
    if json.dumps(raw) == json.dumps(expected):
        return None
    if not isinstance(raw, dict):
        return "the entry"
    for key in [*expected, *raw]:
        if key not in raw or key not in expected or json.dumps(raw[key]) != json.dumps(expected[key]):
            return key
    return "the field order"


def _is_rendering(data: Union[bytes, str], chunks: Iterator[str]) -> bool:
    """Whether ``data`` is the concatenation of ``chunks``, UTF-8 encoded
    unless ``data`` is a ``str``; no slice of ``data`` is copied."""
    at = 0
    for chunk in chunks:
        piece = chunk if isinstance(data, str) else chunk.encode("utf-8")
        if not data.startswith(piece, at):
            return False
        at += len(piece)
    return at == len(data)


def parse(data: Union[bytes, str]) -> Catalogue:
    """Parse a JSON catalogue by regenerating it and comparing the file.

    The header is read from the text before ``entries``, and
    ``generate(players, cone)`` is rendered.  A file with exactly the
    bytes of ``serialize`` (or, given as ``str``, its text) is accepted
    on that comparison alone, with no entry decoded.  Any other file has
    its entries decoded one at a time, and entry i must equal entry i of
    the catalogue as JSON, field for field; the first difference is named.
    A player count and cone with no count in ``minbal.reference`` are
    rejected before anything is generated and before any entry is read; a
    player name containing ``|`` is rejected when ``generate`` rejects it.
    """
    doc, players = _read_document(data, ("players", "cone", "conjecture", "entries"), CatalogueFormatError, stop="entries")
    try:
        cone = ConeKind(doc["cone"])
    except ValueError as exc:
        raise CatalogueFormatError(str(exc)) from None
    if doc["conjecture"] is not (cone is ConeKind.EXACT_CONJECTURE):  # a JSON boolean, not 0 or 1
        raise CatalogueFormatError(f"'conjecture' must be {json.dumps(cone is ConeKind.EXACT_CONJECTURE)} for a {cone.value} catalogue")
    recorded = _RECORDED_COUNTS[cone].get(players.n)
    if recorded is None:
        raise CatalogueFormatError(f"no entry and type counts are recorded for a {players.n}-player {cone.value} catalogue")
    try:
        catalogue = generate(players, cone)
    except ValueError as exc:  # a player name that type ids cannot hold
        raise CatalogueFormatError(str(exc)) from None
    size, types = len(catalogue.entries), len(catalogue.types)
    if (size, types) != recorded:  # a fault of generate, not of the file
        raise RuntimeError(f"generated {size} entries in {types} types, but {recorded[0]} in {recorded[1]} are recorded")
    if _is_rendering(data, _pieces(catalogue, "json")):
        return catalogue
    name = f"the {players.n}-player {cone.value} catalogue"
    blocks = _json_entries(catalogue)
    read = 0
    for raw in doc["entries"]:  # after the last entry, the rest of the document is read
        block = next(blocks, None)
        if block is None:
            raise CatalogueFormatError(f"entries[{size}]: beyond the {size} entries of {name}")
        field = _first_difference(json.loads(block), raw)
        if field is not None:
            raise CatalogueFormatError(f"entries[{read}]: {field} differs from entry {read} of {name}, which has {size} entries in {types} types")
        read += 1
    if read < size:
        raise CatalogueFormatError(f"entries[{read}]: missing; {name} has {size} entries in {types} types")
    return catalogue
