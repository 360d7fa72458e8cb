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
A catalogue is a fixed function of its players and cone, and a
``Catalogue`` is that pair; it finds its types one carrier size at a
time, when first needed, and ``generate`` finds them all.  Every entry
is an image of its type: ``_on_carriers`` walks the carriers in
increasing bitmask order with the images of the types
(``balance._images``), and each entry is rendered from its carrier's
coalition texts and its type's texts, with one ``"".join`` per entry
(a conjugate shares its entry's head), so writing and parsing build no
object per entry; ``Catalogue.entries`` builds them on first access.
``minbal enumerate`` lists systems through the same walk.  ``_pieces``
renders a catalogue in either format: ``serialize`` joins the pieces,
``minbal catalogue`` writes them in blocks of about 64 KB as they are
rendered (``cli._write``).  ``parse``
compares the file with the rendering piece by piece, byte for byte
and, only when the bytes differ, as JSON values; the rendering stops at
the first difference.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring
from math import comb
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence, Union

from ._frozen import Frozen
from .balance import (
    ENUM_PLAYER_CAP,
    InequalityVector,
    MinBalancedSystem,
    SetSystem,
    _enumerate_size,
    _image_system,
    _images,
    _member_values,
    _orbit_sizes,
    canonical_type,
    complement_system,
    enumerate_min_balanced,  # not called here: perfbench/spans.py wraps it at this lookup site
    is_min_balanced,  # not called here: perfbench/spans.py wraps it at this lookup site
)
from .cones import conjugate
from .games import Players, _bit_positions, _read_document, relabelling
from .reduction import is_reducible  # not called here: perfbench/spans.py wraps it at this lookup site
from .reference import BALANCED_COUNTS, EXACT_FACET_COUNTS, TOTALLY_BALANCED_COUNTS


class ConeKind(Enum):
    BALANCED = "balanced"
    TOTALLY_BALANCED = "totally-balanced"
    EXACT_CONJECTURE = "exact-conjecture"


class CatalogueFormatError(ValueError):
    """Raised when a serialized catalogue is malformed."""


class CatalogueEntry(Frozen):
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


class Catalogue(Frozen):
    """The facet catalogue of a cone on a player set.  Its ``types`` are
    the entry of each type's lex-least system, on the first players, in
    ``exact-conjecture`` each followed by its conjugate's.  They are found
    one carrier size at a time, when first needed (``_types_of``), and
    their counts are checked against ``minbal.reference`` once every size
    is searched.  A type's
    entries are the images of its system on every carrier of its size,
    ``orbit_size`` of them; ``entries`` lists them all, in catalogue
    order, and is built on first access."""

    players: Players
    cone: ConeKind

    def __init__(self, players: Players, cone: Union[ConeKind, str]) -> None:
        """Accept the cone by name, and reject player sets with no
        catalogue: type ids join coalition keys with ``|``, so a player
        name containing one is rejected."""
        super().__init__(players, ConeKind(cone))
        self.__dict__["_searched"] = {}  # the types of each size searched so far, by size (``_search``)
        if not 2 <= self.players.n <= ENUM_PLAYER_CAP:
            raise ValueError(f"catalogue generation needs between 2 and {ENUM_PLAYER_CAP} players")
        if self.conjecture and self.players.n < 3:
            raise ValueError("the exact-cone conjecture catalogue needs at least 3 players")
        for name in self.players.names:
            if "|" in name:
                raise ValueError(f"player name {name!r} contains '|', which separates the coalitions of a type id")

    @property
    def conjecture(self) -> bool:
        return self.cone is ConeKind.EXACT_CONJECTURE

    @property
    def sizes(self) -> range:
        """The carrier sizes of the entries."""
        n = self.players.n
        return range(n if self.cone is ConeKind.BALANCED else 2, n if self.conjecture else n + 1)

    @property
    def size(self) -> int:
        """The number of entries: the orbit sizes of the types summed."""
        return sum(t.orbit_size for t in self.types)

    @cached_property
    def types(self) -> tuple[CatalogueEntry, ...]:
        """Every type, size by size; their counts must be the recorded
        ones, or the search is at fault."""
        types = self._found()
        size, recorded = sum(t.orbit_size for t in types), _RECORDED_COUNTS[self.cone][self.players.n]
        if (size, len(types)) != recorded:
            raise RuntimeError(f"generated {size} entries in {len(types)} types, but {recorded[0]} in {recorded[1]} are recorded")
        return types

    def _found(self) -> tuple[CatalogueEntry, ...]:
        """Every type, size by size, as the search finds them, with no
        count checked."""
        return tuple(t for c in self.sizes for pair in self._search(c) for t in pair if t is not None)

    def _types_of(self, c: int) -> list[tuple[CatalogueEntry, Optional[CatalogueEntry]]]:
        """``_search(c)``, with the counts checked (``types``) once every
        size is searched."""
        pairs = self._search(c)
        if len(self._searched) == len(self.sizes):
            self.types
        return pairs

    def _search(self, c: int) -> list[tuple[CatalogueEntry, Optional[CatalogueEntry]]]:
        """The types the cone admits on ``c`` players, in search order,
        each paired with its conjugate in ``exact-conjecture``, else with
        ``None``, classified on the first ``c`` players on the first call;
        in ``balanced`` each type's complement is classified too."""
        if c not in self._searched:
            players, reps = self.players, _types_on(self.players, c)
            if self.cone is ConeKind.BALANCED:  # the one cone admitting reducible systems
                pairs = [(CatalogueEntry(rep.mbs, rep.alpha, rep.irreducible, rep.conjugated, rep.type_id, rep.orbit_size,
                                         _type_id(players, complement_system(rep.mbs.system, players))), None) for rep in reps]
            else:
                pairs = [(rep, CatalogueEntry(rep.mbs, conjugate(rep.alpha, players), rep.irreducible, True, "~" + rep.type_id, rep.orbit_size)
                          if self.conjecture else None)
                         for rep in reps if rep.irreducible]
            self._searched[c] = pairs
        return self._searched[c]

    @cached_property
    def entries(self) -> tuple[CatalogueEntry, ...]:
        return tuple(_entries(self))

    def type_table(self) -> dict[str, CatalogueEntry]:
        return {t.type_id: t for t in self.types}


#: (entries, types) per player count of each cone's catalogue.
_RECORDED_COUNTS = {
    ConeKind.BALANCED: BALANCED_COUNTS,
    ConeKind.TOTALLY_BALANCED: TOTALLY_BALANCED_COUNTS,
    ConeKind.EXACT_CONJECTURE: {n: c for n, c in EXACT_FACET_COUNTS.items() if n >= 3},
}


def _type_id(players: Players, system: SetSystem) -> str:
    """Type id of a system; its conjugate's id adds ``~``."""
    return "|".join(players.key(m) for m in canonical_type(system, players)[0].members)


def _types_on(players: Players, c: int) -> list[CatalogueEntry]:
    """Each type of non-trivial min-balanced system on the first ``c``
    players, in canonical order, as the entry of its lex-least system.
    That entry holds what is found from the system alone, as relabelling
    the players commutes with all of it: its irreducibility, type id and
    orbit size, with no conjugate and no complement."""
    if players.n > ENUM_PLAYER_CAP:
        raise ValueError(f"enumeration is capped at {ENUM_PLAYER_CAP} players")
    return [CatalogueEntry(mbs, mbs.alpha, irreducible, False, "|".join(map(players.key, mbs.system.members)), size * comb(players.n, c))
            for mbs, irreducible, size in zip(*_enumerate_size(c), _orbit_sizes(c))]


def generate(players: Players, cone: Union[ConeKind, str]) -> Catalogue:
    """Generate the facet catalogue of a cone: ``Catalogue(players,
    cone)`` with every carrier size searched and its counts checked.

    Deterministic: each type of each carrier size c is classified once, on
    the first c players, and nothing is expanded.  Types are listed by
    size, then in search order, each with the entry of its lex-least
    system, then in ``exact-conjecture`` its conjugate.
    """
    catalogue = Catalogue(players, cone)
    catalogue.types  # search every size and check the counts
    return catalogue


# -- entries, carrier by carrier -------------------------------------------

def _on_carriers(players: Players, sizes: Container[int], types: Callable[[int], list[tuple]]) -> Iterator[tuple[int, list[int], Iterable[tuple]]]:
    """Each carrier of a size in ``sizes``, in increasing bitmask order,
    with its order-keeping renaming of the first c players and the
    ``_images`` of ``types(c)``, each type given as ``_images`` takes it.
    A size's images are listed when the walk reaches its first carrier,
    once for all its carriers; those of the full player set, which has
    one, are drawn as they are used."""
    images: dict[int, Iterable[tuple]] = {}
    for carrier in range(players.full_mask + 1):
        if (c := carrier.bit_count()) in sizes:
            if c not in images:
                images[c] = _images(types(c), c) if c == players.n else list(_images(types(c), c))
            yield carrier, relabelling(_bit_positions(carrier)), images[c]


def _entries(catalogue: Catalogue) -> Iterator[CatalogueEntry]:
    """``Catalogue.entries``: each image of each type on each carrier of
    its size, with its type's fields, followed in ``exact-conjecture`` by
    its conjugate."""
    def types(c: int) -> list[tuple]:
        return [(t.mbs.system.members, _member_values(t.mbs), (t, twin)) for t, twin in catalogue._types_of(c)]

    def entry(t: CatalogueEntry, mbs: MinBalancedSystem, alpha: InequalityVector) -> CatalogueEntry:
        return CatalogueEntry(mbs, alpha, t.irreducible, t.conjugated, t.type_id, t.orbit_size, t.complement_type_id)

    for _, table, images in _on_carriers(catalogue.players, catalogue.sizes, types):
        for image, values, (t, twin) in images:
            mbs = _image_system(table, image, values, t.mbs)
            yield entry(t, mbs, mbs.alpha)
            if twin is not None:
                yield entry(twin, mbs, conjugate(mbs.alpha, catalogue.players))


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
        f"# entries: {catalogue.size}  types: {len(catalogue.types)}",
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

def _json_list(items: Iterable[str], pad: str, brackets: str = "[]") -> Iterator[str]:
    """Rendered items as ``json.dumps(indent=2)`` writes a list, or an
    object with ``"{}"``, at ``pad``, in pieces for items rendered one at
    a time: the opening bracket with the first item, each further item,
    the closing bracket."""
    inner = "\n" + pad + "  "
    sep = brackets[0] + inner
    for item in items:
        yield sep + item
        sep = "," + inner
    yield brackets if sep[0] == brackets[0] else "\n" + pad + brackets[1]


def _json_block(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    return "".join(_json_list(items, pad, brackets))


def _system_json(players: Players, pad: str) -> Callable[[int, list[int]], Callable[[tuple[int, ...], Sequence[tuple[str, ...]], int], list[str]]]:
    """A renderer, for a carrier and its order-keeping renaming ``table``,
    of the images on the first c players renamed onto it: given an image's
    members, a tuple per member whose first item is its weight as a
    ``: "w"`` text, and its ``k``, its ``system``, ``carrier``,
    ``weights`` and ``k`` fields as ``json.dumps(indent=2)`` writes them
    in an object whose fields sit at ``pad``.  Every coalition's key and
    name list is rendered once, here.  The fields come as a list of
    texts, for the caller to join with the rest of its item."""
    keys = _json_keys(players)
    names = [[encode_basestring(name) for name in players.member_names(m)] for m in players.coalitions()]
    members = [_json_block(member, pad + "  ") for member in names]
    first = "\n" + pad + "  "
    inner, opening = "," + first, f'"system": [{first}'

    def on(carrier: int, table: list[int]) -> Callable[[tuple[int, ...], Sequence[tuple[str, ...]], int], list[str]]:
        listed, named = [members[s] for s in table], [keys[s] for s in table]
        middle = f"\n{pad}],\n{pad}\"carrier\": {_json_block(names[carrier], pad)},\n{pad}\"weights\": {{{first}"
        last = f"\n{pad}}},\n{pad}\"k\": "

        def fields(image: tuple[int, ...], values: Sequence[tuple[str, ...]], k: int) -> list[str]:
            return [opening, inner.join([listed[m] for m in image]), middle,
                    inner.join([named[m] + v[0] for m, v in zip(image, values)]), last, str(k)]

        return fields

    return on


def _json_keys(players: Players) -> list[str]:
    """Each coalition's key as a JSON string."""
    return list(map(encode_basestring, players._keys))


def _json_entries(catalogue: Catalogue) -> Iterator[str]:
    """Each entry as ``serialize`` writes it in the ``entries`` list,
    rendered carrier by carrier from the texts of its carrier's
    coalitions, its image's weights and coefficients and its type's
    fields, each rendered once, and joined with one ``"".join``.  A
    conjugate shares its entry's system fields, the head of its join; its
    ``alpha`` has the complemented keys in reverse order."""
    players, full = catalogue.players, catalogue.players.full_mask
    keys = _json_keys(players)
    system_json = _system_json(players, " " * 6)
    first = "\n" + " " * 8
    inner, alpha_open = "," + first, ',\n      "alpha": {' + first

    def tail(t: CatalogueEntry) -> str:
        """The end of the type's ``alpha`` object and the fields after it."""
        fields = ['"irreducible": ' + str(t.irreducible).lower(), '"conjugated": ' + str(t.conjugated).lower(),
                  '"type_id": ' + encode_basestring(t.type_id), f'"orbit_size": {t.orbit_size}']
        if t.complement_type_id is not None:
            fields.append('"complement_type": ' + encode_basestring(t.complement_type_id))
        return "\n      }" + "".join(",\n      " + field for field in fields) + "\n    }"

    def texts(c: int) -> list[tuple]:
        """Each type of size ``c`` with its members, the weight and
        coefficient texts of each, and its ``k``, its coefficients on the
        carrier and on the empty set as texts, and its own and its
        conjugate's ``tail``."""
        return [(t.mbs.system.members, tuple((f': "{w}"', f": {a}") for w, a in _member_values(t.mbs)),
                 (t.mbs.k, f": {t.mbs.k}", f": {t.alpha.items[0][1]}", tail(t), twin and tail(twin))) for t, twin in catalogue._types_of(c)]

    for carrier, table, images in _on_carriers(players, catalogue.sizes, texts):
        fields = system_json(carrier, table)
        named, opposite = [keys[s] for s in table], [keys[full ^ s] for s in table]
        for image, values, (k, on_carrier, on_empty, plain, twin) in images:
            head = ["{\n      ", *fields(image, values, k), alpha_open]
            alpha = inner.join([named[m] + a for m, (_, a) in zip(image, values)])
            yield "".join([*head, keys[0], on_empty, inner, alpha, inner, keys[carrier], on_carrier, plain])
            if twin is not None:
                reflected = inner.join([opposite[m] + a for m, (_, a) in zip(image[::-1], values[::-1])])
                yield "".join([*head, opposite[-1], on_carrier, inner, reflected, inner, keys[full], on_empty, twin])


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
    writes a block at a time instead."""
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
    """Parse a JSON catalogue by rendering ``Catalogue(players, cone)``
    and comparing the file.

    The header is read from the text before ``entries``.  The catalogue
    is rendered one piece at a time, each carrier size searched when the
    rendering first reaches it, and the rendering stops at the first piece
    the file differs from.  A file with exactly the bytes of ``serialize`` (or, given
    as ``str``, its text) is accepted on that comparison alone, with no
    entry decoded.  Any other file has its entries decoded one at a time,
    and entry i must equal entry i of the catalogue as JSON, field for
    field; the first difference is named, and no later entry is rendered.
    A player count and cone with no count in ``minbal.reference`` are
    rejected before any size is searched and before any entry is read, and
    so is a player name containing ``|``.
    """
    doc, players = _read_document(data, ("players", "cone", "conjecture", "entries"), CatalogueFormatError, stop="entries")
    try:
        cone = ConeKind(doc["cone"])
    except ValueError as exc:
        raise CatalogueFormatError(str(exc)) from None
    if doc["conjecture"] is not (cone is ConeKind.EXACT_CONJECTURE):  # a JSON boolean, not 0 or 1
        raise CatalogueFormatError(f"'conjecture' must be {json.dumps(cone is ConeKind.EXACT_CONJECTURE)} for a {cone.value} catalogue")
    if players.n not in _RECORDED_COUNTS[cone]:
        raise CatalogueFormatError(f"no entry and type counts are recorded for a {players.n}-player {cone.value} catalogue")
    try:
        catalogue = Catalogue(players, cone)
    except ValueError as exc:  # a player name that type ids cannot hold
        raise CatalogueFormatError(str(exc)) from None
    if _is_rendering(data, _pieces(catalogue, "json")):
        return catalogue
    size, types = _RECORDED_COUNTS[cone][players.n]
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
