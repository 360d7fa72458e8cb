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
is an image of its type (``balance._images``), and every carrier of a
size holds the same images in the same order: ``_fill_pieces`` renders
each size once, with slot markers for the coalition texts that each
carrier fills with its own, and from its types' texts, so writing and
parsing build no object per entry; ``Catalogue.entries`` builds them on
first access.  The same walk renders the system listings of ``minbal
enumerate`` in either format (``_listing``).  ``_pieces`` renders a
catalogue in either format, JSON entries about ``PIECE_ENTRIES`` to a
piece: ``serialize`` joins the pieces, ``minbal catalogue`` writes them
in blocks of about 64 KB as they are rendered (``cli._write``).  The
JSON lists and objects are written by :mod:`minbal.games`
(``_json_list``, ``_json_block``, ``_json_keys``), which also reads
them, and each inequality by :func:`minbal.balance.render_inequality`;
both are importable from here too.  ``parse`` compares the file with
the rendering piece by piece, byte for byte and, only when the bytes
differ, as JSON values; the rendering stops at the piece holding the
first difference.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from json.encoder import encode_basestring
from math import comb
from operator import itemgetter
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
    render_inequality,
)
from .cones import conjugate
from .games import Players, _bit_positions, _json_block, _json_keys, _json_list, _read_document, relabelling
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
            players = self.players
            if self.cone is ConeKind.BALANCED:  # the one cone admitting reducible systems
                pairs = [(rep, None) for rep in _types_on(players, c, complements=True)]
            else:
                pairs = [(rep, CatalogueEntry(rep.mbs, conjugate(rep.alpha, players), rep.irreducible, True, "~" + rep.type_id, rep.orbit_size)
                          if self.conjecture else None)
                         for rep in _types_on(players, c) if rep.irreducible]
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


def _types_on(players: Players, c: int, complements: bool = False) -> list[CatalogueEntry]:
    """Each type of non-trivial min-balanced system on the first ``c``
    players, in canonical order, as the entry of its lex-least system.
    That entry holds what is found from the system alone, as relabelling
    the players commutes with all of it: its irreducibility, type id and
    orbit size, with no conjugate, and with ``complements`` the type id
    of its complement, else none."""
    if players.n > ENUM_PLAYER_CAP:
        raise ValueError(f"enumeration is capped at {ENUM_PLAYER_CAP} players")
    return [CatalogueEntry(mbs, mbs.alpha, irreducible, False, "|".join(map(players.key, mbs.system.members)), size * comb(players.n, c),
                           _type_id(players, complement_system(mbs.system, players)) if complements else None)
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

def _entries(catalogue: Catalogue) -> Iterator[CatalogueEntry]:
    """``Catalogue.entries``: each image of each type on each carrier of
    its size, in increasing bitmask order, with its type's fields,
    followed in ``exact-conjecture`` by its conjugate.  A size's images
    are listed when the walk reaches its first carrier, once for all its
    carriers; those of the full player set, which has one, are drawn as
    they are used."""
    players = catalogue.players
    images: dict[int, Iterable[tuple]] = {}

    def entry(t: CatalogueEntry, mbs: MinBalancedSystem, alpha: InequalityVector) -> CatalogueEntry:
        return CatalogueEntry(mbs, alpha, t.irreducible, t.conjugated, t.type_id, t.orbit_size, t.complement_type_id)

    for carrier in range(players.full_mask + 1):
        if (c := carrier.bit_count()) not in catalogue.sizes:
            continue
        if c not in images:
            types = [(t.mbs.system.members, _member_values(t.mbs), (t, twin)) for t, twin in catalogue._types_of(c)]
            images[c] = _images(types, c) if c == players.n else list(_images(types, c))
        table = relabelling(_bit_positions(carrier))
        for pairs, (t, twin) in images[c]:
            mbs = _image_system(table, pairs, t.mbs)
            yield entry(t, mbs, mbs.alpha)
            if twin is not None:
                yield entry(twin, mbs, conjugate(mbs.alpha, players))


# -- rendering -----------------------------------------------------------

def induced_system(alpha: InequalityVector) -> SetSystem:
    """The set system read off an inequality: its negative support."""
    return SetSystem(alpha.negative_support)


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
    system = ", ".join(map(players.key, induced_system(alpha).members))
    return (f"{number}. {{{system}}}   {count}x{note}",
            f"   {render_inequality(alpha, players)}")


# -- serialization -------------------------------------------------------

#: ``_fill_pieces`` hands its items on in pieces of this many, joined by
#: the item separator (about 35-55 KB of JSON at 5 and 6 players).
PIECE_ENTRIES = 64


def _fill_pieces(players: Players, sizes: Container[int], types: Callable[[int], list[tuple]],
                 slots: Callable[[int, list[int]], tuple[list[str], ...]], sep: str, render: Callable[..., Iterator[str]]) -> Iterator[str]:
    """The items rendered on each carrier of a size in ``sizes``, in
    increasing bitmask order, in pieces of about ``PIECE_ENTRIES`` items
    joined by ``sep``.  ``slots(carrier, table)`` gives a carrier's texts
    as lists, from its bitmask and its order-keeping renaming ``table`` of
    the first ``c`` players; ``render(*texts, images)`` renders its items
    from those lists and the ``_images`` of ``types(c)``.

    The full player set, the one carrier of its size, is rendered as it
    is.  Any other size is rendered once, when the walk first reaches it,
    with slot markers ``"\\0<index>\\0"`` in place of the texts, which must
    hold no NUL, nor may the rendering (JSON holds none, as
    ``encode_basestring`` escapes it, and a listing names its players
    a, b, c, ...); split at the markers, that rendering is kept, and each
    carrier of the size fills its slots with its own texts.  Whatever is
    pending is handed on before a size is searched, so a piece spans no
    size not yet reached."""
    programs: dict[int, list[tuple[list[str], Callable, int]]] = {}
    shared: dict[str, str] = {}
    piece: list[str] = []
    count = 0
    for carrier in range(players.full_mask + 1):
        if (c := carrier.bit_count()) not in sizes:
            continue
        groups = slots(carrier, relabelling(_bit_positions(carrier)))
        texts = [text for group in groups for text in group]
        if c not in programs:
            if piece:
                yield sep.join(piece)
                piece, count = [], 0
            one = c == players.n  # the full player set, its size's one carrier
            numbered = map("\0{}\0".format, range(len(texts)))
            marks = groups if one else [list(islice(numbered, len(group))) for group in groups]
            items = render(*marks, _images(types(c), c))
            batches = iter(lambda: list(islice(items, PIECE_ENTRIES)), [])
            if one:
                yield from map(sep.join, batches)
                continue
            programs[c] = []
            for batch in batches:
                parts = sep.join(batch).split("\0")
                fill = itemgetter(*map(int, parts[1::2]))  # an item has several slots, so this gives a tuple
                parts[1::2] = [None] * (len(parts) >> 1)
                parts[::2] = [shared.setdefault(p, p) for p in parts[::2]]  # one copy of each literal text
                programs[c].append((parts, fill, len(batch)))
        for parts, fill, size in programs[c]:
            filled = parts.copy()
            filled[1::2] = fill(texts)
            piece.append("".join(filled))
            if (count := count + size) >= PIECE_ENTRIES:
                yield sep.join(piece)
                piece, count = [], 0
    if piece:
        yield sep.join(piece)


def _json_slots(players: Players, pad: str) -> Callable[[int, list[int]], tuple[list[str], ...]]:
    """The ``_fill_pieces`` slots of a JSON list at ``pad`` whose items'
    fields sit at ``pad`` plus four spaces: for each coalition of the
    first ``c`` players renamed onto the carrier, its member block, its
    key and its complement's key; then the carrier's block."""
    keys, full = _json_keys(players), players.full_mask
    names = [[encode_basestring(name) for name in players.member_names(m)] for m in players.coalitions()]
    members = [_json_block(member, pad + "      ") for member in names]
    return lambda carrier, table: ([members[s] for s in table], [keys[s] for s in table], [keys[full ^ s] for s in table],
                                   [_json_block(names[carrier], pad + "    ")])


def _system_fields(listed: list[str], named: list[str], block: str, pad: str, start: str) -> Callable[[Sequence[tuple[int, tuple[str, ...]]], str], str]:
    """A renderer of an image's ``system``, ``carrier`` and ``weights``
    fields as ``json.dumps(indent=2)`` writes them in an object whose
    fields sit at ``pad``, from the ``_json_slots`` texts of its carrier,
    after ``start``, the text before them: given the image's ``_images``
    pairs, each member with a tuple whose first item is its weight as a
    ``: "w"`` text, and ``close``, its type's text from the next field's
    key on.  The text is made in one join."""
    first = "\n" + pad + "  "
    inner, opening = "," + first, f'{start}"system": [{first}'
    middle = f"\n{pad}],\n{pad}\"carrier\": {block},\n{pad}\"weights\": {{{first}"
    last = f"\n{pad}}},\n{pad}"

    def fields(pairs: Sequence[tuple[int, tuple[str, ...]]], close: str) -> str:
        return "".join([opening, inner.join([listed[m] for m, _ in pairs]), middle,
                        inner.join([named[m] + v[0] for m, v in pairs]), last, close])

    return fields


def _json_entries(catalogue: Catalogue) -> Iterator[str]:
    """The entries as ``serialize`` writes them in the ``entries`` list, in
    the ``_fill_pieces`` of about ``PIECE_ENTRIES`` each.  An entry is
    rendered from its carrier's coalition texts, its image's weights and
    coefficients and its type's texts, each rendered once, and joined
    with one ``"".join`` after its head, the text up to its first ``alpha``
    key.  A conjugate shares its entry's head; its ``alpha`` has the
    complemented keys in reverse order."""
    players, full = catalogue.players, catalogue.players.full_mask
    keys = _json_keys(players)
    first = "\n" + " " * 8
    inner = "," + first

    def tail(t: CatalogueEntry) -> str:
        """The end of the type's ``alpha`` object and the fields after it."""
        fields = ['"irreducible": ' + str(t.irreducible).lower(), '"conjugated": ' + str(t.conjugated).lower(),
                  '"type_id": ' + encode_basestring(t.type_id), f'"orbit_size": {t.orbit_size}']
        if t.complement_type_id is not None:
            fields.append('"complement_type": ' + encode_basestring(t.complement_type_id))
        return "\n      }" + "".join(",\n      " + field for field in fields) + "\n    }"

    def texts(c: int) -> list[tuple]:
        """Each type of size ``c`` with its members, the weight and
        coefficient texts of each, and its own texts: its ``k`` line with
        the ``alpha`` opening, its empty coalition's term, its carrier's
        coefficient with its ``tail``, and for a conjugate its carrier's
        coefficient and its empty coalition's term with its ``tail``, else
        ``None``."""
        rendered = []
        for t, twin in catalogue._types_of(c):
            on_carrier, on_empty = f": {t.mbs.k}", f": {t.alpha.items[0][1]}"
            conjugated = twin and (on_carrier + inner, inner + keys[full] + on_empty + tail(twin))
            rendered.append((t.mbs.system.members, tuple((f': "{w}"', f": {a}") for w, a in _member_values(t.mbs)),
                             (f'"k": {t.mbs.k},\n      "alpha": {{{first}', keys[0] + on_empty + inner, on_carrier + tail(t), conjugated)))
        return rendered

    def render(listed: list[str], named: list[str], opposite: list[str], block: list[str], images: Iterable[tuple]) -> Iterator[str]:
        fields = _system_fields(listed, named, block[0], " " * 6, "{\n      ")
        for pairs, (close, empty, plain, conjugated) in images:
            head = fields(pairs, close)
            yield "".join([head, empty, inner.join([named[m] + a for m, (_, a) in pairs]), inner, named[-1], plain])
            if conjugated is not None:
                on_carrier, rest = conjugated
                yield "".join([head, opposite[-1], on_carrier, inner.join([opposite[m] + a for m, (_, a) in reversed(pairs)]), rest])

    return _fill_pieces(players, catalogue.sizes, texts, _json_slots(players, "  "), ",\n    ", render)


def _pieces(catalogue: Catalogue, format: str) -> Iterator[str]:
    """The text of a catalogue in ``format`` in pieces: in ``text`` its
    lines; in ``json`` the header, the ``_json_list`` of the pieces of
    ``_json_entries``, and the closing brace."""
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


def _listing(players: Players, size: int, format: str, types_only: bool, irreducible_only: bool) -> Iterator[str]:
    """The text of ``minbal enumerate`` in pieces: the non-trivial
    min-balanced systems on every carrier of ``size`` players, or with
    ``types_only`` each type's lex-least system on the first ``size``
    players, with ``irreducible_only`` the irreducible ones only; in
    ``text`` a line per system and two per type, in ``json`` a list.
    The types are searched before this returns.  Systems are rendered
    from their types' weights through ``_fill_pieces``, whose pieces
    become the text's or the list's."""
    if format not in ("json", "text"):
        raise ValueError(f"unknown format {format!r}")
    # classified on the first carrier, the first ``size`` players, which holds every type
    types = [rep for rep in _types_on(players, size) if rep.irreducible or not irreducible_only]
    if types_only and format == "text":
        return (line + "\n" for i, rep in enumerate(types, start=1)
                for line in _type_lines(players, i, rep.alpha, rep.orbit_size, ["irreducible"] if rep.irreducible else []))
    if format == "text":
        keys = [players.key(m) for m in players.coalitions()]
        systems = [(rep.mbs.system.members, [f"={w}" for w in rep.mbs.weights],
                    (f"   k={rep.mbs.k}   weights: ", "   irreducible" if rep.irreducible else "")) for rep in types]

        def lines(named: list[str], images: Iterable[tuple]) -> Iterator[str]:
            for pairs, (k, note) in images:  # named[-1] is the carrier's key
                yield "".join(["{", ", ".join([named[m] for m, _ in pairs]), "}   carrier=", named[-1], k,
                               " ".join([named[m] + w for m, w in pairs]), note])

        pieces = _fill_pieces(players, (size,), lambda _: systems, lambda _, table: ([keys[s] for s in table],), "\n", lines)
        return (piece + "\n" for piece in pieces)
    if types_only:
        items = (_json_block(['"type_id": ' + encode_basestring(rep.type_id), f'"orbit_size": {rep.orbit_size}',
                              '"irreducible": ' + str(rep.irreducible).lower(),
                              '"inequality": ' + encode_basestring(render_inequality(rep.alpha, players))], "  ", "{}")
                 for rep in types)
    else:
        # an item is an object at two spaces, as ``_json_block`` writes it: its fields open it, and its type's ``k`` and flag close it
        systems = [(rep.mbs.system.members, [(f': "{w}"',) for w in rep.mbs.weights],
                    f'"k": {rep.mbs.k},\n    "irreducible": {str(rep.irreducible).lower()}\n  }}') for rep in types]

        def render(listed: list[str], named: list[str], opposite: list[str], block: list[str], images: Iterable[tuple]) -> Iterator[str]:
            fields = _system_fields(listed, named, block[0], " " * 4, "{\n    ")
            return (fields(pairs, close) for pairs, close in images)

        items = _fill_pieces(players, (size,), lambda _: systems, _json_slots(players, ""), ",\n  ", render)
    return chain(_json_list(items, ""), ["\n"])


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
    and the catalogue's pieces each as a JSON list when the comparison
    reaches them; entry i must equal entry i of the catalogue as JSON,
    field for field.  The first difference is named by its entry's index,
    and no later piece is rendered.
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
    expected = (entry for piece in _json_entries(catalogue) for entry in json.loads("[" + piece + "]"))
    read = 0
    for raw in doc["entries"]:  # after the last entry, the rest of the document is read
        entry = next(expected, None)
        if entry is None:
            raise CatalogueFormatError(f"entries[{size}]: beyond the {size} entries of {name}")
        field = _first_difference(entry, raw)
        if field is not None:
            raise CatalogueFormatError(f"entries[{read}]: {field} differs from entry {read} of {name}, which has {size} entries in {types} types")
        read += 1
    if read < size:
        raise CatalogueFormatError(f"entries[{read}]: missing; {name} has {size} entries in {types} types")
    return catalogue
