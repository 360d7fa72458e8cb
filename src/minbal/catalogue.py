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
canonically, classified into permutational types, and serialized to a
bit-exact JSON format or a per-type text listing.  ``generate`` is the
only builder of entries: a catalogue is a fixed function of its players
and cone, so ``parse`` regenerates it and compares the file with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .balance import (
    ENUM_PLAYER_CAP,
    InequalityVector,
    MinBalancedSystem,
    SetSystem,
    canonical_type,
    complement_system,
    enumerate_min_balanced,
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
class TypeSummary:
    type_id: str
    representative: CatalogueEntry
    count: int
    complement_type_id: Optional[str] = None
    conjugate_type_id: Optional[str] = None


@dataclass(frozen=True)
class Catalogue:
    players: Players
    cone: ConeKind
    entries: tuple[CatalogueEntry, ...]
    types: tuple[TypeSummary, ...]

    @property
    def conjecture(self) -> bool:
        return self.cone is ConeKind.EXACT_CONJECTURE

    def type_table(self) -> dict[str, TypeSummary]:
        return {t.type_id: t for t in self.types}


#: (entries, types) per player count that ``parse`` requires of each cone.
_RECORDED_COUNTS = {
    ConeKind.BALANCED: BALANCED_COUNTS,
    ConeKind.TOTALLY_BALANCED: TOTALLY_BALANCED_COUNTS,
    ConeKind.EXACT_CONJECTURE: {n: c for n, c in EXACT_FACET_COUNTS.items() if n >= 3},
}


def _type_id(players: Players, system: SetSystem) -> tuple[str, int]:
    """Type id and orbit size of a system; its conjugate's id adds ``~``."""
    canonical, orbit = canonical_type(system, players)
    return "|".join(players.key(m) for m in canonical.members), orbit


def _irreducibility(players: Players) -> Callable[[MinBalancedSystem], bool]:
    """``is_reducible`` verdicts memoized per permutational type.

    Relabelling the players maps reduction witnesses onto reduction
    witnesses, so one search per type suffices.  The memo keys on the
    canonical members, not on a type id string.
    """
    memo: dict[tuple[int, ...], bool] = {}

    def irreducible(mbs: MinBalancedSystem) -> bool:
        key = canonical_type(mbs.system, players)[0].members
        if key not in memo:
            memo[key] = is_reducible(mbs) is None
        return memo[key]

    return irreducible


def generate(players: Players, cone: Union[ConeKind, str]) -> Catalogue:
    """Generate the facet catalogue of a cone.

    Deterministic: only carriers the cone can admit are searched, in
    increasing bitmask order, so the entries come out in canonical order.
    """
    cone = ConeKind(cone)
    n = players.n
    if not 2 <= n <= ENUM_PLAYER_CAP:
        raise ValueError(f"catalogue generation needs between 2 and {ENUM_PLAYER_CAP} players")
    if cone is ConeKind.EXACT_CONJECTURE and n < 3:
        raise ValueError("the exact-cone conjecture catalogue needs at least 3 players")
    sizes = {ConeKind.BALANCED: [n], ConeKind.TOTALLY_BALANCED: range(2, n + 1),
             ConeKind.EXACT_CONJECTURE: range(2, n)}[cone]
    carriers = [m for m in range(players.full_mask + 1) if m.bit_count() in sizes]
    irreducible = _irreducibility(players)
    entries = tuple(
        e for m in carriers for mbs in enumerate_min_balanced(players, m)
        for e in _entries_of(players, cone, mbs, irreducible(mbs))
    )
    if len({e.alpha.items for e in entries}) != len(entries):
        raise RuntimeError("catalogue entries collide as coefficient vectors")
    return Catalogue(players, cone, entries, _classify(players, cone, entries))


def _entries_of(
    players: Players, cone: ConeKind, mbs: MinBalancedSystem, irreducible: bool
) -> tuple[CatalogueEntry, ...]:
    """The entries a non-trivial min-balanced system contributes to a cone.

    ``balanced`` admits the systems on the full carrier,
    ``totally-balanced`` the irreducible ones and ``exact-conjecture``
    the irreducible ones with proper carrier, each followed by its
    conjugate.  Its one caller is ``generate``.
    """
    full = mbs.carrier == players.full_mask
    admitted = {ConeKind.BALANCED: full, ConeKind.TOTALLY_BALANCED: irreducible,
                ConeKind.EXACT_CONJECTURE: irreducible and not full}
    if not admitted[cone]:
        return ()
    type_id, orbit = _type_id(players, mbs.system)
    complement_id = None
    if cone is ConeKind.BALANCED:
        complement_id, _ = _type_id(players, complement_system(mbs.system, players))
    entry = CatalogueEntry(mbs, mbs.alpha, irreducible, False, type_id, orbit, complement_id)
    if cone is not ConeKind.EXACT_CONJECTURE:
        return (entry,)
    return entry, CatalogueEntry(mbs, conjugate(mbs.alpha, players), irreducible, True, "~" + type_id, orbit)


def _classify(players: Players, cone: ConeKind, entries: tuple[CatalogueEntry, ...]) -> tuple[TypeSummary, ...]:
    """Group entries into permutational types with cross links.

    Balanced (full carrier) types link to the type of the complementary
    system; self-complementary types link to themselves.  Conjectured
    exact types link to their conjugate type.
    """
    order: list[str] = []
    first: dict[str, CatalogueEntry] = {}
    counts: dict[str, int] = {}
    for e in entries:
        if e.type_id not in first:
            first[e.type_id] = e
            order.append(e.type_id)
        counts[e.type_id] = counts.get(e.type_id, 0) + 1
    summaries = []
    for tid in order:
        rep = first[tid]
        complement_id = rep.complement_type_id if cone is ConeKind.BALANCED else None
        conjugate_id = None
        if cone is ConeKind.EXACT_CONJECTURE:
            conjugate_id = tid[1:] if tid.startswith("~") else "~" + tid
        summaries.append(TypeSummary(tid, rep, counts[tid], complement_id, conjugate_id))
    return tuple(summaries)


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
        rep = t.representative
        notes = []
        if t.complement_type_id is not None:
            if t.complement_type_id == t.type_id:
                notes.append("self-complementary")
            else:
                notes.append(f"complementary type {numbers[t.complement_type_id]}.")
        if t.conjugate_type_id is not None:
            notes.append(f"conjugate type {numbers[t.conjugate_type_id]}.")
        if rep.irreducible and not rep.conjugated:
            notes.append("irreducible")
        note = ("   " + ", ".join(notes)) if notes else ""
        lines.append(f"{i}. {_render_system(players, induced_system(rep.alpha))}   {t.count}x{note}")
        lines.append(f"   {render_inequality(rep.alpha, players)}")
    return lines


# -- serialization -------------------------------------------------------

def _system_payload(players: Players, mbs: MinBalancedSystem) -> dict:
    return {
        "system": [list(players.member_names(m)) for m in mbs.system.members],
        "carrier": list(players.member_names(mbs.carrier)),
        "weights": {players.key(m): str(w) for m, w in zip(mbs.system.members, mbs.weights)},
        "k": mbs.k,
    }


def _entry_payload(players: Players, e: CatalogueEntry) -> dict:
    payload = _system_payload(players, e.mbs) | {
        "alpha": {players.key(s): c for s, c in e.alpha.items},
        "irreducible": e.irreducible,
        "conjugated": e.conjugated,
        "type_id": e.type_id,
        "orbit_size": e.orbit_size,
    }
    if e.complement_type_id is not None:
        payload["complement_type"] = e.complement_type_id
    return payload


def serialize(catalogue: Catalogue, format: str = "json") -> bytes:
    """Serialize a catalogue; ``parse`` inverts the JSON format bit-exactly."""
    if format == "text":
        return ("\n".join(_text_lines(catalogue)) + "\n").encode("utf-8")
    if format != "json":
        raise ValueError(f"unknown format {format!r}")
    payload = {
        "players": list(catalogue.players.names),
        "cone": catalogue.cone.value,
        "conjecture": catalogue.conjecture,
        "entries": [_entry_payload(catalogue.players, e) for e in catalogue.entries],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


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


def parse(data: Union[bytes, str]) -> Catalogue:
    """Parse a JSON catalogue by regenerating it and comparing entries.

    Entry i of the file must equal entry i of ``generate(players, cone)``
    as JSON, field for field; the first difference is named.  A player
    count and cone with no count in ``minbal.reference`` are rejected
    before anything is generated.
    """
    doc, players = _read_document(data, ("players", "cone", "conjecture", "entries"), CatalogueFormatError)
    try:
        cone = ConeKind(doc["cone"])
    except ValueError as exc:
        raise CatalogueFormatError(str(exc)) from None
    if doc["conjecture"] is not (cone is ConeKind.EXACT_CONJECTURE):  # a JSON boolean, not 0 or 1
        raise CatalogueFormatError(f"'conjecture' must be {json.dumps(cone is ConeKind.EXACT_CONJECTURE)} for a {cone.value} catalogue")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, list):
        raise CatalogueFormatError("'entries' must be a list")
    recorded = _RECORDED_COUNTS[cone].get(players.n)
    if recorded is None:
        raise CatalogueFormatError(f"no entry and type counts are recorded for a {players.n}-player {cone.value} catalogue")
    catalogue = generate(players, cone)
    size, types = len(catalogue.entries), len(catalogue.types)
    if (size, types) != recorded:  # a fault of generate, not of the file
        raise RuntimeError(f"generated {size} entries in {types} types, but {recorded[0]} in {recorded[1]} are recorded")
    name = f"the {players.n}-player {cone.value} catalogue"
    for i, (entry, raw) in enumerate(zip(catalogue.entries, raw_entries)):
        field = _first_difference(_entry_payload(players, entry), raw)
        if field is not None:
            raise CatalogueFormatError(f"entries[{i}]: {field} differs from entry {i} of {name}, which has {size} entries in {types} types")
    if len(raw_entries) < size:
        raise CatalogueFormatError(f"entries[{len(raw_entries)}]: missing; {name} has {size} entries in {types} types")
    if len(raw_entries) > size:
        raise CatalogueFormatError(f"entries[{size}]: beyond the {size} entries of {name}")
    return catalogue
