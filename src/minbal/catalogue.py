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
bit-exact JSON format or a per-type text listing.
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
    is_min_balanced,
)
from .cones import conjugate
from .games import Players
from .reduction import is_reducible


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


def _type_id(players: Players, system: SetSystem) -> tuple[str, int]:
    """Type id and orbit size of a system; its conjugate's id adds ``~``."""
    canonical, orbit = canonical_type(system, players)
    return "|".join(players.key(m) for m in canonical.members), orbit


def _irreducibility(players: Players) -> Callable[[MinBalancedSystem], bool]:
    """``is_reducible`` verdicts memoized per unconjugated type id.

    Relabelling the players maps reduction witnesses onto reduction
    witnesses, so one search per permutational type suffices.
    """
    memo: dict[str, bool] = {}

    def irreducible(mbs: MinBalancedSystem) -> bool:
        key, _ = _type_id(players, mbs.system)
        if key not in memo:
            memo[key] = is_reducible(mbs) is None
        return memo[key]

    return irreducible


def generate(players: Players, cone: Union[ConeKind, str]) -> Catalogue:
    """Generate the facet catalogue of a cone.

    Deterministic: entries are sorted canonically and classified after
    the per-carrier enumeration.
    """
    cone = ConeKind(cone)
    n = players.n
    if not 2 <= n <= ENUM_PLAYER_CAP:
        raise ValueError(f"catalogue generation needs between 2 and {ENUM_PLAYER_CAP} players")
    if cone is ConeKind.EXACT_CONJECTURE and n < 3:
        raise ValueError("the exact-cone conjecture catalogue needs at least 3 players")
    full = players.full_mask
    if cone is ConeKind.BALANCED:
        carriers = [full]
    else:
        proper_only = cone is ConeKind.EXACT_CONJECTURE
        carriers = [m for m in range(full + 1) if m.bit_count() >= 2 and not (proper_only and m == full)]

    systems = [mbs for m in carriers for mbs in enumerate_min_balanced(players, m)]
    systems.sort(key=lambda m: (m.carrier, m.system.members))
    irreducible = _irreducibility(players)

    entries: list[CatalogueEntry] = []
    for mbs in systems:
        irr = irreducible(mbs)
        if cone is not ConeKind.BALANCED and not irr:
            continue
        type_id, orbit = _type_id(players, mbs.system)
        complement_id = None
        if cone is ConeKind.BALANCED:
            complement_id, _ = _type_id(players, complement_system(mbs.system, players))
        entries.append(CatalogueEntry(mbs, mbs.alpha, irr, False, type_id, orbit, complement_id))
        if cone is ConeKind.EXACT_CONJECTURE:
            entries.append(CatalogueEntry(mbs, conjugate(mbs.alpha, players), irr, True, "~" + type_id, orbit))
    entries.sort(key=lambda e: (e.mbs.carrier, e.mbs.system.members, e.conjugated))
    seen = {e.alpha.items for e in entries}
    if len(seen) != len(entries):
        raise RuntimeError("catalogue entries collide as coefficient vectors")
    return Catalogue(players, cone, tuple(entries), _classify(players, cone, tuple(entries)))


def classify(catalogue: Catalogue) -> tuple[TypeSummary, ...]:
    """Type table of a catalogue: representative, count and cross links."""
    return _classify(catalogue.players, catalogue.cone, catalogue.entries)


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

def _entry_payload(players: Players, e: CatalogueEntry) -> dict:
    payload = {
        "system": [list(players.member_names(m)) for m in e.mbs.system.members],
        "carrier": list(players.member_names(e.mbs.carrier)),
        "weights": {players.key(m): str(w) for m, w in zip(e.mbs.system.members, e.mbs.weights)},
        "k": e.mbs.k,
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


def _parse_entry(
    players: Players, raw: dict, where: str, is_irreducible: Callable[[MinBalancedSystem], bool]
) -> CatalogueEntry:
    def fail(msg: str):
        raise CatalogueFormatError(f"{where}: {msg}")

    try:
        members = tuple(players.coalition_of(part) for part in raw["system"])
    except (KeyError, TypeError, ValueError):
        fail("invalid or missing member list")
    try:
        system = SetSystem(tuple(sorted(members)))
    except ValueError as exc:
        fail(str(exc))
    if len(set(members)) != len(members):
        fail("duplicate members")
    mbs = is_min_balanced(system)
    if mbs is None:
        fail("system is not min-balanced")
    if mbs.trivial:
        fail("trivial systems do not belong to catalogues")
    if "carrier" not in raw or players.coalition_of(raw["carrier"]) != mbs.carrier:
        fail("carrier does not match the member union")
    weights = raw.get("weights")
    if not isinstance(weights, dict):
        fail("missing weights")
    expected_weights = {players.key(m): str(w) for m, w in zip(system.members, mbs.weights)}
    if weights != expected_weights:
        fail("weights disagree with the unique balanced weights")
    if raw.get("k") != mbs.k:
        fail("normalization constant k is wrong")
    conjugated = raw.get("conjugated")
    if not isinstance(conjugated, bool):
        fail("missing conjugated flag")
    alpha = mbs.alpha if not conjugated else conjugate(mbs.alpha, players)
    raw_alpha = raw.get("alpha")
    expected_alpha = {players.key(s): c for s, c in alpha.items}
    if raw_alpha != expected_alpha:
        fail("alpha is not the o-standardized coefficient vector of the system")
    irreducible = raw.get("irreducible")
    if not isinstance(irreducible, bool):
        fail("missing irreducible flag")
    if irreducible != is_irreducible(mbs):
        fail("irreducible flag disagrees with the reducibility search")
    type_id, orbit = _type_id(players, system)
    if conjugated:
        type_id = "~" + type_id
    if raw.get("type_id") != type_id:
        fail("type_id does not match the canonical form")
    if raw.get("orbit_size") != orbit:
        fail("orbit_size does not match the permutation orbit")
    complement_id = raw.get("complement_type")
    if complement_id is not None and complement_id != _type_id(players, complement_system(system, players))[0]:
        fail("complement_type does not match")
    return CatalogueEntry(mbs, alpha, irreducible, conjugated, type_id, orbit, complement_id)


def parse(data: Union[bytes, str]) -> Catalogue:
    """Parse and fully re-validate a JSON catalogue, whole orbits included."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CatalogueFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CatalogueFormatError("top level must be an object")
    try:
        players = Players(tuple(doc["players"]))
        cone = ConeKind(doc["cone"])
        raw_entries = doc["entries"]
    except KeyError as exc:
        raise CatalogueFormatError(f"missing required field {exc}") from None
    except ValueError as exc:
        raise CatalogueFormatError(str(exc)) from None
    if doc.get("conjecture") != (cone is ConeKind.EXACT_CONJECTURE):
        raise CatalogueFormatError("'conjecture' flag disagrees with the cone kind")
    if not isinstance(raw_entries, list):
        raise CatalogueFormatError("'entries' must be a list")
    is_irreducible = _irreducibility(players)
    entries = tuple(
        _parse_entry(players, raw, f"entries[{i}]", is_irreducible) for i, raw in enumerate(raw_entries)
    )
    for i, (a, b) in enumerate(zip(entries, entries[1:])):
        ka = (a.mbs.carrier, a.mbs.system.members, a.conjugated)
        kb = (b.mbs.carrier, b.mbs.system.members, b.conjugated)
        if ka >= kb:
            raise CatalogueFormatError(f"entries[{i + 1}]: entries are not in canonical order")
    types = _classify(players, cone, entries)
    for t in types:  # every catalogue is closed under relabelling the players
        if t.count != t.representative.orbit_size:
            raise CatalogueFormatError(f"type {t.type_id} has {t.count} entries but an orbit of {t.representative.orbit_size}")
    return Catalogue(players, cone, entries, types)
