"""Command-line interface.

Subcommands: ``enumerate`` lists min-balanced systems, ``catalogue``
generates facet catalogues, ``check`` decides cone membership of a game
file with optional certificates, and ``verify`` runs the built-in
verification suites.  Results go to stdout, diagnostics to stderr.
Exit codes: 0 on success or an affirmative verdict, 1 on a negative
verdict or a failed verification item, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from random import Random
from typing import Optional

from . import catalogue as cat
from .balance import SetSystem, canonical_type, enumerate_min_balanced
from .cones import (
    CoreAllocation,
    FailingSubgame,
    NoTightAllocation,
    TightAllocationTable,
    Verdict,
    ViolatedSystem,
    is_balanced,
    is_exact,
    is_totally_balanced_facets,
    is_totally_balanced_lp,
)
from .games import GameFormatError, Players, SetFunction, anti_dual, game_from_json, letters, random_game
from .reference import APPENDIX, BALANCED_COUNTS, EXACT_FACET_COUNTS


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    logging.getLogger("minbal").setLevel(logging.INFO)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GameFormatError, cat.CatalogueFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minbal",
        description="Min-balanced coalition systems, facet catalogues of the"
        " balanced / totally balanced / (conjectured) exact game cones, and"
        " certified membership checks, all in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(required=True)

    p_enum = sub.add_parser("enumerate", help="list min-balanced systems")
    p_enum.add_argument("--players", type=int, required=True, metavar="N",
                        help="number of players (2-6), named a, b, c, ...")
    p_enum.add_argument("--carrier-size", type=int, default=None, metavar="S",
                        help="list systems on every carrier of this size (default: N)")
    p_enum.add_argument("--irreducible-only", action="store_true",
                        help="keep only irreducible systems")
    p_enum.add_argument("--types-only", action="store_true",
                        help="print one representative per permutational type")
    p_enum.add_argument("--format", choices=("json", "text"), default="text")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_cat = sub.add_parser("catalogue", help="generate a facet catalogue")
    p_cat.add_argument("--players", type=int, required=True, metavar="N",
                       help="number of players (2-6)")
    p_cat.add_argument("--cone", required=True,
                       choices=("balanced", "totally-balanced", "exact-conjecture"))
    p_cat.add_argument("--format", choices=("json", "text"), default="json")
    p_cat.add_argument("--out", metavar="FILE", default=None,
                       help="write the catalogue to FILE instead of stdout")
    p_cat.set_defaults(handler=_cmd_catalogue)

    p_check = sub.add_parser("check", help="decide cone membership of a game")
    p_check.add_argument("--game", required=True, metavar="FILE",
                         help="game JSON file")
    p_check.add_argument("--cone", required=True,
                         choices=("balanced", "totally-balanced", "exact"))
    p_check.add_argument("--certificate", action="store_true",
                         help="print the exact certificate as JSON")
    p_check.set_defaults(handler=_cmd_check)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--players", type=int, required=True, metavar="N")
    p_verify.add_argument("--suite", required=True, choices=("table1", "appendix", "conjecture"))
    p_verify.add_argument("--samples", type=int, default=100, metavar="K",
                          help="sample count for the conjecture suite (default 100)")
    p_verify.add_argument("--seed", type=int, default=0, metavar="S",
                          help="seed for the Mersenne Twister sampler (random.Random)")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


# -- enumerate -----------------------------------------------------------

def _cmd_enumerate(args: argparse.Namespace) -> int:
    players = letters(args.players)
    size = args.carrier_size if args.carrier_size is not None else players.n
    if not 1 <= size <= players.n:
        raise ValueError(f"carrier size must be between 1 and {players.n}")
    carriers = [m for m in range(players.full_mask + 1) if m.bit_count() == size]
    irreducible = cat._irreducibility(players)
    systems = [(mbs, irreducible(mbs)) for m in sorted(carriers) for mbs in enumerate_min_balanced(players, m)]
    if args.irreducible_only:
        systems = [(mbs, irr) for mbs, irr in systems if irr]

    if args.types_only:
        rows = []
        seen = set()
        for mbs, irr in systems:
            canon, orbit = canonical_type(mbs.system, players)
            if canon.members in seen:
                continue
            seen.add(canon.members)
            rows.append((canon, orbit, irr, mbs))
        if args.format == "json":
            doc = [
                {
                    "type_id": "|".join(players.key(m) for m in canon.members),
                    "orbit_size": orbit,
                    "irreducible": irr,
                    "inequality": cat.render_inequality(mbs.alpha, players),
                }
                for canon, orbit, irr, mbs in rows
            ]
            print(json.dumps(doc, indent=2, ensure_ascii=False))
        else:
            for i, (canon, orbit, irr, mbs) in enumerate(rows, start=1):
                note = "   irreducible" if irr else ""
                print(f"{i}. {_system_text(players, canon)}   {orbit}x{note}")
                print(f"   {cat.render_inequality(mbs.alpha, players)}")
        return 0

    if args.format == "json":
        doc = [
            {
                "system": [list(players.member_names(m)) for m in mbs.system.members],
                "carrier": list(players.member_names(mbs.carrier)),
                "weights": {players.key(m): str(w) for m, w in zip(mbs.system.members, mbs.weights)},
                "k": mbs.k,
                "irreducible": irr,
            }
            for mbs, irr in systems
        ]
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        for mbs, irr in systems:
            weights = " ".join(f"{players.key(m)}={w}" for m, w in zip(mbs.system.members, mbs.weights))
            note = "   irreducible" if irr else ""
            print(f"{_system_text(players, mbs.system)}   carrier={players.key(mbs.carrier)}   k={mbs.k}   weights: {weights}{note}")
    return 0


def _system_text(players: Players, system) -> str:
    return "{" + ", ".join(players.key(m) for m in system.members) + "}"


# -- catalogue -----------------------------------------------------------

def _cmd_catalogue(args: argparse.Namespace) -> int:
    players = letters(args.players)
    catalogue = cat.generate(players, args.cone)
    blob = cat.serialize(catalogue, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
        print(f"wrote {len(blob)} bytes to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(blob.decode("utf-8"))
    return 0


# -- check ---------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    with open(args.game, "rb") as fh:
        game = game_from_json(fh.read())
    oracle = {
        "balanced": is_balanced,
        "totally-balanced": is_totally_balanced_lp,
        "exact": is_exact,
    }[args.cone]
    verdict: Verdict = oracle(game)
    if args.certificate:
        doc = {
            "cone": args.cone,
            "member": verdict.member,
            "certificate": _certificate_payload(game.players, verdict.certificate),
        }
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print(f"{args.cone}: {'member' if verdict.member else 'not a member'}")
    return 0 if verdict.member else 1


def _payoff_payload(players: Players, payoffs) -> dict[str, str]:
    return {players.names[i]: str(v) for i, v in enumerate(payoffs)}


def _function_payload(f: SetFunction) -> dict[str, str]:
    return {f.players.key(s): str(v) for s, v in enumerate(f.values) if v != 0}


def _certificate_payload(players: Players, certificate) -> Optional[dict]:
    if certificate is None:
        return None
    if isinstance(certificate, CoreAllocation):
        return {"type": "core-allocation", "payoffs": _payoff_payload(players, certificate.payoffs)}
    if isinstance(certificate, TightAllocationTable):
        return {
            "type": "tight-allocation-table",
            "allocations": {
                players.key(d): _payoff_payload(players, x) for d, x in certificate.allocations
            },
        }
    if isinstance(certificate, ViolatedSystem):
        mbs = certificate.mbs
        return {
            "type": "violated-system",
            "system": [players.key(m) for m in mbs.system.members],
            "inequality": cat.render_inequality(mbs.alpha, players),
            "value": str(certificate.value),
        }
    if isinstance(certificate, FailingSubgame):
        sub_players = Players(players.member_names(certificate.coalition))
        return {
            "type": "failing-subgame",
            "coalition": players.key(certificate.coalition),
            "certificate": _certificate_payload(sub_players, certificate.certificate),
        }
    if isinstance(certificate, NoTightAllocation):
        return {
            "type": "no-tight-allocation",
            "coalition": players.key(certificate.coalition),
            "theta": _function_payload(certificate.theta),
        }
    raise ValueError(f"unknown certificate {certificate!r}")


# -- verify --------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    suite = {
        "appendix": _suite_appendix,
        "table1": _suite_table1,
        "conjecture": _suite_conjecture,
    }[args.suite]
    items = suite(args)
    failures = 0
    for name, ok, expected, actual in items:
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: expected {expected}, got {actual}")
    total = len(items)
    print(f"{total - failures}/{total} items passed", file=sys.stderr)
    return 0 if failures == 0 else 1


def _suite_appendix(args: argparse.Namespace):
    n = args.players
    if n not in APPENDIX:
        raise ValueError("the appendix suite covers 2 to 4 players")
    players = letters(n)
    catalogue = cat.generate(players, "balanced")
    table = catalogue.type_table()
    items = []
    entries_expected, types_expected = BALANCED_COUNTS[n]
    items.append(("entry count", len(catalogue.entries) == entries_expected,
                  entries_expected, len(catalogue.entries)))
    items.append(("type count", len(catalogue.types) == types_expected,
                  types_expected, len(catalogue.types)))
    tid_of = {}
    for ref in APPENDIX[n]:
        system = SetSystem(tuple(sorted(players.coalition_of(k) for k in ref.system)))
        canon, _ = canonical_type(system, players)
        tid_of[ref.number] = "|".join(players.key(m) for m in canon.members)
    by_system = {e.mbs.system.members: e for e in catalogue.entries}
    for ref in APPENDIX[n]:
        label = "{" + ", ".join(ref.system) + "}"
        summary = table.get(tid_of[ref.number])
        entry = by_system.get(tuple(sorted(players.coalition_of(k) for k in ref.system)))
        if summary is None or entry is None:
            items.append((f"type {ref.number} {label}", False, "present", "missing"))
            continue
        items.append((f"type {ref.number} multiplicity", summary.count == ref.count,
                      ref.count, summary.count))
        items.append((f"type {ref.number} irreducible", entry.irreducible == ref.irreducible,
                      ref.irreducible, entry.irreducible))
        items.append((f"type {ref.number} complement", summary.complement_type_id == tid_of[ref.complement],
                      tid_of[ref.complement], summary.complement_type_id))
        rendered = cat.render_inequality(entry.alpha, players)
        items.append((f"type {ref.number} inequality", rendered == ref.inequality,
                      ref.inequality, rendered))
    return items


def _suite_table1(args: argparse.Namespace):
    n = args.players
    if n not in EXACT_FACET_COUNTS:
        raise ValueError("the table1 suite covers 2 to 5 players")
    players = letters(n)
    # For two players the exact cone equals the balanced cone, whose
    # catalogue provides the counts.
    cone = "balanced" if n == 2 else "exact-conjecture"
    catalogue = cat.generate(players, cone)
    entries_expected, types_expected = EXACT_FACET_COUNTS[n]
    return [
        (f"n={n} facet count", len(catalogue.entries) == entries_expected,
         entries_expected, len(catalogue.entries)),
        (f"n={n} type count", len(catalogue.types) == types_expected,
         types_expected, len(catalogue.types)),
    ]


def _suite_conjecture(args: argparse.Namespace):
    n = args.players
    if not 2 <= n <= 5:
        raise ValueError("the conjecture suite covers 2 to 5 players")
    if args.samples < 1:
        raise ValueError("at least one sample is required")
    players = letters(n)
    tb_catalogue = cat.generate(players, "totally-balanced")
    rng = Random(args.seed)
    items = []
    for i in range(args.samples):
        game = random_game(players, rng)
        exact = is_exact(game).member
        both = (
            is_totally_balanced_facets(game, tb_catalogue).member
            and is_totally_balanced_facets(anti_dual(game), tb_catalogue).member
        )
        items.append((f"game {i}: exact <=> (TB and TB of anti-dual)", exact == both, exact, both))
    return items


if __name__ == "__main__":
    sys.exit(main())
