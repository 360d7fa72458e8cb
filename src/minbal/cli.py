"""Command-line interface.

Subcommands: ``enumerate`` lists min-balanced systems, ``catalogue``
generates facet catalogues, ``check`` decides cone membership of a game
file with optional certificates, and ``verify`` runs the built-in
verification suites.  Results go to stdout as UTF-8 bytes, whatever
its encoding, diagnostics to stderr.  ``_write`` writes a catalogue as
``catalogue._pieces`` and a JSON listing of systems as the pieces of
``catalogue._json_pieces``, joining the pieces into blocks of about 64 KB
(:data:`BLOCK_SIZE`), each encoded and written once it is full; a
check's verdict is one piece, written as it is.  With ``--certificate``
that piece is the text ``json.dumps(indent=2, ensure_ascii=False)``
writes for the verdict, rendered by the same ``games._json_block``
(:func:`_certificate_json`): a payoff vector fills one ``%`` template
per player set, and a tight-allocation table renders each distinct
point once, each number written from its integers.
``minbal.catalogue`` and ``minbal.reference`` are imported only by the
commands that use them, ``enumerate``, ``catalogue`` and ``verify``, so
a check loads neither, nor ``minbal.reduction``; ``minbal.balance`` is
imported only to write a violated system, so a member's check loads
six modules.

The command line is one table, :data:`COMMANDS`: each command has a
help line, its handler and its options, and each option a long name, a
metavar or ``"flag"``, a conversion (``int``, ``str`` or a tuple of
choices), its default or :data:`REQUIRED`, and a help text.
:func:`_parse` hands the options after the command to the stdlib's
``getopt.getopt``, which takes ``--opt value`` and ``--opt=value`` and
any unique prefix of a name, then converts the values in order and
returns the handler with one attribute per option, named with ``_`` for
``-``.  A value is the next argument whatever it starts with.  The same
table renders ``minbal -h`` and ``minbal CMD -h`` on stdout, and every
usage error as a usage line and ``minbal CMD: error: ...`` on stderr.

Exit codes: 0 on success, an affirmative verdict or ``-h``, 1 on a
negative verdict or a failed verification item, 2 on usage or input
errors, 141 (128 + SIGPIPE) when the reader closes stdout before the
end.
"""

from __future__ import annotations

import getopt
import os
import sys
from contextlib import nullcontext
from itertools import chain
from json.encoder import encode_basestring
from math import gcd
from random import Random
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Optional

from . import games
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
from .games import GameFormatError, Players, _json_block, _json_keys, _json_list, anti_dual, game_from_json, letters, random_exact_game, random_game

if TYPE_CHECKING:
    from .catalogue import Catalogue, CatalogueEntry


def main(argv: Optional[list[str]] = None) -> int:
    games._log_setup = _log_to_stderr
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the flush at exit stays quiet
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (GameFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _log_to_stderr(logging) -> None:
    """Send the ``minbal`` records, INFO and up, to stderr as ``minbal:
    <message>``; run before each record is logged, so a run that logs
    nothing neither imports nor configures ``logging``."""
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    logging.getLogger("minbal").setLevel(logging.INFO)


#: ``_write`` joins pieces until they hold this many characters, then
#: encodes and writes them as one block.
BLOCK_SIZE = 1 << 16


def _write(pieces: Iterable[str], out: Optional[str] = None) -> None:
    """Write text pieces as UTF-8 to the file ``out`` or else to stdout,
    whatever the encoding of its text layer, in blocks of about
    ``BLOCK_SIZE`` characters, each encoded and written once it is full."""
    sys.stdout.flush()
    with open(out, "wb") if out else nullcontext(sys.stdout.buffer) as fh:
        size, block, length = 0, [], 0
        for piece in pieces:
            block.append(piece)
            if (length := length + len(piece)) >= BLOCK_SIZE:
                size += fh.write("".join(block).encode("utf-8"))
                block, length = [], 0
        size += fh.write("".join(block).encode("utf-8"))
    if out:
        print(f"wrote {size} bytes to {out}", file=sys.stderr)


# -- enumerate -----------------------------------------------------------

def _cmd_enumerate(args: SimpleNamespace) -> int:
    from .balance import render_inequality
    from .catalogue import _type_lines, _types_on

    players = letters(args.players)
    size = args.carrier_size if args.carrier_size is not None else players.n
    if not 1 <= size <= players.n:
        raise ValueError(f"carrier size must be between 1 and {players.n}")
    # Classified on the first carrier, the first `size` players, which holds every type.
    types = [rep for rep in _types_on(players, size) if rep.irreducible or not args.irreducible_only]

    if args.types_only and args.format == "json":
        items = (_json_block(['"type_id": ' + encode_basestring(rep.type_id), f'"orbit_size": {rep.orbit_size}',
                              '"irreducible": ' + str(rep.irreducible).lower(),
                              '"inequality": ' + encode_basestring(render_inequality(rep.alpha, players))], "  ", "{}")
                 for rep in types)
    elif args.types_only:
        lines = (line for i, rep in enumerate(types, start=1)
                 for line in _type_lines(players, i, rep.alpha, rep.orbit_size, ["irreducible"] if rep.irreducible else []))
    elif args.format == "json":
        items = _system_items(players, size, types)
    else:
        lines = _system_lines(players, size, types)
    _write(chain(_json_list(items, ""), ["\n"]) if args.format == "json" else (line + "\n" for line in lines))
    return 0


def _system_items(players: Players, size: int, types: list[CatalogueEntry]) -> Iterator[str]:
    """The JSON listing of the systems of ``types`` on every carrier of
    ``size`` players, rendered from the types' weights, as the
    ``catalogue._json_pieces`` of its items."""
    from .catalogue import _json_pieces, _system_fields

    systems = [(rep.mbs.system.members, [(f': "{w}"',) for w in rep.mbs.weights], rep) for rep in types]

    def render(listed: list[str], named: list[str], opposite: list[str], block: str, images: Iterable[tuple]) -> Iterator[str]:
        fields = _system_fields(listed, named, block, " " * 4)
        for image, values, rep in images:
            yield _json_block(["".join(fields(image, values, rep.mbs.k)), '"irreducible": ' + str(rep.irreducible).lower()], "  ", "{}")

    return _json_pieces(players, (size,), lambda _: systems, "", render)


def _system_lines(players: Players, size: int, types: list[CatalogueEntry]) -> Iterator[str]:
    """The text lines listing the systems of ``types`` on every carrier of
    ``size`` players, rendered from the types' weights."""
    from .catalogue import _on_carriers

    keys = [players.key(m) for m in players.coalitions()]
    systems = [(rep.mbs.system.members, [f"={w}" for w in rep.mbs.weights], rep) for rep in types]
    for carrier, table, images in _on_carriers(players, (size,), lambda _: systems):
        for image, values, rep in images:
            yield ("{" + ", ".join(keys[table[m]] for m in image) + f"}}   carrier={keys[carrier]}   k={rep.mbs.k}   weights: "
                   + " ".join(keys[table[m]] + w for m, w in zip(image, values)) + ("   irreducible" if rep.irreducible else ""))


# -- catalogue -----------------------------------------------------------

def _cmd_catalogue(args: SimpleNamespace) -> int:
    from .catalogue import _pieces, generate

    _write(_pieces(generate(letters(args.players), args.cone), args.format), args.out)
    return 0


# -- check ---------------------------------------------------------------

def _cmd_check(args: SimpleNamespace) -> int:
    with open(args.game, "rb") as fh:
        game = game_from_json(fh.read())
    oracle = {
        "balanced": is_balanced,
        "totally-balanced": is_totally_balanced_lp,
        "exact": is_exact,
    }[args.cone]
    verdict: Verdict = oracle(game)
    if args.certificate:
        fields = ['"cone": ' + encode_basestring(args.cone), '"member": ' + str(verdict.member).lower(),
                  '"certificate": ' + _certificate_json(game.players, verdict.certificate, "  ")]
        _write([_json_block(fields, "", "{}") + "\n"])
    else:
        _write([f"{args.cone}: {'member' if verdict.member else 'not a member'}\n"])
    return 0 if verdict.member else 1


def _rational_texts(numerators: Iterable[int], denominator: int) -> tuple[str, ...]:
    """Each numerator over the positive ``denominator`` as ``str`` writes
    the ``Fraction``, ``"p/q"`` in lowest terms or ``"p"``, without
    building it."""
    if denominator == 1:
        return tuple(map(str, numerators))
    return tuple(str(p // g) if g == denominator else f"{p // g}/{denominator // g}"
                 for p, g in ((p, gcd(p, denominator)) for p in numerators))


def _payoffs_template(players: Players, pad: str) -> str:
    """A ``%`` template of a payoff vector as ``json.dumps(indent=2)``
    writes the object of its values by player name at ``pad``:
    ``template % payoffs`` renders one, each value as its ``str``."""
    return _json_block([encode_basestring(name).replace("%", "%%") + ': "%s"' for name in players.names], pad, "{}")


def _certificate_json(players: Players, certificate, pad: str) -> str:
    """A certificate as ``json.dumps(indent=2, ensure_ascii=False)``
    writes its payload in an object whose closing brace is at ``pad``;
    ``null`` for none.  Values are exact: rationals as ``"p/q"`` strings."""
    if certificate is None:
        return "null"
    inner = pad + "  "
    if isinstance(certificate, CoreAllocation):
        texts = _rational_texts(certificate.numerators, certificate.denominator)
        fields = ['"type": "core-allocation"', '"payoffs": ' + _payoffs_template(players, inner) % texts]
    elif isinstance(certificate, TightAllocationTable):
        # coalitions sharing a point share its object (``is_exact``), so each point is rendered once, keyed by identity
        template = _payoffs_template(players, inner + "  ")
        points = {i: template % _rational_texts(x.numerators, x.denominator)
                  for i, x in {id(x): x for _, x in certificate.points}.items()}
        keys = _json_keys(players)
        rows = [keys[d] + ": " + points[id(x)] for d, x in certificate.points]
        fields = ['"type": "tight-allocation-table"', '"allocations": ' + _json_block(rows, inner, "{}")]
    elif isinstance(certificate, ViolatedSystem):
        from .balance import render_inequality

        mbs = certificate.mbs
        fields = ['"type": "violated-system"',
                  '"system": ' + _json_block([encode_basestring(players.key(m)) for m in mbs.system.members], inner),
                  '"inequality": ' + encode_basestring(render_inequality(mbs.alpha, players)),
                  f'"value": "{certificate.value}"']
    elif isinstance(certificate, FailingSubgame):
        sub_players = Players(players.member_names(certificate.coalition))
        fields = ['"type": "failing-subgame"', '"coalition": ' + encode_basestring(players.key(certificate.coalition)),
                  '"certificate": ' + _certificate_json(sub_players, certificate.certificate, inner)]
    elif isinstance(certificate, NoTightAllocation):
        theta = certificate.theta  # its nonzero values, read off its integer table
        support = [s for s, p in enumerate(theta.numerators) if p]
        texts = _rational_texts([theta.numerators[s] for s in support], theta.denominator)
        values = [f'{encode_basestring(theta.players.key(s))}: "{t}"' for s, t in zip(support, texts)]
        fields = ['"type": "no-tight-allocation"', '"coalition": ' + encode_basestring(players.key(certificate.coalition)),
                  '"theta": ' + _json_block(values, inner, "{}")]
    else:
        raise ValueError(f"unknown certificate {certificate!r}")
    return _json_block(fields, pad, "{}")


# -- verify --------------------------------------------------------------

def _cmd_verify(args: SimpleNamespace) -> int:
    suite = {
        "appendix": _suite_appendix,
        "table1": _suite_table1,
        "conjecture": _suite_conjecture,
    }[args.suite]
    items = suite(args)
    _write(f"PASS {name}\n" if ok else f"FAIL {name}: expected {expected}, got {actual}\n"
           for name, ok, expected, actual in items)
    passed = sum(ok for _, ok, _, _ in items)
    print(f"{passed}/{len(items)} items passed", file=sys.stderr)
    return 0 if passed == len(items) else 1


def _suite_appendix(args: SimpleNamespace):
    from .balance import render_inequality, system_of
    from .catalogue import Catalogue, _type_id
    from .reference import APPENDIX, BALANCED_COUNTS

    n = args.players
    if n not in APPENDIX:
        raise ValueError("the appendix suite covers 2 to 4 players")
    players = letters(n)
    catalogue = Catalogue(players, "balanced")
    items = _count_items(catalogue, BALANCED_COUNTS[n], "entry count", "type count")
    if not all(ok for _, ok, _, _ in items):
        return items  # the types below come from a search that is at fault
    table = catalogue.type_table()
    tid_of = {ref.number: _type_id(players, system_of(players, *ref.system)) for ref in APPENDIX[n]}
    by_system = {e.mbs.system: e for e in catalogue.entries}
    for ref in APPENDIX[n]:
        label = "{" + ", ".join(ref.system) + "}"
        rep = table.get(tid_of[ref.number])
        entry = by_system.get(system_of(players, *ref.system))
        if rep is None or entry is None:
            items.append((f"type {ref.number} {label}", False, "present", "missing"))
            continue
        items.append((f"type {ref.number} multiplicity", rep.orbit_size == ref.count,
                      ref.count, rep.orbit_size))
        items.append((f"type {ref.number} irreducible", entry.irreducible == ref.irreducible,
                      ref.irreducible, entry.irreducible))
        items.append((f"type {ref.number} complement", rep.complement_type_id == tid_of[ref.complement],
                      tid_of[ref.complement], rep.complement_type_id))
        rendered = render_inequality(entry.alpha, players)
        items.append((f"type {ref.number} inequality", rendered == ref.inequality,
                      ref.inequality, rendered))
    return items


def _suite_table1(args: SimpleNamespace):
    from .catalogue import Catalogue
    from .reference import EXACT_FACET_COUNTS

    n = args.players
    if not 2 <= n <= 5:
        raise ValueError("the table1 suite covers 2 to 5 players")
    players = letters(n)
    # For two players the exact cone equals the balanced cone, whose
    # catalogue provides the counts.
    cone = "balanced" if n == 2 else "exact-conjecture"
    return _count_items(Catalogue(players, cone), EXACT_FACET_COUNTS[n], f"n={n} facet count", f"n={n} type count")


def _count_items(catalogue: Catalogue, expected: tuple[int, int], *names: str) -> list[tuple]:
    """The entry and type counts of a catalogue's types as the search
    finds them, against ``expected``: a search that finds other counts
    fails these items, where ``Catalogue.types`` would raise."""
    found = catalogue._found()
    actual = (sum(t.orbit_size for t in found), len(found))
    return [(name, e == a, e, a) for name, e, a in zip(names, expected, actual)]


def _suite_conjecture(args: SimpleNamespace):
    """``exact <=> (TB and TB of anti-dual)`` on K seeded games.

    Even samples are random games, which are seldom exact; odd ones are
    minima of three additive games with one common total, which always
    are, so both sides of the equivalence are probed.
    """
    from .catalogue import generate

    n = args.players
    if not 2 <= n <= 5:
        raise ValueError("the conjecture suite covers 2 to 5 players")
    if args.samples < 1:
        raise ValueError("at least one sample is required")
    players = letters(n)
    tb_catalogue = generate(players, "totally-balanced")
    rng = Random(args.seed)
    items = []
    for i in range(args.samples):
        if i % 2:
            family, game = "equal-total minimum of additive games", random_exact_game(players, rng)
        else:
            family, game = "random", random_game(players, rng)
        exact = is_exact(game).member
        both = (
            is_totally_balanced_facets(game, tb_catalogue).member
            and is_totally_balanced_facets(anti_dual(game), tb_catalogue).member
        )
        items.append((f"game {i} ({family}): exact <=> (TB and TB of anti-dual)", exact == both, exact, both))
    return items


# -- the command line ----------------------------------------------------

REQUIRED = object()  # the default of an option that must be given

# command -> (help line, handler, options); an option is (long name,
# metavar or "flag", conversion: int, str or a tuple of choices, default
# or REQUIRED, help).  A choice option's metavar is None: it shows its
# choices.
COMMANDS = {
    "enumerate": ("list min-balanced systems", _cmd_enumerate, [
        ("players", "N", int, REQUIRED, "number of players (2-6), named a, b, c, ..."),
        ("carrier-size", "S", int, None, "list systems on every carrier of this size (default: N)"),
        ("irreducible-only", "flag", None, False, "keep only irreducible systems"),
        ("types-only", "flag", None, False, "print one representative per permutational type"),
        ("format", None, ("json", "text"), "text", "output format (default: text)"),
    ]),
    "catalogue": ("generate a facet catalogue", _cmd_catalogue, [
        ("players", "N", int, REQUIRED, "number of players (2-6)"),
        ("cone", None, ("balanced", "totally-balanced", "exact-conjecture"), REQUIRED, "the cone whose facets are listed"),
        ("format", None, ("json", "text"), "json", "output format (default: json)"),
        ("out", "FILE", str, None, "write the catalogue to FILE instead of stdout"),
    ]),
    "check": ("decide cone membership of a game", _cmd_check, [
        ("game", "FILE", str, REQUIRED, "game JSON file"),
        ("cone", None, ("balanced", "totally-balanced", "exact"), REQUIRED, "the cone to decide membership in"),
        ("certificate", "flag", None, False, "print the exact certificate as JSON"),
    ]),
    "verify": ("run a verification suite", _cmd_verify, [
        ("players", "N", int, REQUIRED, "number of players"),
        ("suite", None, ("table1", "appendix", "conjecture"), REQUIRED, "the suite to run"),
        ("samples", "K", int, 100, "sample count for the conjecture suite (default 100)"),
        ("seed", "S", int, 0, "seed for the Mersenne Twister sampler (random.Random)"),
    ]),
}


def _parse(argv: list[str]) -> SimpleNamespace:
    """The handler of the command ``argv[0]`` and its options, each an
    attribute; ``-h`` prints help and a usage error prints usage, each
    ending in ``SystemExit``."""
    if not argv or argv[0] not in COMMANDS:
        opts, rest = _getopt(None, argv, ["help"])
        if opts:
            _help(None)
        _usage_error(None, f"invalid command {rest[0]!r} (choose from {', '.join(COMMANDS)})" if rest
                     else "the following arguments are required: command")
    command = argv[0]
    _, handler, options = COMMANDS[command]
    opts, rest = _getopt(command, argv[1:], [name if metavar == "flag" else name + "=" for name, metavar, *_ in options] + ["help"])
    spec = {"--" + option[0]: option for option in options}
    values = {name: default for name, _, _, default, _ in options}
    for opt, value in opts:
        if opt in ("-h", "--help"):
            _help(command)
        name, metavar, convert, _, _ = spec[opt]
        if metavar == "flag":
            value = True
        elif type(convert) is tuple:
            if value not in convert:
                _usage_error(command, f"argument {opt}: invalid choice: {value!r} (choose from {', '.join(convert)})")
        else:
            try:
                value = convert(value)
            except ValueError:
                _usage_error(command, f"argument {opt}: invalid {convert.__name__} value: {value!r}")
        values[name] = value
    if rest:
        _usage_error(command, "unrecognized arguments: " + " ".join(rest))
    missing = ["--" + name for name, value in values.items() if value is REQUIRED]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(handler=handler, **{name.replace("-", "_"): value for name, value in values.items()})


def _getopt(command: Optional[str], args: list[str], longopts: list[str]) -> tuple[list[tuple[str, str]], list[str]]:
    try:
        return getopt.getopt(args, "h", longopts)
    except getopt.GetoptError as exc:
        _usage_error(command, exc.msg)


def _invocation(option: tuple) -> str:
    name, metavar, convert = option[:3]
    return f"--{name}" if metavar == "flag" else f"--{name} {metavar or '{' + ','.join(convert) + '}'}"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: minbal [-h] {" + ",".join(COMMANDS) + "} ..."
    return " ".join([f"usage: minbal {command} [-h]", *(
        _invocation(option) if option[3] is REQUIRED else f"[{_invocation(option)}]" for option in COMMANDS[command][2])])


def _help(command: Optional[str]) -> NoReturn:
    if command is None:
        lines = [
            "Min-balanced coalition systems, facet catalogues of the balanced /",
            "totally balanced / (conjectured) exact game cones, and certified",
            "membership checks, all in exact rational arithmetic.",
            "",
            "commands:",
            *(f"  {name:<12}{text}" for name, (text, _, _) in COMMANDS.items()),
            "",
            "'minbal CMD -h' explains the options of CMD:",
            *("  " + _usage(name).removeprefix("usage: ") for name in COMMANDS),
        ]
    else:
        text, _, options = COMMANDS[command]
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(_invocation(option), option[4]) for option in options]
        lines = [text, "", "options:", *(f"  {left:<20}  {helptext}" if len(left) <= 20 else f"  {left}\n{'':24}{helptext}"
                                          for left, helptext in rows)]
    print(_usage(command), "", *lines, sep="\n")
    raise SystemExit(0)


def _usage_error(command: Optional[str], message: str) -> NoReturn:
    print(_usage(command), f"minbal{' ' + command if command else ''}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
