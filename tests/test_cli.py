"""Command-line interface: subcommands, formats and exit codes."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import minbal
from minbal.catalogue import generate, serialize
from minbal import cli
from minbal.cli import main
from minbal.games import Game, Players, game_of, game_to_json, letters

from conftest import reference_parser, system_payload


def _module_command(*args, **env):
    """The argv and environment of ``python -m minbal.cli`` with this
    package's source on the path and ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(minbal.__file__)))
    path = os.environ.get("PYTHONPATH")
    return [sys.executable, "-m", "minbal.cli", *args], dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src, **env)


def _run_module(*args, **env):
    """Run ``_module_command``; its output is bytes."""
    argv, env = _module_command(*args, **env)
    return subprocess.run(argv, capture_output=True, env=env)


@pytest.fixture()
def market_file(tmp_path, market_game):
    path = tmp_path / "market.json"
    path.write_text(game_to_json(market_game))
    return str(path)


@pytest.fixture()
def anti_dual_file(tmp_path, market_anti_dual):
    path = tmp_path / "anti.json"
    path.write_text(game_to_json(market_anti_dual))
    return str(path)


class TestEnumerate:
    def test_full_carrier_text(self, capsys):
        assert main(["enumerate", "--players", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("carrier=abc") == 5
        assert "{ab, ac, bc}" in out and "irreducible" in out

    def test_carrier_size(self, capsys):
        assert main(["enumerate", "--players", "4", "--carrier-size", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 6  # one partition per pair

    def test_types_only(self, capsys):
        assert main(["enumerate", "--players", "4", "--types-only"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 18  # 9 types, two lines each
        assert "3·m(abcd) − m(abc) − m(abd) − m(acd) − m(bcd) + m(∅) ≥ 0" in out

    def test_irreducible_only_json(self, capsys):
        assert main(["enumerate", "--players", "4", "--irreducible-only", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 18
        assert all(item["irreducible"] for item in doc)

    def test_json_fields_match_catalogue_entries(self, capsys, balanced4):
        # the full-carrier systems are the balanced catalogue's, in order,
        # written as json.dumps writes the reference encoder's payloads
        assert main(["enumerate", "--players", "4", "--format", "json"]) == 0
        out = capsys.readouterr().out
        fields = ("system", "carrier", "weights", "k", "irreducible")
        entries = json.loads(serialize(balanced4))["entries"]
        assert json.loads(out) == [{f: e[f] for f in fields} for e in entries]
        payloads = [system_payload(balanced4.players, e.mbs) | {"irreducible": e.irreducible} for e in balanced4.entries]
        assert out == json.dumps(payloads, indent=2, ensure_ascii=False) + "\n"

    def test_bad_carrier_size(self, capsys):
        assert main(["enumerate", "--players", "3", "--carrier-size", "9"]) == 2
        assert capsys.readouterr().err == "error: carrier size must be between 1 and 3\n"

    def test_player_cap(self, capsys):
        assert main(["enumerate", "--players", "7"]) == 2
        assert main(["enumerate", "--players", "-20"]) == 2
        assert main(["catalogue", "--players", "-22", "--cone", "balanced"]) == 2
        assert "player count" in capsys.readouterr().err


class TestCatalogue:
    def test_text_to_stdout(self, capsys):
        assert main(["catalogue", "--players", "4", "--cone", "exact-conjecture", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "# entries: 44  types: 6" in out
        assert "m(abcd) − m(acd) − m(bcd) + m(cd) ≥ 0" in out

    def test_json_file_output(self, tmp_path, capsys):
        target = tmp_path / "cat.json"
        assert main(["catalogue", "--players", "3", "--cone", "balanced", "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["cone"] == "balanced" and len(doc["entries"]) == 5
        assert capsys.readouterr().out == ""  # results went to the file

    def test_stdout_equals_out_file_on_an_ascii_stdout(self, tmp_path):
        # the UTF-8 bytes go to stdout whatever encoding its text layer has
        argv = ["catalogue", "--players", "3", "--cone", "balanced", "--format", "text"]
        target = tmp_path / "cat.txt"
        assert _run_module(*argv, "--out", str(target)).returncode == 0
        proc = _run_module(*argv, PYTHONIOENCODING="ascii")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == target.read_bytes()

    @pytest.mark.parametrize(
        "n, cone",
        [(n, cone) for n in range(2, 6) for cone in ("balanced", "totally-balanced", "exact-conjecture")
         if (n, cone) != (2, "exact-conjecture")] + [(6, "exact-conjecture")],
    )
    def test_streamed_json_equals_serialize(self, tmp_path, capsysbinary, n, cone):
        blob = serialize(generate(letters(n), cone))
        target = tmp_path / "cat.json"
        assert main(["catalogue", "--players", str(n), "--cone", cone, "--out", str(target)]) == 0
        assert target.read_bytes() == blob
        assert capsysbinary.readouterr().err.decode().endswith(f"wrote {len(blob)} bytes to {target}\n")
        assert main(["catalogue", "--players", str(n), "--cone", cone]) == 0
        assert capsysbinary.readouterr().out == blob

    def test_exact_two_errors(self, capsys):
        assert main(["catalogue", "--players", "2", "--cone", "exact-conjecture"]) == 2
        assert "at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--players", "3", "--types-only"],
    ["enumerate", "--players", "3", "--types-only", "--format", "json"],
    ["check", "--game", "GAME", "--cone", "balanced", "--certificate"],
])
def test_same_stdout_bytes_on_an_ascii_stdout(tmp_path, argv):
    # every command writes UTF-8 bytes; the listings and the violated
    # system's inequality hold "−" and "≥", which ASCII cannot encode
    game = tmp_path / "empty-core.json"
    game.write_text(game_to_json(game_of(letters(2), {"ab": -1})))
    argv = [str(game) if arg == "GAME" else arg for arg in argv]
    utf8 = _run_module(*argv, PYTHONIOENCODING="utf-8")
    ascii_ = _run_module(*argv, PYTHONIOENCODING="ascii")
    assert "−".encode() in utf8.stdout
    assert (ascii_.returncode, ascii_.stdout) == (utf8.returncode, utf8.stdout), ascii_.stderr


class TestCheck:
    def test_member_exit_zero(self, market_file, capsys):
        assert main(["check", "--game", market_file, "--cone", "totally-balanced"]) == 0
        assert "member" in capsys.readouterr().out

    def test_non_member_exit_one_with_certificate(self, anti_dual_file, capsys):
        code = main(["check", "--game", anti_dual_file, "--cone", "totally-balanced", "--certificate"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] is False
        assert doc["certificate"]["type"] == "failing-subgame"
        assert doc["certificate"]["coalition"] == "ab"

    def test_balanced_certificate(self, anti_dual_file, capsys):
        assert main(["check", "--game", anti_dual_file, "--cone", "balanced", "--certificate"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["type"] == "core-allocation"
        assert doc["certificate"]["payoffs"] == {"a": "-1", "b": "-1", "c": "-1"}

    def test_exact_certificate(self, market_file, capsys):
        assert main(["check", "--game", market_file, "--cone", "exact", "--certificate"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["type"] == "no-tight-allocation"
        assert doc["certificate"]["coalition"] == "a"

    @pytest.mark.parametrize("kind, cone, member, certificate", [
        ("convex", "balanced", True, "core-allocation"),
        ("convex", "totally-balanced", True, "core-allocation"),
        ("convex", "exact", True, "tight-allocation-table"),
        ("cut", "balanced", False, "violated-system"),
        ("cut", "totally-balanced", False, "failing-subgame"),
        ("cut", "exact", False, "no-tight-allocation"),
    ])
    def test_certificate_with_escaped_names_is_json_dumps(self, tmp_path, capsysbinary, kind, cone, member, certificate):
        # names JSON escapes, or writes as they are outside ASCII, and a "%";
        # every certificate kind, as json.dumps(indent=2, ensure_ascii=False) writes it
        players = Players(("é", 'q"t', "b\\s%", "\t", "名"))
        weights = [(t, 1 + t % 7) for t in range(1, 32)]
        values = [sum(w for t, w in weights if t & s == t) for s in range(32)]  # a positive sum of unanimity games
        if kind == "cut":
            values[-1] = sum(values[1 << i] for i in range(5)) - 1  # an empty core, every proper subgame convex
        game = tmp_path / "game.json"
        game.write_text(game_to_json(Game(players, tuple(values))), encoding="utf-8")
        assert main(["check", "--game", str(game), "--cone", cone, "--certificate"]) == (0 if member else 1)
        out = capsysbinary.readouterr().out.decode("utf-8")
        doc = json.loads(out)
        assert (doc["member"], doc["certificate"]["type"]) == (member, certificate)
        assert out == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert "名" in out and "\\u" not in out

    def test_missing_file(self, capsys):
        assert main(["check", "--game", "/nonexistent.json", "--cone", "balanced"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_game(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": ["a","b"], "values": {"": "0"}}')
        assert main(["check", "--game", str(bad), "--cone", "balanced"]) == 2
        assert "missing coalition key" in capsys.readouterr().err

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_game_not_in_utf8_is_an_input_error(self, tmp_path, capsys, encoding):
        game = tmp_path / "game.json"
        game.write_bytes(game_to_json(game_of(letters(2), {"ab": 1})).encode(encoding))
        assert main(["check", "--game", str(game), "--cone", "balanced"]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_zero_denominator_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": ["a","b"], "values": {"": "0", "a": "1/0", "b": "0", "ab": "0"}}')
        assert main(["check", "--game", str(bad), "--cone", "balanced"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'1/0'" in err


class TestVerify:
    @pytest.mark.parametrize("players", [2, 3, 4])
    def test_appendix_suite(self, players, capsys):
        assert main(["verify", "--players", str(players), "--suite", "appendix"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    @pytest.mark.parametrize("players", [2, 3, 4])
    def test_table1_suite(self, players, capsys):
        assert main(["verify", "--players", str(players), "--suite", "table1"]) == 0

    @pytest.mark.parametrize("suite, size, lines", [
        ("table1", 3, ["FAIL n=4 facet count: expected 44, got 36", "FAIL n=4 type count: expected 6, got 4"]),
        ("appendix", 4, ["FAIL entry count: expected 41, got 40", "FAIL type count: expected 9, got 8"]),
    ])
    def test_count_mismatch_fails_its_items(self, monkeypatch, capsys, suite, size, lines):
        # a search that loses a type fails the count items, naming both
        # counts, where the catalogue itself raises
        import minbal.catalogue

        search = minbal.catalogue._types_on
        monkeypatch.setattr(minbal.catalogue, "_types_on", lambda players, c: search(players, c)[: -1 if c == size else None])
        assert main(["verify", "--players", "4", "--suite", suite]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        assert captured.err == "0/2 items passed\n"

    def test_conjecture_suite(self, capsys):
        code = main(["verify", "--players", "3", "--suite", "conjecture", "--samples", "25", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 25

    @pytest.mark.parametrize("players", [4, 5])
    def test_conjecture_suite_probes_exact_games(self, players):
        # random games are seldom exact, so every other sample is a
        # minimum of additive games with one common total, always exact
        items = cli._suite_conjecture(SimpleNamespace(players=players, samples=11, seed=0))
        assert len(items) == 11
        for i, (name, ok, exact, _) in enumerate(items):
            family = "equal-total minimum of additive games" if i % 2 else "random"
            assert name == f"game {i} ({family}): exact <=> (TB and TB of anti-dual)"
            assert ok and exact == bool(i % 2)

    def test_appendix_out_of_range(self, capsys):
        assert main(["verify", "--players", "5", "--suite", "appendix"]) == 2
        assert capsys.readouterr().err == "error: the appendix suite covers 2 to 4 players\n"

    def test_bad_samples(self, capsys):
        assert main(["verify", "--players", "3", "--suite", "conjecture", "--samples", "0"]) == 2
        assert capsys.readouterr().err == "error: at least one sample is required\n"

    @pytest.mark.parametrize("suite", ["table1", "conjecture"])
    @pytest.mark.parametrize("players", [1, 6])
    def test_players_out_of_range(self, capsys, suite, players):
        assert main(["verify", "--players", str(players), "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: the {suite} suite covers 2 to 5 players\n")


def _outcome(parse, argv):
    """The fields ``parse`` gives ``argv``, or the code it exits with."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


# argv lists for every command: the minimal and the full form, --opt=value,
# unique prefixes, repeated options (the last one wins), a negative number
# as a value, then usage errors and help
PARSE_CORPUS = [
    "enumerate --players 3",
    "enumerate --players 4 --carrier-size 2 --irreducible-only --types-only --format json",
    "enumerate --players=4 --carrier-size=2 --format=json",
    "enumerate --pl 4 --carr 2 --irr --ty --fo json",
    "enumerate --players 3 --players 5 --format json --format text --types-only --types-only",
    "enumerate --players -20",
    "enumerate --carrier-size 2",
    "enumerate --players x",
    "enumerate --players 3 --format xml",
    "enumerate --players 3 --frobnicate",
    "enumerate --players 3 stray",
    "enumerate --players",
    "enumerate --players 3 --types-only=yes",
    "enumerate -h",
    "enumerate --players 3 --help",
    "catalogue --players 3 --cone balanced",
    "catalogue --players 5 --cone totally-balanced --format text --out cat.txt",
    "catalogue --players=5 --cone=exact-conjecture --out=cat.json",
    "catalogue --pl 4 --c balanced --fo text --o cat.txt",
    "catalogue --players 3 --cone balanced --cone exact-conjecture --out a.json --out b.json",
    "catalogue --players -20 --cone balanced",
    "catalogue --cone balanced",
    "catalogue --players 3.5 --cone balanced",
    "catalogue --players 3 --cone exact",
    "catalogue --players 3 --cone balanced --certificate",
    "catalogue --players 3 --cone balanced stray",
    "catalogue -h",
    "check --game g.json --cone balanced",
    "check --game g.json --cone exact --certificate",
    "check --game=g.json --cone=totally-balanced",
    "check --cert --ga g.json --co exact",
    "check --game a.json --game b.json --cone balanced --cone exact --certificate --certificate",
    "check --game -20 --cone balanced",
    "check --game g.json",
    "check --cone exact",
    "check --game g.json --cone core",
    "check --c exact --game g.json",
    "check --game g.json --cone balanced --players 3",
    "check --game g.json --cone balanced g2.json",
    "check --game g.json --cone core -h",
    "check -h --cone core",
    "check --h",
    "verify --players 3 --suite table1",
    "verify --players 4 --suite conjecture --samples 7 --seed 2",
    "verify --players=4 --suite=conjecture --samples=7 --seed=2",
    "verify --pl 4 --su appendix --sa 9 --se 1",
    "verify --players 3 --suite table1 --seed 1 --seed 2 --players 4",
    "verify --players -20 --suite table1",
    "verify --players 3",
    "verify --players 3 --suite conjecture --samples many",
    "verify --players 3 --suite all",
    "verify --players 3 --s table1",
    "verify --players 3 --suite table1 --verbose",
    "verify --players 3 --suite table1 now",
    "verify -h",
    "",
    "chek",
    "--players 3 check",
    "check",
    "-h",
    "--help",
    "-h check",
]


class TestParse:
    @pytest.mark.parametrize("line", PARSE_CORPUS, ids=lambda line: line or "(empty)")
    def test_same_fields_or_exit_code_as_argparse(self, capsys, line):
        # the handler is compared by identity: both parsers hold cli's own
        argv = line.split()
        expected = _outcome(reference_parser().parse_args, argv)
        assert _outcome(cli._parse, argv) == expected
        assert expected in (0, 2) or type(expected) is dict

    def test_corpus_holds_each_outcome(self, capsys):
        outcomes = [_outcome(cli._parse, line.split()) for line in PARSE_CORPUS]
        assert {out if out in (0, 2) else "fields" for out in outcomes} == {0, 2, "fields"}
        assert {out["handler"] for out in outcomes if type(out) is dict} == {entry[1] for entry in cli.COMMANDS.values()}

    def test_a_value_starting_with_a_dash_is_taken(self, capsys):
        # argparse refused a value that starts with "-" and is no number
        argv = ["check", "--game", "-g.json", "--cone", "balanced"]
        assert _outcome(reference_parser().parse_args, argv) == 2
        assert cli._parse(argv).game == "-g.json"

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_names_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: minbal {command} [-h]")
        reference = reference_parser()._subparsers._group_actions[0].choices[command]
        names = [s for action in reference._actions for s in action.option_strings]
        assert [s for s in names if s in out] == names
        text, _, options = cli.COMMANDS[command]
        assert all(help_ in out for help_ in [text, *(option[4] for option in options)])

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: minbal [-h]")
        for command, (text, _, options) in cli.COMMANDS.items():
            assert f"  {command}" in out and text in out
            assert all(f"--{option[0]}" in out for option in options)

    @pytest.mark.parametrize("argv, usage, error", [
        (["check", "--cone", "exact"], "usage: minbal check [-h] --game FILE", "minbal check: error: the following arguments are required: --game"),
        (["check", "--c", "exact"], "usage: minbal check [-h]", "minbal check: error: option --c not a unique prefix"),
        (["verify", "--players", "3", "--suite", "all"], "usage: minbal verify [-h]", "minbal verify: error: argument --suite: invalid choice: 'all'"),
        (["enumerate", "--players", "x"], "usage: minbal enumerate [-h]", "minbal enumerate: error: argument --players: invalid int value: 'x'"),
        (["chek"], "usage: minbal [-h] {enumerate,catalogue,check,verify} ...", "minbal: error: invalid command 'chek'"),
    ])
    def test_usage_error_on_stderr(self, capsys, argv, usage, error):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first, second = captured.err.splitlines()
        assert first.startswith(usage) and second.startswith(error)

    def test_check_imports_neither_argparse_nor_locale(self, market_file):
        # argparse imports gettext's locale on its first message; getopt
        # calls gettext only to word an error
        _, env = _module_command()
        code = "import sys; from minbal.cli import main; rc = main(sys.argv[1:]); print(rc, sorted({'argparse', 'locale'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code, "check", "--game", market_file, "--cone", "balanced", "--certificate"],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.rpartition(b"\n0 ")[0])["member"] is True
        assert proc.stdout.endswith(b"\n0 []\n")


class TestUsage:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--players", "3", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_check_exit_codes_via_module_run(self, tmp_path, market_file):
        bad_game = game_of(letters(2), {"ab": -1})  # empty core
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(game_to_json(bad_game))
        member = _run_module("check", "--game", market_file, "--cone", "balanced")
        assert member.returncode == 0
        rejected = _run_module("check", "--game", str(bad_path), "--cone", "balanced")
        assert rejected.returncode == 1

    def test_warning_line_on_stderr(self, tmp_path):
        # the 11-player exactness warning is the run's one record: logged
        # as "minbal: <message>" although main configures no logging
        # before a record is logged; the game fails at once, at {a}
        n = 11
        path = tmp_path / "warn11.json"
        path.write_text(game_to_json(Game(letters(n), (0, 1) + (0,) * ((1 << n) - 2))))
        proc = _run_module("check", "--game", str(path), "--cone", "exact")
        assert (proc.returncode, proc.stdout) == (1, b"exact: not a member\n")
        assert proc.stderr.decode().splitlines() == [
            "minbal: exactness check on 11 players: up to 2047 marginal vectors, with a core LP wherever one leaves the core"]


def test_closed_stdout_exits_quietly():
    # the listing (120,056 bytes) outgrows a pipe buffer, so writes fail
    # once the reader has taken one line and closed the pipe
    argv, env = _module_command("enumerate", "--players", "5")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141


def test_closed_stdout_exits_141_in_process(capsys, monkeypatch):
    # the same exit run by main in this process: stdout is a pipe whose
    # reader is gone, and once main returns its descriptor leads to devnull
    # (capsys comes first, so its stdout is restored before the original);
    # the exit leaves no descriptor open, also after a catalogue of 1 MB,
    # many blocks of cli.BLOCK_SIZE characters
    opened = len(os.listdir("/proc/self/fd"))
    for argv in (["enumerate", "--players", "5"], ["catalogue", "--players", "5", "--cone", "balanced"], ["enumerate", "--players", "5", "--format", "json"]):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 141
            stdout.write("dropped\n")
            stdout.flush()
    assert len(os.listdir("/proc/self/fd")) == opened
    assert capsys.readouterr().err == ""


def test_certificate_json_of_none_and_of_an_unknown_object():
    players = letters(3)
    assert cli._certificate_json(players, None, "") == "null"
    with pytest.raises(ValueError, match="^unknown certificate <object object at "):
        cli._certificate_json(players, object(), "")


def test_cli_module_entry():
    proc = _run_module("enumerate", "--players", "2")
    assert proc.returncode == 0
    assert b"carrier=ab" in proc.stdout
