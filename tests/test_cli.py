"""Command-line interface: subcommands, formats and exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import minbal
from minbal.catalogue import generate, serialize
from minbal import cli
from minbal.cli import main
from minbal.games import game_of, game_to_json, letters

from conftest import system_payload


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
        assert "error:" in capsys.readouterr().err

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
        items = cli._suite_conjecture(argparse.Namespace(players=players, samples=11, seed=0))
        assert len(items) == 11
        for i, (name, ok, exact, _) in enumerate(items):
            family = "equal-total minimum of additive games" if i % 2 else "random"
            assert name == f"game {i} ({family}): exact <=> (TB and TB of anti-dual)"
            assert ok and exact == bool(i % 2)

    def test_appendix_out_of_range(self, capsys):
        assert main(["verify", "--players", "5", "--suite", "appendix"]) == 2

    def test_bad_samples(self, capsys):
        assert main(["verify", "--players", "3", "--suite", "conjecture", "--samples", "0"]) == 2


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


def test_closed_stdout_exits_quietly():
    # the listing (120,056 bytes) outgrows a pipe buffer, so writes fail
    # once the reader has taken one line and closed the pipe
    argv, env = _module_command("enumerate", "--players", "5")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141


def test_cli_module_entry():
    proc = _run_module("enumerate", "--players", "2")
    assert proc.returncode == 0
    assert b"carrier=ab" in proc.stdout
