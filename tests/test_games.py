"""Set functions, games and the shift / reflection / anti-dual transforms."""

import json
from fractions import Fraction as F
from math import lcm
from random import Random

import pytest

import minbal.games
from minbal.balance import system_of
from minbal.games import (
    Game,
    GameFormatError,
    Players,
    SetFunction,
    anti_dual,
    dirac,
    game_from_json,
    game_of,
    game_to_json,
    inner,
    is_modular,
    is_o_standardized,
    letters,
    modular_from_payoffs,
    random_game,
    reflect,
    relabelling,
    restrict,
    set_function_of,
    shift,
    tabulate,
    unanimity,
)


def _random_function(players, rng):
    return SetFunction(
        players,
        tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in players.coalitions()),
    )


class TestPlayers:
    def test_letters(self):
        p = letters(4)
        assert p.names == ("a", "b", "c", "d")
        assert p.full_mask == 0b1111
        assert p.key(0b0101) == "ac"
        assert p.coalition_of("ac") == 0b0101

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Players(("a", "a"))

    def test_cap(self):
        with pytest.raises(ValueError):
            letters(13)
        for n in (0, -22):
            with pytest.raises(ValueError, match="player count"):
                letters(n)

    def test_colliding_keys_rejected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            Players(("a", "b", "ab"))

    def test_multi_character_names(self):
        p = Players(("x1", "y2", "z3"))
        assert p.coalition_of("x1y2") == 0b011
        assert p.coalition_of("y2z3") == 0b110
        for key in ("x", "y2x1"):
            with pytest.raises(ValueError, match="not a coalition key"):
                p.coalition_of(key)
        assert game_of(p, {"x1y2": 3}).value(0b011) == 3
        assert system_of(p, "x1", "y2z3").members == (0b001, 0b110)
        g = random_game(p, Random(5))
        assert game_from_json(game_to_json(g)) == g


class TestShift:
    def test_constant_becomes_zero(self, p3):
        f = tabulate(p3, lambda s: 5)
        assert shift(f).values == (F(0),) * 8

    def test_game_is_fixed_point(self, market_game):
        assert shift(market_game) is market_game

    def test_direct_subtraction(self, p2):
        f = SetFunction(p2, (1, 1, 2, 4))
        assert shift(f).values == (0, 0, 1, 3)

    def test_differs_by_constant(self, p3):
        rng = Random(11)
        for _ in range(50):
            f = _random_function(p3, rng)
            g = shift(f)
            assert g.values[0] == 0
            assert all(g.values[s] - f.values[s] == -f.values[0] for s in p3.coalitions())


class TestRestrict:
    def test_anti_dual_restriction(self, p3, market_anti_dual):
        sub = restrict(market_anti_dual, p3.coalition_of("ab"))
        assert sub.players.names == ("a", "b")
        assert sub.values == (0, -1, -1, -3)

    def test_identity(self, market_game, p3):
        assert restrict(market_game, p3.full_mask).values == market_game.values

    def test_unanimity_outside_support(self, p4):
        u = unanimity(p4, p4.coalition_of("bc"))
        sub = restrict(u, p4.coalition_of("ab"))
        assert all(v == 0 for v in sub.values)

    def test_empty_rejected(self, market_game):
        with pytest.raises(ValueError):
            restrict(market_game, 0)


class TestRelabelling:
    def test_spreads_bits_onto_targets(self):
        assert relabelling([1, 3]) == [0b0000, 0b0010, 0b1000, 0b1010]
        assert relabelling([]) == [0]

    def test_permutation_matches_member_definition(self):
        perm = (2, 0, 3, 1)
        table = relabelling(perm)
        for s in range(16):
            assert table[s] == sum(1 << perm[i] for i in range(4) if s >> i & 1)
        assert sorted(table) == list(range(16))

    def test_increasing_targets_keep_order(self):
        table = relabelling([0, 2, 3, 5])
        assert table == sorted(table)


class TestReflect:
    def test_market_game(self, p3, market_game):
        r = reflect(market_game)
        assert r.value(0) == 3
        assert all(r.value(1 << i) == 2 for i in range(3))
        assert all(r.value(p3.full_mask ^ (1 << i)) == 0 for i in range(3))
        assert r.value(p3.full_mask) == 0

    def test_symmetric_fixed_point(self, p2):
        f = SetFunction(p2, (1, 5, 5, 1))
        assert reflect(f).values == f.values

    def test_involution(self, p3):
        rng = Random(22)
        for _ in range(200):
            f = _random_function(p3, rng)
            assert reflect(reflect(f)).values == f.values


class TestAntiDual:
    def test_market_game(self, p3, market_anti_dual):
        ad = market_anti_dual
        assert ad.values[0] == 0
        for s in p3.coalitions():
            if s.bit_count() == 1:
                assert ad.value(s) == -1
            elif s.bit_count() >= 2:
                assert ad.value(s) == -3

    def test_zero_game(self, p3):
        z = Game(p3, (0,) * 8)
        assert anti_dual(z).values == z.values

    def test_modular_negates_payoffs(self, p3):
        m = shift(modular_from_payoffs(p3, [1, 2, 3]))
        expected = shift(modular_from_payoffs(p3, [-1, -2, -3]))
        got = anti_dual(m)
        # direct evaluation of m(N \ S) - m(N)
        for s in p3.coalitions():
            assert got.value(s) == m.value(p3.full_mask ^ s) - m.value(p3.full_mask)
        assert got.values == expected.values


class TestIndicators:
    def test_unanimity_of_empty_is_constant_one(self, p3):
        assert unanimity(p3, 0).values == (F(1),) * 8

    def test_dirac_full(self, p3):
        d = dirac(p3, p3.full_mask)
        assert d.value(p3.full_mask) == 1
        assert sum(d.values) == 1

    def test_unanimity_singleton(self, p3):
        u = unanimity(p3, 1)
        for s in p3.coalitions():
            assert u.value(s) == (1 if s & 1 else 0)


class TestInner:
    def test_zero(self, p3, market_game):
        assert inner(tabulate(p3, lambda s: 0), market_game) == 0

    def test_two_player_facet(self, p2):
        alpha = set_function_of(p2, {"ab": 1, "a": -1, "b": -1, "": 1})
        m = game_of(p2, {"ab": 1})
        assert inner(alpha, m) == 1

    def test_dirac_picks_value(self, p3, market_game):
        for s in p3.coalitions():
            assert inner(dirac(p3, s), market_game) == market_game.value(s)

    def test_player_mismatch(self, p2, p3):
        with pytest.raises(ValueError):
            inner(tabulate(p2, lambda s: 0), tabulate(p3, lambda s: 0))

    def test_reflection_adjoint(self, p3):
        rng = Random(33)
        for _ in range(200):
            theta, f = _random_function(p3, rng), _random_function(p3, rng)
            assert inner(reflect(theta), f) == inner(theta, reflect(f))


class TestOStandardized:
    def test_zero(self, p3):
        assert is_o_standardized(tabulate(p3, lambda s: 0))

    def test_normalized_coefficients(self, p5):
        # 3 m(abcd) - m(ab) - m(ac) - m(ad) - 2 m(bcd) + 2 m({})
        alpha = set_function_of(
            p5, {"abcd": 3, "ab": -1, "ac": -1, "ad": -1, "bcd": -2, "": 2}
        )
        assert is_o_standardized(alpha)

    def test_unanimity_fails(self, p3):
        u = unanimity(p3, 1)
        # independent check: the raw column sums
        assert sum(u.values) == 4
        assert sum(u.values[s] for s in p3.coalitions() if s & 1) == 4
        assert not is_o_standardized(u)

    def test_closed_under_reflection(self, p3):
        rng = Random(44)
        for _ in range(100):
            f = _random_function(p3, rng)
            if is_o_standardized(f):
                assert is_o_standardized(reflect(f))
        alpha = set_function_of(p3, {"abc": 2, "ab": -1, "ac": -1, "bc": -1, "": 1})
        assert is_o_standardized(alpha) and is_o_standardized(reflect(alpha))


class TestModular:
    def test_additive_game(self, p3):
        assert is_modular(modular_from_payoffs(p3, [F(1, 2), 2, -3]))

    def test_unanimity_pair_fails(self, p3):
        u = unanimity(p3, p3.coalition_of("ab"))
        # check C={a}, D={b} by hand: 1 + 0 != 0 + 0
        ab, a, b, e = (u.value(p3.coalition_of(k)) for k in ("ab", "a", "b", ""))
        assert ab + e != a + b
        assert not is_modular(u)

    def test_constants_are_modular(self, p3):
        assert is_modular(tabulate(p3, lambda s: 7))

    def test_modularity_identity_on_pairs(self, p4):
        rng = Random(55)
        f = modular_from_payoffs(p4, [rng.randint(-5, 5) for _ in range(4)], constant=3)
        assert is_modular(f)
        for _ in range(100):
            c = rng.randrange(16)
            d = rng.randrange(16)
            assert f.value(c | d) + f.value(c & d) == f.value(c) + f.value(d)


class TestGameJson:
    def test_round_trip(self, p4):
        rng = Random(66)
        for _ in range(25):
            g = random_game(p4, rng)
            assert game_from_json(game_to_json(g)).values == g.values

    def test_documented_example(self):
        text = """
        { "players": ["a","b","c"],
          "values": { "": "0", "a": "0", "b": "0", "c": "0",
                      "ab": "2", "ac": "2", "bc": "2", "abc": "3" } }
        """
        g = game_from_json(text)
        assert g.players.names == ("a", "b", "c")
        assert g.value(g.players.coalition_of("ab")) == 2

    def test_fraction_values(self, p2):
        g = game_from_json('{"players": ["a","b"], "values": {"": 0, "a": "1/2", "b": "-3/2", "ab": 4}}')
        assert g.value(1) == F(1, 2) and g.value(2) == F(-3, 2)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"players": ["a","b"]}', "missing required field"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "0", "b": "0"}}', "missing coalition key"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "0", "b": "0", "ab": "0", "x": "1"}}', "unknown coalition"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "0.5", "b": "0", "ab": "0"}}', "not a decimal integer"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "2/4", "b": "0", "ab": "0"}}', "reduced"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "1/0", "b": "0", "ab": "0"}}', "positive denominator"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "\u0663", "b": "0", "ab": "0"}}', "not a decimal integer"),  # Arabic-Indic 3
            ('{"players": ["a","b"], "values": {"": "0", "a": "\uff11/\uff12", "b": "0", "ab": "0"}}', "not a decimal integer"),  # fullwidth 1/2
            ('{"players": ["a","b"], "values": {"": "0", "a": 0.5, "b": 0, "ab": 0}}', "integers or rational strings"),
            ('{"players": ["a","b"], "values": {"": "1", "a": "0", "b": "0", "ab": "0"}}', "empty coalition"),
            ('{"players": ["a","a"], "values": {}}', "players"),
            ("not json", "invalid JSON"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "0", "b": "0", "ab": "0"}, "extra": 1}', "top-level fields"),
            ('{"players": ["a","b"], "values": {"": "0", "a": "5", "a": "1", "b": "0", "ab": "0"}}', "repeated key 'a'"),
        ],
    )
    def test_malformed_rejected(self, doc, message):
        with pytest.raises(GameFormatError, match=message):
            game_from_json(doc)

    def test_values_before_players_parse(self, p3):
        game = random_game(p3, Random(9))
        doc = json.loads(game_to_json(game))
        assert game_from_json(json.dumps({"values": doc["values"], "players": doc["players"]})) == game

    def test_bytes_not_utf8_rejected(self):
        with pytest.raises(GameFormatError, match="invalid JSON"):
            game_from_json(b"\xc3(")

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_unicode_but_not_utf8_rejected(self, p3, encoding):
        text = game_to_json(random_game(p3, Random(5)))
        with pytest.raises(GameFormatError, match="invalid JSON"):
            game_from_json(text.encode(encoding))


class TestGameValues:
    """A table of strings is read in one pass, each distinct string once,
    and any other table, or a faulty one, value by value with one regex
    match each; a valid document is decoded by ``json.loads``, a faulty
    one read again member by member."""

    @pytest.mark.parametrize("raw", ["+1", " 1", "1_0", "\u0661", "1\n", "-", "--1", ""],
                             ids=["plus", "space", "underscore", "arabic-indic", "newline", "minus", "two-minus", "empty"])
    def test_strings_int_accepts_are_rejected(self, raw):
        # int() reads all but the last three; the format rejects them all
        doc = json.dumps({"players": ["a"], "values": {"": 0, "a": raw}})
        with pytest.raises(GameFormatError) as error:
            game_from_json(doc)
        assert str(error.value) == f"values['a']: {raw!r} is not a decimal integer or p/q rational"

    @pytest.mark.parametrize("doc, message", [
        ('{"players": ["a"], "players": ["a"], "values": {"": 0, "a": }}', "repeated key 'players' in a JSON object"),
        ('{"values": {"": 0, "a": 1, "a": 2}, "players": ["a"] x}', "repeated key 'a' in a JSON object"),
        ('{"values": {"": 0, "a": 1, "a": 2 x}, "players": ["a"]}', "invalid JSON: Expecting ',' delimiter: line 1 column 35 (char 34)"),
        ('{"players": ["a"], "players": ["a"], "values": {"": 0, "a": 1, "a": 2}}', "repeated key 'players' in a JSON object"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "0", "x": "1"}}', "unknown coalition key 'x'"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "0.5", "ab": "1"}}', "values['a']: '0.5' is not a decimal integer or p/q rational"),
        ('{"players": ["a","b"], "values": {"": "0", "b": "0.5", "ab": "1"}}', "missing coalition key 'a'"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "0", "b": "0", "ab": "1"}, "players": 1, "x": 1}', "repeated key 'players' in a JSON object"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "1,2", "b": "3", "ab": "4"}}', "values['a']: '1,2' is not a decimal integer or p/q rational"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "1", "b": "", "ab": "2"}}', "values['b']: '' is not a decimal integer or p/q rational"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "1", "b": "2", "ab": "1\\n"}}', "values['ab']: '1\\n' is not a decimal integer or p/q rational"),
        ('{"players": ["a","b"], "values": {"": 0, "a": "2", "b": true, "ab": "x"}}', "values['b']: boolean is not a rational value"),
        ('{"players": ["a","b"], "values": {"": "0", "a": "1", "b": "2", "ab": "3/6"}}', "values['ab']: '3/6' is not a reduced rational with positive denominator"),
        ('{"players": ["a","b"], "values": {"": 0, "a": 1, "b": 2, "ab": 1.5}}', "values['ab']: values must be integers or rational strings, got float"),
        ('{"players": ["a","b"], "values": {"ab": "x", "b": "-", "a": "1", "": "0"}}', "values['b']: '-' is not a decimal integer or p/q rational"),
    ], ids=["repeated-then-syntax", "inner-repeated-then-syntax", "syntax-inside-repeating-object", "repeated-twice",
            "unknown-and-missing", "bad-value-then-missing", "missing-then-bad-value", "repeated-then-extra-field",
            "value-holding-the-join-separator", "empty-value", "value-with-newline", "integers-and-strings",
            "only-the-last-string", "only-the-last-json-value", "faults-in-coalition-order"])
    def test_first_fault_wins(self, doc, message):
        for data in (doc, doc.encode()):
            with pytest.raises(GameFormatError) as error:
                game_from_json(data)
            assert str(error.value) == message

    def test_value_strings_are_read_without_a_match_each(self, monkeypatch, p3):
        # a table of decimal-integer and p/q strings is matched once,
        # joined; a table holding a JSON integer is read value by value
        game = Game(p3, tuple(range(8)))
        read, keys = minbal.games._parse_value, []
        monkeypatch.setattr(minbal.games, "_parse_value", lambda raw, key: keys.append(key) or read(raw, key))
        assert game_from_json(game_to_json(game)) == game and keys == []
        halves = game_from_json(game_to_json(game).replace('"7"', '"7/2"').replace('"3"', '"-3/4"'))
        assert halves.values[3:8:4] == (F(-3, 4), F(7, 2)) and halves.denominator == 4 and keys == []
        assert game_from_json(game_to_json(game).replace('"7"', "7")) == game
        assert keys == list(p3._keys)

    @pytest.mark.parametrize("raw, expected", [
        ("2/4", "values['b']: '2/4' is not a reduced rational with positive denominator"),
        ("1/0", "values['b']: '1/0' is not a reduced rational with positive denominator"),
        ("+1", "values['b']: '+1' is not a decimal integer or p/q rational"),
        ("1_0", "values['b']: '1_0' is not a decimal integer or p/q rational"),
        ("\u0663", "values['b']: '\u0663' is not a decimal integer or p/q rational"),  # Arabic-Indic 3
        ("-3/2", (0, 1, F(-3, 2), F(5, 3))),
        ("3/", "values['b']: '3/' is not a decimal integer or p/q rational"),
        ("/3", "values['b']: '/3' is not a decimal integer or p/q rational"),
        ("1/2/3", "values['b']: '1/2/3' is not a decimal integer or p/q rational"),
        ("1/-2", "values['b']: '1/-2' is not a decimal integer or p/q rational"),
        ("1-2", "values['b']: '1-2' is not a decimal integer or p/q rational"),
        ("-0/1", (0, 1, 0, F(5, 3))),
    ], ids=["unreduced", "zero-denominator", "plus", "underscore", "arabic-indic", "negative-rational",
            "no-denominator", "no-numerator", "two-slashes", "negative-denominator", "inner-minus", "negative-zero"])
    def test_one_pass_and_value_by_value_agree(self, raw, expected):
        # a table of strings is read in one pass, and one whose empty
        # coalition's worth is the JSON integer 0 value by value: each
        # value reads alike, or fails with one message, on both paths
        for empty in ('"0"', "0"):
            doc = json.dumps({"players": ["a", "b"], "values": {"": json.loads(empty), "a": "1", "b": raw, "ab": "5/3"}})
            try:
                outcome = game_from_json(doc).values
            except GameFormatError as exc:
                outcome = str(exc)
            assert outcome == expected

    def test_valid_document_is_decoded_whole(self, monkeypatch, p3):
        # one decode of the top-level object, no member-by-member walk
        game = random_game(p3, Random(3))
        monkeypatch.setattr(minbal.games._Reader, "members", None)
        assert game_from_json(game_to_json(game).encode()) == game

    def test_valid_document_constructs_no_reader(self, monkeypatch, p3):
        # json.loads decodes a valid document; the reader is for faults
        game = random_game(p3, Random(4))

        def no_reader(*args):
            raise AssertionError("a valid game document was read by _Reader")

        monkeypatch.setattr(minbal.games, "_Reader", no_reader)
        text = game_to_json(game)
        assert game_from_json(text) == game_from_json(text.encode()) == game

    def test_document_json_loads_rejects_is_never_accepted(self, monkeypatch):
        # were the member walk to pass a document json.loads rejected, the
        # decode would still raise
        monkeypatch.setattr(minbal.games, "_read_members", lambda *args: None)
        for data in ('{"players": ["a"], "values": {"": 0, "a": 1}} x', b"\xc3(", "[]"):
            with pytest.raises(GameFormatError, match="invalid JSON"):
                game_from_json(data)

    @pytest.mark.parametrize("doc, message", [
        ('{"players": ["a"], "values": [0, 1]}', "'values' must be an object keyed by coalitions"),
        ('{"players": ["a"], "values": "0 1"}', "'values' must be an object keyed by coalitions"),
        ('{"players": ["a"], "values": {"": 0, "a": true}}', "values['a']: boolean is not a rational value"),
        ("{}", "missing required field 'players'"),
    ], ids=["values-list", "values-string", "value-true", "empty-object"])
    def test_rejection_messages(self, doc, message):
        for data in (doc, doc.encode()):
            with pytest.raises(GameFormatError) as error:
                game_from_json(data)
            assert str(error.value) == message

    def test_values_are_fractions_kept_as_they_are(self, p2):
        g = game_from_json('{"players": ["a","b"], "values": {"": "0", "a": "-12", "b": 3, "ab": "7/2"}}')
        assert g.values == (0, -12, 3, F(7, 2)) and all(type(v) is F for v in g.values)
        assert all(a is b for a, b in zip(SetFunction(p2, g.values).values, g.values))


class TestIntegerTable:
    """A set function is stored as integer numerators over one positive
    denominator, the lcm of its values' reduced denominators; ``values``
    is built from that table on first access.  ``game_from_json`` reads
    each value straight into the table."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_constructor_and_reader_agree(self, n):
        rng = Random(f"integer table:{n}")
        players = letters(n)
        for _ in range(3):
            values = (F(0),) + tuple(F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(1, 1 << n))
            built = Game(players, values)
            read = game_from_json(game_to_json(built))
            assert "values" not in read.__dict__
            den = lcm(*(v.denominator for v in values))
            assert read.denominator == built.denominator == den
            assert read.numerators == built.numerators == tuple(int(v * den) for v in values)
            assert read.values == built.values == values
            assert read == built and hash(read) == hash(built)
            f = SetFunction(players, values)
            assert f != built and f.numerators == built.numerators

    def test_one_table_per_function(self, p2):
        # values in halves whose shift, restriction or reflection drops
        # the halves: each result has the table the constructor gives it
        f = SetFunction(p2, (F(1, 2), F(3, 2), F(-1, 2), F(7, 3)))
        g = Game(p2, (0, 1, F(1, 2), 5))
        assert (f.numerators, f.denominator) == ((3, 9, -3, 14), 6)
        cases = [
            (shift(SetFunction(p2, (F(1, 2), F(3, 2), F(-1, 2), F(5, 2)))), Game(p2, (0, 1, -1, 2))),
            (restrict(g, 0b01), Game(letters(1), (0, 1))),
            (reflect(SetFunction(p2, (F(1, 2), 1, 2, 3))), SetFunction(p2, (3, 2, 1, F(1, 2)))),
        ]
        for got, expected in cases:
            assert (got.numerators, got.denominator) == (expected.numerators, expected.denominator)
            assert got == expected and hash(got) == hash(expected) and got.values == expected.values

    def test_value_forms(self, p2):
        # JSON integers and the string forms "-0", "01" and "-7/3"
        g = game_from_json('{"players": ["a","b"], "values": {"": "-0", "a": 5, "b": "01", "ab": "-7/3"}}')
        assert (g.numerators, g.denominator) == ((0, 15, 3, -7), 3)
        assert g.value(3) == F(-7, 3) and "values" not in g.__dict__
        assert g.values == (0, 5, 1, F(-7, 3)) and g == Game(p2, (0, 5, 1, F(-7, 3)))

    @pytest.mark.parametrize("raw, message", [
        ('"3/6"', "values['a']: '3/6' is not a reduced rational with positive denominator"),
        ('"1/0"', "values['a']: '1/0' is not a reduced rational with positive denominator"),
        ('"+1"', "values['a']: '+1' is not a decimal integer or p/q rational"),
        ("true", "values['a']: boolean is not a rational value"),
        ("1.5", "values['a']: values must be integers or rational strings, got float"),
        ("null", "values['a']: values must be integers or rational strings, got NoneType"),
    ], ids=["unreduced", "zero-denominator", "plus", "true", "float", "null"])
    def test_value_faults(self, raw, message):
        doc = '{"players": ["a"], "values": {"": 0, "a": %s}}' % raw
        for data in (doc, doc.encode()):
            with pytest.raises(GameFormatError) as error:
                game_from_json(data)
            assert str(error.value) == message

    def test_nonzero_empty_value(self):
        for raw in ('"1/2"', "-1", '"3"'):
            with pytest.raises(GameFormatError) as error:
                game_from_json('{"players": ["a"], "values": {"": %s, "a": 0}}' % raw)
            assert str(error.value) == "the empty coalition must have value 0"


def test_random_game_shape(p3):
    rng = Random(77)
    g = random_game(p3, rng)
    assert isinstance(g, Game)
    assert g.values[0] == 0
    assert all(abs(v.numerator) <= 60 and v.denominator <= 3 for v in g.values)
