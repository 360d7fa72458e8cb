"""Catalogue generation, classification, rendering and serialization."""

import json
from random import Random

import pytest

import minbal.catalogue
from minbal import balance
from minbal.balance import InequalityVector, MinBalancedSystem, _enumerate_size, canonical_type, complement_system, system_of
from minbal.catalogue import (
    Catalogue,
    CatalogueEntry,
    CatalogueFormatError,
    _type_id,
    generate,
    induced_system,
    parse,
    render_inequality,
    serialize,
)
from minbal.cones import conjugate, is_balanced, is_totally_balanced_lp
from minbal.games import (
    GameFormatError,
    Players,
    SetFunction,
    game_from_json,
    game_to_json,
    is_o_standardized,
    letters,
    random_game,
    reflect,
    set_function_of,
    unanimity,
)
from minbal.reduction import is_reducible

from conftest import reference_serialize

CONES = ["balanced", "totally-balanced", "exact-conjecture"]


class TestGenerate:
    def test_balanced_four(self, balanced4):
        assert len(balanced4.entries) == 41
        assert len(balanced4.types) == 9

    def test_exact_four(self, exact4):
        assert len(exact4.entries) == 44
        assert len(exact4.types) == 6
        by_id = exact4.type_table()
        for tid, rep in by_id.items():
            partner = by_id[tid[1:] if rep.conjugated else "~" + tid]
            assert partner.conjugated is not rep.conjugated
            assert partner.mbs == rep.mbs and partner.orbit_size == rep.orbit_size
        assert sorted(t.orbit_size for t in exact4.types) == [4, 4, 6, 6, 12, 12]

    @pytest.mark.parametrize("cone", ["balanced", "totally-balanced", "exact-conjecture"])
    def test_counts_checked_once(self, monkeypatch, cone):
        # generate builds and checks the type tuple once; the rendering
        # that searches nothing more checks nothing more
        looked_up = []

        class Counting(dict):
            def __getitem__(self, key):
                looked_up.append(key)
                return super().__getitem__(key)

        monkeypatch.setattr(minbal.catalogue, "_RECORDED_COUNTS", Counting(minbal.catalogue._RECORDED_COUNTS))
        catalogue = generate(letters(4), cone)
        assert looked_up == [catalogue.cone]
        serialize(catalogue)
        serialize(catalogue, "text")
        assert len(catalogue.entries) == catalogue.size
        assert looked_up == [catalogue.cone]

    def test_totally_balanced_four(self, totally4):
        assert len(totally4.entries) == 40
        assert all(e.irreducible for e in totally4.entries)
        carriers = {e.mbs.carrier for e in totally4.entries}
        assert all(c.bit_count() >= 2 for c in carriers)

    def test_exact_three(self, p3):
        e3 = generate(p3, "exact-conjecture")
        assert len(e3.entries) == 6
        assert len(e3.types) == 2

    def test_balanced_two(self, p2):
        b2 = generate(p2, "balanced")
        assert len(b2.entries) == 1
        assert len(b2.types) == 1
        assert b2.types[0].complement_type_id == b2.types[0].type_id

    def test_exact_two_rejected(self, p2):
        with pytest.raises(ValueError):
            generate(p2, "exact-conjecture")

    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            generate(letters(1), "balanced")

    @pytest.mark.parametrize("cone", CONES)
    def test_bar_in_a_player_name_rejected(self, cone):
        # type ids join coalition keys with "|": the types {a, |bc} and
        # {a|, bc} would both have the id "a||bc"
        players = Players(("a", "|", "b", "c"))
        with pytest.raises(ValueError, match=r"player name '\|'"):
            generate(players, cone)

    def test_conjecture_flag(self, exact4, balanced4):
        assert exact4.conjecture and not balanced4.conjecture

    def test_entries_identified_by_full_vector(self, totally4):
        # the same combinatorial type on two different carriers gives two
        # distinct coefficient vectors
        alphas = {e.alpha.items for e in totally4.entries}
        assert len(alphas) == len(totally4.entries)

    @pytest.mark.parametrize("n, cone", [(n, cone) for n in range(2, 6) for cone in CONES[: 2 if n == 2 else 3]] + [(6, CONES[2])])
    def test_alpha_distinct_across_all_entries(self, n, cone):
        # distinct by construction, so generate no longer checks it: the
        # images of a type are the distinct keys of its orbit, types of one
        # size have distinct canonical forms, and only a conjugate has a
        # coefficient on the full player set
        catalogue = generate(letters(n), cone)
        alphas = {e.alpha.items for e in catalogue.entries}
        assert len(alphas) == len(catalogue.entries) == catalogue.size

    def test_composition_identity(self, exact4, p4):
        plain = [e for e in exact4.entries if not e.conjugated]
        twins = [e for e in exact4.entries if e.conjugated]
        assert len(plain) == len(twins) == 22
        full = p4.full_mask
        assert all(e.alpha.coefficient(full) == 0 for e in plain)
        assert all(e.alpha.coefficient(full) >= 1 for e in twins)

    def test_exact_entries_match_conjugation(self, exact4, p4):
        twins = {e.mbs.system.members: e for e in exact4.entries if e.conjugated}
        for e in exact4.entries:
            if not e.conjugated:
                twin = twins[e.mbs.system.members]
                assert twin.alpha == conjugate(e.alpha, p4)

    def test_balanced_complement_links(self, balanced4, p5):
        # each type links to the type of its representative's complement,
        # classified independently of the orbits generate scans
        for catalogue in (balanced4, generate(p5, "balanced")):
            players, table = catalogue.players, catalogue.type_table()
            for rep in catalogue.types:
                partner = table[rep.complement_type_id]
                assert partner.complement_type_id == rep.type_id
                assert partner.orbit_size == rep.orbit_size
                assert rep.complement_type_id == _type_id(players, complement_system(rep.mbs.system, players))

    def test_balanced_entries_are_built_once(self, monkeypatch, p5):
        # each type's entry is built with its complement's type id, not
        # built and then copied to add it: 44 entries for 44 types
        entry, made = minbal.catalogue.CatalogueEntry, []
        monkeypatch.setattr(minbal.catalogue, "CatalogueEntry", lambda *args, **kwargs: made.append(args) or entry(*args, **kwargs))
        catalogue = generate(p5, "balanced")
        assert len(made) == len(catalogue.types) == 44
        assert all(t.complement_type_id is not None for t in catalogue.types)

    @pytest.mark.parametrize("n, cone", [(n, cone) for n in range(2, 6) for cone in CONES[: 2 if n == 2 else 3]] + [(6, CONES[2])])
    def test_types_are_first_entries(self, n, cone):
        # a type is the first entry of its id, the entry of its lex-least system
        catalogue = generate(letters(n), cone)
        first = {}
        for e in catalogue.entries:
            first.setdefault(e.type_id, e)
        assert catalogue.types == tuple(first.values())


class TestRendering:
    def test_appendix_line(self, p3):
        alpha = system_of(p3, "ab", "ac", "bc")
        from minbal.balance import is_min_balanced

        mbs = is_min_balanced(alpha)
        assert (
            render_inequality(mbs.alpha, p3)
            == "2·m(abc) − m(ab) − m(ac) − m(bc) + m(∅) ≥ 0"
        )

    def test_conjugated_line(self, p4):
        from minbal.balance import is_min_balanced

        mbs = is_min_balanced(system_of(p4, "a", "b"))
        assert (
            render_inequality(conjugate(mbs.alpha, p4), p4)
            == "m(abcd) − m(acd) − m(bcd) + m(cd) ≥ 0"
        )

    def test_induced_system_is_negative_support(self, exact4, p4):
        for e in exact4.entries:
            system = induced_system(e.alpha)
            if not e.conjugated:
                assert system == e.mbs.system
            else:
                assert system.members == tuple(
                    sorted(p4.full_mask ^ m for m in e.mbs.system.members)
                )


class TestCatalogueInequalitiesHold:
    def test_balanced_entries_valid_for_balanced_games(self, p4, balanced4):
        rng = Random(14)
        hits = 0
        for _ in range(120):
            g = random_game(p4, rng)
            if is_balanced(g).member:
                hits += 1
                assert all(e.alpha.evaluate(g) >= 0 for e in balanced4.entries)
        assert hits > 0

    def test_totally_balanced_entries_valid(self, p4, totally4):
        rng = Random(15)
        hits = 0
        for _ in range(200):
            g = random_game(p4, rng)
            if is_totally_balanced_lp(g).member:
                hits += 1
                assert all(e.alpha.evaluate(g) >= 0 for e in totally4.entries)
        # random games are rarely totally balanced; add sure members
        for key in ("ab", "abc", "abcd"):
            u = unanimity(p4, p4.coalition_of(key))
            from minbal.games import shift

            assert all(e.alpha.evaluate(shift(u)) >= 0 for e in totally4.entries)

    def test_alpha_o_standardized_and_closed_under_reflection(self, p4, totally4, exact4):
        for catalogue in (totally4, exact4):
            for e in catalogue.entries:
                assert e.alpha.is_o_standardized()
                values = [0] * (1 << p4.n)
                for s, c in e.alpha.items:
                    values[s] = c
                f = set_function_of(p4, {})
                f = type(f)(p4, tuple(values))
                assert is_o_standardized(f) and is_o_standardized(reflect(f))

    def test_sparse_and_dense_o_standardization_agree(self, p3, p4, totally4, exact4):
        rng = Random(88)
        vectors = [(p4, e.alpha.items) for e in totally4.entries + exact4.entries]
        for p, items in list(vectors):
            s, _ = rng.choice(items)
            vectors.append((p, tuple((t, d + (t == s)) for t, d in items)))
        for _ in range(200):
            p = rng.choice((p3, p4))
            coalitions = sorted(rng.sample(range(1 << p.n), rng.randint(1, 6)))
            vectors.append((p, tuple((s, rng.choice((-2, -1, 1, 2))) for s in coalitions)))
        answers = set()
        for p, items in vectors:
            items = tuple((s, c) for s, c in items if c)
            dense = SetFunction(p, tuple(dict(items).get(s, 0) for s in p.coalitions()))
            answer = InequalityVector(items).is_o_standardized()
            assert answer == is_o_standardized(dense)
            answers.add(answer)
        assert answers == {True, False}


@pytest.fixture()
def no_value_comparison(monkeypatch):
    """Makes ``parse`` fail if it compares entries as JSON values."""

    def compared(*args):
        raise AssertionError("parse compared entries as JSON values")

    monkeypatch.setattr(minbal.catalogue, "_first_difference", compared)


class TestSerialization:
    @pytest.mark.parametrize(
        "n, cone",
        [(4, "balanced"), (4, "totally-balanced"), (4, "exact-conjecture"), (5, "balanced"), (5, "totally-balanced")],
        ids=["balanced", "totally-balanced", "exact-conjecture", "balanced-5", "totally-balanced-5"],
    )
    def test_round_trip(self, n, cone):
        catalogue = generate(letters(n), cone)
        blob = serialize(catalogue)
        again = parse(blob)
        assert again == catalogue
        assert serialize(again) == blob

    def test_re_dumped_json_parses(self, exact4):
        import json

        blob = json.dumps(json.loads(serialize(exact4)))  # one line, other separators
        assert blob.encode() != serialize(exact4)
        assert parse(blob) == exact4

    @pytest.mark.parametrize("as_text", [False, True], ids=["bytes", "str"])
    def test_canonical_file_parses_by_bytes(self, no_value_comparison, exact4, as_text):
        blob = serialize(exact4)
        assert parse(blob.decode() if as_text else blob) == exact4

    @pytest.mark.parametrize("names", [('a"', "b\\", "c\n"), ("α", "β", "γ")], ids=["escapes", "greek"])
    def test_escaped_names_parse_by_bytes(self, no_value_comparison, names):
        catalogue = generate(Players(names), "exact-conjecture")
        assert parse(serialize(catalogue)) == catalogue

    def test_changed_digit_in_canonical_file_rejected(self, totally4):
        blob = serialize(totally4)
        at = -1
        for _ in range(5):  # to the orbit size of entries[4]
            at = blob.index(b'"orbit_size": ', at + 1)
        at += len(b'"orbit_size": ')
        assert blob[at:at + 3] == b"12\n"
        with pytest.raises(CatalogueFormatError, match=r"entries\[4\]: orbit_size differs from entry 4 of the 4-player"):
            parse(blob[:at] + b"3" + blob[at + 1:])

    def test_last_entry_dropped_in_canonical_layout_rejected(self, exact4):
        blob = serialize(exact4)
        blob = blob[:blob.rindex(b",\n    {")] + b"\n  ]\n}\n"
        assert json.loads(blob)["entries"] == json.loads(serialize(exact4))["entries"][:-1]
        with pytest.raises(CatalogueFormatError, match=r"entries\[43\]: missing; the 4-player exact-conjecture catalogue has 44"):
            parse(blob)

    def test_trailing_newline_parses(self, exact4):
        assert parse(serialize(exact4) + b"\n") == exact4

    def test_text_contains_appendix_lines(self, balanced3):
        text = serialize(balanced3, "text").decode()
        assert "2·m(abc) − m(ab) − m(ac) − m(bc) + m(∅) ≥ 0" in text
        assert "self-complementary, irreducible" in text

    def test_unknown_format(self, balanced3):
        with pytest.raises(ValueError):
            serialize(balanced3, "yaml")

    @pytest.mark.parametrize(
        "n, cone",
        [(n, cone) for n in range(2, 6) for cone in CONES if (n, cone) != (2, "exact-conjecture")]
        + [(6, "exact-conjecture")],
    )
    def test_json_matches_reference_encoder(self, n, cone):
        catalogue = generate(letters(n), cone)
        assert serialize(catalogue) == reference_serialize(catalogue)

    @pytest.mark.parametrize("cone, names", [
        *((cone, names) for cone in CONES for names in [("x1", "y", "ü"), ('a"', "b\\", "c\n"), ("α", "β", "γ")]),
        # sizes below four players have several carriers, each filled from one rendering with slot markers "\0<index>\0"
        *((cone, ("a\x00", "b%", "c\\", "ß")) for cone in ["totally-balanced", "exact-conjecture"]),
    ], ids=[f"{cone}-{names}" for cone in CONES for names in ["digit", "escapes", "greek"]]
        + ["totally-balanced-markers", "exact-conjecture-markers"])
    def test_json_escapes_names_like_reference_encoder(self, names, cone):
        catalogue = generate(Players(names), cone)
        assert serialize(catalogue) == reference_serialize(catalogue)

    def test_tampered_alpha_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["entries"][0]["alpha"][""] = 99  # breaks o-standardization
        with pytest.raises(CatalogueFormatError, match=r"entries\[0\].*alpha"):
            parse(json.dumps(doc))

    def test_tampered_weights_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        key = next(iter(doc["entries"][1]["weights"]))
        doc["entries"][1]["weights"][key] = "7/3"
        with pytest.raises(CatalogueFormatError, match=r"entries\[1\]"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("name, flag", [("balanced4", False), ("totally4", True)])
    def test_flipped_irreducible_flag_rejected(self, request, name, flag):
        import json

        doc = json.loads(serialize(request.getfixturevalue(name)))
        i = next(i for i, e in enumerate(doc["entries"]) if e["irreducible"] is flag)
        doc["entries"][i]["irreducible"] = not flag
        with pytest.raises(CatalogueFormatError, match=rf"entries\[{i}\].*irreducible"):
            parse(json.dumps(doc))

    def test_partial_orbit_rejected(self, totally4):
        import json

        doc = json.loads(serialize(totally4))
        del doc["entries"][5]
        with pytest.raises(CatalogueFormatError, match=r"entries\[5\]: system differs"):
            parse(json.dumps(doc))

    def test_whole_orbit_deleted_rejected(self, totally4):
        import json

        doc = json.loads(serialize(totally4))
        first = doc["entries"][0]["type_id"]
        doc["entries"] = [e for e in doc["entries"] if e["type_id"] != first]
        with pytest.raises(CatalogueFormatError, match="has 40 entries in 8 types"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        '{"players": ["a", "b", "c", "d", "e", "f", "g"], "cone": "balanced", "conjecture": false, "entries": []}',
        '{"players": ["a", "b", "c", "d", "e", "f", "g"], "cone": "balanced", "conjecture": false, "entries": [{"system": ',
    ], ids=["no-entries", "entries-cut"])
    def test_unrecorded_player_count_rejected(self, monkeypatch, text):
        # rejected before any carrier size is searched and before any entry is read
        def no_search(*args):
            raise AssertionError("parse searched a catalogue with no recorded counts")

        monkeypatch.setattr(minbal.catalogue, "_types_on", no_search)
        with pytest.raises(CatalogueFormatError, match="no entry and type counts are recorded for a 7-player balanced"):
            parse(text.encode())

    def test_relabelled_cone_rejected(self, balanced4):
        import json

        doc = json.loads(serialize(balanced4))
        doc["cone"] = "totally-balanced"
        for entry in doc["entries"]:
            del entry["complement_type"]
        with pytest.raises(CatalogueFormatError, match=r"entries\[0\].*totally-balanced"):
            parse(json.dumps(doc))

    def test_missing_complement_type_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        del doc["entries"][0]["complement_type"]
        with pytest.raises(CatalogueFormatError, match=r"entries\[0\].*complement_type"):
            parse(json.dumps(doc))

    def test_unknown_key_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["entries"][2]["note"] = "extra"
        with pytest.raises(CatalogueFormatError, match=r"entries\[2\].*note"):
            parse(json.dumps(doc))

    def test_integer_for_boolean_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["entries"][1]["conjugated"] = 0
        with pytest.raises(CatalogueFormatError, match=r"entries\[1\].*conjugated"):
            parse(json.dumps(doc))

    def test_missing_conjugate_rejected(self, exact4):
        import json

        doc = json.loads(serialize(exact4))
        del doc["entries"][-1]
        with pytest.raises(CatalogueFormatError, match=r"entries\[43\]: missing"):
            parse(json.dumps(doc))

    def test_reordered_entries_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["entries"] = doc["entries"][::-1]
        with pytest.raises(CatalogueFormatError, match=r"entries\[0\]: system differs"):
            parse(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(CatalogueFormatError, match="invalid JSON"):
            parse(b"{")

    def test_bytes_not_in_a_unicode_encoding_rejected(self):
        with pytest.raises(CatalogueFormatError, match="invalid JSON"):
            parse(b"\xff\xfe{")

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_unicode_but_not_utf8_rejected(self, p3, encoding):
        text = serialize(generate(p3, "totally-balanced")).decode()
        with pytest.raises(CatalogueFormatError, match="invalid JSON"):
            parse(text.encode(encoding))

    def test_bar_in_a_player_name_rejected(self, totally4):
        import json

        doc = json.loads(serialize(totally4))
        doc["players"] = ["a", "|", "b", "c"]
        with pytest.raises(CatalogueFormatError, match=r"player name '\|'"):
            parse(json.dumps(doc))

    def test_wrong_conjecture_flag_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["conjecture"] = True
        with pytest.raises(CatalogueFormatError, match="conjecture"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("players", [5, None])
    def test_non_list_players_rejected(self, balanced3, players):
        import json

        doc = json.loads(serialize(balanced3))
        doc["players"] = players
        with pytest.raises(CatalogueFormatError, match="'players' must be a list of strings"):
            parse(json.dumps(doc))

    def test_string_players_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["players"] = "".join(doc["players"])  # "abc" must not spell out a, b, c
        with pytest.raises(CatalogueFormatError, match="'players' must be a list of strings"):
            parse(json.dumps(doc))

    def test_integer_conjecture_flag_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["conjecture"] = 0
        with pytest.raises(CatalogueFormatError, match="'conjecture' must be false"):
            parse(json.dumps(doc))

    def test_repeated_key_rejected(self, balanced3):
        text = serialize(balanced3).decode()
        line = next(line for line in text.splitlines(keepends=True) if '"k": ' in line)
        with pytest.raises(CatalogueFormatError, match="repeated key 'k'"):
            parse(text.replace(line, line + line, 1))

    def test_multi_character_names_round_trip(self):
        blob = serialize(generate(Players(("x1", "y2", "z3")), "balanced"))
        assert serialize(parse(blob)) == blob

    def test_member_names_must_be_names(self):
        import json

        doc = json.loads(serialize(generate(Players(("ab", "c")), "balanced")))
        assert doc["entries"][0]["system"] == [["ab"], ["c"]]
        doc["entries"][0]["system"][0] = ["a", "b"]  # joins to the key "ab", but names no player
        with pytest.raises(CatalogueFormatError, match="system differs"):
            parse(json.dumps(doc))

    def test_unknown_top_level_key_rejected(self, balanced3):
        import json

        doc = json.loads(serialize(balanced3))
        doc["note"] = "extra"
        with pytest.raises(CatalogueFormatError, match="top-level fields"):
            parse(json.dumps(doc))


@pytest.fixture()
def decoded_objects(monkeypatch):
    """Every JSON object the readers decode, as the pairs of its members."""
    objects = []

    class Recording(json.JSONDecoder):
        def __init__(self, *, object_pairs_hook, **kwargs):
            super().__init__(object_pairs_hook=lambda pairs: objects.append(pairs) or object_pairs_hook(pairs), **kwargs)

    monkeypatch.setattr(json, "JSONDecoder", Recording)
    return objects


class TestReader:
    """The member-by-member reader behind ``parse``, and behind
    ``game_from_json`` on a document ``json.loads`` rejects."""

    def test_canonical_file_parses_without_decoding_an_entry(self, decoded_objects):
        catalogue = generate(letters(5), "totally-balanced")
        blob = serialize(catalogue)
        assert parse(blob) == catalogue
        assert decoded_objects == []
        assert parse(json.dumps(json.loads(blob))) == catalogue  # other bytes: every entry is decoded
        assert len(decoded_objects) == 3 * 428  # each entry, its weights and its alpha

    @pytest.mark.parametrize("cut, message", [
        (lambda blob: blob[:blob.rindex(b'"orbit_size"')], "invalid JSON: Expecting property name"),
        (lambda blob: blob + b" x", "invalid JSON: Extra data"),
    ], ids=["inside-last-entry", "after-closing-brace"])
    def test_canonical_file_cut_or_extended_rejected(self, exact4, cut, message):
        with pytest.raises(CatalogueFormatError, match=message):
            parse(cut(serialize(exact4)))

    def test_entry_beyond_the_last_rejected(self, exact4):
        doc = json.loads(serialize(exact4))
        doc["entries"].append(doc["entries"][-1])
        with pytest.raises(CatalogueFormatError, match=r"entries\[44\]: beyond the 44 entries of the 4-player exact-conjecture"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("first", [False, True], ids=["entries-last", "entries-first"])
    def test_entries_not_a_list_rejected(self, balanced3, first):
        doc = json.loads(serialize(balanced3))
        doc["entries"] = {}
        if first:
            doc = {"entries": doc.pop("entries"), **doc}
        with pytest.raises(CatalogueFormatError, match="'entries' must be a list"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("position", [0, 1, 3], ids=["first", "second", "after-conjecture-and-cone"])
    def test_entries_before_a_header_field_parse(self, exact4, position):
        doc = json.loads(serialize(exact4))
        entries = doc.pop("entries")
        items = list(doc.items())
        items.insert(position, ("entries", entries))
        if position == 3:  # entries last, but the header fields out of order
            items[1], items[2] = items[2], items[1]
        assert parse(json.dumps(dict(items), indent=2)) == exact4

    @pytest.mark.parametrize("data, message", [
        (b'\xef\xbb\xbf{"players": ["a", "b"]}', r"invalid JSON: Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1 \(char 0\)"),
        (b"[]", "top level must be an object"),
        (b'{"players": ["a", "b"], "players": ["a"]}', "repeated key 'players' in a JSON object"),
        (b'{"cone": "balanced"}', "missing required field 'players'"),
        (b"\xc3(", "invalid JSON: 'utf-8' codec can't decode byte 0xc3 in position 0: invalid continuation byte"),
        (b"", r"invalid JSON: Expecting value: line 1 column 1 \(char 0\)"),
        (b'{"players": ["a", "b",], "cone": "balanced"}', r"invalid JSON: Expecting value: line 1 column 23 \(char 22\)"),
        (b'{"players" ["a", "b"]}', r"invalid JSON: Expecting ':' delimiter: line 1 column 12 \(char 11\)"),
        (b'{"cone": "balanced"} {}', r"invalid JSON: Extra data: line 1 column 22 \(char 21\)"),
    ], ids=["bom", "list", "repeated-key", "missing-field", "not-utf8", "empty", "syntax-in-header", "missing-colon",
            "extra-data"])
    def test_header_faults_give_one_message_in_both_formats(self, data, message):
        # a game document that json.loads rejects is read again by the
        # catalogue reader, as bytes or as text
        try:
            forms = (data, data.decode("utf-8"))
        except UnicodeDecodeError:
            forms = (data,)
        for form in forms:
            with pytest.raises(CatalogueFormatError, match=message) as catalogue_error:
                parse(form)
            with pytest.raises(GameFormatError) as game_error:
                game_from_json(form)
            assert str(catalogue_error.value) == str(game_error.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["entries"].__setitem__(0, [1]),
         "entries[0]: the entry differs from entry 0 of the 3-player balanced catalogue, which has 5 entries in 3 types"),
        (lambda doc: doc["entries"].__setitem__(0, dict(reversed(doc["entries"][0].items()))),
         "entries[0]: the field order differs from entry 0 of the 3-player balanced catalogue, which has 5 entries in 3 types"),
        (lambda doc: doc.__setitem__("cone", "convex"), "'convex' is not a valid ConeKind"),
        (lambda doc: doc.clear(), "missing required field 'players'"),
        (lambda doc: doc.__setitem__("entries", []), "entries[0]: missing; the 3-player balanced catalogue has 5 entries in 3 types"),
    ], ids=["entry-not-an-object", "fields-reordered", "unknown-cone", "empty-object", "no-entries"])
    def test_rejection_messages(self, balanced3, edit, message):
        doc = json.loads(serialize(balanced3))
        edit(doc)
        with pytest.raises(CatalogueFormatError) as error:
            parse(json.dumps(doc, indent=2))
        assert str(error.value) == message

    def test_missing_comma_between_streamed_entries_rejected(self, balanced3):
        text = serialize(balanced3).decode()
        at = text.index("},\n    {") + 1
        with pytest.raises(CatalogueFormatError) as error:
            parse(text[:at] + text[at + 1:])
        assert str(error.value) == "invalid JSON: Expecting ',' delimiter: line 46 column 5 (char 665)"

    @pytest.mark.parametrize("window", [1, 7, 1000])
    def test_windows_shorter_than_the_file(self, monkeypatch, exact4, window):
        monkeypatch.setattr(minbal.games, "_WINDOW", window)
        blob = serialize(exact4)
        assert parse(blob) == exact4
        assert parse(json.dumps(json.loads(blob)).encode()) == exact4
        game = random_game(letters(4), Random(window))
        assert game_from_json(game_to_json(game).encode()) == game

    @pytest.mark.parametrize("text", [
        '{"players": ["a"], "values": {"": 0, "a": "-1/2"}}',
        '{"values": {"": 0, "a": 1}, "players": ["a"], "x": 1.5e+3}',
        '{"players": ["a"], "values": {"": 0, "a": -Infinity}}',
        '{"players": ["\\u00e9\\ud83d\\ude00", "b"], "values": {"": 0}}',
        '{"players": ["a"], "values": {"": 0, "a": 1.}}',
        '{"players": ["a"], "values": {"": 0, "a": 1}} {}',
        '{"players": ["a"], "values": {"": 0, "a": 1, "a": 2}}',
        '{"players": ["a"], "values": {"": 0, "a": "1\n"}}',
        '{"players": ["a"], "values": {"": 0, "a": 1}',
    ])
    def test_every_window_reads_like_the_whole_text(self, monkeypatch, text):
        def outcome(data):
            try:
                return game_from_json(data)
            except GameFormatError as exc:
                return str(exc)

        whole = outcome(text)  # a str is read without windows
        for window in range(1, len(text) + 1):
            monkeypatch.setattr(minbal.games, "_WINDOW", window)
            assert outcome(text.encode()) == whole, window

    def test_early_fault_ends_the_read(self, monkeypatch, exact4):
        # a syntax error well before the end of the window is not decoded again on longer ones
        decoded = []
        more = minbal.games._Reader._more

        def recording(reader):
            grew = more(reader)
            decoded.append(reader.decoded)
            return grew

        monkeypatch.setattr(minbal.games, "_WINDOW", 256)
        monkeypatch.setattr(minbal.games._Reader, "_more", recording)
        blob = serialize(exact4)
        at = blob.index(b'"k"', blob.index(b'"type_id"'))
        with pytest.raises(CatalogueFormatError, match="invalid JSON: Expecting property name"):
            parse(blob[:at] + b"#" + blob[at:])
        assert max(decoded) < 2 * at

    @pytest.mark.parametrize("window", [1, 7, 1000])
    def test_faults_placed_in_the_whole_file(self, monkeypatch, exact4, window):
        # a syntax error in entry 30 or a byte that is not UTF-8 is placed
        # as json.loads and bytes.decode place it, whatever the window
        monkeypatch.setattr(minbal.games, "_WINDOW", window)
        blob = serialize(exact4)
        at = blob.index(b'"k"', blob.index(b'"type_id"', len(blob) * 2 // 3))
        for broken in (blob[:at] + b"#" + blob[at:], blob[:at] + b"\xff" + blob[at:]):
            try:
                json.loads(broken.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                expected = f"invalid JSON: {exc}"
            with pytest.raises(CatalogueFormatError) as error:
                parse(broken)
            assert str(error.value) == expected


@pytest.fixture()
def built(monkeypatch):
    """The number of ``InequalityVector``, ``MinBalancedSystem`` and
    ``CatalogueEntry`` objects constructed, by class name."""
    counts = dict.fromkeys(["InequalityVector", "MinBalancedSystem", "CatalogueEntry"], 0)
    for cls in (InequalityVector, MinBalancedSystem, CatalogueEntry):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestRenderingFromTypes:
    """Writing and parsing render each entry from its type; they build
    objects per type, never per entry."""

    def test_write_and_parse_build_objects_per_type(self, built):
        types, entries = 44, 1291
        _enumerate_size.cache_clear()
        catalogue = generate(letters(5), "balanced")
        blob = serialize(catalogue)
        assert blob.count(b'"orbit_size"') == entries
        assert b"# entries: 1291  types: 44\n" in serialize(catalogue, "text")
        written = dict(built)
        built.update(dict.fromkeys(built, 0))
        catalogue = parse(blob)
        assert (catalogue.size, len(catalogue.types)) == (entries, types)
        assert 0 < max(written.values()) <= 2 * types
        assert 0 < max(built.values()) <= 2 * types

    def test_changed_byte_stops_the_rendering(self, monkeypatch, built):
        # a k in entry 3 changed: the byte comparison stops at the piece
        # holding entry 3, the decoded comparison names it, and no later
        # piece is rendered
        blob = serialize(generate(letters(5), "balanced"))
        at = -1
        for _ in range(4):
            at = blob.index(b'"k": ', at + 1)
        at += len(b'"k": ')
        digit = blob[at:at + 1]
        blob = blob[:at] + (b"8" if digit == b"9" else bytes([digit[0] + 1])) + blob[at + 1:]
        passes = []  # the number of entries in each piece drawn, per rendering
        render = minbal.catalogue._json_entries

        def counting(catalogue):
            passes.append([])
            for piece in render(catalogue):
                passes[-1].append(piece.count('"orbit_size"'))
                yield piece

        monkeypatch.setattr(minbal.catalogue, "_json_entries", counting)
        built.update(dict.fromkeys(built, 0))
        with pytest.raises(CatalogueFormatError, match=r"entries\[3\]: k differs from entry 3 of the 5-player balanced"):
            parse(blob)
        assert len(passes) == 2  # the byte comparison, then the decoded one
        for counts in passes:
            assert sum(counts[:-1]) <= 3 < sum(counts)
        assert max(built.values()) <= 2 * 44

    def test_entry_in_a_later_piece_named(self):
        # entry 70 of the 5-player balanced catalogue lies in its second
        # piece: the decoded comparison still names its index
        catalogue = generate(letters(5), "balanced")
        counts = [piece.count('"orbit_size"') for piece in minbal.catalogue._json_entries(catalogue)]
        assert counts[0] <= 70 < counts[0] + counts[1]
        doc = json.loads(serialize(catalogue))
        doc["entries"][70]["weights"] = dict(reversed(doc["entries"][70]["weights"].items()))
        with pytest.raises(CatalogueFormatError, match=r"^entries\[70\]: weights differs from entry 70 of the 5-player balanced catalogue"):
            parse(json.dumps(doc, indent=2))

    def test_six_player_entry_rejected_before_larger_sizes_are_searched(self, monkeypatch):
        # the first eleven entries of the 6-player totally-balanced catalogue
        # lie on carriers of 2 and 3 players: a changed k in entry 10 is
        # named with only those two sizes searched, and no 6-player search
        catalogue = Catalogue(letters(6), "totally-balanced")
        entries = []
        for piece in minbal.catalogue._json_entries(catalogue):
            entries += json.loads("[" + piece + "]")
            if len(entries) > 10:
                break
        entries = entries[:11]
        entries[10]["k"] += 90
        doc = json.dumps({"players": list(catalogue.players.names), "cone": "totally-balanced", "conjecture": False, "entries": entries}, indent=2)

        class Stop(Exception):
            pass

        def stop_at_six(n):
            if n == 6:
                raise Stop
            return tables(n)

        tables, search, searched = balance._perm_tables, minbal.catalogue._types_on, []
        monkeypatch.setattr(balance, "_perm_tables", stop_at_six)
        monkeypatch.setattr(minbal.catalogue, "_types_on", lambda players, c: searched.append(c) or search(players, c))
        with pytest.raises(CatalogueFormatError, match=r"entries\[10\]: k differs from entry 10 of the 6-player totally-balanced catalogue, which has 37145 entries in 154 types"):
            parse(doc.encode())
        assert searched == [2, 3]


class TestDeterminism:
    @pytest.mark.parametrize("cone", CONES)
    def test_cold_and_warm_caches_agree_small(self, p4, cone):
        _enumerate_size.cache_clear()
        cold = serialize(generate(p4, cone))
        _enumerate_size.cache_clear()
        for other in CONES:
            if other != cone:
                generate(p4, other)
        assert serialize(generate(p4, cone)) == cold

    def test_six_players_classify_on_their_carriers(self, monkeypatch):
        # every exact-conjecture system has a proper carrier, so no scan
        # of the 720 relabellings of six players runs
        real = balance._perm_tables
        sizes = []

        def recording(n):
            sizes.append(n)
            return real(n)

        monkeypatch.setattr(balance, "_perm_tables", recording)
        _enumerate_size.cache_clear()
        generate(letters(6), "exact-conjecture")
        assert 6 not in sizes

    def test_complements_found_once_per_type(self, monkeypatch):
        import minbal.catalogue

        calls = []
        real = minbal.catalogue.complement_system

        def counting(system, players):
            calls.append(system)
            return real(system, players)

        monkeypatch.setattr(minbal.catalogue, "complement_system", counting)
        _enumerate_size.cache_clear()
        generate(letters(5), "balanced")
        assert len(calls) == 44  # one per type, not one per each of the 1291 systems

    def test_each_type_classified_once(self, monkeypatch):
        import minbal.catalogue

        classified, searched = [], []
        real_type, real_search = minbal.catalogue.canonical_type, minbal.catalogue._enumerate_size
        monkeypatch.setattr(minbal.catalogue, "canonical_type", lambda system, players: classified.append(system) or real_type(system, players))
        monkeypatch.setattr(minbal.catalogue, "_enumerate_size", lambda c: searched.append(real_search(c)) or searched[-1])
        _enumerate_size.cache_clear()
        generate(letters(6), "exact-conjecture")
        # no enumerated system is looked up by canonical_type, and each of
        # the 1 + 3 + 9 + 44 types on the first 2 to 5 players is flagged
        # once, on its lex-least system, by the search that finds it,
        # with the verdict of is_reducible, which the catalogue never calls
        assert classified == []
        flags = {rep.system: flag for types, irreducible in searched for rep, flag in zip(types, irreducible, strict=True)}
        assert len(flags) == sum(len(types) for types, _ in searched) == 57
        assert {system.carrier for system in flags} == {(1 << c) - 1 for c in range(2, 6)}
        assert all(canonical_type(system, letters(6))[0] == system for system in flags)
        assert all(flag == (is_reducible(rep) is None) for types, irreducible in searched for rep, flag in zip(types, irreducible))

    def test_balanced_classifies_each_complement_once(self, monkeypatch):
        import minbal.catalogue

        complements, classified = [], []
        real_complement, real_type = minbal.catalogue.complement_system, minbal.catalogue.canonical_type
        monkeypatch.setattr(minbal.catalogue, "complement_system", lambda system, players: complements.append(real_complement(system, players)) or complements[-1])
        monkeypatch.setattr(minbal.catalogue, "canonical_type", lambda system, players: classified.append(system) or real_type(system, players))
        _enumerate_size.cache_clear()
        generate(letters(5), "balanced")
        # one call per type, each on the complement of its lex-least system
        # as just built, so no enumerated system is ever classified
        assert len(classified) == 44
        assert classified == [complement_system(rep.system, letters(5)) for rep in _enumerate_size(5)[0]]
        assert all(system is complement for system, complement in zip(classified, complements, strict=True))

    def test_repeated_runs_byte_identical(self, p3):
        assert serialize(generate(p3, "balanced")) == serialize(generate(p3, "balanced"))


def test_irreducibility_flags_match_direct_computation(balanced4):
    for entry in balanced4.entries:
        assert entry.irreducible == (is_reducible(entry.mbs) is None)


def test_type_ids_are_canonical(balanced4, p4):
    for entry in balanced4.entries:
        canon, orbit = canonical_type(entry.mbs.system, p4)
        expected = "|".join(p4.key(m) for m in canon.members)
        assert entry.type_id == expected
        assert entry.orbit_size == orbit
