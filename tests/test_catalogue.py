"""Catalogue generation, classification, rendering and serialization."""

from random import Random

import pytest

from minbal.balance import InequalityVector, _enumerate_size, _types, canonical_type, system_of
from minbal.catalogue import (
    CatalogueFormatError,
    generate,
    induced_system,
    parse,
    render_inequality,
    serialize,
)
from minbal.cones import conjugate, is_balanced, is_totally_balanced_lp
from minbal.games import (
    Players,
    SetFunction,
    is_o_standardized,
    letters,
    random_game,
    reflect,
    set_function_of,
    unanimity,
)
from minbal.reduction import is_reducible

CONES = ["balanced", "totally-balanced", "exact-conjecture"]


class TestGenerate:
    def test_balanced_four(self, balanced4):
        assert len(balanced4.entries) == 41
        assert len(balanced4.types) == 9

    def test_exact_four(self, exact4):
        assert len(exact4.entries) == 44
        assert len(exact4.types) == 6
        by_id = exact4.type_table()
        for tid, summary in by_id.items():
            partner = by_id[summary.conjugate_type_id]
            assert partner.conjugate_type_id == tid
            assert partner.count == summary.count
        assert sorted(s.count for s in exact4.types) == [4, 4, 6, 6, 12, 12]

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

    def test_conjecture_flag(self, exact4, balanced4):
        assert exact4.conjecture and not balanced4.conjecture

    def test_entries_identified_by_full_vector(self, totally4):
        # the same combinatorial type on two different carriers gives two
        # distinct coefficient vectors
        alphas = {e.alpha.items for e in totally4.entries}
        assert len(alphas) == len(totally4.entries)

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

    def test_balanced_complement_links(self, balanced4):
        table = balanced4.type_table()
        for summary in balanced4.types:
            partner = table[summary.complement_type_id]
            assert partner.complement_type_id == summary.type_id
            assert partner.count == summary.count

    def test_type_counts_equal_orbit_sizes(self, balanced4, totally4, exact4):
        for catalogue in (balanced4, totally4, exact4):
            for summary in catalogue.types:
                assert summary.count == summary.representative.orbit_size


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

    def test_text_contains_appendix_lines(self, balanced3):
        text = serialize(balanced3, "text").decode()
        assert "2·m(abc) − m(ab) − m(ac) − m(bc) + m(∅) ≥ 0" in text
        assert "self-complementary, irreducible" in text

    def test_unknown_format(self, balanced3):
        with pytest.raises(ValueError):
            serialize(balanced3, "yaml")

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

    def test_unrecorded_player_count_rejected(self, monkeypatch):
        import json

        import minbal.catalogue

        def no_search(*args):
            raise AssertionError("parse generated a catalogue with no recorded counts")

        monkeypatch.setattr(minbal.catalogue, "generate", no_search)
        doc = {"players": list("abcdef"), "cone": "balanced", "conjecture": False, "entries": []}
        with pytest.raises(CatalogueFormatError, match="no entry and type counts"):
            parse(json.dumps(doc))

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


class TestDeterminism:
    @pytest.mark.parametrize("cone", CONES)
    def test_cold_and_warm_caches_agree_small(self, p4, cone):
        _enumerate_size.cache_clear()
        _types.clear()
        cold = serialize(generate(p4, cone))
        _enumerate_size.cache_clear()
        for other in CONES:
            if other != cone:
                generate(p4, other)
        assert serialize(generate(p4, cone)) == cold

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
