"""Min-balanced systems: detection, normalization, enumeration, symmetry."""

import json
import logging
import pickle
import re
import sys
from fractions import Fraction as F
from functools import reduce
from itertools import combinations, permutations, product
from math import gcd
from operator import or_
from random import Random

import pytest

from minbal import balance, linalg
from minbal.balance import (
    InequalityVector,
    MinBalancedSystem,
    SetSystem,
    _enumerate_size,
    _lowering,
    _member_values,
    _perm_tables,
    canonical_type,
    complement_system,
    enumerate_min_balanced,
    is_min_balanced,
    normalize,
    system_of,
)
from minbal.catalogue import generate, parse
from minbal.cli import main
from minbal.cones import conjugate
from conftest import (augment, det, listed_images, listed_is_lex_least, listed_marks, lp_conic_feasible, orbit, permute_coalition,
                      plain_enumerate_size, reduce_mod_rows)
from minbal.games import game_of, letters
from minbal.linalg import _eliminate, _hadamard_bits, _packed_echelon, _primitive, dependency, solve_unique
from minbal.reference import BALANCED_COUNTS


class TestIsMinBalanced:
    def test_worked_example(self, p5):
        mbs = is_min_balanced(system_of(p5, "ab", "ac", "ad", "bcd"))
        assert mbs is not None
        assert mbs.carrier == p5.coalition_of("abcd")
        assert mbs.weights == (F(1, 3), F(1, 3), F(1, 3), F(2, 3))

    def test_forced_zero_weight(self, p3):
        assert is_min_balanced(system_of(p3, "a", "b", "bc")) is None

    def test_partition(self, p3):
        mbs = is_min_balanced(system_of(p3, "a", "b", "c"))
        assert mbs is not None and mbs.weights == (1, 1, 1)

    def test_dependent_members(self, p4):
        assert is_min_balanced(system_of(p4, "a", "b", "ab", "cd")) is None

    def test_trivial_single_member(self, p3):
        mbs = is_min_balanced(system_of(p3, "ab"))
        assert mbs is not None and mbs.trivial
        assert mbs.k is None and mbs.alpha is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_min_balanced(SetSystem(()))


class TestNormalize:
    def test_worked_example(self, p5):
        weights = {
            p5.coalition_of("ab"): F(1, 3),
            p5.coalition_of("ac"): F(1, 3),
            p5.coalition_of("ad"): F(1, 3),
            p5.coalition_of("bcd"): F(2, 3),
        }
        k, alpha = normalize(weights)
        assert k == 3
        assert alpha.coefficient(p5.coalition_of("abcd")) == 3
        assert alpha.coefficient(p5.coalition_of("ab")) == -1
        assert alpha.coefficient(p5.coalition_of("ac")) == -1
        assert alpha.coefficient(p5.coalition_of("ad")) == -1
        assert alpha.coefficient(p5.coalition_of("bcd")) == -2
        assert alpha.coefficient(0) == 2

    def test_two_player_partition(self, p2):
        k, alpha = normalize({1: F(1), 2: F(1)})
        assert k == 1
        assert alpha.as_dict() == {0b11: 1, 0b01: -1, 0b10: -1, 0: 1}

    def test_three_pairs(self, p3):
        weights = {p3.coalition_of(k): F(1, 2) for k in ("ab", "ac", "bc")}
        k, alpha = normalize(weights)
        assert k == 2
        assert alpha.coefficient(p3.full_mask) == 2
        assert all(alpha.coefficient(p3.coalition_of(x)) == -1 for x in ("ab", "ac", "bc"))
        assert alpha.coefficient(0) == 1

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            normalize({0b11: F(1)})

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            normalize({0b01: F(1, 2), 0b10: F(1)})

    @pytest.mark.parametrize("members, numerators, denominator, message", [
        ([], [], 1, "normalization is defined for non-trivial systems only"),
        ([0b11], [1], 1, "normalization is defined for non-trivial systems only"),
        ([0, 0b01, 0b10], [1, 1, 1], 1, "weights must be indexed by proper nonempty members"),
        ([0b01, 0b10, 0b11], [1, 1, 1], 1, "weights must be indexed by proper nonempty members"),
        ([-2, 0b01], [1, 1], 1, "weights must be indexed by proper nonempty members"),
        ([0b01, 0b10], [-1, 1], 1, "balanced weights must be strictly positive"),
        ([0b01, 0b10], [0, 2], 2, "balanced weights must be strictly positive"),
        ([0b01, 0b10], [1, 2], 2, "weights are not balanced on the carrier"),
        ([0b011, 0b101, 0b110], [1, 1, 1], 3, "weights are not balanced on the carrier"),
    ])
    def test_rejection_messages(self, members, numerators, denominator, message):
        # each input check, on the integer core and on the Fractions it is reached from
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            balance._normalize_integers(members, numerators, denominator)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            normalize({m: F(v, denominator) for m, v in zip(members, numerators)})

    @pytest.mark.parametrize("members, denominator", [([0b10, 0b01], 1), ([0b011, 0b110, 0b101], 2), ([0b001, 0b001, 0b110], 1)])
    def test_members_must_strictly_increase(self, members, denominator):
        # the first two are balanced with equal weights, so each vector
        # would be built, unchecked, with its coalitions out of order;
        # normalize sorts the members first
        with pytest.raises(ValueError, match=r"^members must be strictly increasing bitmasks$"):
            balance._normalize_integers(members, [1] * len(members), denominator)
        if len(set(members)) == len(members):
            assert normalize(dict.fromkeys(members, F(1, denominator))) == balance._normalize_integers(sorted(members), [1] * len(members), denominator)

    @pytest.mark.parametrize("members, numerators, denominator, passes, message", [
        # weights 2 and 2: their gcd 2 leaves k = 1/2
        ([0b01, 0b10], [2, 2], 1, 1, "minimal normalization constant is not an integer; weights {1: Fraction(2, 1), 2: Fraction(2, 1)} scale to k = 1/2"),
        # weights 1 and 2 give player b a sum of -1
        ([0b01, 0b10], [1, 2], 1, 1, "normalized coefficient vector is not o-standardized"),
        # weights 1/2 and 1/2 sum to k = 2, so the empty coalition's zero coefficient is omitted
        ([0b01, 0b10], [1, 1], 2, 2, "normalized coefficient vector has |empty| coefficient < 1"),
    ])
    def test_safety_check_messages(self, monkeypatch, members, numerators, denominator, passes, message):
        # balanced weights have gcd 1 over their least denominator, and
        # their vector is o-standardized with a positive empty
        # coefficient, so the first ``passes`` packed player-sum
        # identities, the balance test's and the o-standardization's, are
        # faked to reach each check behind the balance test
        real, calls = balance._sums_to, []

        def sums_to(*args):
            calls.append(args)
            return True if len(calls) <= passes else real(*args)

        monkeypatch.setattr(balance, "_sums_to", sums_to)
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            balance._normalize_integers(members, numerators, denominator)
        assert len(calls) == passes + message.endswith("o-standardized")

    def test_packed_sums_match_player_sums(self):
        # the packed identity decides what the per-player sums decide, on
        # values from 1 bit to 80: two partitions of a carrier weighted a
        # and b sum to a + b at each of its players, and one value moved by
        # one, or a total one off, breaks that
        rng = Random(48)

        def partition(carrier):
            blocks = [0, 0, 0]
            for p in balance._bit_positions(carrier):
                blocks[rng.randrange(3)] |= 1 << p
            return [b for b in blocks if b]

        for _ in range(1000):
            n = rng.randint(1, 12)
            carrier = rng.randint(1, (1 << n) - 1)
            a, b = (rng.randint(1, 2 ** rng.randint(1, 80)) for _ in range(2))
            first, second = partition(carrier), partition(carrier)
            members, values = first + second, [a] * len(first) + [b] * len(second)
            sums = balance._player_sums(zip(members, values), n)
            assert sums == [(a + b) * (carrier >> i & 1) for i in range(n)]
            for total in (a + b, a + b - 1, a + b + 1, 0, -1):
                assert balance._sums_to(members, values, total, carrier) == (total == a + b)
            moved = values[:]
            moved[rng.randrange(len(moved))] += rng.choice((-1, 1)) if a > 1 and b > 1 else 1
            assert not balance._sums_to(members, moved, a + b, carrier)

    def test_common_factors_change_nothing(self):
        # the core reduces numerators and denominator by their gcd first
        expected = normalize({0b011: F(1, 2), 0b101: F(1, 2), 0b110: F(1, 2)})
        for factor in (1, 3, 10):
            assert balance._normalize_integers([0b011, 0b101, 0b110], [factor] * 3, 2 * factor) == expected

    def test_search_leaf_weights_are_checked(self, monkeypatch):
        # a leaf's unpacked weights and lead pass _normalize_integers'
        # checks: a lead one too large leaves the weights unbalanced
        search_kernel = balance._search_kernel

        def kernel(c):
            pack, units, unpack, reduce_row, pivot, negative = search_kernel(c)
            return pack, units, lambda v: [*unpack(v)[:-1], unpack(v)[-1] + 1], reduce_row, pivot, negative

        monkeypatch.setattr(balance, "_search_kernel", kernel)
        _enumerate_size.cache_clear()
        with pytest.raises(ValueError, match="^weights are not balanced on the carrier$"):
            _enumerate_size(3)

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_search_leaves_normalize_as_normalize_does(self, c):
        # the search normalizes its packed target's integers; normalize and
        # is_min_balanced reach the same core from Fractions
        for rep in _enumerate_size(c)[0]:
            assert normalize(rep.weight_map()) == (rep.k, rep.alpha)
            assert is_min_balanced(rep.system) == rep


class TestInequalityVector:
    @pytest.mark.parametrize("items", [
        ((0, 1), (1, -1), (2, -1), (3, F(3, 2))),
        ((0, 1), (1, -1), (2, -1), (3, 1.9)),
        ((0, 1), (1.5, -1), (3, 1)),
    ])
    def test_non_integers_rejected(self, items):
        # truncated, the first would still be o-standardized and pair with
        # the game m(ab) = 2 to 2 instead of 3
        with pytest.raises(ValueError, match="must be integers"):
            InequalityVector(items)

    def test_integral_values_kept(self, p2):
        alpha = InequalityVector(((F(0), True), (1, -1.0), (2, F(-2, 2)), (3, 1)))
        assert alpha.items == ((0, 1), (1, -1), (2, -1), (3, 1))
        assert all(type(x) is int for item in alpha.items for x in item)
        assert alpha.is_o_standardized()
        assert alpha.evaluate(game_of(p2, {"ab": 2})) == 2


class TestUncheckedConstruction:
    # the search's leaves, _normalize_integers' vectors and the images of
    # _image_system are built past the validating constructors: each must
    # equal, and pickle as, what those constructors build from it
    @staticmethod
    def assert_as_validated(mbs):
        for unchecked, validated in ((mbs.system, SetSystem(mbs.system.members)), (mbs.alpha, InequalityVector(mbs.alpha.items))):
            assert unchecked == validated
            assert pickle.dumps(unchecked) == pickle.dumps(validated)

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    def test_search_types(self, c):
        types, _ = _enumerate_size(c)
        assert len(types) == {1: 0, 2: 1, 3: 3, 4: 9, 5: 44}[c]
        for rep in types:
            self.assert_as_validated(rep)

    @pytest.mark.parametrize("carrier", [0b11111, 0b11011])
    def test_listed_systems(self, p5, carrier):
        # the full carrier's images keep their members; a proper carrier's are renamed
        systems = enumerate_min_balanced(p5, carrier)
        assert len(systems) == {0b11111: 1291, 0b11011: 41}[carrier]
        for mbs in systems:
            self.assert_as_validated(mbs)


class TestComplement:
    def test_three_blocks(self, p4):
        c = complement_system(system_of(p4, "a", "b", "cd"), p4)
        assert c == system_of(p4, "bcd", "acd", "ab")

    def test_self_complementary(self, p3):
        c = complement_system(system_of(p3, "a", "bc"), p3)
        assert c == system_of(p3, "bc", "a")

    def test_triples_to_singletons(self, p4):
        c = complement_system(system_of(p4, "abc", "abd", "acd", "bcd"), p4)
        assert c == system_of(p4, "d", "c", "b", "a")

    def test_full_set_rejected(self, p3):
        with pytest.raises(ValueError):
            complement_system(system_of(p3, "abc", "a"), p3)

    def test_complement_of_full_carrier_system_is_min_balanced(self, p4):
        # and its normalized vector is the reflection of the original
        for n in (2, 3, 4):
            p = letters(n)
            for mbs in enumerate_min_balanced(p, p.full_mask):
                comp = complement_system(mbs.system, p)
                comp_mbs = is_min_balanced(comp)
                assert comp_mbs is not None
                assert comp_mbs.carrier == p.full_mask
                assert comp_mbs.alpha == conjugate(mbs.alpha, p)


class TestEnumerate:
    @pytest.mark.parametrize("n, count, types", [(2, 1, 1), (3, 5, 3), (4, 41, 9)])
    def test_full_carrier_counts(self, n, count, types):
        p = letters(n)
        systems = enumerate_min_balanced(p, p.full_mask)
        assert len(systems) == count
        canon = {canonical_type(m.system, p)[0].members for m in systems}
        assert len(canon) == types

    def test_canonical_order(self, p4):
        systems = enumerate_min_balanced(p4, p4.full_mask)
        members = [m.system.members for m in systems]
        assert members == sorted(members)

    def test_carrier_exactness(self, p4):
        for carrier in (0b0111, 0b1011):
            for mbs in enumerate_min_balanced(p4, carrier):
                assert mbs.carrier == carrier

    def test_empty_carrier_rejected(self, p3):
        with pytest.raises(ValueError):
            enumerate_min_balanced(p3, 0)

    def test_player_cap(self):
        p7 = letters(7)
        with pytest.raises(ValueError):
            enumerate_min_balanced(p7, p7.full_mask)

    def test_warm_cache_does_not_change_output(self, p4):
        _enumerate_size.cache_clear()
        cold = enumerate_min_balanced(p4, p4.full_mask)
        _enumerate_size.cache_clear()
        generate(p4, "exact-conjecture")  # fills every proper carrier size
        assert repr(enumerate_min_balanced(p4, p4.full_mask)) == repr(cold)

    def test_permutation_invariant_counts(self, p5):
        by_size = {}
        for size in (2, 3, 4):
            counts = {
                carrier: len(enumerate_min_balanced(p5, carrier))
                for carrier in range(32)
                if carrier.bit_count() == size
            }
            assert len(set(counts.values())) == 1
            by_size[size] = next(iter(counts.values()))
        assert by_size == {2: 1, 3: 5, 4: 41}

    def test_relabelled_systems_match_direct_detection(self, p5):
        # each carrier's systems are renamed from one search per size;
        # renaming must give exactly what detection computes from scratch
        for carrier in range(32):
            if carrier.bit_count() < 2:
                continue
            for mbs in enumerate_min_balanced(p5, carrier):
                assert mbs.carrier == carrier
                direct = is_min_balanced(mbs.system)
                assert direct is not None
                assert (mbs.weights, mbs.k, mbs.alpha) == (direct.weights, direct.k, direct.alpha)

    def test_marks_built_once_per_size(self, monkeypatch):
        # the search and the orbit sizes read the same packed marks
        real, built = balance._perm_tables, []
        monkeypatch.setattr(balance, "_perm_tables", lambda n: built.append(n) or real(n))
        balance._packed_marks.cache_clear()
        _enumerate_size.cache_clear()
        assert sum(balance._orbit_sizes(5)) == BALANCED_COUNTS[5][0]
        assert built == [5]

    def test_six_player_carrier_warns_before_searching(self, monkeypatch, caplog):
        # every entry point that starts the 6-player search warns once, on
        # the cache miss, before the search builds its 720 relabellings
        class Stop(Exception):
            pass

        real = balance._perm_tables
        warnings_at_search = []

        def stop_at_six(n):
            if n == 6:
                warnings_at_search.append([r.getMessage() for r in caplog.records if r.levelno == logging.WARNING])
                raise Stop
            return real(n)

        monkeypatch.setattr(balance, "_perm_tables", stop_at_six)
        p6 = letters(6)
        # a balanced catalogue has one carrier size, searched for its first entry
        doc = json.dumps({"players": list(p6.names), "cone": "balanced", "conjecture": False, "entries": [{}]})
        starts = [
            lambda: enumerate_min_balanced(p6, p6.full_mask),
            lambda: main(["catalogue", "--players", "6", "--cone", "totally-balanced"]),
            lambda: parse(doc),
            lambda: main(["enumerate", "--players", "6"]),
        ]
        _enumerate_size.cache_clear()
        with caplog.at_level(logging.WARNING, logger="minbal"):
            for start in starts:
                caplog.clear()
                with pytest.raises(Stop):
                    start()
                assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1
            caplog.clear()
            assert len(enumerate_min_balanced(p6, 0b011111)) == 1291
            assert not caplog.records
        assert len(warnings_at_search) == 4
        assert all(len(w) == 1 and "6-player carrier" in w[0] for w in warnings_at_search)

    @pytest.mark.parametrize("c, cost", [(6, "expect about 0.5 s, and up to 12 s and 250 MB to list them all"), (7, "expect about 100 s and 100 MB"),
                                         (8, "expect far more than the 100 s and 100 MB of 7 players")])
    def test_search_warning_states_the_cost_of_its_size(self, monkeypatch, caplog, c, cost):
        # the warning is logged before the search builds anything, so no search runs here
        class Stop(Exception):
            pass

        def stop(_):
            raise Stop

        monkeypatch.setattr(balance, "_packed_marks", stop)
        with caplog.at_level(logging.WARNING, logger="minbal"), pytest.raises(Stop):
            _enumerate_size.__wrapped__(c)
        assert [r.getMessage() for r in caplog.records] == [f"enumerating min-balanced systems on a {c}-player carrier: {cost}"]


class TestOrderlySearch:
    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_matches_plain_dfs(self, c):
        def fields(systems):
            return [(m.system, m.weights, m.k, m.alpha) for m in systems]

        p = letters(c)
        assert fields(enumerate_min_balanced(p, p.full_mask)) == fields(plain_enumerate_size(c))

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_a_member_with_a_player_of_its_own_meets_no_other(self, c):
        # the fact the search's last level prunes by, pinned on the plain
        # DFS: positive weights at a player held by one member make its
        # weight 1, so no other member holds any of its players
        apart = 0
        for mbs in plain_enumerate_size(c):
            members = mbs.system.members
            for i, m in enumerate(members):
                others = reduce(or_, members[:i] + members[i + 1:])
                if m & ~others:
                    assert not m & others and mbs.weights[i] == 1
                    apart += 1
        assert apart > 0

    @pytest.mark.parametrize("c, tested", [(2, 3), (3, 16), (4, 110), (5, 1246)])
    def test_last_members_are_tested_for_canonicity_only_at_positive_leaves(self, monkeypatch, c, tested):
        # every lex-least test reads steps[s] once; at c = 5 testing every
        # candidate, the last level's included, made 2,887 tests
        class Counted(list):
            def __getitem__(self, s):
                reads.append(s)
                return super().__getitem__(s)

        reads, packed_marks = [], balance._packed_marks
        monkeypatch.setattr(balance, "_packed_marks", lambda c: (lambda marks, steps, *rest: (marks, Counted(steps), *rest))(*packed_marks(c)))
        _enumerate_size.cache_clear()
        assert len(_enumerate_size(c)[0]) == [1, 3, 9, 44][c - 2]
        assert len(reads) == tested

    @pytest.mark.parametrize("c, nodes, candidates, stepped, empty", [(4, 16, 23, 23, 1), (5, 183, 567, 465, 9)])
    def test_last_level_steps_the_fewer_of_its_vectors_and_candidates(self, monkeypatch, c, nodes, candidates, stepped, empty):
        # a last-level node lists its candidates from its members alone,
        # then steps its c vectors or each candidate's sum of its parent's,
        # whichever is fewer; stepping every node's vectors made 64 and 915
        # steps, and a node with no candidate steps nothing
        work = _last_level_work(monkeypatch, c)
        assert (len(work), sum(n for n, _ in work), sum(s for _, s in work)) == (nodes, candidates, stepped)
        assert [s for n, s in work if n == 0] == [0] * empty
        assert all(s == min(c, n) for n, s in work)

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_orbit_fill_matches_cold_scan(self, c):
        # the search yields each type's canonical form, in canonical order,
        # and every image of the expansion classifies to its representative
        # with the representative's orbit size
        _enumerate_size.cache_clear()
        representatives, _ = _enumerate_size(c)
        assert len(representatives) == BALANCED_COUNTS[c][1] == [1, 3, 9, 44][c - 2]
        assert [m.system.members for m in representatives] == sorted(m.system.members for m in representatives)
        p = letters(c)
        for rep in representatives:
            assert canonical_type(rep.system, p)[0] == rep.system
        orbits = [orbit(rep.system.members, c) for rep in representatives]
        kinds = {image: (rep.system, len(images)) for rep, images in zip(representatives, orbits) for image in images}
        images = enumerate_min_balanced(p, p.full_mask)
        assert [mbs.system.members for mbs in images] == sorted(kinds)
        for mbs in images:
            assert canonical_type(mbs.system, p) == kinds[mbs.system.members]

    def test_six_player_types(self):
        # CI pins the 6-player listings by digest; this checks the search itself
        _enumerate_size.cache_clear()
        representatives, irreducible = _enumerate_size(6)
        members = [m.system.members for m in representatives]
        assert len(members) == 582 and sum(irreducible) == 131
        assert members == sorted(members)
        # on the full carrier, canonical_type's orbit size is len(orbit(members, 6))
        types = [canonical_type(rep.system, letters(6)) for rep in representatives]
        assert [form for form, _ in types] == [rep.system for rep in representatives]
        assert sum(size for _, size in types) == 200_213


def _last_level_work(monkeypatch, c):
    """Per last-level node of a cold search on ``c`` players, in search
    order, its candidates and the vectors it steps through the row it
    enters with, that of member ``c - 2``, counted through a patched
    ``_search_kernel``.  A node is a call of the search's ``last``, which
    a profile hook sees; a candidate is a pivot, in it, of a vector with
    the last member's unit ``e_(2c - 1)`` and no target entry ``e_2c``,
    and a step a one-row step of a vector with no target entry through a
    row with no ``e_(2c - 1)`` entry."""
    nodes, inside, search_kernel = [], [False], balance._search_kernel

    def kernel(size):
        pack, units, unpack, reduce_row, pivot, negative = search_kernel(size)

        def counted_reduce_row(rows, v, prev):
            if inside[0] and len(rows) == 1 and not unpack(v)[2 * c] and not unpack(rows[0][0])[2 * c - 1]:
                nodes[-1][1] += 1
            return reduce_row(rows, v, prev)

        def counted_pivot(v):
            if inside[0] and unpack(v)[2 * c - 1] and not unpack(v)[2 * c]:
                nodes[-1][0] += 1
            return pivot(v)

        return pack, units, unpack, counted_reduce_row, counted_pivot, negative

    def profile(frame, event, arg):
        if event in ("call", "return") and frame.f_code.co_name == "last" and frame.f_code.co_filename == balance.__file__:
            inside[0] = event == "call"
            if inside[0]:
                nodes.append([0, 0])

    monkeypatch.setattr(balance, "_search_kernel", kernel)
    _enumerate_size.cache_clear()
    sys.setprofile(profile)
    try:
        _enumerate_size(c)
    finally:
        sys.setprofile(None)
        _enumerate_size.cache_clear()
    return nodes


def _stepped(vectors, bits):
    """Each of ``vectors`` entered as ``x ⊕ e_j`` and reduced by the
    packed kernel against the independent ones before it, as
    ``dependency`` reduces its columns, but going on past a vanishing
    one: per vector, its entries after each step, from none to all, and
    the pivots of the rows it was stepped through."""
    d, k = len(vectors[0]), len(vectors)
    pack, units, unpack, reduce_row, pivot, _ = _packed_echelon(d + k, d, bits)
    rows, pivots, out = [], [], []
    for x, unit in zip(vectors, units[d:]):
        v = pack(x) + unit
        out.append(([unpack(reduce_row(rows[:i], v, 1)) for i in range(len(rows) + 1)], list(pivots)))
        if (row := pivot(reduce_row(rows, v, 1))) is not None:
            rows.append(row)
            pivots.append(row[1] // (2 * bits + 3))
    return out


def _assert_minors(entries, vectors, pivots):
    """Each entry ``j`` of the last of ``vectors``, stepped through the
    rows of the others, is up to sign their minor on ``pivots + [j]``:
    zero at a pivot, where that minor repeats a column."""
    for j, a in enumerate(entries):
        assert abs(a) == (0 if j in pivots else abs(det([[vector[i] for i in pivots + [j]] for vector in vectors])))


def _sylvester_minor():
    """The 7 x 7 0/1 matrix of determinant 32 from the order-8 Sylvester
    Hadamard matrix: its first row and column dropped, -1 read as 1 and 1
    as 0.  Each row and each column holds four ones."""
    h = [[1]]
    for _ in range(3):
        h = [row + row for row in h] + [row + [-a for a in row] for row in h]
    return [[(1 - a) // 2 for a in row[1:]] for row in h[1:]]


class TestPackedEchelon:
    @pytest.mark.parametrize("c", [3, 4, 5, 6])
    def test_reduction_matches_list_reduction(self, c):
        # seeded member sets, reduced against the rows before them: each
        # row has reduce_mod_rows's pivot and is a positive multiple of its
        # row, and so is the target stepped at each new pivot; every entry
        # of both is, up to sign, a minor of the vectors entered so far.
        # A set's vector reduced is its players' unit vectors reduced, each
        # stepped once per row as the search steps them, plus the last
        # lead times its own unit vector
        bits = _hadamard_bits([[1] * c] * c)
        pack, units, unpack, reduce_row, pivot, _ = _packed_echelon(2 * c + 1, c, bits)
        width = 2 * bits + 3
        rng = Random(c)
        verdicts = {True: 0, False: 0}
        for _ in range(100):
            rows, listed_rows, entered, pivots, vectors = [], [], [], [], units[:c]
            listed_target = augment([1] * c, c, c + 1)
            target = pack(listed_target)
            for s in rng.sample(range(1, (1 << c) - 1), c + 2):
                vector = augment([s >> j & 1 for j in range(c)], len(rows), c + 1)
                reduced = reduce_row(rows, pack(vector), 1)
                assert reduced == sum(vectors[j] for j in range(c) if s >> j & 1) + (rows[-1][2] if rows else 1) * units[c + len(rows)]
                row, (listed, piv) = pivot(reduced), reduce_mod_rows(listed_rows, vector)
                verdicts[piv < c] += 1
                if piv >= c:
                    assert row is None
                    continue
                v, at, lead = row
                entries = unpack(v)
                assert at == piv * width and lead == entries[piv] > 0
                assert [a * listed[piv] for a in entries] == [b * lead for b in listed]
                _assert_minors(entries, [*entered, vector], pivots)
                target = reduce_row([row], target, rows[-1][2] if rows else 1)
                vectors = [reduce_row([row], e, rows[-1][2] if rows else 1) for e in vectors]
                rows.append(row)
                listed_rows.append((listed, piv))
                entered.append(vector)
                pivots.append(piv)
                if listed_target[piv]:
                    listed_target = _primitive(_eliminate(listed_target, listed, piv))
                stepped = unpack(target)
                assert stepped[2 * c] == lead and [a * listed_target[2 * c] for a in stepped] == [b * lead for b in listed_target]
                _assert_minors(stepped, [*entered, augment([1] * c, c, c + 1)], pivots)
        assert min(verdicts.values()) > 50

    def test_integer_matrix_entries_are_minors(self):
        # seeded integer matrices up to 6 x 6, a third of them with a last
        # row that combines the ones before it; each vector is also a
        # multiple of the list reduction's, vanishing or not
        rng = Random(31)
        dependent = 0
        for _ in range(150):
            d, k = rng.randint(1, 6), rng.randint(1, 6)
            vectors = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(k)]
            if k > 1 and rng.random() < 1 / 3:
                vectors[-1] = [sum(rng.randint(-2, 2) * x[i] for x in vectors[:-1]) for i in range(d)]
            listed_rows, entered = [], []
            for j, (trail, pivots) in enumerate(_stepped(vectors, _hadamard_bits(vectors))):
                vector = augment(vectors[j], j, k)
                for i, entries in enumerate(trail):
                    _assert_minors(entries, [*entered[:i], vector], pivots[:i])
                listed, piv = reduce_mod_rows(listed_rows, vector)
                assert [a * listed[piv] for a in entries] == [b * entries[piv] for b in listed]
                if piv < d:
                    listed_rows.append((listed, piv))
                    entered.append(vector)
                else:
                    dependent += 1
        assert dependent > 50

    def test_a_width_below_an_entry_raises(self):
        # the entries steps make within the Hadamard width fix the least
        # width that holds them; one bit less raises the overflow error.
        # The Sylvester matrix's largest is its determinant, 32, the last
        # lead
        rng = Random(32)
        matrices = [_sylvester_minor()]
        for _ in range(40):
            d = rng.randint(2, 7)
            matrices.append([[rng.randint(0, 1) for _ in range(d)] for _ in range(rng.randint(2, 7))])
        for vectors in matrices:
            bits = _hadamard_bits(vectors)
            stepped = _stepped(vectors, bits)
            made = [a for trail, _ in stepped for entries in trail[1:] for a in entries]
            least = max(1, max(made).bit_length(), (-min(made) - 1).bit_length())
            assert least <= bits and _stepped(vectors, least) == stepped
            if least > 1:
                with pytest.raises(ArithmeticError, match=rf"left \[-2\*\*{least - 1}, 2\*\*{least - 1}\)"):
                    _stepped(vectors, least - 1)
        trail, _ = _stepped(matrices[0], 6)[-1]
        assert trail[-1][6] == 32 == max(a for trail, _ in _stepped(matrices[0], 6) for entries in trail for a in entries)

    def test_a_wrong_previous_lead_raises(self):
        # the rows of [[2, 1, 0], [1, 2, 1], [0, 1, 2]]: the third, stepped
        # by the second row with the first row's lead 2 as prev, holds the
        # determinant 4.  With prev 3 the packed division leaves a
        # remainder; with prev 16 it leaves none, but 8 / 16 is no integer
        # and the quotient's field leaves its range
        pack, _, unpack, reduce_row, pivot, _ = _packed_echelon(3, 3, 4)
        first = pivot(pack([2, 1, 0]))
        second = pivot(reduce_row([first], pack([1, 2, 1]), 1))
        v = reduce_row([first], pack([0, 1, 2]), 1)
        assert unpack(reduce_row([second], v, 2)) == [0, 0, 4] == unpack(reduce_row([first, second], pack([0, 1, 2]), 1))
        with pytest.raises(ArithmeticError, match="remainder"):
            reduce_row([second], v, 3)
        with pytest.raises(ArithmeticError, match=r"left \[-2\*\*4, 2\*\*4\)"):
            reduce_row([second], v, 16)

    def test_a_packed_sum_is_checked_where_pivot_reads_it(self):
        # a sum of packed vectors, as the search builds a candidate's row,
        # made by no step: pivot checks its every field as a step's
        pack, units, _, _, pivot, _ = _packed_echelon(3, 2, 4)
        for j in range(3):
            for term, fits in ((8, 7), (-9, -7)):
                assert pivot(pack([term] * 3) + fits * units[j]) is not None
                with pytest.raises(ArithmeticError, match=r"left \[-2\*\*4, 2\*\*4\)"):
                    pivot(pack([term] * 3) + term * units[j])
        with pytest.raises(ArithmeticError, match=r"left \[-2\*\*4, 2\*\*4\)"):
            pivot(pack([0, 0, 16]))  # past the leading block, where pivot finds no pivot

    def test_a_step_with_no_entry_at_the_pivot_scales_by_lead_over_prev(self):
        # (lead * v - 0 * row) / prev is v when lead == prev; with another
        # prev the step still scales v by lead / prev
        pack, _, unpack, reduce_row, pivot, _ = _packed_echelon(3, 3, 4)
        first = pivot(pack([2, 1, 0]))
        v = pack([0, 3, -1])
        assert reduce_row([first], v, 2) == v
        assert unpack(reduce_row([first], v, 1)) == [0, 6, -2]
        second = pivot(reduce_row([first], pack([1, 2, 1]), 1))
        assert second[2] == 3 and unpack(reduce_row([first, second], pack([0, 0, 5]), 1)) == [0, 0, 15]

    def test_widths_from_hadamard(self, monkeypatch):
        # the widths the _packed_echelon docstring lists: the search's at
        # c = 2..7, each above the largest 0/1 determinant of order c, and
        # dependency's on n + 1 incidence vectors at n = 2..12, the largest
        # at the all-ones vectors; both callers pick them, the search
        # through its kernel cached per c (_search_kernel)
        search = [_hadamard_bits([[1] * c] * c) for c in range(2, 8)]
        assert search == [2, 3, 5, 6, 8, 10]
        assert all(2**bits > top for bits, top in zip(search, [1, 2, 3, 5, 9, 32]))
        columns = [_hadamard_bits([[1] * n] * (n + 1)) for n in range(2, 13)]
        assert columns == [2, 4, 6, 7, 10, 12, 14, 16, 19, 21, 24]
        widths = []

        def spy(length, leading, bits):
            widths.append(bits)
            return _packed_echelon(length, leading, bits)

        monkeypatch.setattr(balance, "_packed_echelon", spy)
        monkeypatch.setattr(linalg, "_packed_echelon", spy)
        for c in range(2, 6):
            _enumerate_size.cache_clear()
            balance._search_kernel.cache_clear()
            _enumerate_size(c)
        for n in range(2, 13):
            assert dependency([[1] * n] * (n + 1)) == [1, -1] + [0] * (n - 1)
        assert widths == search[:4] + columns

    def test_pack_and_sign_test_match_the_entries(self):
        # a vector or a prefix of one, entries in [-2**5, 2**5), packs and
        # unpacks to itself padded with zeros, and the sign test on a
        # range of entries reads what the unpacked entries say
        pack, _, unpack, _, _, negative = _packed_echelon(7, 3, 5)
        rng = Random(33)
        for _ in range(500):
            vector = [rng.choice((rng.randint(-32, 31), rng.randint(-2, 0))) for _ in range(rng.randint(0, 7))]
            assert unpack(pack(vector)) == vector + [0] * (7 - len(vector))
            start = rng.randint(0, 7)
            stop = rng.randint(start, 7)
            assert negative(pack(vector), start, stop) == all(a < 0 for a in unpack(pack(vector))[start:stop])

    def test_leaves_decoded_only_when_their_signs_pass(self, monkeypatch):
        # every leaf whose weights are all positive is a type, so the
        # search unpacks once per type; at c = 5 it reaches 684 leaves,
        # 503 of them at the last level (1045 without the last level's
        # bitmask rule), for 44 types
        unpacked = []
        search_kernel = balance._search_kernel

        def kernel(c):
            pack, units, unpack, reduce_row, pivot, negative = search_kernel(c)
            return pack, units, lambda v: unpacked.append(v) or unpack(v), reduce_row, pivot, negative

        monkeypatch.setattr(balance, "_search_kernel", kernel)
        _enumerate_size.cache_clear()
        assert len(_enumerate_size(5)[0]) == len(unpacked) == 44

    def test_sylvester_determinant_32(self):
        m = _sylvester_minor()
        assert abs(det(m)) == 32
        assert dependency(m) is None
        assert solve_unique(m, [1] * 7) == (F(1, 4),) * 7


class TestPackedCanonicity:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
    def test_fields_are_the_listed_masks(self, c):
        # field k of marks[s], full + 1 bits wide or a byte if that is
        # more, is relabelling k's mask of s, the carrier's included, and
        # _fields reads them in relabelling order
        marks, _, _, _ = balance._packed_marks(c)
        width = max(8, 1 << c)
        for packed, listed in zip(marks[1:], listed_marks(c)[1:], strict=True):
            assert [packed >> k * width & (1 << width) - 1 for k in range(len(listed))] == list(listed)
            assert list(balance._fields(packed, c)) == list(listed)
            assert packed < 1 << len(listed) * width

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_matches_list_test_on_every_member_set(self, c):
        # every set of the 2**c - 2 candidates, most of which the search
        # never reaches; bit i of ``subset`` picks coalition i + 1, and each
        # set's packed sum and images add its first member's to the rest's
        _, steps, guards, _ = balance._packed_marks(c)
        listed = listed_marks(c)
        size = 1 << (1 << c) - 2
        packed = [guards] * size
        lists = [[0] * len(listed[1])] * size
        verdicts = {True: 0, False: 0}
        for subset in range(1, size):
            first = subset & -subset
            s = first.bit_length()
            packed[subset] = packed[subset ^ first] + steps[s]
            lists[subset] = list(map(or_, lists[subset ^ first], listed[s]))
            verdict = listed_is_lex_least(lists[subset])
            assert (packed[subset] & guards == guards) == verdict
            verdicts[verdict] += 1
        assert min(verdicts.values()) > size // 50

    @pytest.mark.parametrize("c", [3, 4, 5])
    def test_orbit_size_counts_the_distinct_images(self, c):
        # every member set on three players, and on more the types and
        # random sets, many of them with a nontrivial stabilizer
        marks, _, _, orbit_size = balance._packed_marks(c)
        candidates = range(1, (1 << c) - 1)
        rng = Random(c)
        if c == 3:
            sets = [members for size in range(1, 7) for members in combinations(candidates, size)]
        else:
            sets = [tuple(sorted(rng.sample(candidates, rng.randint(1, c)))) for _ in range(300)]
            sets += [members for members in orbit((1, 2, 4), c)] + [(3, (1 << c) - 4)]
        for members in sets:
            packed = 0
            for s in members:
                packed |= marks[s]
            assert orbit_size(packed) == len(orbit(members, c))
        assert balance._orbit_sizes(c) == [len(orbit(rep.system.members, c)) for rep in _enumerate_size(c)[0]]

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_images_match_the_tuple_sorted_reference(self, c):
        # images read off the packed marks, in descending mask order, are
        # the sorted tuples of the orbit scan in ascending order, each
        # member paired with the value the same relabelling (the last
        # making it) moves onto it: the index values tell relabellings of a
        # nontrivial stabilizer apart
        for values in (_member_values, lambda rep: tuple(range(len(rep.system)))):
            types = [(rep.system.members, values(rep), rep) for rep in _enumerate_size(c)[0]]
            assert list(balance._images(types, c)) == list(listed_images(types, c))

    def test_member_values_need_a_vector_on_the_members_the_empty_set_and_the_carrier(self):
        # the shape every image of a type inherits is checked on the type
        mbs = is_min_balanced(SetSystem((0b011, 0b101, 0b110)))
        assert _member_values(mbs) == ((F(1, 2), -1),) * 3
        for items in (((0b011, -1), (0b101, -1), (0b110, -1), (0b111, 2)),  # no empty coefficient
                      ((0, 1), (0b011, -1), (0b101, -1), (0b111, 1)),  # a member missing
                      ((0, 1), (0b011, -1), (0b101, -1), (0b110, -1))):  # no carrier
            tampered = MinBalancedSystem(mbs.system, mbs.weights, mbs.k, InequalityVector(items))
            with pytest.raises(ArithmeticError, match=r"^the vector of \(3, 5, 6\) is not supported on its members, the empty set and the carrier$"):
                _member_values(tampered)

    @pytest.mark.parametrize("c", [3, 4])
    def test_list_test_is_lex_least_among_images(self, c):
        # the mask order is the lex order of sorted member tuples of one size
        listed = listed_marks(c)
        for size in range(1, (1 << c) - 1):
            for members in combinations(range(1, (1 << c) - 1), size):
                images = [sum(masks) for masks in zip(*(listed[s] for s in members))]
                assert listed_is_lex_least(images) == (members == min(orbit(members, c)))

    @pytest.mark.parametrize("c", [5, 6])
    def test_matches_list_test_on_random_member_sets(self, c):
        # every other set is renamed to its lex-least image, which passes;
        # sets with a nontrivial stabilizer tie with other fields
        _, steps, guards, _ = balance._packed_marks(c)
        listed = listed_marks(c)
        tables = _perm_tables(c)

        def listed_images(members):
            images = [0] * len(tables)
            for s in members:
                images = list(map(or_, images, listed[s]))
            return images

        rng = Random(c)
        passed = 0
        for trial in range(2000):
            members = rng.sample(range(1, (1 << c) - 1), rng.randint(1, 2 * c))
            images = listed_images(members)
            if trial % 2:
                table = tables[images.index(max(images))]
                members = [table[s] for s in members]
                images = listed_images(members)
                assert listed_is_lex_least(images)
            packed = guards + sum(steps[s] for s in members)
            verdict = packed & guards == guards
            assert verdict == listed_is_lex_least(images)
            passed += verdict
        assert 1000 <= passed < 1100


class TestEnumeratedInvariants:
    def test_weights_balance_and_minimality(self):
        # weights sum to one at each carrier player; dropping any member
        # pushes the carrier's incidence vector out of the conic hull
        for n in (2, 3, 4):
            p = letters(n)
            for mbs in enumerate_min_balanced(p, p.full_mask):
                members = mbs.system.members
                for i in range(n):
                    total = sum(
                        w for m, w in zip(members, mbs.weights) if m >> i & 1
                    )
                    assert total == 1
                chi = [tuple(m >> i & 1 for i in range(n)) for m in members]
                ones = (1,) * n
                for drop in range(len(members)):
                    rest = chi[:drop] + chi[drop + 1:]
                    assert lp_conic_feasible(rest, ones) is None

    def test_alpha_shape(self):
        for n in (2, 3, 4):
            p = letters(n)
            for mbs in enumerate_min_balanced(p, p.full_mask):
                alpha = mbs.alpha
                assert alpha.is_o_standardized()
                assert alpha.coefficient(mbs.carrier) == mbs.k > 0
                assert alpha.coefficient(0) >= 1
                ints = [mbs.k * w for w in mbs.weights]
                assert all(v.denominator == 1 for v in ints)
                assert gcd(*(int(v) for v in ints)) == 1
                for m, w in zip(mbs.system.members, mbs.weights):
                    assert alpha.coefficient(m) == -mbs.k * w < 0
                support = {s for s, _ in alpha.items}
                assert support <= set(mbs.system.members) | {0, mbs.carrier}

    def test_unanimity_pairing(self):
        # every unanimity function satisfies every catalogue inequality,
        # with equality whenever its support reaches outside the carrier
        for n in (2, 3, 4):
            p = letters(n)
            for mbs in enumerate_min_balanced(p, p.full_mask):
                for r in p.coalitions():
                    value = sum(c for s, c in mbs.alpha.items if r & s == r)
                    assert value >= 0
                    if r and r & ~mbs.carrier:
                        assert value == 0


class TestCanonicalType:
    def test_orbit_sizes(self, p4):
        assert canonical_type(system_of(p4, "ad", "bd", "cd"), p4)[1] == 4
        assert canonical_type(system_of(p4, "a", "bd", "cd", "abc"), p4)[1] == 12
        assert canonical_type(system_of(p4, "abc", "abd", "acd", "bcd"), p4)[1] == 1

    def test_orbit_members_share_canonical_form(self, p4):
        system = system_of(p4, "a", "bd", "cd", "abc")
        base = canonical_type(system, p4)[0]
        for perm in permutations(range(4)):
            image = SetSystem(tuple(sorted(permute_coalition(m, perm) for m in system.members)))
            assert canonical_type(image, p4)[0] == base

    def test_canonical_is_in_orbit(self, p4):
        system = system_of(p4, "ab", "acd", "bcd")
        canon, orbit = canonical_type(system, p4)
        images = {
            tuple(sorted(permute_coalition(m, perm) for m in system.members))
            for perm in permutations(range(4))
        }
        assert canon.members in images
        assert orbit == len(images)

    @staticmethod
    def _full_scan(system, n):
        images = {
            tuple(sorted(permute_coalition(m, perm) for m in system.members))
            for perm in permutations(range(n))
        }
        return SetSystem(min(images)), len(images)

    def test_carrier_classification_matches_full_scan(self, p5):
        # classifying on the system's own carrier gives the least image
        # and the orbit size of a scan over all n! relabellings
        for carrier in range(1, p5.full_mask + 1):
            for mbs in enumerate_min_balanced(p5, carrier):
                assert canonical_type(mbs.system, p5) == self._full_scan(mbs.system, 5)
        p6 = letters(6)
        rng = Random(613)
        for _ in range(80):
            universe = range(1, rng.choice([8, 16, 32, 64]))
            system = SetSystem(tuple(sorted(rng.sample(universe, rng.randint(1, min(6, len(universe)))))))
            assert canonical_type(system, p6) == self._full_scan(system, 6)

    def test_systems_holding_their_carrier_match_full_scan(self, p4, p5):
        # the carrier's mark sets bit 0 of every field; a one-member
        # system is its carrier, on one player or more
        rng = Random(619)
        for n, p in ((4, p4), (5, p5), (6, letters(6))):
            for _ in range(40):
                carrier = rng.randrange(1, 1 << n)
                subsets = [s for s in range(1, carrier) if s & carrier == s]
                members = rng.sample(subsets, rng.randint(0, min(5, len(subsets))))
                system = SetSystem(tuple(sorted({*members, carrier})))
                assert system.carrier == carrier
                assert canonical_type(system, p) == self._full_scan(system, n)
            assert canonical_type(SetSystem((1 << n - 1,)), p) == (SetSystem((1,)), n)
            assert canonical_type(SetSystem(tuple(range(1, 1 << n))), p) == (SetSystem(tuple(range(1, 1 << n))), 1)

    def test_orbit_table_matches_recomputation(self, p4):
        # the cached relabelling and lowering tables give the results of
        # tables rebuilt for every call
        systems = [m.system for m in enumerate_min_balanced(p4, p4.full_mask)]
        for system in systems:  # warm the tables
            canonical_type(system, p4)
        warm = [canonical_type(system, p4) for system in systems]
        cold = []
        for system in systems:
            _perm_tables.cache_clear()
            _lowering.cache_clear()
            cold.append(canonical_type(system, p4))
        assert warm == cold


# -- brute-force cross-check of the enumeration --------------------------

def _int_balanced(combo, c):
    """Test-local oracle: strict positivity of the unique weights, via
    integer Gauss-Jordan written straight from the definition."""
    k = len(combo)
    rows = [[(s >> i) & 1 for s in combo] + [1] for i in range(c)]
    for col in range(k):
        pr = next((i for i in range(col, c) if rows[i][col]), None)
        if pr is None:
            return False
        rows[col], rows[pr] = rows[pr], rows[col]
        prow = rows[col]
        lead = prow[col]
        for i in range(c):
            if i != col and rows[i][col]:
                f = rows[i][col]
                new = [lead * a - f * b for a, b in zip(rows[i], prow)]
                g = 0
                for a in new:
                    g = gcd(g, a)
                if g > 1:
                    new = [a // g for a in new]
                rows[i] = new
    for i in range(k, c):
        if rows[i][k] != 0:
            return False
    return all(rows[j][k] != 0 and (rows[j][k] > 0) == (rows[j][j] > 0) for j in range(k))


def _brute_systems(c):
    full = (1 << c) - 1
    found = []
    for size in range(2, c + 1):
        for combo in combinations(range(1, full), size):
            union = 0
            for s in combo:
                union |= s
            if union == full and _int_balanced(combo, c):
                found.append(combo)
    return found


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_subset_oracle(n):
    p = letters(n)
    enumerated = {m.system.members for m in enumerate_min_balanced(p, p.full_mask)}
    brute = set(_brute_systems(n))
    assert enumerated == brute
    # at this scale, double-check the oracle itself against solve_unique
    ones = (1,) * n
    for combo in brute:
        cols = [tuple(s >> i & 1 for i in range(n)) for s in combo]
        sol = solve_unique(cols, ones)
        assert sol is not None and all(w > 0 for w in sol)


def test_five_player_count_matches_subset_oracle(p5):
    # the count on five players is not published; the subset-enumeration
    # oracle is the only cross-check
    enumerated = enumerate_min_balanced(p5, p5.full_mask)
    assert len(enumerated) == len(_brute_systems(5)) == 1291
