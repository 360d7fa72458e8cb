"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
(everything is exact rational arithmetic, so tolerances are equality and
the stated runtime caps) and prints one PASS/FAIL line.  Golden data is
spelled out here, independently of the package's own reference tables.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F
from random import Random

from minbal.balance import (
    _enumerate_size,
    canonical_type,
    is_min_balanced,
    system_of,
)
from minbal.catalogue import generate, induced_system, render_inequality, serialize
from minbal.cones import is_balanced, is_exact, is_totally_balanced_facets, is_totally_balanced_lp
from minbal.games import SetFunction, anti_dual, letters, modular_from_payoffs, random_game, shift
from minbal.reduction import decompose, is_reducible


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def _fresh_caches():
    _enumerate_size.cache_clear()


# (system keys, count, complement type number, irreducible, inequality)
APPENDIX_GOLDEN = {
    2: [
        (("a", "b"), 1, 1, True, "m(ab) − m(a) − m(b) + m(∅) ≥ 0"),
    ],
    3: [
        (("a", "b", "c"), 1, 3, False, "m(abc) − m(a) − m(b) − m(c) + 2·m(∅) ≥ 0"),
        (("a", "bc"), 3, 2, True, "m(abc) − m(a) − m(bc) + m(∅) ≥ 0"),
        (("ab", "ac", "bc"), 1, 1, True, "2·m(abc) − m(ab) − m(ac) − m(bc) + m(∅) ≥ 0"),
    ],
    4: [
        (("a", "b", "c", "d"), 1, 9, False,
         "m(abcd) − m(a) − m(b) − m(c) − m(d) + 3·m(∅) ≥ 0"),
        (("a", "b", "cd"), 6, 6, False,
         "m(abcd) − m(a) − m(b) − m(cd) + 2·m(∅) ≥ 0"),
        (("ab", "cd"), 3, 3, True, "m(abcd) − m(ab) − m(cd) + m(∅) ≥ 0"),
        (("a", "bcd"), 4, 4, True, "m(abcd) − m(a) − m(bcd) + m(∅) ≥ 0"),
        (("a", "bc", "bd", "cd"), 4, 8, False,
         "2·m(abcd) − 2·m(a) − m(bc) − m(bd) − m(cd) + 3·m(∅) ≥ 0"),
        (("ab", "acd", "bcd"), 6, 2, True,
         "2·m(abcd) − m(ab) − m(acd) − m(bcd) + m(∅) ≥ 0"),
        (("a", "bd", "cd", "abc"), 12, 7, False,
         "2·m(abcd) − m(a) − m(bd) − m(cd) − m(abc) + 2·m(∅) ≥ 0"),
        (("ab", "ac", "ad", "bcd"), 4, 5, True,
         "3·m(abcd) − m(ab) − m(ac) − m(ad) − 2·m(bcd) + 2·m(∅) ≥ 0"),
        (("abc", "abd", "acd", "bcd"), 1, 1, True,
         "3·m(abcd) − m(abc) − m(abd) − m(acd) − m(bcd) + m(∅) ≥ 0"),
    ],
}

IRREDUCIBLE_TOTALS = {2: 1, 3: 4, 4: 18}


def test_criterion_1_appendix_golden():
    with criterion(1, "appendix catalogues for 2-4 players, exact match, < 5 s"):
        _fresh_caches()
        start = time.monotonic()
        for n, golden in APPENDIX_GOLDEN.items():
            p = letters(n)
            catalogue = generate(p, "balanced")
            assert len(catalogue.entries) == {2: 1, 3: 5, 4: 41}[n]
            assert len(catalogue.types) == len(golden)
            table = catalogue.type_table()
            by_system = {e.mbs.system.members: e for e in catalogue.entries}
            tid = {}
            for number, (keys, _, _, _, _) in enumerate(golden, start=1):
                canon, _ = canonical_type(system_of(p, *keys), p)
                tid[number] = "|".join(p.key(m) for m in canon.members)
            assert len(set(tid.values())) == len(golden)  # types are distinct
            for number, (keys, count, complement, irreducible, inequality) in enumerate(golden, start=1):
                entry = by_system[tuple(sorted(p.coalition_of(k) for k in keys))]
                rep = table[tid[number]]
                assert rep.orbit_size == count
                assert entry.irreducible == irreducible
                assert rep.complement_type_id == tid[complement]
                assert render_inequality(entry.alpha, p) == inequality
            irreducible_count = sum(1 for e in catalogue.entries if e.irreducible)
            assert irreducible_count == IRREDUCIBLE_TOTALS[n]
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"appendix reproduction took {elapsed:.2f}s"


def test_criterion_2_table1_counts():
    with criterion(2, "conjectured exact-cone facet counts 1/6/44/280, < 60 s"):
        _fresh_caches()
        start = time.monotonic()
        b2 = generate(letters(2), "balanced")
        assert (len(b2.entries), len(b2.types)) == (1, 1)
        for n, counts in {3: (6, 2), 4: (44, 6), 5: (280, 16)}.items():
            catalogue = generate(letters(n), "exact-conjecture")
            assert (len(catalogue.entries), len(catalogue.types)) == counts
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"table reproduction took {elapsed:.2f}s"


E4_GOLDEN = [
    # (inequality, induced system, orbit size, conjugate partner index)
    ("m(ab) − m(a) − m(b) + m(∅) ≥ 0", ("ab",), ("a", "b"), 6, 4),
    ("m(abc) − m(a) − m(bc) + m(∅) ≥ 0", ("abc",), ("a", "bc"), 12, 5),
    ("2·m(abc) − m(ab) − m(ac) − m(bc) + m(∅) ≥ 0", ("abc",), ("ab", "ac", "bc"), 4, 6),
    ("m(abcd) − m(acd) − m(bcd) + m(cd) ≥ 0", ("abcd",), ("acd", "bcd"), 6, 1),
    ("m(abcd) − m(ad) − m(bcd) + m(d) ≥ 0", ("abcd",), ("ad", "bcd"), 12, 2),
    ("m(abcd) − m(ad) − m(bd) − m(cd) + 2·m(d) ≥ 0", ("abcd",), ("ad", "bd", "cd"), 4, 3),
]


def test_criterion_3_e4_cross_check():
    with criterion(3, "all six four-player exact-cone facet types with conjugate pairing"):
        p4 = letters(4)
        catalogue = generate(p4, "exact-conjecture")
        assert len(catalogue.entries) == 44 and len(catalogue.types) == 6
        table = catalogue.type_table()
        rendered = {render_inequality(e.alpha, p4): e for e in catalogue.entries}
        found_type_ids = []
        for inequality, _, negatives, orbit, _ in E4_GOLDEN:
            entry = rendered.get(inequality)
            assert entry is not None, f"missing representative {inequality!r}"
            assert entry.orbit_size == orbit
            assert table[entry.type_id].orbit_size == orbit
            got_negatives = tuple(p4.key(m) for m in induced_system(entry.alpha).members)
            assert sorted(got_negatives) == sorted(negatives)
            found_type_ids.append(entry.type_id)
        assert len(set(found_type_ids)) == 6  # the six types, each exactly once
        for i, (_, _, _, _, partner) in enumerate(E4_GOLDEN):
            rep, mate = table[found_type_ids[i]], table[found_type_ids[partner - 1]]
            assert mate.type_id == (rep.type_id[1:] if rep.conjugated else "~" + rep.type_id)
            assert mate.conjugated is not rep.conjugated


def test_criterion_4_normalization_spot_check():
    with criterion(4, "worked normalization: k = 3 and coefficients 3/-1/-1/-1/-2/2"):
        p5 = letters(5)
        mbs = is_min_balanced(system_of(p5, "ab", "ac", "ad", "bcd"))
        assert mbs is not None
        assert mbs.k == 3
        expected = {
            p5.coalition_of("abcd"): 3,
            p5.coalition_of("ab"): -1,
            p5.coalition_of("ac"): -1,
            p5.coalition_of("ad"): -1,
            p5.coalition_of("bcd"): -2,
            0: 2,
        }
        assert mbs.alpha.as_dict() == expected


def test_criterion_5_reducibility_golden():
    with criterion(5, "reduction examples: two reducible with exact decompositions, one irreducible"):
        p4, p5 = letters(4), letters(5)
        first = is_min_balanced(system_of(p4, "a", "b", "c"))
        w1 = is_reducible(first)
        assert w1 is not None
        d1 = decompose(first, w1)
        _assert_recombines(first, d1)

        second = is_min_balanced(system_of(p5, "ab", "ce", "de", "acd", "bcd"))
        w2 = is_reducible(second)
        assert w2 is not None
        d2 = decompose(second, w2)
        _assert_recombines(second, d2)

        third = is_min_balanced(system_of(p5, "ab", "acd", "ace", "abde", "bcde"))
        assert is_reducible(third) is None


def _assert_recombines(mbs, decomposition):
    combined = {}
    for vec, c in (
        (decomposition.inner.alpha, decomposition.combination[0]),
        (decomposition.outer.alpha, decomposition.combination[1]),
    ):
        for s, coeff in vec.items:
            combined[s] = combined.get(s, F(0)) + c * coeff
    assert {s: v for s, v in combined.items() if v} == {s: F(c) for s, c in mbs.alpha.items}


def test_criterion_6_oracle_equivalence():
    with criterion(6, "LP oracles agree with facet catalogues on 1000+1000 seeded games"):
        p4 = letters(4)
        balanced_catalogue = generate(p4, "balanced")
        rng = Random(2024_06_01)
        disagreements = 0
        for _ in range(1000):
            g = random_game(p4, rng)
            lp = is_balanced(g).member
            facets = all(e.alpha.evaluate(g) >= 0 for e in balanced_catalogue.entries)
            disagreements += lp != facets
        assert disagreements == 0

        p5 = letters(5)
        t5 = generate(p5, "totally-balanced")
        rng = Random(2024_06_02)
        for _ in range(1000):
            g = random_game(p5, rng)
            lp = is_totally_balanced_lp(g).member
            facets = is_totally_balanced_facets(g, t5).member
            disagreements += lp != facets
        assert disagreements == 0


def test_criterion_7_reflection_laws():
    with criterion(7, "balancedness/exactness invariant under anti-dual; T is not closed"):
        rng = Random(2024_06_03)
        for _ in range(200):
            n = rng.choice((2, 3, 4))
            g = random_game(letters(n), rng)
            assert is_balanced(g).member == is_balanced(anti_dual(g)).member
        rng = Random(2024_06_04)
        for _ in range(200):
            n = rng.choice((2, 3, 4))
            g = random_game(letters(n), rng)
            assert is_exact(g).member == is_exact(anti_dual(g)).member
        p3 = letters(3)
        market = shift(SetFunction(p3, (0, 0, 0, 2, 0, 2, 2, 3)))
        assert is_totally_balanced_lp(market).member
        verdict = is_totally_balanced_lp(anti_dual(market))
        assert not verdict.member
        assert verdict.certificate.coalition == p3.coalition_of("ab")


def test_criterion_8_conjecture_probe():
    with criterion(8, "exact <=> totally balanced in both orientations, 500 + 100 seeded games"):
        p4 = letters(4)
        t4 = generate(p4, "totally-balanced")
        rng = Random(2024_06_05)
        violations = 0
        for _ in range(500):
            g = random_game(p4, rng)
            exact = is_exact(g).member
            both = (
                is_totally_balanced_facets(g, t4).member
                and is_totally_balanced_facets(anti_dual(g), t4).member
            )
            violations += exact != both
        p5 = letters(5)
        t5 = generate(p5, "totally-balanced")
        rng = Random(2024_06_06)
        for _ in range(100):
            g = random_game(p5, rng)
            exact = is_exact(g).member
            both = (
                is_totally_balanced_facets(g, t5).member
                and is_totally_balanced_facets(anti_dual(g), t5).member
            )
            violations += exact != both
        assert violations == 0


def test_criterion_9_inner_description_probe():
    with criterion(9, "500 conic combinations of modular and negated-indicator generators are balanced"):
        rng = Random(2024_06_07)
        failures = 0
        for i in range(500):
            n = 5 if i % 5 == 0 else 4
            p = letters(n)
            payoffs = [F(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in range(n)]
            f = modular_from_payoffs(p, payoffs, constant=F(rng.randint(-4, 4)))
            values = list(f.values)
            full = p.full_mask
            for s in range(1, full):
                if rng.random() < 0.5:
                    values[s] -= F(rng.randint(0, 6), rng.choice((1, 2)))
            g = shift(SetFunction(p, tuple(values)))
            failures += not is_balanced(g).member
        assert failures == 0


def test_criterion_10_determinism_across_cold_and_warm_caches():
    with criterion(10, "byte-identical catalogues for every cone and player count from cold and warm caches"):
        for n in (2, 3, 4, 5):
            p = letters(n)
            cones = ["balanced", "totally-balanced"] + (["exact-conjecture"] if n >= 3 else [])
            for cone in cones:
                _fresh_caches()
                cold = serialize(generate(p, cone))
                _enumerate_size.cache_clear()
                for other in cones:
                    if other != cone:
                        generate(p, other)
                warm = serialize(generate(p, cone))
                assert cold == warm, f"a warm cache changed bytes for n={n} {cone}"
