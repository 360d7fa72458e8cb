"""Reducibility witnesses and constructive decompositions."""

from fractions import Fraction as F
from random import Random
from types import SimpleNamespace

import pytest

from minbal.balance import (
    MinBalancedSystem,
    SetSystem,
    _enumerate_size,
    canonical_type,
    enumerate_min_balanced,
    is_min_balanced,
    system_of,
)
from conftest import candidate_sets, lp_conic_feasible, permute_coalition, subsets_below
from minbal.games import letters
from minbal import reduction
from minbal.reduction import ReductionWitness, decompose, is_reducible


class TestGoldenCases:
    def test_singleton_partition_on_proper_carrier(self, p4):
        mbs = is_min_balanced(system_of(p4, "a", "b", "c"))
        w = is_reducible(mbs)
        assert w is not None
        assert w.reduced_set == p4.coalition_of("ab")
        assert w.pivot_member == p4.coalition_of("a")
        d = decompose(mbs, w)
        assert d.inner.system == system_of(p4, "a", "b")
        assert d.outer.system == system_of(p4, "ab", "c")
        assert d.combination == (1, 1)
        # the two appendix inequalities sum to the original one
        combined = {}
        for vec, c in ((d.inner.alpha, d.combination[0]), (d.outer.alpha, d.combination[1])):
            for s, coeff in vec.items:
                combined[s] = combined.get(s, 0) + c * coeff
        assert {s: v for s, v in combined.items() if v} == dict(mbs.alpha.items)

    def test_five_player_reducible(self, p5):
        mbs = is_min_balanced(system_of(p5, "ab", "ce", "de", "acd", "bcd"))
        w = is_reducible(mbs)
        assert w is not None
        assert w.reduced_set == p5.coalition_of("abcd")
        assert w.pivot_member == p5.coalition_of("acd")
        d = decompose(mbs, w)
        assert d.inner.system == system_of(p5, "ab", "acd", "bcd")
        assert d.outer.system == system_of(p5, "abcd", "ab", "ce", "de")

    def test_five_player_irreducible(self, p5):
        mbs = is_min_balanced(system_of(p5, "ab", "acd", "ace", "abde", "bcde"))
        assert is_reducible(mbs) is None

    def test_trivial_rejected(self, p3):
        mbs = is_min_balanced(system_of(p3, "abc"))
        with pytest.raises(ValueError):
            is_reducible(mbs)

    def test_dependent_members_rejected(self, p3):
        # a hand-built system whose members are not independent, as no
        # min-balanced system's are
        fake = MinBalancedSystem(system_of(p3, "a", "b", "ab", "c"), (F(1, 2),) * 4, 2, None)
        with pytest.raises(ValueError, match="^the members are linearly dependent$"):
            is_reducible(fake)


class TestWitnessContract:
    def test_witness_combinations_are_exact(self, p4):
        for mbs in enumerate_min_balanced(p4, p4.full_mask):
            w = is_reducible(mbs)
            if w is None:
                continue
            n = p4.n
            for target, combo in ((w.reduced_set, w.mu_map()), (mbs.carrier, w.beta_map())):
                for i in range(n):
                    total = sum(weight for s, weight in combo.items() if s >> i & 1)
                    assert total == (1 if target >> i & 1 else 0)
            assert w.mu_map()[w.pivot_member] > 0
            assert w.beta_map()[w.reduced_set] > 0

    def test_invalid_witness_rejected(self, p4):
        mbs = is_min_balanced(system_of(p4, "a", "b", "c"))
        w = is_reducible(mbs)
        bogus = ReductionWitness(w.reduced_set, w.pivot_member, w.mu, tuple())
        with pytest.raises(ValueError):
            decompose(mbs, bogus)
        other = is_min_balanced(system_of(p4, "a", "b", "cd"))
        with pytest.raises(ValueError):
            decompose(other, w)

    def test_doubled_mu_rejected(self, p4):
        mbs = is_min_balanced(system_of(p4, "a", "b", "c"))
        w = is_reducible(mbs)
        doubled = ReductionWitness(w.reduced_set, w.pivot_member, tuple((s, 2 * m) for s, m in w.mu), w.beta)
        with pytest.raises(ValueError, match="re-substitute"):
            decompose(mbs, doubled)


class TestDecompositionChecks:
    """The checks ``decompose`` runs after the witness is validated; each
    fails only when a step before it is at fault, so that step is patched."""

    @pytest.fixture()
    def reducible(self, p4):
        mbs = is_min_balanced(system_of(p4, "a", "b", "c"))
        return mbs, is_reducible(mbs)

    @staticmethod
    def second_system(monkeypatch, change):
        """Patch ``is_min_balanced`` in ``decompose`` so that its second
        call, the outer system's, returns ``change`` of the system."""
        calls = []

        def patched(system):
            calls.append(system)
            mbs = is_min_balanced(system)
            return change(mbs) if len(calls) == 2 else mbs

        monkeypatch.setattr(reduction, "is_min_balanced", patched)

    @staticmethod
    def stand_in(mbs, **changes):
        fields = {"carrier": mbs.carrier, "weights": mbs.weights, "k": mbs.k, "alpha": mbs.alpha}
        return SimpleNamespace(**{**fields, **changes})

    def test_inner_not_min_balanced(self, monkeypatch, reducible):
        monkeypatch.setattr(reduction, "is_min_balanced", lambda system: None)
        with pytest.raises(RuntimeError, match="^inner part of the decomposition is not min-balanced on A$"):
            decompose(*reducible)

    def test_outer_not_min_balanced(self, monkeypatch, reducible):
        self.second_system(monkeypatch, lambda mbs: None)
        with pytest.raises(RuntimeError, match="^outer part of the decomposition is not min-balanced on the carrier$"):
            decompose(*reducible)

    @pytest.mark.parametrize("part", ["inner", "outer"])
    def test_weights_disagree(self, monkeypatch, reducible, part):
        # a witness whose combination is doubled, let through by a
        # validation that checks nothing
        mbs, w = reducible
        doubled = {"mu": tuple((s, 2 * x) for s, x in w.mu), "beta": tuple((s, 2 * x) for s, x in w.beta)}
        w = ReductionWitness(w.reduced_set, w.pivot_member, doubled["mu"] if part == "inner" else w.mu, doubled["beta"] if part == "outer" else w.beta)
        monkeypatch.setattr(reduction, "_validate_witness", lambda mbs, witness: None)
        with pytest.raises(RuntimeError, match=f"^{part} weights disagree with the witness combination$"):
            decompose(mbs, w)

    def test_combination_not_positive(self, monkeypatch, reducible):
        self.second_system(monkeypatch, lambda mbs: self.stand_in(mbs, k=-mbs.k))
        with pytest.raises(RuntimeError, match="^combination coefficients must be positive$"):
            decompose(*reducible)

    def test_combination_does_not_recombine(self, monkeypatch, reducible):
        # the outer system's inequality replaced by the original one
        self.second_system(monkeypatch, lambda mbs: self.stand_in(mbs, alpha=reducible[0].alpha))
        with pytest.raises(RuntimeError, match="^decomposition does not recombine into the original inequality$"):
            decompose(*reducible)


class TestDecompositionIdentity:
    def test_every_reducible_system_recombines(self):
        # over all full-carrier systems for up to four players
        for n in (3, 4):
            p = letters(n)
            for mbs in enumerate_min_balanced(p, p.full_mask):
                w = is_reducible(mbs)
                if w is None:
                    continue
                d = decompose(mbs, w)
                c1, c2 = d.combination
                assert c1 > 0 and c2 > 0
                combined = {}
                for vec, c in ((d.inner.alpha, c1), (d.outer.alpha, c2)):
                    for s, coeff in vec.items:
                        combined[s] = combined.get(s, F(0)) + c * coeff
                assert {s: v for s, v in combined.items() if v} == {
                    s: F(c) for s, c in mbs.alpha.items
                }
                assert w.reduced_set in d.outer.system
                assert w.pivot_member in d.inner.system


class TestAppendixConcordance:
    def test_two_players(self, p2):
        mbs = is_min_balanced(system_of(p2, "a", "b"))
        assert is_reducible(mbs) is None

    def test_three_players(self, p3):
        labels = {
            ("a", "b", "c"): False,
            ("a", "bc"): True,
            ("ab", "ac", "bc"): True,
        }
        for keys, expected in labels.items():
            mbs = is_min_balanced(system_of(p3, *keys))
            assert (is_reducible(mbs) is None) == expected

    def test_four_players(self, p4):
        irreducible_types = {
            canonical_type(system_of(p4, *keys), p4)[0].members
            for keys in (("ab", "cd"), ("a", "bcd"), ("ab", "acd", "bcd"),
                         ("ab", "ac", "ad", "bcd"), ("abc", "abd", "acd", "bcd"))
        }
        count = 0
        for mbs in enumerate_min_balanced(p4, p4.full_mask):
            irr = is_reducible(mbs) is None
            expected = canonical_type(mbs.system, p4)[0].members in irreducible_types
            assert irr == expected
            count += irr
        assert count == 18


def _brute_reducible(mbs):
    """Definition-level oracle: try every proper subset A of the carrier
    and every member B inside it, with no admissibility pruning."""
    carrier = mbs.carrier
    n = carrier.bit_length()
    chi = lambda s: tuple(s >> i & 1 for i in range(n))
    subs = []
    s = carrier
    while True:
        s = (s - 1) & carrier
        if s:
            subs.append(s)
        if s == 0:
            break
    for a in subs:
        below = [m for m in mbs.system.members if m & a == m and m != a]
        if not below:
            continue
        if lp_conic_feasible([chi(m) for m in below], chi(a)) is None:
            continue
        for pivot in below:
            rest = [a] + [t for t in mbs.system.members if t != pivot]
            if lp_conic_feasible([chi(t) for t in rest], chi(carrier)) is not None:
                return True
    return False


def _lp_pivot_search(mbs):
    """Reference witness search: one LP for mu and one LP for beta per
    pivot member, in the same (A, pivot member) order as ``is_reducible``."""
    n = mbs.carrier.bit_length()
    chi = lambda s: tuple(s >> i & 1 for i in range(n) if mbs.carrier >> i & 1)
    for a in candidate_sets(mbs):
        below = subsets_below(mbs, a)
        mu = lp_conic_feasible([chi(s) for s in below], chi(a))
        if mu is None:
            continue
        for pivot in below:
            others = [a] + [t for t in mbs.system.members if t != pivot]
            beta = lp_conic_feasible([chi(t) for t in others], chi(mbs.carrier))
            if beta is not None:
                return ReductionWitness(a, pivot, tuple(zip(below, mu)), tuple(zip(others, beta)))
    return None


def _on_carriers(n, sizes):
    """The min-balanced systems on the carriers of ``letters(n)`` with a
    size in ``sizes``."""
    p = letters(n)
    return [mbs for carrier in range(1, p.full_mask + 1) if carrier.bit_count() in sizes for mbs in enumerate_min_balanced(p, carrier)]


@pytest.mark.parametrize("systems, count", [
    (lambda: _on_carriers(4, (2, 3, 4)), 6 * 1 + 4 * 5 + 41),
    (lambda: _on_carriers(5, (3, 4)), 10 * 5 + 5 * 41),  # carriers that leave players out, at bits other than the first
    (lambda: _enumerate_size(5)[0], 44),
], ids=["carriers-of-4", "small-carriers-of-5", "types-of-5"])
def test_ratio_test_matches_lp_pivot_search(systems, count):
    found = systems()
    assert len(found) == count
    witnesses = [is_reducible(mbs) for mbs in found]
    assert witnesses == [_lp_pivot_search(mbs) for mbs in found]
    # the witnesses hold Fraction values, as the LP's point does
    assert {type(w) for witness in witnesses if witness for _, w in witness.mu + witness.beta} == {F}
    assert None in witnesses and any(witnesses)


@pytest.mark.parametrize("n", [3, 4])
def test_matches_definition_oracle(n):
    p = letters(n)
    for mbs in enumerate_min_balanced(p, p.full_mask):
        assert (is_reducible(mbs) is not None) == _brute_reducible(mbs)


@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_search_flags_are_is_reducible(monkeypatch, c):
    # the search decides irreducibility at its positive leaves with the
    # helper is_reducible calls: one call per type, whose first set is
    # is_reducible's reduced set, and one flag per type, its verdict
    import minbal.balance

    first_sets, helper = [], minbal.balance._reduced_set
    monkeypatch.setattr(minbal.balance, "_reduced_set", lambda *args: first_sets.append(helper(*args)) or first_sets[-1])
    _enumerate_size.cache_clear()
    types, irreducible = _enumerate_size(c)
    _enumerate_size.cache_clear()
    assert len(types) == len(irreducible) == len(first_sets) == [1, 3, 9, 44][c - 2]
    for rep, flag, found in zip(types, irreducible, first_sets, strict=True):
        witness = is_reducible(rep)
        assert flag == (witness is None) == (found is None)
        assert found is None or found[0] == witness.reduced_set
    assert sum(irreducible) == [1, 2, 5, 15][c - 2]  # the steps of the totally balanced type counts 1, 3, 8, 23


def test_labels_permutation_invariant(p4):
    rng = Random(88)
    systems = list(enumerate_min_balanced(p4, p4.full_mask))
    for mbs in rng.sample(systems, 12):
        base = is_reducible(mbs) is None
        for _ in range(3):
            perm = tuple(rng.sample(range(4), 4))
            image = SetSystem(tuple(sorted(permute_coalition(m, perm) for m in mbs.system.members)))
            relabeled = is_min_balanced(image)
            assert (is_reducible(relabeled) is None) == base
