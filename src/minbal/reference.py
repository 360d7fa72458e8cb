"""Reference data for the verification suites.

The tables behind the ``appendix`` suite list, for each permutational
type of non-trivial min-balanced system on a full player set of size 2
to 4: a representative system (coalition key strings), the number of
systems of that type, the type number of the complementary system,
whether the type is irreducible, and the induced inequality rendered the
way :func:`minbal.balance.render_inequality` prints it.

The count tables give the entries and types of each catalogue per
player count; :func:`minbal.catalogue.parse` rejects a catalogue for
which no count is recorded, and a :class:`minbal.catalogue.Catalogue`
raises ``RuntimeError`` when the types its search finds have other
counts.
"""

from __future__ import annotations

from ._frozen import Frozen


class AppendixType(Frozen):
    number: int
    system: tuple[str, ...]
    count: int
    complement: int          # type number; == number means self-complementary
    irreducible: bool
    inequality: str


APPENDIX: dict[int, tuple[AppendixType, ...]] = {
    2: (
        AppendixType(1, ("a", "b"), 1, 1, True, "m(ab) − m(a) − m(b) + m(∅) ≥ 0"),
    ),
    3: (
        AppendixType(1, ("a", "b", "c"), 1, 3, False,
                     "m(abc) − m(a) − m(b) − m(c) + 2·m(∅) ≥ 0"),
        AppendixType(2, ("a", "bc"), 3, 2, True,
                     "m(abc) − m(a) − m(bc) + m(∅) ≥ 0"),
        AppendixType(3, ("ab", "ac", "bc"), 1, 1, True,
                     "2·m(abc) − m(ab) − m(ac) − m(bc) + m(∅) ≥ 0"),
    ),
    4: (
        AppendixType(1, ("a", "b", "c", "d"), 1, 9, False,
                     "m(abcd) − m(a) − m(b) − m(c) − m(d) + 3·m(∅) ≥ 0"),
        AppendixType(2, ("a", "b", "cd"), 6, 6, False,
                     "m(abcd) − m(a) − m(b) − m(cd) + 2·m(∅) ≥ 0"),
        AppendixType(3, ("ab", "cd"), 3, 3, True,
                     "m(abcd) − m(ab) − m(cd) + m(∅) ≥ 0"),
        AppendixType(4, ("a", "bcd"), 4, 4, True,
                     "m(abcd) − m(a) − m(bcd) + m(∅) ≥ 0"),
        AppendixType(5, ("a", "bc", "bd", "cd"), 4, 8, False,
                     "2·m(abcd) − 2·m(a) − m(bc) − m(bd) − m(cd) + 3·m(∅) ≥ 0"),
        AppendixType(6, ("ab", "acd", "bcd"), 6, 2, True,
                     "2·m(abcd) − m(ab) − m(acd) − m(bcd) + m(∅) ≥ 0"),
        AppendixType(7, ("a", "bd", "cd", "abc"), 12, 7, False,
                     "2·m(abcd) − m(a) − m(bd) − m(cd) − m(abc) + 2·m(∅) ≥ 0"),
        AppendixType(8, ("ab", "ac", "ad", "bcd"), 4, 5, True,
                     "3·m(abcd) − m(ab) − m(ac) − m(ad) − 2·m(bcd) + 2·m(∅) ≥ 0"),
        AppendixType(9, ("abc", "abd", "acd", "bcd"), 1, 1, True,
                     "3·m(abcd) − m(abc) − m(abd) − m(acd) − m(bcd) + m(∅) ≥ 0"),
    ),
}

#: Counts of systems / types per player count for the balanced catalogue.
#: The 6-player type count comes from this code alone.  Its 200,213
#: systems cross-check against the 200,214 minimal balanced collections
#: on 6 players, the trivial one included, that Laplace Mermoud, Grabisch
#: & Sudhölter list; that figure is quoted from memory, not from the paper.
BALANCED_COUNTS = {2: (1, 1), 3: (5, 3), 4: (41, 9), 5: (1291, 44), 6: (200213, 582)}

#: Facet counts and type counts of the totally balanced cone: the
#: irreducible systems on every carrier with at least two players.  The
#: 6-player counts come from this code alone: 4186 / 2 proper-carrier
#: systems (the exact-conjecture table) and 35,052 full-carrier ones.
TOTALLY_BALANCED_COUNTS = {2: (1, 1), 3: (7, 3), 4: (40, 8), 5: (428, 23), 6: (37145, 154)}

#: Facet counts and type counts of the conjectured exact catalogue.  The
#: 2-player column comes from the balanced catalogue, where the exact and
#: balanced cones coincide.  The table1 suite checks 2 to 5 players.
EXACT_FACET_COUNTS = {2: (1, 1), 3: (6, 2), 4: (44, 6), 5: (280, 16), 6: (4186, 46)}
