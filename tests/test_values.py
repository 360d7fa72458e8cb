"""The immutable value classes: their argument checks and those of the
functions taking them, their one constructor (fields by position or
keyword, defaults, errors), their value semantics (frozen, equal and
hashed by their fields, printed by name) and an import of the command
line that loads neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import minbal
from minbal.balance import (
    InequalityVector,
    MinBalancedSystem,
    SetSystem,
    canonical_type,
    complement_system,
    enumerate_min_balanced,
    is_min_balanced,
    system_of,
)
from minbal.catalogue import Catalogue, CatalogueEntry, generate, render_inequality
from minbal.cones import (
    CoreAllocation,
    FailingSubgame,
    NoTightAllocation,
    TightAllocationTable,
    Verdict,
    ViolatedSystem,
    conjugate,
    delta_contains,
    is_totally_balanced_facets,
    theta_contains,
)
from minbal.games import MAX_PLAYERS, Game, Players, SetFunction, inner, letters, modular_from_payoffs, restrict
from minbal.linalg import FeasibilityResult, lp_feasible
from minbal.reduction import Decomposition, ReductionWitness, decompose, is_reducible
from minbal.reference import AppendixType


def _reducible():
    """The partition of four players into singletons, reducible along
    ``ab``, with its witness."""
    mbs = is_min_balanced(system_of(letters(4), "a", "b", "c", "d"))
    return mbs, is_reducible(mbs)


def _tampered(**fields):
    """Decompose the partition along its witness with ``fields`` replaced."""
    mbs, witness = _reducible()
    decompose(mbs, ReductionWitness(**{**{name: getattr(witness, name) for name in witness._fields}, **fields}))


@pytest.mark.parametrize("build, message", [
    (lambda: SetSystem((0, 1)), "members must be nonempty coalitions"),
    (lambda: SetSystem((2, 1)), "members must be strictly increasing bitmasks"),
    (lambda: SetSystem((1, 1)), "members must be strictly increasing bitmasks"),
    (lambda: InequalityVector(((0, 1), (1, 0))), "zero coefficients must be omitted"),
    (lambda: InequalityVector(((2, 1), (1, -1))), "items must be sorted by coalition bitmask"),
    (lambda: InequalityVector(((0, F(1, 2)),)), "coalition masks and coefficients must be integers"),
    (lambda: Players(()), f"player count must be between 1 and {MAX_PLAYERS}"),
    (lambda: Players(("a", "a")), "player names must be distinct"),
    (lambda: Players(("a", "")), "player names must be non-empty strings"),
    (lambda: Players(("a", 1)), "player names must be non-empty strings"),
    (lambda: Players(("a", "b", "ab")), "player names produce ambiguous coalition keys"),
    (lambda: SetFunction(letters(2), (0, 1, 2)), "a value is required for every coalition"),
    (lambda: Game(letters(2), (0, 1, 2)), "a value is required for every coalition"),
    (lambda: Game(letters(1), (1, 2)), "a game must vanish at the empty coalition"),
    (lambda: Catalogue(letters(1), "balanced"), "catalogue generation needs between 2 and 6 players"),
    (lambda: Catalogue(letters(2), "exact-conjecture"), "the exact-cone conjecture catalogue needs at least 3 players"),
    (lambda: Catalogue(Players(("a", "b|c")), "balanced"),
     "player name 'b|c' contains '|', which separates the coalitions of a type id"),
    (lambda: letters(2).key(4), "coalition 0x4 is outside this player set"),
    (lambda: modular_from_payoffs(letters(2), (1,)), "one payoff per player is required"),
    (lambda: InequalityVector(((4, 1),)).evaluate(SetFunction(letters(2), (0, 1, 2, 3))),
     "coefficient vector does not fit the player set"),
    (lambda: complement_system(SetSystem((4,)), letters(2)), "system does not fit the player set"),
    (lambda: complement_system(SetSystem((3,)), letters(2)), "complement of a system containing the full player set has an empty member"),
    (lambda: is_min_balanced(SetSystem(())), "the empty system is not a set system"),
    (lambda: enumerate_min_balanced(letters(7), 1), "enumeration is capped at 6 players"),
    (lambda: enumerate_min_balanced(letters(2), 0), "the carrier must be nonempty"),
    (lambda: inner(SetFunction(letters(1), (0, 1)), SetFunction(letters(2), (0,) * 4)), "scalar product requires a shared player set"),
    (lambda: restrict(SetFunction(letters(1), (0, 1)), 0), "cannot restrict to the empty coalition"),
    (lambda: canonical_type(SetSystem((1,)), letters(7)), "classification is capped at 6 players"),
    (lambda: canonical_type(SetSystem((4,)), letters(2)), "system does not fit the player set"),
    (lambda: render_inequality(InequalityVector(((1, -1),)), letters(1)), "cannot render a vector without positive coefficients"),
    (lambda: is_totally_balanced_facets(Game(letters(3), (0,) * 8), Catalogue(letters(3), "balanced")),
     "a totally-balanced catalogue is required"),
    (lambda: is_totally_balanced_facets(Game(letters(3), (0,) * 8), Catalogue(letters(4), "totally-balanced")),
     "catalogue was generated for a different player set"),
    (lambda: theta_contains(SetFunction(letters(1), (0, 0)), 0), "the distinguished coalition must be nonempty"),
    (lambda: delta_contains(SetFunction(letters(2), (0,) * 4), 1), "the carrier must have at least two players"),
    (lambda: conjugate(InequalityVector(((4, 1),)), letters(2)), "coefficient vector does not fit the player set"),
    (lambda: lp_feasible([[1, 0]], [[1]], [0, 0]), "inequality and equality rows have different widths"),
    (lambda: lp_feasible([[1, 0]], [], [0], dimension=3), "explicit dimension does not match the rows"),
    (lambda: decompose(is_min_balanced(system_of(letters(2), "ab")), _reducible()[1]), "only non-trivial systems decompose"),
    (lambda: _tampered(reduced_set=15), "witness reduced set is not admissible"),
    (lambda: _tampered(pivot_member=4), "witness pivot is not a member strictly inside the reduced set"),
    (lambda: _tampered(mu=((1, F(1)),)), "witness mu is not a combination over the members below A"),
    (lambda: _tampered(beta=((1, F(1)),)), "witness beta is not a combination over {A} and the remaining members"),
    (lambda: is_reducible(is_min_balanced(system_of(letters(2), "ab"))), "reducibility is defined for non-trivial systems"),
])
def test_argument_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _mbs():
    return MinBalancedSystem(SetSystem((1, 2)), (F(1), F(1)), 1, InequalityVector(((0, 1), (1, -1), (2, -1), (3, 1))))


# each former dataclass: a call building a fresh instance, and a field
VALUES = {
    "SetSystem": (lambda: SetSystem((1, 2)), "members"),
    "InequalityVector": (lambda: InequalityVector(((0, 1), (3, -1))), "items"),
    "MinBalancedSystem": (_mbs, "weights"),
    "Players": (lambda: Players(("a", "b")), "names"),
    "SetFunction": (lambda: SetFunction(letters(1), (1, 2)), "values"),
    "Game": (lambda: Game(letters(1), (0, 2)), "players"),
    "CatalogueEntry": (lambda: CatalogueEntry(_mbs(), _mbs().alpha, True, False, "a|b", 1), "complement_type_id"),
    "Catalogue": (lambda: Catalogue(letters(3), "balanced"), "cone"),
    "CoreAllocation": (lambda: CoreAllocation((F(1), F(2))), "payoffs"),
    "TightAllocationTable": (lambda: TightAllocationTable(((1, (F(1),)),)), "allocations"),
    "ViolatedSystem": (lambda: ViolatedSystem(_mbs(), F(-1)), "value"),
    "NoTightAllocation": (lambda: NoTightAllocation(1, SetFunction(letters(1), (1, -1))), "theta"),
    "FailingSubgame": (lambda: FailingSubgame(3, CoreAllocation((F(1),))), "certificate"),
    "Verdict": (lambda: Verdict(True, None), "member"),
    "FeasibilityResult": (lambda: FeasibilityResult((1, 2), 3, None), "denominator"),
    "ReductionWitness": (lambda: ReductionWitness(3, 1, ((1, F(1)),), ((3, F(1)),)), "mu"),
    "Decomposition": (lambda: Decomposition(_mbs(), _mbs(), (F(1), F(1))), "combination"),
    "AppendixType": (lambda: AppendixType(1, ("a", "b"), 1, 1, True, "m(ab) − m(a) − m(b) + m(∅) ≥ 0"), "inequality"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    build, field = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a).startswith(name + "(") and repr(a) == repr(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and a != object()


@pytest.mark.parametrize("name", VALUES)
def test_keyword_construction_equals_positional(name):
    a = VALUES[name][0]()
    fields = {field: getattr(a, field) for field in a._fields}
    assert type(a)(**fields) == type(a)(*fields.values()) == a


def test_fields_are_the_annotations():
    for name in VALUES:
        cls = type(VALUES[name][0]())
        if name not in ("SetFunction", "Game"):
            assert cls._fields == tuple(cls.__annotations__), name
    # the table is stored, the values are shown
    assert Game._fields == SetFunction._fields == ("players", "values")


def test_catalogue_entry_default():
    args = _mbs(), _mbs().alpha, True, False, "a|b", 1
    assert CatalogueEntry(*args).complement_type_id is None
    assert CatalogueEntry(*args) == CatalogueEntry(*args, None) == CatalogueEntry(*args, complement_type_id=None)
    assert CatalogueEntry(*args, complement_type_id="a|b") == CatalogueEntry(*args, "a|b")


@pytest.mark.parametrize("build, message", [
    (lambda: Verdict(True, None, 1), "Verdict() takes member, certificate: got 3 by position and none by keyword"),
    (lambda: Verdict(True), "Verdict() takes member, certificate: got 1 by position and none by keyword"),
    (lambda: Verdict(certificate=None), "Verdict() takes member, certificate: got 0 by position and certificate by keyword"),
    (lambda: Verdict(True, None, extra=1), "Verdict() takes member, certificate: got 2 by position and extra by keyword"),
    (lambda: Verdict(True, member=False), "Verdict() takes member, certificate: got 1 by position and member by keyword"),
    (lambda: CatalogueEntry(_mbs(), _mbs().alpha, True, False, "a|b"),
     "CatalogueEntry() takes mbs, alpha, irreducible, conjugated, type_id, orbit_size, complement_type_id: got 5 by position and none by keyword"),
])
def test_constructor_argument_errors(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_verdict_truth_and_set_system_iteration():
    assert bool(Verdict(False, None)) is False and bool(Verdict(True, None)) is True
    assert list(SetSystem((1, 2))) == [1, 2]


def test_value_fields_are_compared():
    assert SetSystem((1, 2)) != SetSystem((1, 4))
    assert Verdict(True, None) != Verdict(False, None)
    assert FeasibilityResult((1, 2), 3, None) != FeasibilityResult((1, 2), 5, None)
    assert CatalogueEntry(_mbs(), _mbs().alpha, True, False, "a|b", 1) != CatalogueEntry(_mbs(), _mbs().alpha, True, False, "a|b", 1, "a|b")
    assert repr(Verdict(True, CoreAllocation((F(1),)))) == "Verdict(member=True, certificate=CoreAllocation(payoffs=(Fraction(1, 1),)))"


def test_game_never_equals_a_set_function():
    g, f = Game(letters(2), (0, 1, 2, 3)), SetFunction(letters(2), (0, 1, 2, 3))
    assert g.players == f.players and g.values == f.values
    assert g != f and f != g and not g == f
    assert g == Game(letters(2), (0, 1, 2, 3)) and repr(g).startswith("Game(players=Players(names=('a', 'b')), ")


def test_players_compare_on_names_alone():
    p, q = Players(("a", "b")), Players(["a", "b"])
    assert p._keys == q._keys and p._keys is not q._keys
    assert p == q and hash(p) == hash(q) == hash((("a", "b"),))
    assert repr(p) == "Players(names=('a', 'b'))"
    assert p != Players(("b", "a"))


def test_cached_properties_on_frozen_values():
    res = FeasibilityResult((1, 2), 4, None)
    assert res.point == (F(1, 4), F(1, 2)) and res.point is res.point
    catalogue = generate(letters(3), "balanced")
    assert catalogue.types is catalogue.types and catalogue.entries is catalogue.entries
    assert catalogue == Catalogue(letters(3), "balanced")
    with pytest.raises(AttributeError):
        catalogue.entries = ()


def test_import_loads_neither_dataclasses_nor_inspect():
    # they would add tens of milliseconds to every command's start-up;
    # logging is imported only when a record is logged
    src = os.path.dirname(os.path.dirname(os.path.abspath(minbal.__file__)))
    code = "import sys, minbal.cli, minbal.catalogue; print(sorted({'dataclasses', 'inspect', 'logging'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
