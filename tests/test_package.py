"""The package namespace and the modules each entry point loads: the
public names resolve on first use to the objects their modules define,
``import minbal`` loads no submodule, and ``minbal check`` loads none
of the catalogue code, nor, for a member, ``minbal.balance``."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import minbal
from minbal.games import Game, game_to_json, letters

#: The package's public names, pinned: ``__all__`` lists exactly these.
PUBLIC = [
    "Catalogue", "CatalogueEntry", "ConeKind", "CoreAllocation", "Decomposition", "DimensionError", "FailingSubgame",
    "FeasibilityResult", "Game", "GameFormatError", "InequalityVector", "MinBalancedSystem", "NoTightAllocation",
    "Players", "ReductionWitness", "SetFunction", "SetSystem", "TightAllocationTable", "Verdict", "ViolatedSystem",
    "anti_dual", "canonical_type", "complement_system", "conic_feasible", "conjugate", "decompose", "delta_contains",
    "dirac", "enumerate_min_balanced", "game_from_json", "game_of", "game_to_json", "generate", "inner", "is_balanced",
    "is_exact", "is_min_balanced", "is_modular", "is_o_standardized", "is_reducible", "is_totally_balanced_facets",
    "is_totally_balanced_lp", "letters", "lp_feasible", "modular_from_payoffs", "normalize", "parse",
    "random_exact_game", "random_game", "reflect", "render_inequality", "restrict", "serialize", "set_function_of",
    "shift", "solve_unique", "system_of", "tabulate", "theta_contains", "unanimity",
]

#: The modules a check never runs.
NOT_IN_A_CHECK = {"minbal.catalogue", "minbal.reduction", "minbal.reference"}

#: The modules a check of a member loads: ``minbal.balance`` only writes
#: the violated system of a non-member.
MEMBER_CHECK = ["minbal", "minbal._frozen", "minbal.cli", "minbal.cones", "minbal.games", "minbal.linalg"]


def test_all_lists_the_public_names_once():
    assert sorted(minbal.__all__) == PUBLIC
    assert len(set(minbal.__all__)) == len(minbal.__all__)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_the_object_its_module_defines(name):
    value = getattr(minbal, name)
    assert value.__module__.startswith("minbal.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from minbal import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC


def test_dir_lists_all():
    assert {"__all__", "__version__", *PUBLIC} <= set(dir(minbal))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        minbal.no_such_name


def _loaded(code, *args):
    """The ``minbal`` modules loaded by ``code``, run in a fresh
    interpreter on this package's source, and the lines it printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(minbal.__file__)))
    code += "; print(sorted(m for m in sys.modules if m.startswith('minbal')))"
    proc = subprocess.run([sys.executable, "-c", "import sys; " + code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert not proc.stderr
    *printed, loaded = proc.stdout.splitlines()
    return ast.literal_eval(loaded), printed


def test_import_minbal_loads_no_submodule():
    assert _loaded("import minbal")[0] == ["minbal"]


def test_import_games_loads_games_alone():
    assert _loaded("import minbal.games")[0] == ["minbal", "minbal._frozen", "minbal.games"]


def _square(n, member):
    """The convex game |S|^2 on ``n`` players, a member of every cone,
    or else, with the grand coalition's worth cut below the singletons'
    sum, a member of none."""
    values = [s.bit_count() ** 2 for s in range(1 << n)]
    if not member:
        values[-1] = n - 1
    return Game(letters(n), tuple(values))


@pytest.mark.parametrize("cone", ["balanced", "totally-balanced", "exact"])
@pytest.mark.parametrize("member", [True, False])
def test_check_loads_no_catalogue_code(tmp_path, cone, member):
    path = tmp_path / "game.json"
    path.write_text(game_to_json(_square(5, member)))
    loaded, printed = _loaded("from minbal.cli import main; print(main(sys.argv[1:]))",
                              "check", "--game", str(path), "--cone", cone, "--certificate")
    assert printed[-1] == ("0" if member else "1")
    assert "minbal.cones" in loaded and not NOT_IN_A_CHECK & set(loaded)
    if member or cone == "exact":
        assert loaded == MEMBER_CHECK
    else:
        assert "minbal.balance" in loaded
