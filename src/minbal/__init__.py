"""Min-balanced coalition systems and facet catalogues of game cones.

Exact-rational tooling for transferable-utility games: enumeration and
classification of min-balanced set systems, irreducibility testing, the
facet-inequality catalogues of the balanced / totally balanced /
(conjecturally) exact cones, and certificate-producing membership
oracles.

Each public name is listed once below, under the module that defines
it.  ``import minbal`` loads none of those modules: a name is imported
from its module on first use (PEP 562) and then kept here, so
``import minbal.games`` loads that module alone and ``minbal check``
never loads the catalogue code.
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the public names it defines
_NAMES = {
    "balance": (
        "InequalityVector", "MinBalancedSystem", "SetSystem", "canonical_type", "complement_system",
        "enumerate_min_balanced", "is_min_balanced", "normalize", "render_inequality", "system_of",
    ),
    "catalogue": ("Catalogue", "CatalogueEntry", "ConeKind", "generate", "parse", "serialize"),
    "cones": (
        "CoreAllocation", "FailingSubgame", "NoTightAllocation", "TightAllocationTable", "Verdict", "ViolatedSystem",
        "conjugate", "delta_contains", "is_balanced", "is_exact", "is_totally_balanced_facets", "is_totally_balanced_lp",
        "theta_contains",
    ),
    "games": (
        "Game", "GameFormatError", "Players", "SetFunction", "anti_dual", "dirac", "game_from_json", "game_of",
        "game_to_json", "inner", "is_modular", "is_o_standardized", "letters", "modular_from_payoffs",
        "random_exact_game", "random_game", "reflect", "restrict", "set_function_of", "shift", "tabulate", "unanimity",
    ),
    "linalg": ("DimensionError", "FeasibilityResult", "conic_feasible", "lp_feasible", "solve_unique"),
    "reduction": ("Decomposition", "ReductionWitness", "decompose", "is_reducible"),
}

_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
