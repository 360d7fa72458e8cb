"""Shared fixtures: example games from the worked examples and session
catalogues (expensive to generate, shared read-only)."""

import argparse
import json
from fractions import Fraction
from math import gcd, lcm

import pytest

from minbal import anti_dual, cones, game_of, generate, letters, lp_feasible
from minbal.games import relabelling, restrict
from minbal.balance import MinBalancedSystem, SetSystem, _perm_tables, normalize
from minbal.cli import _cmd_catalogue, _cmd_check, _cmd_enumerate, _cmd_verify


def permute_coalition(coalition: int, perm: tuple[int, ...]) -> int:
    """Image of a coalition when player i becomes player perm[i]; a
    reference for the permutation action independent of the package."""
    bits = 0
    for i in range(len(perm)):
        if coalition >> i & 1:
            bits |= 1 << perm[i]
    return bits


def system_payload(players, mbs):
    """A system's ``system``, ``carrier``, ``weights`` and ``k`` fields as
    JSON values: a reference for the renderer behind ``serialize`` and
    ``minbal enumerate --format json``."""
    return {
        "system": [list(players.member_names(m)) for m in mbs.system.members],
        "carrier": list(players.member_names(mbs.carrier)),
        "weights": {players.key(m): str(w) for m, w in zip(mbs.system.members, mbs.weights)},
        "k": mbs.k,
    }


def _entry_payload(players, e):
    """One catalogue entry as the JSON object ``serialize`` writes for it."""
    payload = system_payload(players, e.mbs) | {
        "alpha": {players.key(s): c for s, c in e.alpha.items},
        "irreducible": e.irreducible,
        "conjugated": e.conjugated,
        "type_id": e.type_id,
        "orbit_size": e.orbit_size,
    }
    if e.complement_type_id is not None:
        payload["complement_type"] = e.complement_type_id
    return payload


def reference_serialize(catalogue):
    """The JSON bytes of a catalogue from ``json.dumps`` of its payload: a
    reference for the emitter behind ``catalogue.serialize``."""
    payload = {
        "players": list(catalogue.players.names),
        "cone": catalogue.cone.value,
        "conjecture": catalogue.conjecture,
        "entries": [_entry_payload(catalogue.players, e) for e in catalogue.entries],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def fraction_lp_feasible(inequality_rows, equality_rows, rhs):
    """``(point, farkas)`` of ``linalg.lp_feasible`` from a phase-1
    simplex on a ``Fraction`` tableau with Bland's rule: a reference for
    the integer tableau, which must take the same pivots."""
    rows = [[Fraction(e) for e in row] for row in list(inequality_rows) + list(equality_rows)]
    b = [Fraction(v) for v in rhs]
    mi, m = len(inequality_rows), len(rows)
    nvar = len(rows[0])
    art0 = 2 * nvar + mi
    ncols = art0 + m
    tab, sigma = [], []
    for i, row in enumerate(rows):
        s = 1 if b[i] >= 0 else -1
        sigma.append(s)
        line = [s * e for e in row] + [-s * e for e in row] + [Fraction(0)] * (mi + m)
        if i < mi:
            line[2 * nvar + i] = Fraction(s)
        line[art0 + i] = Fraction(1)
        line.append(s * b[i])
        tab.append(line)
    cost = [Fraction(int(art0 <= j < ncols)) for j in range(ncols + 1)]
    for line in tab:
        for j in range(ncols + 1):
            if line[j] != 0:
                cost[j] -= line[j]
    basis = list(range(art0, ncols))
    while (enter := next((j for j in range(art0) if cost[j] < 0), None)) is not None:
        leave = best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        _fraction_pivot(tab, cost, basis, leave, enter)
    if cost[-1] == 0:
        x = [Fraction(0)] * nvar
        for i, bv in enumerate(basis):
            if bv < nvar:
                x[bv] += tab[i][-1]
            elif bv < 2 * nvar:
                x[bv - nvar] -= tab[i][-1]
        return tuple(x), None
    return None, tuple(-sigma[i] * (1 - cost[art0 + i]) for i in range(m))


def _fraction_pivot(tab, cost, basis, leave, enter):
    prow = tab[leave]
    lead = prow[enter]
    if lead != 1:
        tab[leave] = prow = [v / lead for v in prow]
    support = [(j, v) for j, v in enumerate(prow) if v != 0]
    for row in tab + [cost]:
        f = row[enter]
        if row is not prow and f != 0:
            for j, v in support:
                row[j] -= f * v
    basis[leave] = enter


def reference_parser():
    """The argparse tree that parsed ``minbal``'s command line before the
    option table of ``cli.COMMANDS``: a reference for ``cli._parse``,
    which must give the same handler and fields, or the same exit code."""
    parser = argparse.ArgumentParser(
        prog="minbal",
        description="Min-balanced coalition systems, facet catalogues of the"
        " balanced / totally balanced / (conjectured) exact game cones, and"
        " certified membership checks, all in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(required=True)

    p_enum = sub.add_parser("enumerate", help="list min-balanced systems")
    p_enum.add_argument("--players", type=int, required=True, metavar="N",
                        help="number of players (2-6), named a, b, c, ...")
    p_enum.add_argument("--carrier-size", type=int, default=None, metavar="S",
                        help="list systems on every carrier of this size (default: N)")
    p_enum.add_argument("--irreducible-only", action="store_true",
                        help="keep only irreducible systems")
    p_enum.add_argument("--types-only", action="store_true",
                        help="print one representative per permutational type")
    p_enum.add_argument("--format", choices=("json", "text"), default="text")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_cat = sub.add_parser("catalogue", help="generate a facet catalogue")
    p_cat.add_argument("--players", type=int, required=True, metavar="N",
                       help="number of players (2-6)")
    p_cat.add_argument("--cone", required=True,
                       choices=("balanced", "totally-balanced", "exact-conjecture"))
    p_cat.add_argument("--format", choices=("json", "text"), default="json")
    p_cat.add_argument("--out", metavar="FILE", default=None,
                       help="write the catalogue to FILE instead of stdout")
    p_cat.set_defaults(handler=_cmd_catalogue)

    p_check = sub.add_parser("check", help="decide cone membership of a game")
    p_check.add_argument("--game", required=True, metavar="FILE",
                         help="game JSON file")
    p_check.add_argument("--cone", required=True,
                         choices=("balanced", "totally-balanced", "exact"))
    p_check.add_argument("--certificate", action="store_true",
                         help="print the exact certificate as JSON")
    p_check.set_defaults(handler=_cmd_check)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--players", type=int, required=True, metavar="N")
    p_verify.add_argument("--suite", required=True, choices=("table1", "appendix", "conjecture"))
    p_verify.add_argument("--samples", type=int, default=100, metavar="K",
                          help="sample count for the conjecture suite (default 100)")
    p_verify.add_argument("--seed", type=int, default=0, metavar="S",
                          help="seed for the Mersenne Twister sampler (random.Random)")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def tight_rows(game, tight_at):
    """The full core system with equality at ``tight_at``: a reference
    for the row generation in ``cones._tight_feasibility``.

    Every row has the form  -chi_S . x <= -m(S); the rows for the full
    player set and for ``tight_at`` are equalities.  Returns the rows,
    the right-hand side and the coalition order used, inequalities first.
    """
    players = game.players
    n = players.n
    full = players.full_mask
    ineq_order = [s for s in range(1, full + 1) if s not in (full, tight_at)]
    eq_order = [full] if tight_at == full else [full, tight_at]
    order = ineq_order + eq_order
    rows = [[-(s >> i & 1) for i in range(n)] for s in order]
    rhs = [-game.values[s] for s in order]
    return rows, rhs, ineq_order, eq_order


def reduce_mod_rows(rows, vec):
    """Reduce an integer vector against echelon rows; None when it vanishes.

    ``rows`` holds ``(row, pivot)`` pairs with distinct pivots, each row
    zero at the pivots of the rows before it, as this function returns
    them.  The result is zero at every pivot, divided by its gcd and
    signed so that its first nonzero entry, its pivot, is positive: a
    list reference for the packed kernel ``linalg._packed_echelon``,
    cross-multiplying at each step and dividing by the gcd.
    """
    v = vec
    for row, piv in rows:
        if v[piv]:
            lead, f = row[piv], v[piv]
            v = [lead * a - f * b for a, b in zip(v, row)]
    piv = next((i for i, a in enumerate(v) if a), -1)
    if piv < 0:
        return None
    g = gcd(*v) if v[piv] > 0 else -gcd(*v)
    return [a // g for a in v], piv


def augment(vec, j, width):
    """``vec ⊕ e_j`` with ``e_j`` of length ``width``."""
    tail = [0] * width
    tail[j] = 1
    return vec + tail


def rank(rows):
    """Rank over the rationals, each row scaled to integers and reduced
    by ``reduce_mod_rows`` against the independent rows before it."""
    echelon = []
    for row in rows:
        entries = [Fraction(e) for e in row]
        scale = lcm(*(e.denominator for e in entries))
        reduced = reduce_mod_rows(echelon, [int(e * scale) for e in entries])
        if reduced is not None:
            echelon.append(reduced)
    return len(echelon)


def det(m):
    """The determinant of a square matrix by Laplace expansion along its
    first row."""
    if len(m) == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(len(m)):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
    return total


def plain_enumerate_size(c):
    """Every non-trivial min-balanced system on the carrier of the first
    ``c`` players, sorted by members, from a DFS that visits every system
    of every type: a reference for the orderly ``balance._enumerate_size``,
    which must return the same systems, weights, ``k`` and ``alpha``.

    Candidates are the nonempty proper subsets in increasing bitmask
    order, kept as augmented echelon rows ``chi_S ⊕ e_depth``; a branch
    dies on a dependent candidate or when the rest cannot cover the
    carrier, and a node whose span holds the carrier's incidence vector
    is a leaf, recorded when its weights are strictly positive.
    """
    full = (1 << c) - 1
    candidates = list(range(1, full))
    suffix_cover = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | candidates[i]
    target = augment([1] * c, c, c + 1)
    found = []

    def visit(start, chosen, union, rows):
        depth = len(chosen)
        if union == full:
            r, piv = reduce_mod_rows(rows, target)
            if piv >= c:
                lead = r[2 * c]
                if all(r[c + j] and (r[c + j] > 0) != (lead > 0) for j in range(depth)):
                    weights = tuple(Fraction(-r[c + j], lead) for j in range(depth))
                    k, alpha = normalize(dict(zip(chosen, weights)))
                    found.append(MinBalancedSystem(SetSystem(tuple(chosen)), weights, k, alpha))
                return
        for i in range(start, len(candidates)):
            if union | suffix_cover[i] != full:
                break
            s = candidates[i]
            reduced = reduce_mod_rows(rows, augment([s >> j & 1 for j in range(c)], depth, c + 1))
            if reduced[1] >= c:
                continue
            visit(i + 1, chosen + [s], union | s, rows + [reduced])

    visit(0, [], 0, [])
    return tuple(sorted(found, key=lambda m: m.system.members))


def listed_marks(c):
    """Per coalition on the first ``c`` players, the carrier included,
    its mask bit under each relabelling of ``balance._perm_tables(c)``,
    bit ``full - image``, the identity first: the unpacked form of
    ``balance._packed_marks``."""
    full = (1 << c) - 1
    tables = _perm_tables(c)
    return [tuple(1 << (full - table[s]) for table in tables) for s in range(full + 1)]


def orbit(members, c):
    """The images of members on the first ``c`` players under their
    ``c!`` relabellings, each with the last table of
    ``balance._perm_tables(c)`` making it: a scan of sorted tuples, the
    reference for the orbits that ``balance`` reads off packed marks."""
    return {tuple(sorted(map(table.__getitem__, members))): table for table in _perm_tables(c)}


def listed_images(types, c):
    """``balance._images`` from ``orbit``: every image of every type,
    sorted as member tuples, as the ``(member, value)`` pairs of its
    members, each with the value its table moves onto it."""
    order = sorted((image, i, table) for i, (members, _, _) in enumerate(types) for image, table in orbit(members, c).items())
    for image, i, table in order:
        members, values, tag = types[i]
        moved = dict(zip(map(table.__getitem__, members), values))
        yield [(m, moved[m]) for m in image], tag


def listed_is_lex_least(images):
    """The orderly search's canonicity test on a list of masks, one per
    relabelling with the identity first: a reference for the packed test
    of ``balance._packed_marks``."""
    return max(images) == images[0]


def conic_lp_system(generators, target):
    """``lp_feasible`` arguments for ``c >= 0`` with
    ``sum(c[i] * generators[i]) == target``: one sign row per generator,
    each with a zero right-hand side, then one equality per coordinate."""
    m = len(generators)
    ineq = [[-int(j == i) for j in range(m)] for i in range(m)]
    eq = [[g[i] for g in generators] for i in range(len(target))]
    return ineq, eq, [0] * m + list(target)


def lp_conic_feasible(generators, target):
    """Nonnegative coefficients combining ``generators`` into ``target``
    by linear program, or ``None``: a reference for
    ``linalg.conic_feasible`` that also takes dependent generators."""
    return lp_feasible(*conic_lp_system(generators, target)).point


def subsets_below(mbs, a):
    """The members strictly inside ``a``, in member order."""
    return [s for s in mbs.system.members if s & a == s and s != a]


def candidate_sets(mbs):
    """Admissible reduced sets A, in increasing bitmask order, by a scan
    of every subset of the carrier: a reference for the unions of members
    that ``reduction.is_reducible`` reads.

    Without loss of generality A has at least two players, is not a
    member, is a proper subset of the carrier and equals the union of
    the members strictly inside it.
    """
    carrier = mbs.carrier
    out = []
    for a in range(carrier):
        if a & carrier != a or a.bit_count() < 2 or a in mbs.system:
            continue
        union = 0
        for m in subsets_below(mbs, a):
            union |= m
        if union == a:
            out.append(a)
    return out


@pytest.fixture(scope="session")
def p2():
    return letters(2)


@pytest.fixture(scope="session")
def p3():
    return letters(3)


@pytest.fixture(scope="session")
def p4():
    return letters(4)


@pytest.fixture(scope="session")
def p5():
    return letters(5)


@pytest.fixture(scope="session")
def market_game(p3):
    """The worked 3-player game: worth 3 for the grand coalition, 2 for
    every pair, 0 for singletons.  Totally balanced but not exact."""
    return game_of(p3, {"abc": 3, "ab": 2, "ac": 2, "bc": 2})


@pytest.fixture(scope="session")
def market_anti_dual(market_game):
    """Its anti-dual: balanced, with singleton core, not totally balanced."""
    return anti_dual(market_game)


@pytest.fixture(scope="session")
def balanced3(p3):
    return generate(p3, "balanced")


@pytest.fixture(scope="session")
def balanced4(p4):
    return generate(p4, "balanced")


@pytest.fixture(scope="session")
def totally4(p4):
    return generate(p4, "totally-balanced")


@pytest.fixture(scope="session")
def totally5(p5):
    return generate(p5, "totally-balanced")


@pytest.fixture(scope="session")
def exact4(p4):
    return generate(p4, "exact-conjecture")


def lp_only_is_exact(game):
    """``cones.is_exact`` with a core LP at every coalition that no earlier
    LP point is tight at, and no marginal vector tried: a reference whose
    negative verdicts the marginal-vector shortcut must reproduce."""
    players = game.players
    full = players.full_mask
    values, scale = game.numerators, game.denominator
    coalitions = sorted(range(1, full + 1), key=lambda s: (s.bit_count(), s))
    points = {}
    for d in coalitions:
        if d in points:
            continue
        res, order, excess = cones._tight_feasibility(values, d)
        if not res.feasible:
            theta = cones._theta_from_farkas(players, order, res.farkas)
            return cones.Verdict(False, cones.NoTightAllocation(d, theta))
        point = cones._point(res, scale)
        for s, e in enumerate(excess):
            if s and not e:
                points.setdefault(s, point)
    return cones.Verdict(True, cones.TightAllocationTable._of(tuple((d, points[d]) for d in coalitions)))


def reference_is_totally_balanced(game):
    """``cones.is_totally_balanced_lp`` as it was before subgames were
    settled along symmetric chains: every coalition of two or more
    players, and the full player set, asks ``cones._core_point`` for a
    core point of its subgame, smallest first.  A reference whose
    verdicts and certificates the chain pass must reproduce."""
    players = game.players
    full = players.full_mask
    values, scale = game.numerators, game.denominator
    coalitions = sorted(
        (s for s in range(1, full + 1) if s.bit_count() >= 2 or s == full),
        key=lambda s: (s.bit_count(), s),
    )
    for a in coalitions:
        table = [values[s] for s in relabelling([i for i in range(players.n) if a >> i & 1])]
        res, order = cones._core_point(table, len(table) - 1)
        if not res.feasible:
            theta = cones._theta_values(a.bit_count(), order, res.farkas)
            return cones.Verdict(False, cones.FailingSubgame(a, cones._violated_system(restrict(game, a), theta)))
    return cones.Verdict(True, cones._point(res, scale))

