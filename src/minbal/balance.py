"""Min-balanced coalition systems.

A set system is balanced on its carrier when strictly positive weights on
the members make the incidence vectors sum to the carrier's incidence
vector; it is min-balanced when no proper subsystem does the same, which
happens exactly when the incidence vectors are linearly independent and
the unique weight vector is strictly positive.

This module detects min-balancedness, normalizes the weights into the
integer coefficient vector of the induced facet inequality and renders
that inequality on one line (:func:`render_inequality`), complements
systems, enumerates all min-balanced systems on a carrier, and classifies
systems into permutational types.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import comb, factorial, gcd, lcm
from operator import or_
from typing import Callable, Iterator, Mapping, Optional, Sequence, TypeVar

from ._frozen import Frozen
from .games import Players, SetFunction, _bit_positions, _log, _player_sums, relabelling
from .linalg import _hadamard_bits, _packed_echelon, solve_unique

#: Enumeration and catalogue generation search all subsets of the carrier,
#: so they are capped harder than the membership oracles.
ENUM_PLAYER_CAP = 6

#: What the search of each carrier size from 6 up costs, as its warning
#: states it (``_enumerate_size``).
_SEARCH_COSTS = {6: "about 0.5 s, and up to 12 s and 250 MB to list them all", 7: "about 100 s and 100 MB"}

_Tag = TypeVar("_Tag")
_Value = TypeVar("_Value")


class SetSystem(Frozen):
    """A strictly increasing list of distinct nonempty coalitions."""

    members: tuple[int, ...]

    def __init__(self, members: tuple[int, ...]) -> None:
        members = tuple(members)
        super().__init__(members)
        if any(m <= 0 for m in members):
            raise ValueError("members must be nonempty coalitions")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing bitmasks")

    @property
    def carrier(self) -> int:
        return reduce(or_, self.members, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, coalition: int) -> bool:
        return coalition in self.members


def system_of(players: Players, *keys: str) -> SetSystem:
    """Build a set system from coalition key strings, e.g. ("ab", "ac")."""
    return SetSystem(tuple(sorted(players.coalition_of(k) for k in keys)))


class InequalityVector(Frozen):
    """A sparse integer coefficient vector over coalitions.

    Represents the inequality  sum over S of coeff(S) * m(S) >= 0.
    Unlisted coalitions have coefficient zero; zero entries are never
    stored, so equality of vectors is equality of ``items``.
    """

    items: tuple[tuple[int, int], ...]

    def __init__(self, items: tuple[tuple[int, int], ...]) -> None:
        raw, items = items, tuple((int(s), int(c)) for s, c in items)
        # integer input equals its conversion, so only other input is checked item by item
        if items != raw and any(int(x) != x for item in raw for x in item):
            raise ValueError("coalition masks and coefficients must be integers")
        super().__init__(items)
        if any(c == 0 for _, c in items):
            raise ValueError("zero coefficients must be omitted")
        if any(a[0] >= b[0] for a, b in zip(items, items[1:])):
            raise ValueError("items must be sorted by coalition bitmask")

    def coefficient(self, coalition: int) -> int:
        for s, c in self.items:
            if s == coalition:
                return c
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def negative_support(self) -> tuple[int, ...]:
        return tuple(s for s, c in self.items if c < 0)

    def evaluate(self, f: SetFunction) -> Fraction:
        """The pairing sum over S of coeff(S) * f(S), on f's integer table."""
        full = f.players.full_mask
        total = 0
        for s, c in self.items:
            if s > full:
                raise ValueError("coefficient vector does not fit the player set")
            total += c * f.numerators[s]
        return Fraction(total, f.denominator)

    def is_o_standardized(self) -> bool:
        """Zero total sum and zero sum over the coalitions at each player."""
        n = max((s for s, _ in self.items), default=0).bit_length()
        return sum(c for _, c in self.items) == 0 and not any(_player_sums(self.items, n))


def render_inequality(alpha: InequalityVector, players: Players) -> str:
    """One-line rendering of the inequality  <alpha, m> >= 0.

    The positive term of largest cardinality leads; the negative terms
    follow sorted by cardinality then bitmask, and the remaining positive
    term closes the line.
    """
    positives = [(s, c) for s, c in alpha.items if c > 0]
    negatives = [(s, c) for s, c in alpha.items if c < 0]
    if not positives:
        raise ValueError("cannot render a vector without positive coefficients")
    head = max(positives, key=lambda it: (it[0].bit_count(), it[0]))
    tail = sorted((it for it in positives if it != head), key=lambda it: (it[0].bit_count(), it[0]))
    body = sorted(negatives, key=lambda it: (it[0].bit_count(), it[0]))

    def term(s: int, c: int) -> str:
        key = players.key(s) or "∅"
        mag = abs(c)
        return f"m({key})" if mag == 1 else f"{mag}·m({key})"

    parts = [term(*head)]
    for s, c in body + tail:
        parts.append(("− " if c < 0 else "+ ") + term(s, c))
    return " ".join(parts) + " ≥ 0"


class MinBalancedSystem(Frozen):
    """A min-balanced system with its unique weights and, when
    non-trivial, the normalization constant and induced inequality."""

    system: SetSystem
    weights: tuple[Fraction, ...]
    k: Optional[int]
    alpha: Optional[InequalityVector]

    @property
    def carrier(self) -> int:
        return self.system.carrier

    @property
    def trivial(self) -> bool:
        return len(self.system) == 1

    def weight_map(self) -> dict[int, Fraction]:
        """Weights keyed by member coalition."""
        return dict(zip(self.system.members, self.weights))


def _incidence(coalition: int, positions: list[int]) -> tuple[int, ...]:
    return tuple(1 if coalition >> p & 1 else 0 for p in positions)


def is_min_balanced(system: SetSystem) -> Optional[MinBalancedSystem]:
    """Detect min-balancedness, returning weights and normalization.

    Present iff the members' incidence vectors are linearly independent
    and the unique solution of  sum of lam_S * chi_S = chi_carrier  is
    strictly positive.
    """
    if len(system) == 0:
        raise ValueError("the empty system is not a set system")
    positions = _bit_positions(system.carrier)
    columns = [_incidence(m, positions) for m in system.members]
    ones = (1,) * len(positions)
    try:
        weights = solve_unique(columns, ones)
    except ValueError:
        return None  # dependent incidence vectors
    if weights is None or any(w <= 0 for w in weights):
        return None
    if len(system) == 1:
        return MinBalancedSystem(system, weights, None, None)
    k, alpha = normalize(dict(zip(system.members, weights)))
    return MinBalancedSystem(system, weights, k, alpha)


def normalize(weights: Mapping[int, Fraction]) -> tuple[int, InequalityVector]:
    """Integer normalization of balanced weights into a facet inequality.

    ``k`` is the minimal positive scaling making every ``k * lam_S`` an
    integer with overall gcd 1.  That this scaling is itself an integer
    is asserted at runtime rather than assumed.  The returned vector has
    coefficient ``k`` on the carrier, ``-k * lam_S`` on the members, the
    o-standardizing remainder on the empty coalition and zero elsewhere.
    The weights are scaled to numerators over the least common
    denominator and normalized in integers (``_normalize_integers``).
    """
    members = sorted(weights)
    lams = [Fraction(weights[m]) for m in members]
    scale = lcm(*(l.denominator for l in lams))
    return _normalize_integers(members, [l.numerator * (scale // l.denominator) for l in lams], scale)


def _normalize_integers(members: Sequence[int], numerators: Sequence[int], denominator: int) -> tuple[int, InequalityVector]:
    """``normalize`` of the weights ``numerators[i] / denominator`` of the
    increasing ``members``, the denominator positive, with every check
    made on the integers: no ``Fraction`` is built unless a message
    shows one.  The orderly search calls it on the numerators and the
    lead of its packed target, ``normalize`` on its scaled weights.

    Divided by their common divisor with the denominator, the numerators
    are ``ints`` over the least denominator ``scale``; ``k`` is ``scale``
    over the gcd of ``ints``, and each member's coefficient is minus its
    ``int`` over that gcd.
    """
    if len(members) < 2:
        raise ValueError("normalization is defined for non-trivial systems only")
    carrier = reduce(or_, members)
    if 0 in members or carrier in members:
        raise ValueError("weights must be indexed by proper nonempty members")
    if any(v <= 0 for v in numerators):
        raise ValueError("balanced weights must be strictly positive")
    n = carrier.bit_length()
    if _player_sums(zip(members, numerators), n) != [denominator * (carrier >> i & 1) for i in range(n)]:
        raise ValueError("weights are not balanced on the carrier")
    common = gcd(denominator, *numerators)
    scale = denominator // common
    ints = [v // common for v in numerators]
    g = gcd(*ints)
    if scale % g != 0:
        raise ArithmeticError(
            "minimal normalization constant is not an integer; "
            f"weights {dict(zip(members, (Fraction(v, denominator) for v in numerators)))} scale to k = {scale}/{g}"
        )
    k = scale // g
    items = [*((m, -(i // g)) for m, i in zip(members, ints)), (carrier, k)]  # increasing: each member is a proper subset
    empty = -sum(a for _, a in items)
    alpha = InequalityVector(tuple([(0, empty), *items] if empty else items))  # a zero coefficient is omitted
    if not alpha.is_o_standardized():
        raise ArithmeticError("normalized coefficient vector is not o-standardized")
    if alpha.coefficient(0) < 1:
        raise ArithmeticError("normalized coefficient vector has |empty| coefficient < 1")
    return k, alpha


def complement_system(system: SetSystem, players: Players) -> SetSystem:
    """The member-wise complement {N minus S} of a set system."""
    full = players.full_mask
    if full in system:
        raise ValueError("complement of a system containing the full player set has an empty member")
    if any(m > full for m in system.members):
        raise ValueError("system does not fit the player set")
    return SetSystem(tuple(sorted(full ^ m for m in system.members)))


# -- enumeration -------------------------------------------------------

@lru_cache(maxsize=None)
def _search_kernel(c: int) -> tuple[Callable, list[int], Callable, Callable, Callable, Callable]:
    """The ``linalg._packed_echelon`` kernel of the orderly search on
    ``c`` players, which :func:`minbal.reduction.is_reducible` shares: a
    member of ``c`` entries joined to a unit vector of ``c + 1``, the
    first ``c`` entries leading, and minors bounded as those of ``c``
    rows of ``c`` ones, since at most ``c`` such members are independent."""
    return _packed_echelon(2 * c + 1, c, _hadamard_bits([[1] * c] * c))


def _reduced_set(members: Sequence[int], vectors: Sequence[int], lead: int) -> Optional[tuple[int, int]]:
    """The least set reducing a min-balanced system, with its reduced
    vector, or ``None``: ``reduction.is_reducible``'s reduced set.

    ``vectors`` are the unit vectors ``e_p``, ``p < c``, reduced against
    the rows of ``members`` (on the first ``c`` players, last lead
    ``lead``), so ``sums[a]`` is ``chi_A ⊕ e_2c`` reduced.  A passes when
    its first ``c`` entries vanish and the next ``k`` are at most zero:
    chi_A is then a nonnegative combination of members, so a union of
    them, and every proper subset but the members may be tried."""
    c, k = len(vectors), len(members)
    _, units, _, _, pivot, negative = _search_kernel(c)
    sums, ones = [lead * units[2 * c]], sum(units[c:c + k])
    for e in vectors:
        sums += [v + e for v in sums]
    for a in range(1, (1 << c) - 1):
        if a not in members and pivot(sums[a]) is None and negative(sums[a] - ones, c, c + k):
            return a, sums[a]
    return None


@lru_cache(maxsize=None)
def _enumerate_size(c: int) -> tuple[tuple[MinBalancedSystem, ...], tuple[bool, ...]]:
    """One non-trivial min-balanced system of each permutational type on
    the carrier ``(1 << c) - 1``, its lex-least system, in canonical
    order, and whether each is irreducible.

    An orderly DFS (Read 1978; McKay 1998) over candidate members, the
    nonempty proper subsets of the carrier, in increasing bitmask order.
    A branch dies when a candidate is linearly dependent on the chosen
    members, or when the chosen members, as a sorted tuple, are not the
    lex-least of their images under the ``c!`` relabellings of
    ``_perm_tables(c)``, the representative ``canonical_type`` picks.
    That rule loses no type: a later member x is larger than every chosen
    one, so an image pi(S) sorting below S makes pi(S + x) sort below
    S + x, and every prefix of a type's lex-least system is lex-least.
    When the carrier's incidence vector already lies in the chosen span,
    no proper superset can be min-balanced either, so the node is a leaf:
    the unique weights are tested for strict positivity.  No leaf extends
    another, so the DFS meets the leaves in canonical order.

    With ``c - 1`` members chosen, every independent candidate completes
    a basis of the ``c`` coordinates, so it makes a leaf, and that last
    level has its own loop, pruned by a rule on bitmasks.  With positive
    weights, a member holding a player no other member holds has weight
    1, as the weights at that player sum to 1; at each of its other
    players the weights sum to 1 too, so the other members there weigh 0
    in all: there are none, and the member meets no other.  So when the
    chosen members' union is not the carrier the only candidate is its
    complement, and otherwise a candidate holds every player that only
    one chosen member holds, where that member meets another, and holds
    or misses each chosen member that meets no other.  A dropped
    candidate is dependent or makes a leaf with a weight at most 0, so no
    type is lost.  A kept one is pivoted and the target stepped through
    it; only a leaf with positive weights is then tested for canonicity
    and normalized.  At ``c = 6`` that leaves 29,657 canonicity tests of
    the 113,741 a search testing every candidate made (1,246 of 2,887 at
    ``c = 5``).

    Above the last level a candidate is tested for canonicity
    (``_packed_marks``) before independence.  Member ``j``, S, is the
    echelon row of ``chi_S ⊕ e_j`` in ``_search_kernel(c)``.  A node
    keeps the unit vectors ``e_p``, ``p < c``, reduced against its rows,
    and a child steps each by its row.  By linearity a candidate reduced
    is its players' vectors plus ``lead * e_(c + depth)``, which no row
    reaches.  The target ``1_c ⊕ e_2c``, stepped alike, decides a leaf in
    its parent: the carrier lies in the span when its first ``c``
    entries vanish, its tail then the weights times minus the last lead.
    A leaf with positive weights is normalized and, its vectors stepped
    once more, tested by ``_reduced_set``.  Every step and sum is
    checked.

    A search for ``c >= 6``, run only on a cache miss, logs a warning
    first, with the cost of its ``c`` (``_SEARCH_COSTS``).  On a 2-core
    machine with Python 3.11 a process that ran only the 6-player search
    took 0.35-0.64 s and 17 MB (six runs alternated with a version testing
    every last member for canonicity, which took 0.59-1.00 s; README,
    "Caps", gives its callers' figures), and the 7-player search took
    97-110 s and 94-97 MB (three runs).
    """
    if c >= 6:
        _log("warning", "enumerating min-balanced systems on a %d-player carrier: expect %s", c,
             _SEARCH_COSTS.get(c, "far more than the 100 s and 100 MB of 7 players"))
    full = (1 << c) - 1
    _, steps, guards, _ = _packed_marks(c)
    pack, units, unpack, reduce_row, pivot, negative = _search_kernel(c)
    players = [_bit_positions(s) for s in range(full + 1)]
    types: list[MinBalancedSystem] = []
    irreducible: list[bool] = []

    def leaf(chosen: list[int], row: tuple[int, int, int], lead: int, vectors: list[int], reached: int) -> None:
        values = unpack(reached)[c:]
        weights = [-v for v in values[:len(chosen)]]
        k, alpha = _normalize_integers(chosen, weights, values[c])
        types.append(MinBalancedSystem(SetSystem(tuple(chosen)), tuple(Fraction(v, values[c]) for v in weights), k, alpha))
        irreducible.append(_reduced_set(chosen, [reduce_row([row], e, lead) for e in vectors], row[2]) is None)

    def last(start: int, chosen: list[int], union: int, lead: int, lex: int, vectors: list[int], target: int) -> None:
        unit = lead * units[2 * c - 1]
        if union != full:  # the players outside the union are the last member's own
            candidates = [full ^ union] if start <= full ^ union < full else []
        else:
            seen = shared = 0  # the players of two or more chosen members
            for m in chosen:
                shared |= seen & m
                seen |= m
            # s holds the own players of a member that meets another and
            # holds or misses a member that meets none: s & fixed in allowed
            fixed, allowed = 0, {0}
            for m in chosen:
                own = m & ~shared
                fixed |= own
                allowed = {a | own for a in allowed} | (allowed if own == m else set())
            candidates = [s for s in range(start, full) if s & fixed in allowed]
        for s in candidates:
            row = pivot(sum(map(vectors.__getitem__, players[s]), unit))
            if row is None:
                continue
            reached = reduce_row([row], target, lead)
            if negative(reached, c, 2 * c) and lex + steps[s] & guards == guards:  # positive weights, lex-least
                leaf([*chosen, s], row, lead, vectors, reached)

    def visit(start: int, chosen: list[int], union: int, lead: int, lex: int, vectors: list[int], target: int) -> None:
        depth = len(chosen)
        if depth == c - 1:
            return last(start, chosen, union, lead, lex, vectors, target)
        unit = lead * units[c + depth]
        for s in range(start, full):
            least = lex + steps[s]
            if least & guards != guards:  # not lex-least
                continue
            row = pivot(sum(map(vectors.__getitem__, players[s]), unit))
            if row is None:
                continue
            rows = [row]
            reached = reduce_row(rows, target, lead)
            chosen.append(s)
            if union | s != full or pivot(reached) is not None:
                visit(s + 1, chosen, union | s, row[2], least, [reduce_row(rows, e, lead) for e in vectors], reached)
            elif negative(reached, c, c + depth + 1):  # a leaf with positive weights
                leaf(chosen, row, lead, vectors, reached)
            chosen.pop()

    visit(1, [], 0, 1, guards, units[:c], pack([1] * c) + units[2 * c])
    return tuple(types), tuple(irreducible)


@lru_cache(maxsize=None)
def _packed_marks(c: int) -> tuple[list[int], list[int], int, Callable[[int], int]]:
    """The images of each coalition under the ``c!`` relabellings of
    ``_perm_tables(c)``, packed into one integer per coalition, with the
    lex-least test's terms and the orbit size of such integers' OR.

    ``marks[s]`` holds one field per relabelling, field ``k`` with bit
    ``full - tables[k][s]`` set, so the OR of the marks of a set of
    members holds each relabelling's mask of their images in its field;
    ``marks[0]`` is zero.  ``marks[full]``, the carrier's, sets bit 0 of
    every field, as ``canonical_type`` takes systems that contain their
    carrier.  No member is empty, so no mask sets bit ``full``, the
    field's guard.  A field is ``full + 1`` bits wide, or a byte below
    three players, so that ``_fields`` reads the fields of every ``c``
    as one machine integer each; the tests below hold for any width above
    the guard.  Each mark is read from its binary numeral, the last
    relabelling's field first.

    ``steps[s]`` is field 0 of ``marks[s]``, the identity's, copied to
    every field, less ``marks[s]``.  Distinct members set distinct bits,
    so field ``k`` of ``guards`` plus their steps is guard + M0 - Mk,
    which never borrows and keeps the guard exactly when M0 >= Mk, as
    ``max(masks) == masks[0]`` asks of the unpacked masks.

    The orbit size is ``c!`` over the number of relabellings fixing the
    members, those whose field equals field 0.  Field 0 copied into every
    field and XORed with the images leaves exactly those fields zero; with
    the guards set, subtracting one from each field clears the guard of
    exactly the zero fields.
    """
    full = (1 << c) - 1
    width = max(8, full + 1)  # whole bytes, for ``_fields``
    tables = _perm_tables(c)
    digits = ["0" * (width - 1 - j) + "1" + "0" * j for j in range(width)]  # a field's binary numeral with bit j set
    ones = int(digits[0] * len(tables), 2)
    guards = ones << full
    low = (1 << full) - 1
    marks = [0] + [int("".join([digits[full - table[s]] for table in reversed(tables)]), 2) for s in range(1, full + 1)]

    def orbit_size(images: int) -> int:
        moved = ((((images & low) * ones) ^ images | guards) - ones) & guards
        return len(tables) // (len(tables) - moved.bit_count())

    return marks, [(m & low) * ones - m for m in marks], guards, orbit_size


def _fields(images: int, c: int) -> Sequence[int]:
    """Each relabelling's mask in an OR of ``_packed_marks(c)`` marks,
    the identity's first, without a loop in Python: the integer's bytes
    in machine order, cast to one unsigned integer per field.  On a
    big-endian machine the cast lists the last field first."""
    # a field is a byte up to three players, then 2, 4 and 8 bytes: ``_packed_marks``' width
    fields = memoryview(images.to_bytes(max(1, (1 << c) >> 3) * factorial(c), sys.byteorder)).cast("BBBBHIQ"[c])
    return fields if sys.byteorder == "little" else fields[::-1]


def _orbit_sizes(c: int) -> list[int]:
    """The orbit size of each ``_enumerate_size(c)`` type on the first
    ``c`` players, read off the OR of its members' ``_packed_marks``
    without listing the orbit."""
    types, _ = _enumerate_size(c)
    marks, _, _, orbit_size = _packed_marks(c)
    return [orbit_size(reduce(or_, map(marks.__getitem__, rep.system.members))) for rep in types]


def _member_values(rep: MinBalancedSystem) -> tuple[tuple[Fraction, int], ...]:
    """Each member's weight and coefficient, in member order.  A
    normalized vector is supported on the empty coalition, the members and
    the carrier (``normalize``), so the members' coefficients are the
    items of ``alpha`` between the first and the last; that shape is
    checked here, once per type, and every image of the type inherits it."""
    if tuple(s for s, _ in rep.alpha.items) != (0, *rep.system.members, rep.carrier):
        raise ArithmeticError(f"the vector of {rep.system.members} is not supported on its members, the empty set and the carrier")
    return tuple(zip(rep.weights, (v for _, v in rep.alpha.items[1:-1])))


def _images(types: Sequence[tuple[tuple[int, ...], Sequence[_Value], _Tag]], c: int) -> Iterator[tuple[tuple[int, ...], tuple[_Value, ...], _Tag]]:
    """The images of systems on the first ``c`` players under the ``c!``
    relabellings, in canonical order.

    Each system is given by its members, one value per member and a tag;
    each image comes with its members, the values moved with their
    members into the image's order, and its system's tag.  The systems
    must be of distinct types, so no two images are equal, and no one may
    properly contain another, as no min-balanced system properly
    contains another on its carrier.  Each image is read off the OR of
    the system's ``_packed_marks`` as its field's mask (``_fields``), and
    one relabelling is kept per distinct mask, the last, so no orbit is
    built as tuples.  Of two member sets neither containing the other,
    the one holding the smallest coalition they do not share sorts first
    as a tuple and has the larger mask, so descending mask is canonical
    order.  ``(mask, type, relabelling)`` is sorted once and popped from
    the end, so each image's members are mapped and sorted, with their
    values, only as it is drawn, and its entry is freed.  A relabelling
    from the first ``c`` players that keeps their order, as
    ``relabelling(_bit_positions(carrier))`` does, moves an image onto any
    carrier of ``c`` players and keeps every list in order.
    """
    marks, _, _, _ = _packed_marks(c)
    tables = _perm_tables(c)
    order = sorted((mask, i, k) for i, (members, _, _) in enumerate(types)
                   for mask, k in dict(zip(_fields(reduce(or_, map(marks.__getitem__, members)), c), range(len(tables)))).items())
    while order:
        _, i, k = order.pop()
        members, values, tag = types[i]
        image, moved = zip(*sorted(zip(map(tables[k].__getitem__, members), values)))
        yield image, moved, tag


def enumerate_min_balanced(players: Players, carrier: int) -> tuple[MinBalancedSystem, ...]:
    """All non-trivial min-balanced systems with exactly the given carrier.

    Output is in canonical order (lexicographic by member bitmask list):
    the ``_images`` of the cached type representatives of the carrier's
    size, renamed onto its players, which keeps the bit order, weights and
    ``k``.
    """
    players._check(carrier)
    if carrier == 0:
        raise ValueError("the carrier must be nonempty")
    if players.n > ENUM_PLAYER_CAP:
        raise ValueError(f"enumeration is capped at {ENUM_PLAYER_CAP} players")
    c = carrier.bit_count()
    table = relabelling(_bit_positions(carrier))
    types = [(rep.system.members, _member_values(rep), rep) for rep in _enumerate_size(c)[0]]
    return tuple(_image_system(table, image, values, rep) for image, values, rep in _images(types, c))


def _image_system(table: Sequence[int], image: tuple[int, ...], values: tuple[tuple[Fraction, int], ...],
                  rep: MinBalancedSystem) -> MinBalancedSystem:
    """An image of ``rep`` on the first c players, with its
    ``_member_values``, renamed onto a carrier through its order-keeping
    ``table``: the empty coalition and the carrier keep their coefficients."""
    members = image if table[-1] == len(table) - 1 else tuple(map(table.__getitem__, image))  # the identity on the first c players
    weights, coefficients = zip(*values)
    items = (rep.alpha.items[0], *zip(members, coefficients), (table[-1], rep.k))
    return MinBalancedSystem(SetSystem(members), weights, rep.k, InequalityVector(items))


# -- permutational types -----------------------------------------------

@lru_cache(maxsize=None)
def _perm_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation of n players, the induced map on bitmasks."""
    return tuple(tuple(relabelling(perm)) for perm in permutations(range(n)))


@lru_cache(maxsize=None)
def _lowering(carrier: int) -> dict[int, int]:
    """Renames the carrier's players onto the first ones, in order."""
    return {t: s for s, t in enumerate(relabelling(_bit_positions(carrier)))}


def canonical_type(system: SetSystem, players: Players) -> tuple[SetSystem, int]:
    """Canonical representative and orbit size under player permutations.

    The canonical form is the lexicographically smallest sorted bitmask
    list among the images of the system under all n! permutations; the
    orbit size counts the distinct images.  Both come from the system's
    own carrier of c players: renamed onto the first c in order, every
    member is lowered and keeps its place, so the least n! image is the
    least c! image of the renamed system, and the orbit is C(n, c) times
    as large.  The c! images are the fields of the OR of the renamed
    members' ``_packed_marks``, the carrier's included: all hold as many
    members, so the largest mask (``_fields``) is the least image, and
    ``orbit_size`` counts them.  No relabelling is applied to a member.
    """
    if players.n > ENUM_PLAYER_CAP:
        raise ValueError(f"classification is capped at {ENUM_PLAYER_CAP} players")
    carrier = system.carrier
    if carrier > players.full_mask:
        raise ValueError("system does not fit the player set")
    c = carrier.bit_count()
    marks, _, _, orbit_size = _packed_marks(c)
    images = reduce(or_, map(marks.__getitem__, map(_lowering(carrier).__getitem__, system.members)))
    least = max(_fields(images, c))
    return SetSystem(tuple((1 << c) - 1 - j for j in reversed(_bit_positions(least)))), orbit_size(images) * comb(players.n, c)
