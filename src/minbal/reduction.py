"""Reducibility of min-balanced systems.

A min-balanced system is reducible when some proper subset A of its
carrier and some member B inside A witness that the system's inequality
is a conic combination of inequalities on smaller carriers: the
incidence vector of A must lie in the conic hull of the members below A,
and the carrier's incidence vector in the conic hull of {A} plus the
remaining members with B removed.  Irreducible systems are exactly the
ones indexing facets of the totally balanced cone.

Neither condition needs a linear program.  The members are linearly
independent, so chi_A = sum of mu_S * chi_S over the members below A has
at most one solution mu, and {A} plus the members without B is
independent exactly when mu_B != 0.  Then the carrier's expression over
that family is forced: with the balanced weights lam, beta_A = t =
lam_B / mu_B, beta_S = lam_S - t * mu_S for the members below A and
beta_S = lam_S for the others.  It is nonnegative exactly when B
minimizes lam_S / mu_S over the members with mu_S > 0: a ratio test.

The orderly search decides the cone tests at its leaves
(:func:`minbal.balance._reduced_set`), and :func:`is_reducible` on one
echelon of the members.  No ``Fraction`` is built until a witness is
returned.
"""

from __future__ import annotations

from fractions import Fraction

from ._frozen import Frozen
from .balance import InequalityVector, MinBalancedSystem, SetSystem, _incidence, _lowering, _reduced_set, _search_kernel, is_min_balanced
from .games import _bit_positions, _player_sums, relabelling
from .linalg import conic_feasible  # not called here: perfbench/spans.py wraps it at this lookup site


class ReductionWitness(Frozen):
    """Constructive evidence that a system is reducible.

    ``mu`` expresses chi_A over the members strictly inside A; ``beta``
    expresses the carrier's incidence vector over {A} and the members
    without ``pivot_member``.  Both are exact nonnegative combinations.
    """

    reduced_set: int                          # A
    pivot_member: int                         # B, a member strictly inside A
    mu: tuple[tuple[int, Fraction], ...]
    beta: tuple[tuple[int, Fraction], ...]

    def mu_map(self) -> dict[int, Fraction]:
        return dict(self.mu)

    def beta_map(self) -> dict[int, Fraction]:
        return dict(self.beta)


def is_reducible(mbs: MinBalancedSystem) -> ReductionWitness | None:
    """First reduction witness in lexicographic (A, pivot member) order.

    ``None`` means the system is irreducible: the exhaustive search over
    admissible pairs found no witness.

    Without loss of generality A has at least two players, is not a
    member, is a proper subset of the carrier and equals the union of the
    members strictly inside it.  The members' echelon is the orderly
    search's, and :func:`minbal.balance._reduced_set` tries the sets on
    the members renamed onto the first ``c`` players: entry ``c + j`` of
    A's reduced vector is then ``-mu_S`` times the last lead, which is
    positive.  Since k * lam_S is an integer, the ratio test and the
    witness's values are integer expressions, made ``Fraction`` only for
    the witness.
    """
    if mbs.trivial:
        raise ValueError("reducibility is defined for non-trivial systems")
    members = mbs.system.members
    positions = _bit_positions(mbs.carrier)
    c, k = len(positions), len(members)
    pack, units, unpack, reduce_row, pivot, _ = _search_kernel(c)
    rows = []
    for j, s in enumerate(members):
        row = pivot(reduce_row(rows, pack(_incidence(s, positions)) + units[c + j], 1))
        if row is None:
            raise ValueError("the members are linearly dependent")
        rows.append(row)
    # the sets are tried on the first c players, renamed in order
    lead = rows[-1][2]
    found = _reduced_set([_lowering(mbs.carrier)[s] for s in members], [reduce_row(rows, e, 1) for e in units[:c]], lead)
    if found is None:
        return None
    a, v = relabelling(positions)[found[0]], found[1]
    # mu_S = m_S / lead and lam_S = w_S / k
    m, w = [-t for t in unpack(v)[c:c + k]], [lam.numerator * (mbs.k // lam.denominator) for lam in mbs.weights]
    # the pivot minimizes lam_S / mu_S over mu_S > 0, the first member on ties
    p = min((j for j in range(k) if m[j]), key=lambda j: Fraction(w[j], m[j]))
    beta = [(s, Fraction(w[j] * m[p] - w[p] * m[j], mbs.k * m[p])) for j, s in enumerate(members) if j != p]
    return ReductionWitness(a, members[p], tuple((s, Fraction(x, lead)) for s, x in zip(members, m) if s & a == s),
                            ((a, Fraction(w[p] * lead, mbs.k * m[p])), *beta))


class Decomposition(Frozen):
    """A reducible system's inequality as a conic combination of two."""

    inner: MinBalancedSystem          # min-balanced on the reduced set A
    outer: MinBalancedSystem          # min-balanced on the carrier, with A a member
    combination: tuple[Fraction, Fraction]


def decompose(mbs: MinBalancedSystem, witness: ReductionWitness) -> Decomposition:
    """Split a reducible system along a witness and verify the identity.

    The inner system collects the positive-weight members below A, the
    outer one the positive-weight sets among {A} and the members without
    the pivot; the original inequality equals the returned positive
    combination of the two induced inequalities, checked exactly on
    every coalition.
    """
    if mbs.trivial:
        raise ValueError("only non-trivial systems decompose")
    _validate_witness(mbs, witness)
    mu, beta = witness.mu_map(), witness.beta_map()
    inner_sys = SetSystem(tuple(sorted(s for s, w in mu.items() if w > 0)))
    outer_sys = SetSystem(tuple(sorted(t for t, w in beta.items() if w > 0)))
    inner = is_min_balanced(inner_sys)
    outer = is_min_balanced(outer_sys)
    if inner is None or inner.carrier != witness.reduced_set:
        raise RuntimeError("inner part of the decomposition is not min-balanced on A")
    if outer is None or outer.carrier != mbs.carrier:
        raise RuntimeError("outer part of the decomposition is not min-balanced on the carrier")
    if inner.weights != tuple(mu[s] for s in inner_sys.members):
        raise RuntimeError("inner weights disagree with the witness combination")
    if outer.weights != tuple(beta[t] for t in outer_sys.members):
        raise RuntimeError("outer weights disagree with the witness combination")
    combo = (
        Fraction(mbs.k) * beta[witness.reduced_set] / inner.k,
        Fraction(mbs.k, outer.k),
    )
    if combo[0] <= 0 or combo[1] <= 0:
        raise RuntimeError("combination coefficients must be positive")
    _verify_combination(mbs.alpha, inner.alpha, outer.alpha, combo)
    return Decomposition(inner, outer, combo)


def _validate_witness(mbs: MinBalancedSystem, witness: ReductionWitness) -> None:
    a = witness.reduced_set
    carrier = mbs.carrier
    below = [s for s in mbs.system.members if s & a == s and s != a]
    if not (a & carrier == a and a != carrier and a.bit_count() >= 2 and a not in mbs.system):
        raise ValueError("witness reduced set is not admissible")
    if witness.pivot_member not in below:
        raise ValueError("witness pivot is not a member strictly inside the reduced set")
    mu, beta = witness.mu_map(), witness.beta_map()
    if set(mu) != set(below) or any(w < 0 for w in mu.values()):
        raise ValueError("witness mu is not a combination over the members below A")
    expected = set(mbs.system.members) - {witness.pivot_member} | {a}
    if set(beta) != expected or any(w < 0 for w in beta.values()):
        raise ValueError("witness beta is not a combination over {A} and the remaining members")
    n = carrier.bit_length()
    for target, combo in ((a, mu), (carrier, beta)):
        if _player_sums(combo.items(), n) != [target >> i & 1 for i in range(n)]:
            raise ValueError("witness combination does not re-substitute exactly")


def _verify_combination(
    alpha: InequalityVector,
    inner_alpha: InequalityVector,
    outer_alpha: InequalityVector,
    combo: tuple[Fraction, Fraction],
) -> None:
    total: dict[int, Fraction] = {}
    for vec, c in ((inner_alpha, combo[0]), (outer_alpha, combo[1])):
        for s, coeff in vec.items:
            total[s] = total.get(s, Fraction(0)) + c * coeff
    expected = {s: Fraction(c) for s, c in alpha.items}
    total = {s: v for s, v in total.items() if v != 0}
    if total != expected:
        raise RuntimeError("decomposition does not recombine into the original inequality")
