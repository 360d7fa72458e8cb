"""Output checker that never imports the code under test.

Games are read from their JSON files with this module's own parser, and
every certificate that ``minbal check --certificate`` prints is
re-substituted in exact rational arithmetic here.  Catalogue files are
compared byte for byte (by SHA-256) with the catalogues the program
wrote at the commit that introduced this benchmark.

Each ``check_*`` function returns ``None`` when the output is correct and
a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

# SHA-256 of the JSON catalogues written by `minbal catalogue` at the
# commit that introduced this benchmark, with their entry counts.  The
# n=5 counts are the published ones: 1291 non-trivial min-balanced
# systems on five players, and 428 facets of the totally balanced cone.
CATALOGUES = {
    (5, "balanced"): ("90f5f4624751bcc46206d75983400cdc811098269436696980ee7dda04f5fd0a", 1291),
    (5, "totally-balanced"): ("2ee28bd184b6c8783aa3df2c5c544493881dd7e0e66a26961c689ca74c0b2681", 428),
    (6, "exact-conjecture"): ("d1d6d9bfab55b3c9fa09607709ba31fe52544df413bed475e91b8a4fedff48cd", 4186),
}

_TERM = re.compile(r"(?:([+−]) )?(?:(\d+)·)?m\(([^)]*)\)")


class Game:
    """A game as read from its JSON file: player names and a dense table."""

    def __init__(self, names: list[str], values: list[Fraction]):
        self.names = names
        self.n = len(names)
        self.full = (1 << self.n) - 1
        self.values = values
        self._masks = {self.key(s): s for s in range(1 << self.n)}
        self._masks["∅"] = 0

    @classmethod
    def from_json(cls, text: str) -> "Game":
        doc = json.loads(text)
        names = list(doc["players"])
        game = cls(names, [])
        raw = doc["values"]
        game.values = [Fraction(raw[game.key(s)]) for s in range(1 << len(names))]
        return game

    def key(self, s: int) -> str:
        return "".join(name for i, name in enumerate(self.names) if s >> i & 1)

    def mask(self, key: str) -> int:
        """Bitmask of a coalition key; raises KeyError on unknown keys."""
        return self._masks[key]

    def restrict(self, coalition: int) -> "Game":
        positions = [i for i in range(self.n) if coalition >> i & 1]
        values = []
        for t in range(1 << len(positions)):
            values.append(self.values[sum(1 << p for j, p in enumerate(positions) if t >> j & 1)])
        return Game([self.names[i] for i in positions], values)

    def payoffs(self, raw: dict) -> list[Fraction]:
        if sorted(raw) != sorted(self.names):
            raise ValueError("payoffs do not name every player once")
        return [Fraction(raw[name]) for name in self.names]

    def worth(self, x: list[Fraction], s: int) -> Fraction:
        return sum((x[i] for i in range(self.n) if s >> i & 1), Fraction(0))

    def core_violation(self, x: list[Fraction]) -> str | None:
        if self.worth(x, self.full) != self.values[self.full]:
            return "allocation is not efficient"
        for s in range(1, self.full):
            if self.worth(x, s) < self.values[s]:
                return f"allocation gives {self.key(s)} less than its worth"
        return None


def _solve(columns: list[list[int]], target: list[int]) -> list[Fraction] | None:
    """The unique combination of independent ``columns`` giving ``target``.

    Returns None when the columns are dependent or miss the target.
    """
    k, d = len(columns), len(target)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(d)]
    for c in range(k):
        pivot = next((i for i in range(c, d) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(d):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    if any(aug[i][k] != 0 for i in range(k, d)):
        return None
    return [aug[i][k] for i in range(k)]


def _parse_inequality(game: Game, text: str) -> dict[int, int]:
    """Coefficients of a rendered inequality ``... ≥ 0``, keyed by bitmask."""
    if not text.endswith(" ≥ 0"):
        raise ValueError("inequality does not end in '≥ 0'")
    body = text[: -len(" ≥ 0")]
    coeffs: dict[int, int] = {}
    pos = 0
    for m in _TERM.finditer(body):
        if body[pos : m.start()].strip():
            raise ValueError("unreadable inequality term")
        pos = m.end()
        sign = -1 if m.group(1) == "−" else 1
        s = game.mask(m.group(3))
        if s in coeffs:
            raise ValueError("coalition repeated in inequality")
        coeffs[s] = sign * int(m.group(2) or 1)
    if body[pos:].strip() or not coeffs:
        raise ValueError("unreadable inequality")
    return coeffs


def _check_violated(game: Game, cert: dict) -> str | None:
    members = [game.mask(k) for k in cert["system"]]
    if len(set(members)) != len(members) or 0 in members:
        return "violated system has empty or repeated members"
    carrier = 0
    for s in members:
        carrier |= s
    if carrier != game.full:
        return "violated system is not balanced on the full player set"
    columns = [[s >> i & 1 for i in range(game.n)] for s in members]
    weights = _solve(columns, [1] * game.n)
    if weights is None or any(w <= 0 for w in weights):
        return "violated system has no unique positive balancing weights"
    excess = game.values[game.full] - sum(w * game.values[s] for w, s in zip(weights, members))
    if excess >= 0:
        return "the system's balancedness inequality holds on the game"
    alpha = _parse_inequality(game, cert["inequality"])
    # The o-standardized form: the empty-set term makes the values sum to 0.
    expected = {game.full: Fraction(1), 0: sum(weights) - 1}
    for w, s in zip(weights, members):
        expected[s] = expected.get(s, 0) - w
    expected = {s: c for s, c in expected.items() if c != 0}
    if set(alpha) != set(expected):
        return "printed inequality has the wrong support"
    scale = Fraction(alpha[game.full]) / expected[game.full]
    if scale <= 0 or any(alpha[s] != scale * c for s, c in expected.items()):
        return "printed inequality is not a positive multiple of the system's"
    value = sum(c * game.values[s] for s, c in alpha.items())
    if value != Fraction(cert["value"]) or value >= 0:
        return "printed value is not the inequality evaluated on the game"
    return None


def _check_theta(game: Game, coalition: int, raw: dict) -> str | None:
    theta = [Fraction(0)] * (1 << game.n)
    for key, value in raw.items():
        theta[game.mask(key)] = Fraction(value)
    if sum(theta) != 0 or any(
        sum(v for s, v in enumerate(theta) if s >> i & 1) != 0 for i in range(game.n)
    ):
        return "theta is not o-standardized"
    exempt = {0, coalition, game.full}
    if any(v > 0 for s, v in enumerate(theta) if s not in exempt):
        return "theta is positive outside the empty set, the coalition and the player set"
    if sum(t * v for t, v in zip(theta, game.values)) >= 0:
        return "theta does not pair negatively with the game"
    return None


def check_certificate(game: Game, cert: dict | None, member: bool) -> str | None:
    """Re-substitute one certificate; ``member`` is the printed verdict."""
    kind = cert and cert.get("type")
    positive = kind in ("core-allocation", "tight-allocation-table")
    if cert is None or positive != member:
        return f"certificate {kind!r} does not support the verdict"
    if kind == "core-allocation":
        return game.core_violation(game.payoffs(cert["payoffs"]))
    if kind == "tight-allocation-table":
        table = {game.mask(k): game.payoffs(x) for k, x in cert["allocations"].items()}
        if set(table) != set(range(1, game.full + 1)):
            return "tight-allocation table does not cover every nonempty coalition"
        for d, x in table.items():
            reason = game.core_violation(x)
            if reason is None and game.worth(x, d) != game.values[d]:
                reason = "allocation is not tight at its coalition"
            if reason:
                return f"{game.key(d)}: {reason}"
        return None
    if kind == "violated-system":
        return _check_violated(game, cert)
    if kind == "no-tight-allocation":
        return _check_theta(game, game.mask(cert["coalition"]), cert["theta"])
    if kind == "empty-core":
        return _check_theta(game, game.full, cert["theta"])
    if kind == "failing-subgame":
        coalition = game.mask(cert["coalition"])
        if coalition.bit_count() < 2:
            return "failing subgame has fewer than two players"
        sub = game.restrict(coalition)
        inner = cert["certificate"]
        if inner is None or inner.get("type") not in ("violated-system", "empty-core"):
            return "failing subgame does not carry an emptiness certificate"
        reason = check_certificate(sub, inner, False)
        return reason and f"subgame {cert['coalition']}: {reason}"
    return f"unknown certificate type {kind!r}"


def check_verdict(game_text: str, cone: str, expect_member: bool, rc: int, stdout: str) -> str | None:
    """Check the exit code, the printed verdict and its certificate."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON certificate"
    member = doc.get("member") if isinstance(doc, dict) else None
    if not isinstance(member, bool) or doc.get("cone") != cone:
        return "certificate document names the wrong cone or no verdict"
    if rc != (0 if member else 1):
        return f"exit code {rc} disagrees with the printed verdict"
    if member != expect_member:
        return f"wrong verdict: {'member' if member else 'not a member'}"
    try:
        return check_certificate(Game.from_json(game_text), doc.get("certificate"), member)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed certificate: {type(exc).__name__}: {exc}"


def check_catalogue(players: int, cone: str, blob: bytes) -> str | None:
    """Compare catalogue bytes with the recorded digest and entry count."""
    digest, count = CATALOGUES[(players, cone)]
    if hashlib.sha256(blob).hexdigest() == digest:
        return None
    try:
        found = len(json.loads(blob)["entries"])
    except (ValueError, KeyError, TypeError):
        return "catalogue is not a JSON catalogue"
    if found != count:
        return f"catalogue has {found} entries, expected {count}"
    return "catalogue bytes differ from the recorded catalogue"
