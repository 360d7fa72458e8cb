"""Span recording for the traced pass.

A :class:`Tracer` replaces each measured library function by a wrapper
at every module attribute its callers look it up through, so each call
passes through exactly one wrapper.  A wrapper records a span (name,
start, end, parent) in memory and updates the counts for its function;
:meth:`Tracer.dump` hands both to the job runner, which writes them out
when the job ends.  Nothing here changes a result.
"""

from time import perf_counter

import minbal.balance
import minbal.catalogue
import minbal.cli
import minbal.cones
import minbal.linalg
import minbal.reduction
from minbal.cones import ViolatedSystem


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _count_enumerate(counts, args, result):
    counts["systems"] = counts.get("systems", 0) + len(result)


def _count_reducible(counts, args, result):
    counts["reducible"] = counts.get("reducible", 0) + (result is not None)


def _count_lp(counts, args, result):
    counts["rows"] = counts.get("rows", 0) + len(args[0]) + len(args[1])
    counts["infeasible"] = counts.get("infeasible", 0) + (result.point is None)
    bits = _bits(result.point if result.point is not None else result.farkas)
    counts["cert_bits_max"] = max(counts.get("cert_bits_max", 0), bits)


def _count_serialize(counts, args, result):
    counts["bytes"] = counts.get("bytes", 0) + len(result)


def _count_balanced(counts, args, result):
    if not result.member:
        counts["negative"] = counts.get("negative", 0) + 1
        counts["violated"] = counts.get("violated", 0) + isinstance(result.certificate, ViolatedSystem)


# span name -> (modules whose attribute the callers read, count hook).
# The attribute name is the last part of the span name.
TARGETS = {
    "cli.main": ((minbal.cli,), None),
    "games.game_from_json": ((minbal.cli,), None),
    "games.restrict": ((minbal.cones,), None),
    "cones.is_balanced": ((minbal.cli, minbal.cones), _count_balanced),
    "cones.is_totally_balanced_lp": ((minbal.cli,), None),
    "cones.is_exact": ((minbal.cli,), None),
    "catalogue.generate": ((minbal.catalogue,), None),
    "catalogue.serialize": ((minbal.catalogue,), _count_serialize),
    "catalogue.parse": ((minbal.catalogue,), None),
    "balance.enumerate_min_balanced": ((minbal.catalogue, minbal.cones), _count_enumerate),
    "balance.canonical_type": ((minbal.catalogue,), None),
    "balance.is_min_balanced": ((minbal.catalogue, minbal.reduction), None),
    "linalg.solve_unique": ((minbal.balance,), None),
    "reduction.is_reducible": ((minbal.catalogue,), _count_reducible),
    "linalg.conic_feasible": ((minbal.reduction,), None),
    "linalg.lp_feasible": ((minbal.cones, minbal.linalg), _count_lp),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, dict[str, int]] = {name: {"calls": 0} for name in TARGETS}
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts[name]

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts["calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, (modules, hook) in TARGETS.items():
            attr = name.rsplit(".", 1)[1]
            wrapper = self._wrap(name, getattr(modules[0], attr), hook)
            for module in modules:
                setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}
