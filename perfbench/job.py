"""Run one benchmark job in a fresh interpreter and record its timing.

Usage (``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/job.py RECORD TRACE cli ARG...
    python3 perfbench/job.py RECORD TRACE parse CATALOGUE REWRITTEN

``cli`` runs ``minbal.cli.main(ARG...)``; its output goes to this
process's stdout.  ``parse`` parses a JSON catalogue and writes it back
with ``serialize`` (untimed) so the caller can compare the bytes.
RECORD receives a JSON object with the clock readings around the timed
call, its exit code, any traceback, the peak resident memory, the speed
probes and, with TRACE=1, the spans and counts gathered by
:mod:`spans`.  The exit code is the command's, or 3 when the call
raised.

Speed probes: every ``PROBE_INTERVAL_S`` of the call, and once just
before and just after it, a timer signal runs :func:`probe`, a fixed
exact-arithmetic kernel, and records how long it took.  The probe time
inside the call is taken out of the call's time, and its interval is
recorded so that the caller can take it out of the span it interrupted.
The probes measure how fast the machine ran during this very call
without being counted as its work.
"""

import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

import minbal.cli
from minbal.catalogue import serialize

PROBE_INTERVAL_S = 0.05


def probe() -> float:
    """Seconds taken by one Gauss-Jordan elimination of the 9x9 Hilbert
    matrix in ``Fraction``s.  Never change it: reported times are scaled
    by it."""
    start = time.perf_counter()
    m = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(9)]
    for c in range(9):
        for i in range(9):
            if i != c:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    record_path, trace_flag, kind, *args = argv
    if kind == "parse":
        with open(args[0], "rb") as fh:
            data = fh.read()
    tracer = None
    if trace_flag == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ready = time.monotonic()
    inner: list[float] = []
    intervals: list[tuple[float, float]] = []

    def on_alarm(signum, frame):
        took = probe()
        now = time.perf_counter()
        inner.append(took)
        intervals.append((now - took, now))

    outer = [probe()]
    signal.signal(signal.SIGALRM, on_alarm)
    rc, error = 3, None
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        if kind == "cli":
            rc = minbal.cli.main(args)
        else:
            parsed = minbal.catalogue.parse(data)
            rc = 0
    except Exception:
        error = traceback.format_exc()
    finally:
        # Ignore first, so that no probe runs after the timer is stopped.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.monotonic()
    outer.append(probe())
    sys.stdout.flush()
    record = {
        "ready": ready,
        "call_s": end - start - sum(inner),
        "probes": outer + inner,
        "rc": rc,
        "error": error,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record.update(tracer.dump(), probe_intervals=intervals)
    if kind == "parse" and error is None:
        with open(args[1], "wb") as fh:
            fh.write(serialize(parsed, "json"))
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
