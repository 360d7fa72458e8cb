"""The minbal benchmark: CLI jobs end to end, with a traced per-layer pass.

Run from the repository root::

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0

Each job is one ``minbal`` CLI command, or one ``parse`` of a catalogue
the pass wrote, run in a fresh interpreter (``perfbench/job.py``) so the
enumeration and ``canonical_type`` caches start cold, as they do for
every CLI user.  Jobs run one at a time from this process.  A job still
running at ``JOB_DEADLINE_S`` is stopped, counted as failed, and its
time counts as the deadline.  Every output is checked by
``perfbench/check.py``, which does not import the package.

Workloads (why each was chosen):

* ``catalogue`` -- the three facet catalogues, then a parse of each
  written file.  Generation is enumeration plus ``canonical_type``; the
  balanced catalogue has one carrier and the other two have 26 and 56,
  so reuse across carriers shows on two jobs and not on the third.
  Parsing is the read path of the same layers.
* ``check-members`` -- seeded convex games, members of every cone.
  Nearly all time is in the exact simplex (``linalg.lp_feasible``) and
  none in enumeration.
* ``check-nonmembers`` -- seeded cut games (the core is empty but every
  proper subgame is convex, so the oracles fail late) and seeded random
  games (which fail early).  Negative verdicts take the certificate
  path, which enumerates min-balanced systems at n <= 5 and returns the
  raw Farkas functional at n >= 7.  Left out: the n=6 balanced and
  totally balanced cut games, which do not return (the certificate path
  enumerates every 6-player system), and random 8-player games for the
  exact cone, whose single infeasible LP varies by 2x from game to game
  and would make the pass time depend on the seed more than on the code.

Times are in reference seconds.  Where cores are shared with other
tenants, wall-clock speed drifts by more than 1.5x within seconds to
minutes, so each job runs a fixed exact-arithmetic probe every 50 ms
(see ``job.py``) and its times are scaled by the probes' mean speed: one
reference second is one wall second at the speed where a probe takes
``PROBE_REF_S``.  The raw wall-clock total is reported as
``jobs.wall_s``.

End-to-end metrics: ``work_s``, the sum of the timed library calls of a
pass; ``setup_s``, the median over the pass's jobs of the time from
launching the interpreter to the start of the call (start-up and
imports); ``peak_rss_mb``, the largest peak resident memory of a job.
Failed jobs are counted in the result's ``failed`` field and named in
the report.

With ``--trace 0`` a run measures whole passes until ``--seconds`` have
passed (at least one) and reports the median over passes of each
end-to-end metric.  With ``--trace 1`` it runs one untraced pass and one
traced pass, and reports the per-layer metrics of the traced pass, the
per-group times of the untraced one and the tracing overhead.  The last
line of stdout is the JSON result; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

JOB_DEADLINE_S = 90.0  # 3x the slowest job that finishes (n=6 exact-conjecture catalogue)
RUN_LIMIT_S = 150.0  # no job starts, or runs, past this point of a run
# Time of one speed probe (`job.probe`) on an unloaded 2.1 GHz Xeon core
# under Python 3.11.
PROBE_REF_S = 0.00184

sys.path.insert(0, str(HERE))
import check  # noqa: E402

CATALOGUES = [(5, "balanced"), (5, "totally-balanced"), (6, "exact-conjecture")]
# (game kind, player count, cone, number of games)
MEMBER_CHECKS = [
    ("convex", 5, "balanced", 3), ("convex", 5, "totally-balanced", 3), ("convex", 5, "exact", 3),
    ("convex", 6, "balanced", 3), ("convex", 6, "totally-balanced", 3), ("convex", 6, "exact", 2),
    ("convex", 7, "balanced", 2), ("convex", 7, "totally-balanced", 2), ("convex", 8, "balanced", 1),
]
NONMEMBER_CHECKS = (
    [("cut", n, "balanced", 2) for n in (5, 7, 8)]
    + [("cut", n, "totally-balanced", 2) for n in (5, 7)]
    + [("cut", n, "exact", 2) for n in (5, 6, 7, 8)]
    + [("random", n, "totally-balanced", 2) for n in (5, 6, 7)]
    + [("random", n, "exact", 2) for n in (5, 6, 7)]
)
WORKLOADS = ("catalogue", "check-members", "check-nonmembers")

END_TO_END = {"work_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
GROUPS = ("catalogue", "parse", "balanced", "totally_balanced", "exact")
# Per-group sums in reference seconds, and the raw wall-clock total.
JOB_METRICS = [f"jobs.{group}_s" for group in GROUPS] + ["jobs.wall_s"]
SPAN_QUANTITIES = {
    "balance.enumerate_min_balanced": ("calls", "self_s", "systems"),
    "balance.canonical_type": ("calls", "self_s"),
    "balance.is_min_balanced": ("calls", "self_s"),
    "linalg.solve_unique": ("calls", "self_s"),
    "reduction.is_reducible": ("calls", "self_s", "reducible_share"),
    "linalg.conic_feasible": ("calls", "self_s"),
    "linalg.lp_feasible": ("calls", "self_s", "rows", "infeasible_share", "cert_bits_max"),
    "games.restrict": ("calls", "self_s"),
    "games.game_from_json": ("self_s",),
    "cones.is_balanced": ("self_s",),
    "cones.is_totally_balanced_lp": ("self_s",),
    "cones.is_exact": ("self_s",),
    "catalogue.generate": ("self_s",),
    "catalogue.serialize": ("self_s", "bytes"),
    "catalogue.parse": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "systems": "count", "reducible_share": "ratio", "rows": "count",
         "infeasible_share": "ratio", "cert_bits_max": "bits", "bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}.{q}": UNITS[q] for name, qs in SPAN_QUANTITIES.items() for q in qs}
    units.update({"cones.violated_share": "ratio", "trace.spans": "count", "trace.overhead_s": "s"})
    units.update({name: "s" for name in JOB_METRICS})
    return units


class Job:
    """One command of a pass, with what its output must be."""

    def __init__(self, name: str, group: str, argv: list[str], **expect):
        self.name, self.group, self.argv, self.expect = name, group, argv, expect


def build_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    jobs = []
    if workload == "catalogue":
        for n, cone in CATALOGUES:
            out = work / f"catalogue-{n}-{cone}.json"
            jobs.append(Job(f"catalogue n={n} {cone}", "catalogue",
                            ["cli", "catalogue", "--players", str(n), "--cone", cone, "--out", str(out)],
                            catalogue=(n, cone), output=out))
        for n, cone in CATALOGUES:
            src = work / f"catalogue-{n}-{cone}.json"
            out = work / f"reparsed-{n}-{cone}.json"
            jobs.append(Job(f"parse n={n} {cone}", "parse", ["parse", str(src), str(out)],
                            catalogue=(n, cone), output=out))
        return jobs
    import inputs

    checks = MEMBER_CHECKS if workload == "check-members" else NONMEMBER_CHECKS
    for kind, n, cone, copies in checks:
        for copy in range(copies):
            game = inputs.write_game(work, kind, n, seed, copy)
            jobs.append(Job(f"check {kind} n={n} {cone} #{copy}", cone.replace("-", "_"),
                            ["cli", "check", "--game", str(game), "--cone", cone, "--certificate"],
                            cone=cone, member=kind == "convex", game=game))
    return jobs


# -- running and judging jobs --------------------------------------------

def judge(job: Job, rc: int, stdout: bytes, output: bytes | None) -> str | None:
    """Why the job's output is wrong, or None when it is correct."""
    if "catalogue" in job.expect:
        if rc != 0:
            return f"exit code {rc}"
        if output is None:
            return "no catalogue written"
        return check.check_catalogue(*job.expect["catalogue"], output)
    game_text = job.expect["game"].read_text()
    return check.check_verdict(game_text, job.expect["cone"], job.expect["member"], rc,
                               stdout.decode("utf-8", "replace"))


def run_job(job: Job, index: int, work: Path, trace: bool, deadline: float) -> dict:
    record_path = work / f"job{index}.record.json"
    stdout_path = work / f"job{index}.stdout"
    stderr_path = work / f"job{index}.stderr"
    output = job.expect.get("output")
    for path in (record_path, output):
        if path is not None:
            path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = {"job": job.name, "group": job.group, "failed": None, "wrong": False}
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(record_path), "1" if trace else "0", *job.argv],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        try:
            proc.wait(timeout=max(deadline, 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            result.update(wall_s=deadline, work_s=deadline, speed=1.0,
                          failed=f"deadline: stopped after {deadline:.0f} s")
            return result
        wall = time.monotonic() - launch
    if not record_path.exists():
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        result.update(wall_s=wall, work_s=wall, speed=1.0,
                      failed=f"no record, exit code {proc.returncode}: {' '.join(tail)}")
        return result
    record = json.loads(record_path.read_text())
    # Reference seconds: wall seconds times the probes' mean speed.
    speed = statistics.mean(PROBE_REF_S / p for p in record["probes"])
    setup = record["ready"] - launch
    result.update(wall_s=record["call_s"], work_s=record["call_s"] * speed, speed=speed,
                  setup_s=setup * speed,
                  peak_rss_mb=record["peak_rss_kb"] / 1024, spans=record.get("spans"),
                  counts=record.get("counts"), probe_intervals=record.get("probe_intervals"))
    if record["error"] is not None:
        result["failed"] = "exception: " + record["error"].strip().splitlines()[-1]
        return result
    blob = output.read_bytes() if output is not None and output.exists() else None
    reason = judge(job, proc.returncode, stdout_path.read_bytes(), blob)
    if reason is not None:
        result.update(failed=reason, wrong=True)
    return result


def run_pass(jobs: list[Job], work: Path, trace: bool, run_end: float) -> list[dict]:
    results = []
    for index, job in enumerate(jobs):
        remaining = run_end - time.monotonic()
        if remaining <= 0:
            results.append({"job": job.name, "group": job.group, "wall_s": 0.0, "work_s": 0.0,
                            "speed": 1.0, "wrong": False, "failed": "not started: run time limit reached"})
            continue
        results.append(run_job(job, index, work, trace, min(JOB_DEADLINE_S, remaining)))
    return results


# -- self-tests: the checks are not vacuous --------------------------------

def _bump_first_number(cert):
    """Add one to the first rational value in a certificate, in place."""
    for key, value in (cert.items() if isinstance(cert, dict) else []):
        if key in ("type", "coalition", "inequality"):
            continue
        if isinstance(value, str):
            cert[key] = str(Fraction(value) + 1)
            return True
        if isinstance(value, dict) and _bump_first_number(value):
            return True
    return False


def self_tests(jobs: list[Job], results: list[dict], work: Path) -> list[tuple[str, bool]]:
    """Feed mutated copies of this pass's outputs through ``judge``.

    Each mutation must be judged wrong: a changed payoff (or other
    certificate number), a flipped verdict, and a dropped catalogue
    entry.  A job launched with a zero deadline must count as failed.
    """
    tests = []
    for index, (job, res) in enumerate(zip(jobs, results)):
        if res["failed"] is not None:
            continue
        if "catalogue" in job.expect:
            doc = json.loads(job.expect["output"].read_bytes())
            del doc["entries"][len(doc["entries"]) // 2]
            blob = (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
            tests.append((f"dropped entry: {job.name}", judge(job, 0, b"", blob) is not None))
            continue
        doc = json.loads((work / f"job{index}.stdout").read_bytes())
        changed = json.loads(json.dumps(doc))
        _bump_first_number(changed["certificate"])
        tests.append((f"changed number: {job.name}",
                      judge(job, 0 if doc["member"] else 1, json.dumps(changed).encode(), None) is not None))
        doc["member"] = not doc["member"]
        tests.append((f"flipped verdict: {job.name}",
                      judge(job, 0 if doc["member"] else 1, json.dumps(doc).encode(), None) is not None))
    stopped = run_job(jobs[0], len(jobs), work, False, 0.0)
    tests.append(("zero deadline counts as failed", (stopped["failed"] or "").startswith("deadline")))
    return tests


# -- metrics -----------------------------------------------------------------

def pass_metrics(results: list[dict]) -> dict[str, float]:
    done = [r for r in results if "setup_s" in r]
    times = [r["work_s"] for r in results]
    metrics = {
        "work_s": sum(times),
        "setup_s": statistics.median(r["setup_s"] for r in done) if done else 0.0,
        "peak_rss_mb": max((r["peak_rss_mb"] for r in done), default=0.0),
    }
    for group in GROUPS:
        metrics[f"jobs.{group}_s"] = sum(r["work_s"] for r in results if r["group"] == group)
    metrics["jobs.wall_s"] = sum(r["wall_s"] for r in results)
    return metrics


def self_times(results: list[dict]) -> tuple[dict[str, float], bool]:
    """Per-name self time over all jobs, and whether every self time fits
    inside its span (children never cover more than their parent).

    A span's self time is its duration minus its children's durations
    and minus the speed probes that ran inside it and no child, scaled
    to reference seconds by the job's speed.
    """
    totals: dict[str, float] = {}
    consistent = True
    for r in results:
        spans = r.get("spans") or []
        taken = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                taken[parent] += end - start
        starts = [span[1] for span in spans]
        for t0, t1 in r.get("probe_intervals") or []:
            i = bisect.bisect_right(starts, t0) - 1
            while i is not None and i >= 0 and spans[i][2] < t1:
                i = spans[i][3]
            if i is not None and i >= 0:
                taken[i] += t1 - t0
        for (name, start, end, parent), covered in zip(spans, taken):
            own = (end - start - covered) * r["speed"]
            consistent &= own >= -1e-6
            totals[name] = totals.get(name, 0.0) + own
    return totals, consistent


def layer_metrics(results: list[dict]) -> tuple[dict[str, float], bool]:
    own, consistent = self_times(results)
    counts: dict[str, dict[str, int]] = {}
    for r in results:
        for name, c in (r.get("counts") or {}).items():
            total = counts.setdefault(name, {})
            for key, value in c.items():
                total[key] = max(total.get(key, 0), value) if key == "cert_bits_max" else total.get(key, 0) + value
    metrics = {}
    for name, quantities in SPAN_QUANTITIES.items():
        c = counts.get(name, {})
        calls = c.get("calls", 0)
        derived = {
            "self_s": own.get(name, 0.0),
            "reducible_share": c.get("reducible", 0) / calls if calls else 0.0,
            "infeasible_share": c.get("infeasible", 0) / calls if calls else 0.0,
        }
        for q in quantities:
            metrics[f"{name}.{q}"] = derived[q] if q in derived else c.get(q, 0)
    balanced = counts.get("cones.is_balanced", {})
    negative = balanced.get("negative", 0)
    metrics["cones.violated_share"] = balanced.get("violated", 0) / negative if negative else 0.0
    return metrics, consistent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- report --------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "minbal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def header(args) -> list[str]:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return [
        f"minbal benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"nproc={os.cpu_count()} python={platform.python_version()} loadavg={load}",
        f"git commit={git_commit()} src sha256={source_digest()}",
        f"job deadline={JOB_DEADLINE_S:.0f} s, run limit={RUN_LIMIT_S:.0f} s",
    ]


def job_lines(label: str, results: list[dict]) -> list[str]:
    lines = [f"{label}:"]
    for r in results:
        setup = f"{r['setup_s']:.3f}" if "setup_s" in r else "-"
        status = "ok" if r["failed"] is None else "FAILED " + r["failed"]
        lines.append(f"  {r['job']:<38} setup {setup:>6} s  work {r['work_s']:8.3f} s  {status}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minbal" / "__init__.py").is_file():
        print(f"error: no minbal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.monotonic()
    run_end = start + RUN_LIMIT_S

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        jobs = build_jobs(args.workload, args.seed, work)
        lines = header(args)
        passes = []
        while True:
            pass_start = time.monotonic()
            passes.append(run_pass(jobs, work, False, run_end))
            lines += job_lines(f"pass {len(passes)} (untraced)", passes[-1])
            took = time.monotonic() - pass_start
            if args.trace or time.monotonic() - start + took > args.seconds:
                break
        tests = self_tests(jobs, passes[-1], work)
        traced = run_pass(jobs, work, True, run_end) if args.trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for p in passes for r in p]
    failed = [r for r in untraced + traced if r["failed"] is not None]
    correct = not any(r["wrong"] for r in untraced + traced) and all(ok for _, ok in tests)
    per_pass = [pass_metrics(p) for p in passes]
    lines += [f"self-test {'ok  ' if ok else 'MISSED'} {name}" for name, ok in tests]
    lines.append(f"failed jobs: {len(failed)} of {len(untraced) + len(traced)}")
    lines += [f"  {r['job']}: {r['failed']}" for r in failed]
    lines.append(f"end-to-end metrics over {len(passes)} pass(es): median [q1, q3]")
    for name in list(END_TO_END) + JOB_METRICS:
        q1, q2, q3 = quartiles([m[name] for m in per_pass])
        lines.append(f"  {name:<24} {q2:12.4f} [{q1:.4f}, {q3:.4f}] {END_TO_END.get(name, 's')}")
    lines.append(f"  (setup_s is the median over {len(untraced)} job start-ups;"
                 f" job times: median {statistics.median(r['work_s'] for r in untraced):.4f} s)")

    if args.trace:
        layers, consistent = layer_metrics(traced)
        correct &= consistent
        lines += job_lines("traced pass", traced)
        overhead = pass_metrics(traced)["work_s"] - per_pass[0]["work_s"]
        lines.append(f"tracing overhead: traced work_s - untraced work_s = {overhead:.4f} s")
        lines.append(f"self times fit inside their spans: {consistent}")
        metrics = dict(layers)
        metrics["trace.spans"] = sum(len(r.get("spans") or ()) for r in traced)
        metrics["trace.overhead_s"] = overhead
        for name in JOB_METRICS:
            metrics[name] = per_pass[0][name]
        units = per_layer_units()
        lines.append("per-layer metrics (jobs.* from the untraced pass):")
        lines += [f"  {name:<44} {metrics[name]:14.4f} {unit}" for name, unit in units.items()]
    else:
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in END_TO_END}
        units = END_TO_END
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": len(untraced) + len(traced),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
