"""Parsing and statistics shared by the timed passes and the traced run.

Everything here is pure (no processes, no clocks) so the unit tests in
`test_perfbench.py` can cover it directly.
"""

import math
import re
import statistics

_POINTS = re.compile(
    r"^runner: (\d+) point\(s\) on (\d+) worker\(s\) in ([0-9.]+)s(?: \((\d+) failed\))?$"
)
_CYCLES = re.compile(r"^runner: (\d+) simulated cycles \(")
_SLOWEST = re.compile(r"^runner: slowest point (\S+) at ([0-9.]+)ms$")
_CACHE = re.compile(
    r"^runner: cache (\d+) hit\(s\), (\d+) miss\(es\), (\d+) invalidation\(s\), "
    r"([0-9.]+) KiB read, ([0-9.]+) KiB written$"
)

# Candidate tail percentiles, highest first.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def parse_run_report(stderr):
    """Parses the `RunReport` block a bench binary prints to stderr.

    Returns a dict with `points`, `workers`, `wall_s`, `errors`, `cycles`,
    `slowest` (label, ms) or None, and `cache` (a dict of hits, misses,
    invalidations, bytes_read, bytes_written) or None. Returns None when
    the point or cycle line is missing.
    """
    report = {"slowest": None, "cache": None}
    for line in stderr.splitlines():
        line = line.strip()
        m = _POINTS.match(line)
        if m:
            report["points"] = int(m.group(1))
            report["workers"] = int(m.group(2))
            report["wall_s"] = float(m.group(3))
            report["errors"] = int(m.group(4) or 0)
            continue
        m = _CYCLES.match(line)
        if m:
            report["cycles"] = int(m.group(1))
            continue
        m = _SLOWEST.match(line)
        if m:
            report["slowest"] = (m.group(1), float(m.group(2)))
            continue
        m = _CACHE.match(line)
        if m:
            report["cache"] = {
                "hits": int(m.group(1)),
                "misses": int(m.group(2)),
                "invalidations": int(m.group(3)),
                # The report prints KiB with one decimal.
                "bytes_read": round(float(m.group(4)) * 1024),
                "bytes_written": round(float(m.group(5)) * 1024),
            }
    if "points" not in report or "cycles" not in report:
        return None
    return report


def gate(kind, exit_code, stdout, report, reference_stdout, reference_cycles):
    """The correctness gate for one timed pass; returns the reasons it
    failed (an empty list means it passed).

    A pass fails if it exits non-zero, if its stdout differs from the
    reference, if its RunReport cycle total differs from the reference,
    or if it is a replay whose RunReport shows any miss or invalidation.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit status {exit_code}")
    if stdout != reference_stdout:
        reasons.append("stdout differs from the reference")
    if report is None:
        reasons.append("no RunReport on stderr")
    elif report["cycles"] != reference_cycles:
        reasons.append(f"{report['cycles']} simulated cycles, reference {reference_cycles}")
    if kind == "replay" and report is not None:
        cache = report["cache"]
        if cache is None:
            reasons.append("replay ran without a cache")
        elif cache["misses"] or cache["invalidations"]:
            reasons.append(
                f"replay had {cache['misses']} miss(es), "
                f"{cache['invalidations']} invalidation(s)"
            )
    return reasons


def percentile(values, p):
    """Nearest-rank percentile `p` (0-100] of `values`."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values, better="lower"):
    """Median plus the tail: the highest percentile that has at least ten
    samples beyond it, taken on the worse side (the low side when higher
    is better). With too few samples no rung of the ladder qualifies and
    the tail is the worst sample. Returns (n, median, tail_label, tail)."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    med = statistics.median(values)
    for p in _TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            if better == "higher":
                q = 100.0 - p
                return n, med, f"p{q:g}", percentile(values, q)
            return n, med, f"p{p:g}", percentile(values, p)
    if better == "higher":
        return n, med, "min", min(values)
    return n, med, "max", max(values)


def least_squares(rows, targets):
    """Non-negative least squares by active set on a few features: solves
    the normal equations, drops every feature whose coefficient comes out
    negative, and refits. Returns one coefficient per feature (0 for a
    dropped one)."""
    k = len(rows[0]) if rows else 0
    active = list(range(k))
    while active:
        coef = _solve_normal(rows, targets, active)
        if coef is None:
            # Singular: drop the last active feature (a constant column).
            active.pop()
            continue
        negative = [j for j, c in zip(active, coef) if c < 0]
        if not negative:
            full = [0.0] * k
            for j, c in zip(active, coef):
                full[j] = c
            return full
        active = [j for j in active if j not in negative]
    return [0.0] * k


def _solve_normal(rows, targets, cols):
    n = len(cols)
    a = [[sum(r[i] * r[j] for r in rows) for j in cols] for i in cols]
    b = [sum(r[i] * t for r, t in zip(rows, targets)) for i in cols]
    for c in range(n):
        pivot = max(range(c, n), key=lambda r: abs(a[r][c]))
        if abs(a[pivot][c]) < 1e-12 * max(1.0, max(abs(x) for row in a for x in row)):
            return None
        a[c], a[pivot] = a[pivot], a[c]
        b[c], b[pivot] = b[pivot], b[c]
        for r in range(n):
            if r != c:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] -= f * b[c]
    return [b[i] / a[i][i] for i in range(n)]
