"""The traced run: per-layer metrics from an in-process replica.

Two sources feed it:

* a few gated child-process passes (as in the timed run), for the
  process overhead around a sweep and the program's own cache counters;
* the `csb-perf-tracer` binary (tracer/ beside this file), which re-executes
  every point of the sweep through the public `csb-core` calls, records a
  span around each call and checks every replica against the sweep's own
  per-point results.

From the spans and counts it derives the per-layer metrics, fits a layered
cost model (unit costs per real tick, jump, context switch and point, plus
per cache operation) that predicts each point's host time from its counts,
and reports where the prediction misses.
"""

import json
import statistics
import subprocess
from collections import defaultdict

import passes
import summary

# Per-layer metrics: (name, unit). Host times are totals per pass unless
# the name says per call; 0 marks a layer the workload does not exercise
# or that is not observable from outside the program on it. `multiproc.*`
# and `sim.ff_speedup.*` come from fixed probe points instead, the same on
# every workload.
COUNTERS = (
    "cpu.retired",
    "cpu.uncached_stall_cycles",
    "cpu.membar_stall_cycles",
    "uncached.full_stalls",
    "csb.flush_failures",
    "csb.cross_pid_resets",
    "csb.busy_stalls",
    "bus.transactions",
    "bus.busy_cycles",
    "mem.l1_misses",
    "faults.injected",
    "nic.messages",
    "nic.torn_frames",
)
PROBES = {"4a/256B/CSB": "sim.ff_speedup.4a_256B_CSB", "5b/8dw/64B": "sim.ff_speedup.5b_8dw_64B"}
PER_LAYER = (
    ("bench.process_ms", "ms"),
    ("runner.point_p50_us", "us"),
    ("runner.point_tail_us", "us"),
    ("runner.overhead_us", "us"),
    ("workloads.build_us", "us"),
    ("sim.new_us", "us"),
    ("sim.reset_us", "us"),
    ("sim.run_us", "us"),
    ("sim.ticks", "count"),
    ("sim.ff_jumps", "count"),
    ("sim.ff_skip_ratio", "ratio"),
    ("sim.ff_attempt_ratio", "ratio"),
    ("sim.tick_ns", "ns"),
    ("sim.advance_ns", "ns"),
    ("sim.ff_scan_ns", "ns"),
    ("sim.ff_jump_ns", "ns"),
    *((name, "x") for name in PROBES.values()),
    *((name, "count") for name in COUNTERS),
    ("multiproc.new_us", "us"),
    ("multiproc.run_us", "us"),
    ("multiproc.switches", "count"),
    ("multiproc.switch_ns", "ns"),
    ("obs.metrics_us", "us"),
    ("cache.key_us", "us"),
    ("cache.load_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.invalidations", "count"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("model.point_us", "us"),
    ("model.tick_ns", "ns"),
    ("model.jump_ns", "ns"),
    ("model.cache_load_us", "us"),
    ("model.cache_store_us", "us"),
    ("model.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_cover_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
)

# Roots of the span trees the tracer records, per point: the traced
# replica of the point itself, its cache fill, and its cache replay.
ROOTS = ("runner.point", "cache.fill", "cache.replay")

# How far the attributed host time (span self times, timer bias removed)
# may sit from the untraced sweep's own point time.
ATTRIBUTION_TOLERANCE = 0.15


def span_totals(rep):
    """Sums span durations per (root, name) and counts them. Spans arrive
    in closing order and roots never nest, so the children of a root are
    exactly the spans closed since the previous root closed."""
    names = rep["span_names"]
    total = defaultdict(int)
    count = defaultdict(int)
    pending = []
    for idx, _point, start, end in rep["spans"]:
        name = names[idx]
        if name in ROOTS:
            total[(name, name)] += end - start
            count[(name, name)] += 1
            for child, dur in pending:
                total[(name, child)] += dur
                count[(name, child)] += 1
                total[(name, "*children")] += dur
                count[(name, "*children")] += 1
            pending = []
        else:
            pending.append((name, end - start))
    return total, count


def rep_layers(rep, timer_ns):
    """The per-layer values one tracer repetition measures."""
    total, count = span_totals(rep)
    pts = rep["points"]
    rp = "runner.point"
    s = lambda key: sum(p[key] for p in pts)  # noqa: E731
    walls = [p["wall_ns"] for p in pts]
    untraced = sum(walls)
    advances, jumps = s("advances"), s("jumps")
    naive_ticks = s("naive_ticks")
    tick_ns = s("naive_ns") / naive_ticks if naive_ticks else 0.0
    advance_ns = s("advance_ns") / advances - timer_ns if advances else 0.0
    v = {
        "runner.point_p50_us": statistics.median(walls) / 1e3,
        "runner.point_tail_us": summary.summarize(walls)[3] / 1e3,
        "runner.overhead_us": (rep["report_wall_ns"] - untraced) / 1e3,
        "workloads.build_us": total[(rp, "workloads.build")] / 1e3,
        "sim.new_us": total[(rp, "sim.new")] / 1e3,
        "sim.reset_us": total[(rp, "sim.reset")] / 1e3,
        "sim.run_us": total[(rp, "sim.run")] / 1e3,
        "sim.tick_ns": tick_ns,
        "sim.advance_ns": advance_ns,
        "sim.ff_scan_ns": advance_ns - tick_ns if advances else 0.0,
        "sim.ff_jump_ns": s("jump_ns") / jumps - timer_ns if jumps else 0.0,
        "obs.metrics_us": (s("metrics_ns") - s("plain_ns")) / 1e3,
        "cache.key_us": total[("cache.replay", "cache.key")] / 1e3,
        "cache.load_us": total[("cache.replay", "cache.load")] / 1e3,
        "cache.store_us": total[("cache.fill", "cache.store")] / 1e3,
        "model.cache_load_us": total[("cache.replay", "*children")]
        / max(1, count[("cache.replay", "cache.load")])
        / 1e3,
        "model.cache_store_us": total[("cache.fill", "cache.store")]
        / max(1, count[("cache.fill", "cache.store")])
        / 1e3,
    }
    traced = total[(rp, rp)]
    children = total[(rp, "*children")]
    # Every timed call carries about one clock read of bias: each
    # advance_checked call and each span.
    bias = timer_ns * (advances + jumps + count[(rp, "*children")])
    v["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    v["trace.span_cover_frac"] = children / traced if traced else 0.0
    v["trace.attributed_frac"] = (children - bias) / untraced if untraced else 0.0
    return v


def point_counts(rep):
    """Simulated counts per pass; they must repeat exactly."""
    pts = rep["points"]
    cycles = sum(p["cycles"] for p in pts)
    ticks = sum(p["ticks"] for p in pts)
    advances = sum(p["advances"] for p in pts)
    jumps = sum(p["jumps"] for p in pts)
    v = {
        "sim.ticks": ticks,
        "sim.ff_jumps": jumps,
        "sim.ff_skip_ratio": 1 - ticks / cycles if cycles else 0.0,
        "sim.ff_attempt_ratio": jumps / (advances + jumps) if advances + jumps else 0.0,
    }
    for i, name in enumerate(COUNTERS):
        v[name] = sum(p["counters"][i] for p in pts)
    return v


def cost_model(reps, workload_name):
    """Fits per-point host time = point + tick * ticks + (jump * jumps, or
    switch * switches on MultiSim points) on the sweep's own untraced
    per-point walls (median over repetitions). Returns the coefficients
    (ns), the third feature's name, the residual share, the per-point
    predictions and the ten worst-predicted points."""
    pts = reps[0]["points"]
    measured = [
        statistics.median(rep["points"][i]["wall_ns"] for rep in reps) for i in range(len(pts))
    ]
    third = "switches" if workload_name == "manycore" else "jumps"
    rows = [[1.0, p["ticks"], p[third]] for p in pts]
    coef = summary.least_squares(rows, measured)
    predicted = [sum(c * x for c, x in zip(coef, row)) for row in rows]
    total = sum(measured)
    residual = sum(abs(p - m) for p, m in zip(predicted, measured)) / total if total else 0.0
    worst = sorted(
        (
            (abs(p - m), pt["label"], pt["seed"], m, p)
            for pt, p, m in zip(pts, predicted, measured)
        ),
        reverse=True,
    )[:10]
    return coef, third, residual, predicted, worst


def child_layers(runs):
    """bench.* and the program's cache counters from the child passes
    that cleared the gate."""
    timed = [p for p in runs if p.kind != "warmup" and not p.reasons]
    fills = [p.report["cache"] for p in timed if p.kind == "fill" and p.report["cache"]]
    replays = [p.report["cache"] for p in timed if p.kind == "replay" and p.report["cache"]]
    med = lambda xs: statistics.median(xs) if xs else 0  # noqa: E731
    return {
        "bench.process_ms": med([(p.wall_s - p.report["wall_s"]) * 1e3 for p in timed]),
        "cache.hits": med([c["hits"] for c in replays]),
        "cache.misses": med([c["misses"] for c in fills]),
        "cache.invalidations": max([c["invalidations"] for c in fills + replays] or [0]),
        "cache.bytes_read": med([c["bytes_read"] for c in replays]),
        "cache.bytes_written": med([c["bytes_written"] for c in fills]),
    }, {
        kind: med([p.wall_s for p in timed if p.kind == kind])
        for kind in ("cold", "fill", "replay")
    }


def run(workload, workload_name, root, work, rng, seconds):
    """The traced run: returns (metrics, attempted, failed, lines)."""
    target = passes.target_dir(root)
    reference = (root / workload.reference).read_bytes()
    # One slice of gated child passes: a warm-up, a fill, a cold pass and
    # a batch of replays.
    runs = passes.run_slices(workload, target, work, rng, 0, 1, reference)
    failed_passes = [p for p in runs if p.reasons]
    lines = [f"failed {p.kind} pass: {'; '.join(p.reasons)}" for p in failed_passes]
    values, child_walls = child_layers(runs)

    tracer = target / "release" / "csb-perf-tracer"
    budget = max(0.0, seconds - sum(p.wall_s for p in runs))
    done = subprocess.run(
        [str(tracer), workload_name, f"{budget:.3f}", str(work / "tracer")],
        cwd=work,
        stdout=subprocess.PIPE,
        timeout=170,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"csb-perf-tracer exited with status {done.returncode}")
    doc = json.loads(done.stdout)
    if doc["counters"] != list(COUNTERS):
        raise RuntimeError("the tracer's counters differ from traced.COUNTERS")
    mismatches = doc["mismatches"]
    reps = [rep for rep in doc["reps"] if rep["points"]]
    if not reps:
        raise RuntimeError("the tracer measured no repetition")
    timer_ns = doc["timer_ns"]

    counts = point_counts(reps[0])
    if any(point_counts(rep) != counts for rep in reps[1:]):
        mismatches.append("simulated counts differ between repetitions")
    lines += [f"replica mismatch: {m}" for m in mismatches]
    values.update(counts)
    per_rep = [rep_layers(rep, timer_ns) for rep in reps]
    for name in per_rep[0]:
        # Only the first repetition runs the scratch-cache fill and replay.
        cache_op = name.startswith(("cache.", "model.cache_"))
        values[name] = per_rep[0][name] if cache_op else statistics.median(
            r[name] for r in per_rep
        )
    for probe in doc["probes"]:
        values[PROBES[probe["label"]]] = probe["naive_ns"] / probe["ff_ns"]
    mp = doc["multiproc"]
    values["multiproc.new_us"] = mp["new_ns"] / 1e3
    values["multiproc.run_us"] = mp["run_ns"] / 1e3
    values["multiproc.switches"] = mp["switches"]
    values["multiproc.switch_ns"] = mp["run_ns"] / mp["switches"] if mp["switches"] else 0.0

    coef, third, residual, predicted, worst = cost_model(reps, workload_name)
    values["model.point_us"] = coef[0] / 1e3
    values["model.tick_ns"] = coef[1]
    values["model.jump_ns"] = coef[2] if third == "jumps" else 0.0
    values["model.residual_frac"] = residual

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
    for name, unit in PER_LAYER:
        lines.append(f"{name:<28} {values[name]:14.6g} {unit}")
    lines += report_lines(values, doc, reps, coef, third, worst, predicted, child_walls)
    attempted = len(runs) + sum(len(rep["points"]) for rep in reps)
    return metrics, attempted, len(failed_passes) + len(mismatches), lines


def report_lines(values, doc, reps, coef, third, worst, predicted, child_walls):
    """The human-readable part of the traced report."""
    lines = [
        f"traced repetitions: {len(reps)}; clock read bias {doc['timer_ns']:.0f} ns per "
        "timed call, removed from per-call costs",
    ]
    if values["sim.ff_jumps"]:
        lines.append(
            f"fast-forward: {values['sim.ff_attempt_ratio']:.1%} of advance_checked calls "
            f"jumped, {values['sim.ff_skip_ratio']:.1%} of cycles skipped; naive tick "
            f"{values['sim.tick_ns']:.0f} ns, non-jumping advance "
            f"{values['sim.advance_ns']:.0f} ns (failed horizon scan "
            f"{values['sim.ff_scan_ns']:.0f} ns), jump {values['sim.ff_jump_ns']:.0f} ns"
        )
    for probe in doc["probes"]:
        lines.append(
            f"fast-forward vs naive on {probe['label']}: "
            f"{probe['naive_ns'] / probe['ff_ns']:.2f}x (run with fast-forward "
            f"{probe['ff_ns'] / 1e3:.1f} us, without {probe['naive_ns'] / 1e3:.1f} us)"
        )
    mp = doc["multiproc"]
    lines.append(
        f"MultiSim probe {mp['label']}: new {mp['new_ns'] / 1e3:.1f} us, run "
        f"{mp['run_ns'] / 1e6:.2f} ms for {mp['switches']} context switches"
    )
    third_unit = "switch" if third == "switches" else "jump"
    lines.append(
        f"cost model per point: {coef[0] / 1e3:.2f} us + {coef[1]:.1f} ns/real tick + "
        f"{coef[2]:.1f} ns/{third_unit}; cache {values['model.cache_load_us']:.2f} us per "
        f"replayed point, {values['model.cache_store_us']:.2f} us per store; residual "
        f"{values['model.residual_frac']:.1%} of measured point time"
    )
    lines.append("worst-predicted points (measured us, predicted us):")
    for err, label, seed, meas, pred in worst:
        tag = f"{label}#{seed}" if seed else label
        lines.append(f"  {tag:<40} {meas / 1e3:10.1f} {pred / 1e3:10.1f}  off {err / 1e3:.1f} us")
    n = len(reps[0]["points"])
    cold_pred = (sum(predicted) / 1e3 + values["runner.overhead_us"]) / 1e6
    replay_pred = n * values["model.cache_load_us"] / 1e6
    process = values["bench.process_ms"] / 1e3
    lines.append(
        f"layered prediction, cold pass: {cold_pred + process:.4f} s "
        f"(points {cold_pred:.4f} s + process {process:.4f} s), "
        f"measured {child_walls['cold']:.4f} s"
    )
    lines.append(
        f"layered prediction, replay pass: {replay_pred + process:.4f} s "
        f"({n} cache loads {replay_pred:.4f} s + process {process:.4f} s), "
        f"measured {child_walls['replay']:.4f} s"
    )
    within = abs(values["trace.attributed_frac"] - 1) <= ATTRIBUTION_TOLERANCE
    lines.append(
        f"span check: layer spans cover {values['trace.span_cover_frac']:.1%} of the traced "
        f"point time; tracing adds {values['trace.overhead_frac']:.1%} over the untraced "
        f"sweep; attributed time with the clock bias removed is "
        f"{values['trace.attributed_frac']:.1%} of the untraced point time "
        f"({'within' if within else 'outside'} the +/-{ATTRIBUTION_TOLERANCE:.0%} tolerance)"
    )
    return lines
