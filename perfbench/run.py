"""End-to-end benchmark of the csb-sim sweeps.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

`--trace 0` times the bench binaries as child processes (cold, cache-fill
and warm-replay passes at `--jobs 1`) and prints the end-to-end metrics.
`--trace 1` runs the traced in-process replica instead and prints the
per-layer metrics. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. See README.md beside this
file for the workloads, the metrics and what each should move.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import passes
import summary
import traced


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (README.md gives the reason for each)."""

    binary: str
    # Reference stdout, relative to the checkout root.
    reference: str
    # Simulated CPU cycles the sweep's RunReport must show.
    cycles: int


WORKLOADS = {
    "figures": Workload("repro_all", "results/repro_all.txt", 165_321),
    "messaging": Workload("messaging", "perfbench/ref/messaging.txt", 644_083),
    "manycore": Workload("contend", "perfbench/ref/contend.txt", 2_756_724),
}

# End-to-end metrics: (name, unit). `failed_frac` is printed but is not a
# JSON metric: it is 0 on a healthy build, and the result line carries
# `attempted` and `failed` itself.
END_TO_END = (
    ("sweep_s", "s"),
    ("replay_s", "s"),
    ("setup_s", "s"),
    ("sim_mcps", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
)

def timed(workload, root, work, rng, seconds):
    """The timed passes: returns (metrics, attempted, failed, lines)."""
    reference = (root / workload.reference).read_bytes()
    runs = passes.run_slices(
        workload, passes.target_dir(root), work, rng, seconds, passes.MAX_FILLS, reference
    )
    return timed_metrics(workload, runs)


def timed_metrics(workload, runs):
    """The end-to-end metrics of a timed run's passes: returns (metrics,
    attempted, failed, lines). Only passes that cleared the gate are
    samples; a failed pass counts in `failed` alone. Raises
    `RuntimeError` when every pass a metric needs failed.

    Pass times, set-up included, are the best of their passes
    (best-of-k). Passes on a shared host are bimodal, fast or slowed by
    neighbours for seconds at a time, so the median of a run's passes
    jumps between the two modes from run to run; the best pass does not.
    Peak RSS is not timing noise and takes the median. The best, the
    median and the tail of the samples are printed beside each value."""
    failed = [p for p in runs if p.reasons]
    failures = [f"failed {p.kind} pass: {'; '.join(p.reasons)}" for p in failed]
    passed = [p for p in runs if not p.reasons]
    cold = [p for p in passed if p.kind == "cold"]
    samples = {
        "sweep_s": [p.wall_s for p in cold],
        "replay_s": [p.wall_s for p in passed if p.kind == "replay"],
        "setup_s": [p.wall_s for p in passed if p.kind == "fill"],
        "sim_mcps": [workload.cycles / 1e6 / p.wall_s for p in cold],
        "peak_rss_mb": [p.maxrss_kb / 1024 for p in cold],
    }
    metrics = {}
    lines = []
    for name, unit in END_TO_END:
        values = samples[name]
        if not values:
            raise RuntimeError("\n".join([f"no passing pass measures {name}", *failures]))
        better = "higher" if name == "sim_mcps" else "lower"
        n, med, tail_label, tail = summary.summarize(values, better)
        best = max(values) if better == "higher" else min(values)
        how, value = ("median", med) if name == "peak_rss_mb" else ("best", best)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(
            f"{name:<12} {value:12.6g} {unit:<9} ({how} of {n} passes; best {best:.6g}, "
            f"median {med:.6g}, {tail_label} {tail:.6g})"
        )
    lines.append(
        f"{'failed_frac':<12} {len(failed) / len(runs):12.6g} {'ratio':<9} "
        f"{len(failed)} of {len(runs)} passes"
    )
    return metrics, len(runs), len(failed), lines + failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    for needed in ("Cargo.toml", workload.reference):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from a checkout root", file=sys.stderr)
            return 1
    try:
        passes.build(root, [w.binary for w in WORKLOADS.values()])
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    # The sweeps' own seeds are fixed inside each binary; the benchmark
    # seed picks the order of the passes in every round.
    rng = random.Random(args.seed)
    work = root / "perfbench" / ".work"
    try:
        # A run on disk leaves its work directory empty (each cache is
        # deleted when done with); this clears what a killed run left,
        # and the write-back of all that earlier runs wrote ends here,
        # before any timing.
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        os.sync()
        storage = "private tmpfs" if passes.mount_private_tmpfs(work) else "checkout's file system"
        if args.trace:
            result = traced.run(workload, args.workload, root, work, rng, args.seconds)
        else:
            result = timed(workload, root, work, rng, args.seconds)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    metrics, attempted, failed, lines = result
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} host_cores={os.cpu_count()} caches on the {storage}"
    )
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
