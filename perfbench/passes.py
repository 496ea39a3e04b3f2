"""Builds the program and times the bench binaries as child processes.

A pass is one invocation of a bench binary at `--jobs 1` with tracing
off, in one of three kinds:

* `cold`   -- no point cache: every point simulates;
* `fill`   -- `--cache-dir` on an empty directory: every point simulates
  and is stored (what a user pays once before any replay);
* `replay` -- `--cache-dir` on the directory the fill pass just wrote:
  every point is served from the cache.

Every pass goes through the correctness gate in `summary.gate`.

The caches live in a work directory on a memory-backed file system that
only the benchmark's processes see, where the host allows it (see
`mount_private_tmpfs`), so that `setup_s` and `replay_s` time the cache
code rather than the disk. Each cache directory is deleted as soon as
its last replay ends, so a run holds one cache at a time.
"""

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import summary

# Per-pass limit; a pass that runs longer is killed and counts as failed.
PASS_TIMEOUT_S = 120

# Replay passes per round at most. A round runs replays until they took
# as long as its cold pass, so a cheap replay still gets many samples.
MAX_REPLAYS_PER_ROUND = 20

# Fills a timed run makes at most, one per time slice.
MAX_FILLS = 24

# Linux `unshare` and `mount` flags.
CLONE_NEWNS = 0x00020000
MS_REC = 0x4000
MS_PRIVATE = 0x40000


def target_dir(root):
    """Cargo's target directory for the checkout at `root`."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or "target")
    return target if target.is_absolute() else root / target


def mount_private_tmpfs(directory):
    """Mounts a tmpfs on `directory` that only this process and its
    children see: the mount lives in a mount namespace of their own and
    goes away with them. Returns False where the process may not do that
    (it needs CAP_SYS_ADMIN on Linux); `directory` then stays on the file
    system it is on. On disk a fill's cost follows the file system's
    state rather than the cache code (README.md gives the measurements)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        text = ctypes.c_char_p
        libc.mount.argtypes = (text, text, text, ctypes.c_ulong, text)
        if libc.unshare(CLONE_NEWNS) != 0:
            return False
        # Keep every mount made from here on out of the host's namespace.
        if libc.mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None) != 0:
            return False
        target = str(directory).encode()
        return libc.mount(b"perfbench", target, b"tmpfs", 0, b"size=256m") == 0
    except AttributeError:
        return False


def build(root, binaries):
    """Builds the named bench binaries and the tracer from source; raises
    `RuntimeError` on failure."""
    target = target_dir(root)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    bins = [arg for name in binaries for arg in ("--bin", name)]
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "csb-bench", *bins],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", str(root / "perfbench" / "tracer" / "Cargo.toml"),
        ],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")


class Pass:
    """The outcome of one child-process pass."""

    def __init__(self, kind, wall_s, maxrss_kb, report, reasons):
        self.kind = kind
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.report = report
        self.reasons = reasons


def run_pass(workload, launcher, binary, kind, cache_dir, work, reference_stdout):
    """Runs one pass through the tracer's `spawn` launcher, which times
    the binary and reads the binary's own peak RSS, then gates it."""
    # Output and the launcher's result line travel through pipes, not
    # files: rewriting a file per pass would free blocks on every pass.
    result_r, result_w = os.pipe()
    args = [str(launcher), "spawn", f"/dev/fd/{result_w}", str(binary), "--jobs", "1"]
    if kind != "cold":
        args += ["--cache-dir", str(cache_dir)]
    try:
        child = subprocess.Popen(
            args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=work, start_new_session=True, pass_fds=(result_w,),
        )
    finally:
        os.close(result_w)
    try:
        stdout, stderr = child.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The launcher and the binary share a new session: end both.
        os.killpg(child.pid, signal.SIGKILL)
        stdout, stderr = child.communicate()
    with os.fdopen(result_r, "rb") as result:
        line = result.read()
    try:
        wall_ns, maxrss_kb, exit_code = (int(x) for x in line.split())
    except ValueError:
        # Killed, or the launcher could not run the binary: the pass has
        # no timing, and a non-zero status fails it in the gate.
        wall_ns, maxrss_kb, exit_code = 0, 0, child.returncode or -1
    report = summary.parse_run_report(stderr.decode(errors="replace"))
    reasons = summary.gate(kind, exit_code, stdout, report, reference_stdout, workload.cycles)
    return Pass(kind, wall_ns / 1e9, maxrss_kb, report, reasons)


def run_slices(workload, target, work, rng, seconds, slices, reference_stdout):
    """Splits `seconds` into `slices` equal time slices and runs one slice
    after another until `seconds` are up (at least one slice, at most
    `slices`). Each slice fills one fresh cache directory, then runs
    rounds until its own time is up (at least one round), so a workload
    whose round outlasts a slice fills once per round; then it deletes
    the directory. A round is a cold pass and a batch of replays of the
    slice's cache, in an order the seed picks; the batch runs until it
    took as long as the cold pass (at most `MAX_REPLAYS_PER_ROUND`).
    Returns every pass in the order run. An untimed cold pass warms the
    page cache first; it is gated and returned with kind `warmup`."""
    binary = target / "release" / workload.binary
    launcher = target / "release" / "csb-perf-tracer"

    def run(kind, cache_dir=None):
        return run_pass(workload, launcher, binary, kind, cache_dir, work, reference_stdout)

    warm = run("cold")
    warm.kind = "warmup"
    runs = [warm]
    cold_s = warm.wall_s
    start = time.monotonic()
    for s in range(slices):
        if s and time.monotonic() >= start + seconds:
            break
        end = start + seconds * (s + 1) / slices
        cache_dir = work / f"cache-{s}"
        runs.append(run("fill", cache_dir))
        first = True
        while first or time.monotonic() < end:
            first = False
            for kind in rng.sample(["cold", "replay"], 2):
                if kind == "cold":
                    runs.append(run("cold"))
                    cold_s = runs[-1].wall_s
                    continue
                spent = 0.0
                for _ in range(MAX_REPLAYS_PER_ROUND):
                    runs.append(run("replay", cache_dir))
                    spent += runs[-1].wall_s
                    if spent >= cold_s:
                        break
        shutil.rmtree(cache_dir)
    return runs
