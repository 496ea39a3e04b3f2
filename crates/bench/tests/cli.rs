//! Runs the bench binaries end to end: stdout against the checked-in
//! results, `--json` dumps against the goldens, and exit codes on bad
//! invocations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A file of the repository, read as text.
fn checked_in(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// An empty directory for one test, under the system temp dir.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csb-bench-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Runs `bin` with `args` in `cwd`.
fn run_in(cwd: &Path, bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn run(bin: &str, args: &[&str]) -> Output {
    run_in(&std::env::temp_dir(), bin, args)
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

/// Asserts a successful run that printed exactly one `RunReport` block.
fn assert_one_report(out: &Output, what: &str) {
    assert!(out.status.success(), "{what}: {}", stderr(out));
    let reports = stderr(out).matches("point(s) on").count();
    assert_eq!(reports, 1, "{what} prints one merged RunReport");
}

#[test]
fn repro_all_and_ablations_print_the_checked_in_results() {
    for jobs in ["1", "2"] {
        let out = run(env!("CARGO_BIN_EXE_repro_all"), &["--jobs", jobs]);
        assert_one_report(&out, "repro_all");
        assert_eq!(
            stdout(&out),
            checked_in("results/repro_all.txt"),
            "--jobs {jobs}"
        );
        let out = run(env!("CARGO_BIN_EXE_ablations"), &["--jobs", jobs]);
        assert_one_report(&out, "ablations");
        assert_eq!(
            stdout(&out),
            checked_in("results/ablations.txt"),
            "--jobs {jobs}"
        );
    }
}

#[test]
fn messaging_prints_the_reference_and_holds_its_invariants() {
    let out = run(env!("CARGO_BIN_EXE_messaging"), &["--jobs", "2"]);
    assert_one_report(&out, "messaging");
    assert_eq!(stdout(&out), checked_in("perfbench/ref/messaging.txt"));
}

#[test]
fn fig5_json_matches_the_golden() {
    let dir = scratch("fig5-json");
    let json = dir.join("fig5.json");
    let out = run(
        env!("CARGO_BIN_EXE_fig5"),
        &["--jobs", "1", "--json", json.to_str().unwrap()],
    );
    assert_one_report(&out, "fig5");
    let dumped = std::fs::read_to_string(&json).expect("fig5 wrote its --json file");
    assert_eq!(dumped, checked_in("tests/golden/fig5.json"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ablations_json_has_one_key_per_printed_table() {
    let dir = scratch("ablations-json");
    let json = dir.join("ablations.json");
    let out = run(
        env!("CARGO_BIN_EXE_ablations"),
        &["--jobs", "2", "--json", json.to_str().unwrap()],
    );
    assert_one_report(&out, "ablations");
    let doc = serde_json::parse_value(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let serde_json::Value::Object(fields) = doc else {
        panic!("ablations --json writes one object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "superscalar_widths",
            "double_buffered",
            "variable_burst",
            "related_work",
            "buffer_capacity",
            "uncached_issue_rate",
            "loaded_bus",
            "pio_dma_locked",
            "pio_dma_csb",
        ]
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_lists_every_figure_point() {
    let out = run(env!("CARGO_BIN_EXE_trace"), &["--list"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 539);
}

#[test]
fn bad_invocations_exit_2_and_unknown_points_exit_1() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_fig3"), "fig3"),
        (env!("CARGO_BIN_EXE_fig4"), "fig4"),
        (env!("CARGO_BIN_EXE_fig5"), "fig5"),
        (env!("CARGO_BIN_EXE_faults"), "faults"),
        (env!("CARGO_BIN_EXE_contend"), "contend"),
        (env!("CARGO_BIN_EXE_messaging"), "messaging"),
        (env!("CARGO_BIN_EXE_ablations"), "ablations"),
        (env!("CARGO_BIN_EXE_repro_all"), "repro_all"),
        (env!("CARGO_BIN_EXE_explore"), "explore"),
        (env!("CARGO_BIN_EXE_trace"), "trace"),
        (env!("CARGO_BIN_EXE_ledger"), "ledger"),
    ] {
        let out = run(bin, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{name} --bogus");
        assert!(
            stderr(&out).contains(&format!("\nusage: {name} ")),
            "{name} prints its usage line: {}",
            stderr(&out)
        );
    }
    let out = run(env!("CARGO_BIN_EXE_trace"), &["nope"]);
    assert_eq!(out.status.code(), Some(1), "unknown trace point");
    let out = run(env!("CARGO_BIN_EXE_ledger"), &["a.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "ledger needs two paths");
}

#[test]
fn a_value_flag_does_not_take_the_next_flag_as_its_value() {
    let dir = scratch("json-no-fast-forward");
    let out = run_in(
        &dir,
        env!("CARGO_BIN_EXE_fig5"),
        &["--json", "--no-fast-forward"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--json requires a value"));
    assert!(
        !dir.join("--no-fast-forward").exists(),
        "no file named after a flag"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// An output file in a directory that does not exist is a bad invocation:
/// the binary prints one `error:` line and exits 2 before simulating
/// anything, instead of panicking once the sweep is done.
#[test]
fn outputs_into_a_missing_directory_fail_before_any_sweep() {
    let dir = scratch("missing-output-dir");
    let missing = dir.join("missing").join("out.json");
    for flag in ["--metrics-out", "--trace-out", "--json", "--ledger"] {
        let args = ["--jobs", "1", flag, missing.to_str().unwrap()];
        let out = run_in(&dir, env!("CARGO_BIN_EXE_fig5"), &args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        let errors = err.lines().filter(|l| l.starts_with("error: ")).count();
        assert_eq!(errors, 1, "{flag}: {err}");
        assert!(!err.contains("panicked"), "{flag}: {err}");
        assert_eq!(stdout(&out), "", "{flag}: no sweep ran");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn explore_takes_inline_values_and_caps_jobs() {
    let dir = scratch("explore-inline");
    let out = run_in(
        &dir,
        env!("CARGO_BIN_EXE_explore"),
        &["--ledger=ledger.jsonl", "--jobs", "100000", "--bytes=16,32"],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("exceeds the"), "--jobs is capped");
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    assert_eq!(ledger.lines().count(), 2, "one record per transfer size");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn explore_prints_the_default_point_and_its_bus_lane() {
    // The paper's baseline machine sending one line through the CSB: the
    // stores park in the CSB, then the flush puts one 9-cycle line burst
    // on the bus.
    let out = run(env!("CARGO_BIN_EXE_explore"), &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "machine : multiplexed bus, 8B wide, 64B line, ratio 6, turnaround 0, delay 0\n\
         workload: 64 bytes via csb\n\
         result  : 7.11 bytes/bus-cycle over 9 bus cycles, 1 transactions, 19 CPU cycles\n\
         \n\
         bus cycle 0         10        20        30        40\n\
         \x20         ...ADDDDDDDD.............................\n"
    );
}

#[test]
fn explore_reports_bad_assembly_and_misaligned_accesses_without_panicking() {
    let dir = scratch("explore-bad-asm");
    for (name, source, error) in [
        ("bare.s", "set 1, %\nhalt\n", "invalid integer register `%`"),
        (
            "misaligned.s",
            "set 0x20000004, %o1\nstd %f0, [%o1]\nhalt\n",
            "misaligned 8-byte uncached access at 0x20000004",
        ),
    ] {
        std::fs::write(dir.join(name), source).unwrap();
        let out = run_in(&dir, env!("CARGO_BIN_EXE_explore"), &["--asm", name]);
        assert_eq!(out.status.code(), Some(2), "{name}: {}", stderr(&out));
        assert!(stderr(&out).contains(error), "{name}: {}", stderr(&out));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_without_a_point_prints_its_one_usage_line() {
    let out = run(env!("CARGO_BIN_EXE_trace"), &[]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    let usage: Vec<&str> = err.lines().filter(|l| l.starts_with("usage:")).collect();
    assert_eq!(usage.len(), 1, "{err}");
    for flag in ["--ledger", "--no-fast-forward", "--cache-dir", "--list"] {
        assert!(usage[0].contains(flag), "usage names {flag}: {err}");
    }
}

/// A point's ledger record, cache entry and autosnap frames share one
/// key. A plain run fills the cache; a ledger run captures metrics, so it
/// bypasses the cache and simulates every point, writing frames. Each
/// record's `config_hash` must then address an entry of the plain run
/// and name the frames of every point that ran past the first boundary,
/// and every frame must belong to a record.
#[test]
fn ledger_records_join_their_cache_entries_and_frames() {
    use std::collections::HashSet;

    use csb_core::cache::PointCache;

    for (bin, every) in [
        (env!("CARGO_BIN_EXE_fig5"), 23u64),
        (env!("CARGO_BIN_EXE_faults"), 997),
    ] {
        let dir = scratch(&format!("join-{every}"));
        let every_arg = every.to_string();
        let plain = run_in(&dir, bin, &["--jobs", "2", "--cache-dir", "cache"]);
        assert!(plain.status.success(), "{}", stderr(&plain));
        let args = [
            "--jobs",
            "2",
            "--cache-dir",
            "cache",
            "--snapshot-every",
            &every_arg,
            "--ledger",
            "ledger.jsonl",
        ];
        let ledgered = run_in(&dir, bin, &args);
        assert!(ledgered.status.success(), "{}", stderr(&ledgered));

        let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let records = csb_obs::parse_ledger(&ledger).unwrap();
        let cache = PointCache::open(dir.join("cache")).unwrap();
        // `snap-<cfg fp><program fp>-<point key>-<cycle>.bin`
        let frame_keys: HashSet<u64> = std::fs::read_dir(dir.join("cache/autosnap"))
            .unwrap()
            .map(|entry| {
                let name = entry.unwrap().file_name().into_string().unwrap();
                let key = name.split('-').nth(2).expect("frame names carry the key");
                u64::from_str_radix(key, 16).expect("the key is hex")
            })
            .collect();
        let mut framed = HashSet::new();
        for r in &records {
            let point = format!("{}#{}", r.label, r.seed);
            assert!(
                cache.load(r.config_hash).is_some(),
                "{point}: no cache entry"
            );
            if r.cycles > every {
                assert!(frame_keys.contains(&r.config_hash), "{point}: no frames");
                framed.insert(r.config_hash);
            }
        }
        assert!(!framed.is_empty(), "{bin} writes frames at {every}");
        assert_eq!(frame_keys, framed, "every frame names a record's key");
        let _ = std::fs::remove_dir_all(dir);
    }
}
