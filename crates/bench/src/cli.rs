//! One command-line parser for every bench binary.
//!
//! A [`Cli`] lists a binary's positional arguments and flags, and the
//! usage line is built from that list, so the flags a binary accepts and
//! the flags its usage line shows cannot drift apart. [`Cli::parse`] reads
//! an argument list in one pass into [`Args`], from which every setting is
//! read: the worker count, the run settings ([`Args::obs`]), paths and
//! counts.

use std::fs;
use std::path::{Path, PathBuf};

use csb_core::cache::PointCache;

use crate::BenchObs;

/// The run-setting flags of every sweep binary and of `trace`: artifact
/// outputs, the fast-forward switch and the point cache (see the crate
/// docs).
pub const RUN_FLAGS: &[&str] = &[
    "--trace-out trace.json",
    "--metrics-out metrics.json",
    "--ledger ledger.jsonl",
    "--no-fast-forward",
    "--cache-dir DIR",
    "--snapshot-every N",
];

/// A binary's command-line vocabulary.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name followed by one `<name>` per positional
    /// argument it takes, e.g. `"ledger <baseline.jsonl> <current.jsonl>"`.
    pub synopsis: &'static str,
    /// The flags, in groups, as the usage line shows them. A flag written
    /// with a placeholder (`"--jobs N"`) takes a value; one without
    /// (`"--no-fast-forward"`) takes none.
    pub flags: &'static [&'static [&'static str]],
}

impl Cli {
    /// The usage line: the synopsis, then every flag in brackets.
    pub fn usage(&self) -> String {
        let mut usage = self.synopsis.to_string();
        for flag in self.flags.iter().copied().flatten() {
            usage.push_str(&format!(" [{flag}]"));
        }
        usage
    }

    /// Parses `argv` (without the program name) in one pass. Every
    /// `--flag` must be in the vocabulary. A flag that takes a value is
    /// written `--flag value` or `--flag=value`, and a next token that
    /// starts with `--` counts as a missing value; a flag that takes none
    /// may not be given `=value`. Any other token is a positional
    /// argument, up to as many as the synopsis names.
    ///
    /// # Errors
    ///
    /// A one-line message about the first token that breaks these rules.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let max_positionals = self.synopsis.matches('<').count();
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(token) = argv.next() {
            if !token.starts_with("--") {
                if args.positionals.len() == max_positionals {
                    return Err(format!("unexpected argument {token:?}"));
                }
                args.positionals.push(token);
                continue;
            }
            let (name, inline) = match token.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (token.as_str(), None),
            };
            let (flag, takes_value) = self
                .flags
                .iter()
                .copied()
                .flatten()
                .map(|spec| {
                    spec.split_once(' ')
                        .map_or((*spec, false), |(f, _)| (f, true))
                })
                .find(|(flag, _)| *flag == name)
                .ok_or_else(|| format!("unknown flag {name}"))?;
            let value = match inline {
                Some(_) if !takes_value => return Err(format!("{flag} does not take a value")),
                Some(value) => Some(value),
                None if takes_value => match argv.next() {
                    Some(value) if !value.starts_with("--") => Some(value),
                    _ => return Err(format!("{flag} requires a value")),
                },
                None => None,
            };
            args.flags.push((flag, value));
        }
        Ok(args)
    }

    /// [`Cli::parse`] over the process's command line; on an error, prints
    /// it with the usage line and exits 2 ([`Cli::fail`]).
    pub fn from_env(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| self.fail(e))
    }

    /// Prints a one-line error and the usage line, and exits with status 2
    /// (bad invocation). A mistyped flag or an unusable setting is an
    /// input error, not a bug, and must not produce a panic backtrace.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("error: {msg}");
        eprintln!("usage: {}", self.usage());
        std::process::exit(2);
    }
}

/// A parsed command line: the positional arguments and every flag given,
/// in order. Where a flag is given twice, its first value counts.
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of a value-taking `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// [`Args::value`] as a path.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// [`Args::path`] of a file the binary will write, checked before
    /// anything runs.
    ///
    /// # Errors
    ///
    /// When the file's directory does not exist: the run would otherwise
    /// simulate every point and only then fail to write.
    pub fn output(&self, flag: &str) -> Result<Option<PathBuf>, String> {
        let path = self.path(flag);
        match path.as_deref().and_then(Path::parent) {
            Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
                "{flag}: directory {} does not exist",
                dir.display()
            )),
            _ => Ok(path),
        }
    }

    /// A positive count such as the throughput bench's `--reps`, or
    /// `default` when `flag` is absent.
    ///
    /// # Errors
    ///
    /// When the value is not a positive integer.
    pub fn count(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} requires a positive integer, got {v:?}")),
        }
    }

    /// The `--jobs` worker count for the experiment runner: `0` ("all
    /// cores", which the runner resolves) when absent. A request beyond
    /// the host's available parallelism is capped to it, with a warning on
    /// stderr: oversubscribed simulator workers only fight each other for
    /// cycles and skew per-point wall-clock numbers.
    ///
    /// # Errors
    ///
    /// When the value is not a positive integer.
    pub fn jobs(&self) -> Result<usize, String> {
        let jobs = self.count("--jobs", 0)?;
        // A request of one worker never exceeds the host, so only larger
        // ones ask it (the query reads the cgroup CPU quota every time).
        if jobs <= 1 {
            return Ok(jobs);
        }
        let avail = crate::host_parallelism();
        if jobs > avail {
            eprintln!(
                "warning: --jobs {jobs} exceeds the {avail} available host core(s); \
                 capping at {avail}"
            );
            return Ok(avail);
        }
        Ok(jobs)
    }

    /// The run settings ([`BenchObs`]) from `--trace-out`,
    /// `--metrics-out`, `--ledger`, `--cache-dir` (opened, and created if
    /// needed), `--snapshot-every` (frames go to `<cache-dir>/autosnap/`) and
    /// `--no-fast-forward`; the crate docs describe each.
    ///
    /// # Errors
    ///
    /// An unusable directory or cycle count, an output path whose
    /// directory does not exist ([`Args::output`]), or `--snapshot-every`
    /// without `--cache-dir`.
    pub fn obs(&self) -> Result<BenchObs, String> {
        let trace_out = self.output("--trace-out")?;
        let metrics_out = self.output("--metrics-out")?;
        let ledger = self.output("--ledger")?;
        let (cache, autosnap) = match self.path("--cache-dir") {
            None if self.has("--snapshot-every") => {
                return Err(
                    "--snapshot-every requires --cache-dir (snapshots are written under it)".into(),
                )
            }
            None => (None, None),
            Some(dir) => {
                let cache = PointCache::open(&dir)
                    .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?;
                let every = self.count("--snapshot-every", 0)?;
                let autosnap = if every == 0 {
                    None
                } else {
                    let snap_dir = dir.join("autosnap");
                    fs::create_dir_all(&snap_dir)
                        .map_err(|e| format!("cannot create {}: {e}", snap_dir.display()))?;
                    Some((every as u64, snap_dir))
                };
                (Some(cache), autosnap)
            }
        };
        Ok(BenchObs {
            trace_out,
            metrics_out,
            ledger,
            cache,
            autosnap,
            fast_forward: !self.has("--no-fast-forward"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{Cli, RUN_FLAGS};

    const SWEEP: Cli = Cli {
        synopsis: "fig5",
        flags: &[&["--jobs N", "--json out.json"], RUN_FLAGS],
    };

    const LEDGER: Cli = Cli {
        synopsis: "ledger <baseline.jsonl> <current.jsonl>",
        flags: &[&["--threshold 0.10", "--json out.json"]],
    };

    fn parse(cli: &Cli, argv: &[&str]) -> Result<super::Args, String> {
        cli.parse(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn usage_lists_every_flag_once() {
        assert_eq!(
            SWEEP.usage(),
            "fig5 [--jobs N] [--json out.json] [--trace-out trace.json] \
             [--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
             [--cache-dir DIR] [--snapshot-every N]"
        );
    }

    #[test]
    fn flags_take_values_spaced_or_inline() {
        let args = parse(
            &SWEEP,
            &["--jobs=1", "--json", "out.json", "--no-fast-forward"],
        )
        .unwrap();
        assert_eq!(args.jobs(), Ok(1));
        assert_eq!(args.value("--json"), Some("out.json"));
        assert!(args.has("--no-fast-forward") && !args.has("--cache-dir"));
        assert_eq!(args.value("--ledger"), None);
        let args = parse(&SWEEP, &["--json=a.json", "--json", "b.json"]).unwrap();
        assert_eq!(
            args.value("--json"),
            Some("a.json"),
            "the first value counts"
        );
    }

    #[test]
    fn a_flag_token_is_not_a_value() {
        assert_eq!(
            parse(&SWEEP, &["--json", "--no-fast-forward"]).unwrap_err(),
            "--json requires a value"
        );
        assert_eq!(
            parse(&SWEEP, &["--jobs"]).unwrap_err(),
            "--jobs requires a value"
        );
        let args = parse(&LEDGER, &["a", "b", "--threshold", "-0.5"]).unwrap();
        assert_eq!(args.value("--threshold"), Some("-0.5"));
    }

    #[test]
    fn bad_tokens_are_errors() {
        assert_eq!(
            parse(&SWEEP, &["--bogus"]).unwrap_err(),
            "unknown flag --bogus"
        );
        assert_eq!(
            parse(&SWEEP, &["--no-fast-forward=yes"]).unwrap_err(),
            "--no-fast-forward does not take a value"
        );
        assert_eq!(
            parse(&SWEEP, &["extra"]).unwrap_err(),
            "unexpected argument \"extra\""
        );
        assert_eq!(
            parse(&LEDGER, &["a", "b", "c"]).unwrap_err(),
            "unexpected argument \"c\""
        );
        let args = parse(&LEDGER, &["a", "--json", "d.json", "b"]).unwrap();
        assert_eq!(args.positionals(), ["a", "b"]);
    }

    #[test]
    fn counts_and_jobs_must_be_positive() {
        let args = parse(&SWEEP, &["--jobs", "0"]).unwrap();
        assert_eq!(
            args.jobs().unwrap_err(),
            "--jobs requires a positive integer, got \"0\""
        );
        let args = parse(&SWEEP, &["--jobs", "x"]).unwrap();
        assert!(args.jobs().is_err());
        assert_eq!(parse(&SWEEP, &[]).unwrap().jobs(), Ok(0), "0 = all cores");
        let args = parse(&SWEEP, &["--jobs", "100000"]).unwrap();
        assert_eq!(args.jobs(), Ok(crate::host_parallelism()), "capped");
        let args = parse(&SWEEP, &["--jobs", "1"]).unwrap();
        assert_eq!(args.jobs(), Ok(1), "one worker, without asking the host");
        let args = parse(&SWEEP, &[]).unwrap();
        assert_eq!(args.count("--jobs", 7), Ok(7));
    }

    #[test]
    fn snapshot_every_needs_a_cache_dir() {
        let args = parse(&SWEEP, &["--snapshot-every", "500"]).unwrap();
        assert!(args.obs().unwrap_err().contains("requires --cache-dir"));
        let args = parse(&SWEEP, &["--ledger", "l.jsonl", "--no-fast-forward"]).unwrap();
        let obs = args.obs().unwrap();
        assert!(obs.obs().metrics && !obs.obs().fast_forward && obs.obs().cache.is_none());
    }
}
