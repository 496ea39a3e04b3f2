//! The cross-run perf ledger: one JSONL record per executed sweep point,
//! plus the diff machinery that turns two ledgers into a regression
//! verdict.
//!
//! Every bench binary can append its per-point results (`--ledger
//! <path>`) as one [`LedgerRecord`] JSON object per line. Records carry
//! the config hash, seed, scheme, simulated cycles, wall time, the key
//! throughput/latency stats, and the p50/p95/p99 conditional-flush retry
//! latency — enough to track the repository's perf trajectory across
//! commits instead of a single `BENCH_*.json` snapshot. [`diff_ledgers`]
//! compares two ledgers point-by-point and flags cycle-count or
//! flush-latency regressions beyond a relative threshold; CI fails the
//! build when the checked-in baseline regresses.
//!
//! Parsing is hand-rolled over the vendored [`serde_json::parse_value`]
//! tree (the vendored serde serializes only), which also keeps the ledger
//! tolerant of unknown extra fields from newer writers.

use serde::value::{Number, Value};
use serde::Serialize;

/// One executed sweep point, as appended to a JSONL ledger.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerRecord {
    /// Bench binary that produced the point (`fig4`, `faults`, …).
    pub bench: String,
    /// Runner point label, e.g. `"4a/256B/CSB"`.
    pub label: String,
    /// Scheme leg of the label (`CSB`, `none`, `64B`, …), for filtering.
    pub scheme: String,
    /// FNV-1a hash of the point's full configuration rendering.
    pub config_hash: u64,
    /// Fault-schedule seed (0 for deterministic points).
    pub seed: u64,
    /// Simulated CPU cycles the point ran.
    pub cycles: u64,
    /// Wall-clock microseconds the point took.
    pub wall_us: u64,
    /// The measured figure value (bandwidth MB/s or latency cycles).
    pub value: f64,
    /// Conditional flushes that committed.
    pub flush_successes: u64,
    /// Bus transactions issued.
    pub bus_transactions: u64,
    /// Median conditional-flush retry latency (cycles).
    pub flush_p50: u64,
    /// 95th-percentile flush retry latency (cycles).
    pub flush_p95: u64,
    /// 99th-percentile flush retry latency (cycles).
    pub flush_p99: u64,
    /// 99.9th-percentile flush retry latency (cycles). Absent from
    /// ledgers written before the field existed; parsed as 0 then.
    pub flush_p999: u64,
}

impl LedgerRecord {
    /// The identity a record is matched on across ledgers.
    pub fn key(&self) -> String {
        format!("{}::{}#{}", self.bench, self.label, self.seed)
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the derived serializer for this plain
    /// struct is infallible.
    pub fn to_jsonl_line(&self) -> String {
        serde_json::to_string(self).expect("ledger record serializes")
    }
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    match get(obj, key) {
        Some(Value::Number(Number::U(n))) => u64::try_from(*n).map_err(|_| overflow(key)),
        Some(Value::Number(Number::I(n))) => u64::try_from(*n).map_err(|_| overflow(key)),
        Some(Value::Number(Number::F(f))) if *f >= 0.0 && f.fract() == 0.0 => Ok(*f as u64),
        Some(_) => Err(format!("field `{key}` is not an unsigned integer")),
        None => Err(format!("field `{key}` missing")),
    }
}

fn get_f64(obj: &[(String, Value)], key: &str) -> Result<f64, String> {
    match get(obj, key) {
        Some(Value::Number(Number::U(n))) => Ok(*n as f64),
        Some(Value::Number(Number::I(n))) => Ok(*n as f64),
        Some(Value::Number(Number::F(f))) => Ok(*f),
        Some(_) => Err(format!("field `{key}` is not a number")),
        None => Err(format!("field `{key}` missing")),
    }
}

fn get_str(obj: &[(String, Value)], key: &str) -> Result<String, String> {
    match get(obj, key) {
        Some(Value::String(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field `{key}` is not a string")),
        None => Err(format!("field `{key}` missing")),
    }
}

fn overflow(key: &str) -> String {
    format!("field `{key}` out of u64 range")
}

/// Parses one ledger record from its JSONL line.
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn parse_record(line: &str) -> Result<LedgerRecord, String> {
    let value = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let Value::Object(obj) = value else {
        return Err("ledger line is not a JSON object".into());
    };
    Ok(LedgerRecord {
        bench: get_str(&obj, "bench")?,
        label: get_str(&obj, "label")?,
        scheme: get_str(&obj, "scheme")?,
        config_hash: get_u64(&obj, "config_hash")?,
        seed: get_u64(&obj, "seed")?,
        cycles: get_u64(&obj, "cycles")?,
        wall_us: get_u64(&obj, "wall_us")?,
        value: get_f64(&obj, "value")?,
        flush_successes: get_u64(&obj, "flush_successes")?,
        bus_transactions: get_u64(&obj, "bus_transactions")?,
        flush_p50: get_u64(&obj, "flush_p50")?,
        flush_p95: get_u64(&obj, "flush_p95")?,
        flush_p99: get_u64(&obj, "flush_p99")?,
        // Tolerant: older ledgers predate the deep-tail gauge.
        flush_p999: get_u64(&obj, "flush_p999").unwrap_or(0),
    })
}

/// Parses a whole JSONL ledger, skipping blank lines.
///
/// # Errors
///
/// Returns the line number and parse error of the first bad line.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_record(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// One flagged metric movement between two ledgers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerRegression {
    /// The record key ([`LedgerRecord::key`]) the regression is on.
    pub key: String,
    /// Which metric regressed (`cycles`, `flush_p95`, …).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `current / baseline` (∞ when the baseline is 0).
    pub ratio: f64,
}

/// The verdict of comparing a current ledger against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LedgerDiff {
    /// Point keys matched and compared.
    pub compared: usize,
    /// Baseline keys absent from the current ledger (coverage loss).
    pub missing: Vec<String>,
    /// Current keys absent from the baseline (new points; informational).
    pub added: Vec<String>,
    /// Metric movements beyond the threshold, worst ratio first.
    pub regressions: Vec<LedgerRegression>,
}

impl LedgerDiff {
    /// `true` if the current ledger regresses or loses coverage — the
    /// condition CI fails the build on.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }

    /// Plain-text rendering for the `ledger` bin's stderr output.
    pub fn render(&self) -> String {
        let mut out = format!("ledger-diff: {} point(s) compared\n", self.compared);
        for key in &self.missing {
            out.push_str(&format!("  MISSING  {key} (in baseline, not in current)\n"));
        }
        for key in &self.added {
            out.push_str(&format!("  new      {key}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!(
                "  REGRESSED {}: {} {} -> {} ({:.2}x)\n",
                r.key, r.metric, r.baseline, r.current, r.ratio
            ));
        }
        if !self.is_regression() {
            out.push_str("  OK: no regressions\n");
        }
        out
    }
}

/// Compares `current` against `baseline`, flagging any matched point
/// whose simulated cycle count or flush-latency quantile grew by more
/// than `threshold` (relative; `0.10` = 10%). Latecomer duplicates of a
/// key within one ledger win (a ledger is append-only: the newest record
/// for a point is its current truth).
pub fn diff_ledgers(
    baseline: &[LedgerRecord],
    current: &[LedgerRecord],
    threshold: f64,
) -> LedgerDiff {
    // Last write wins within each ledger.
    let dedup = |records: &[LedgerRecord]| -> Vec<(String, LedgerRecord)> {
        let mut out: Vec<(String, LedgerRecord)> = Vec::new();
        for r in records {
            let key = r.key();
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, slot)) => *slot = r.clone(),
                None => out.push((key, r.clone())),
            }
        }
        out
    };
    let base = dedup(baseline);
    let cur = dedup(current);

    let mut diff = LedgerDiff::default();
    for (key, b) in &base {
        let Some((_, c)) = cur.iter().find(|(k, _)| k == key) else {
            diff.missing.push(key.clone());
            continue;
        };
        diff.compared += 1;
        let gauges: [(&str, u64, u64); 5] = [
            ("cycles", b.cycles, c.cycles),
            ("flush_p50", b.flush_p50, c.flush_p50),
            ("flush_p95", b.flush_p95, c.flush_p95),
            ("flush_p99", b.flush_p99, c.flush_p99),
            ("flush_p999", b.flush_p999, c.flush_p999),
        ];
        for (metric, bv, cv) in gauges {
            let regressed = if bv == 0 {
                cv > 0
            } else {
                cv as f64 > bv as f64 * (1.0 + threshold)
            };
            if regressed {
                diff.regressions.push(LedgerRegression {
                    key: key.clone(),
                    metric: metric.to_string(),
                    baseline: bv as f64,
                    current: cv as f64,
                    ratio: if bv == 0 {
                        f64::INFINITY
                    } else {
                        cv as f64 / bv as f64
                    },
                });
            }
        }
    }
    for (key, _) in &cur {
        if !base.iter().any(|(k, _)| k == key) {
            diff.added.push(key.clone());
        }
    }
    diff.regressions.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, cycles: u64, p95: u64) -> LedgerRecord {
        LedgerRecord {
            bench: "fig4".into(),
            label: label.into(),
            scheme: "CSB".into(),
            config_hash: 0xf5e6_1819_0ce6_f5e1,
            seed: 0,
            cycles,
            wall_us: 120,
            value: 88.5,
            flush_successes: 4,
            bus_transactions: 4,
            flush_p50: 1,
            flush_p95: p95,
            flush_p99: p95,
            flush_p999: p95,
        }
    }

    #[test]
    fn record_roundtrips_through_jsonl() {
        let r = record("4a/256B/CSB", 9001, 15);
        let parsed = parse_record(&r.to_jsonl_line()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn old_ledger_lines_without_p999_parse_as_zero() {
        let mut r = record("4a/256B/CSB", 9001, 15);
        let line = r.to_jsonl_line().replace(",\"flush_p999\":15", "");
        assert!(!line.contains("flush_p999"), "{line}");
        let parsed = parse_record(&line).expect("old line parses");
        r.flush_p999 = 0;
        assert_eq!(parsed, r);
    }

    #[test]
    fn ledger_parses_multiple_lines_and_reports_bad_ones() {
        let a = record("a", 1, 1);
        let b = record("b", 2, 2);
        let text = format!("{}\n\n{}\n", a.to_jsonl_line(), b.to_jsonl_line());
        let parsed = parse_ledger(&text).expect("parses");
        assert_eq!(parsed, vec![a, b]);
        let err = parse_ledger("{\"bench\": 3}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn diff_flags_cycle_and_latency_regressions() {
        let base = vec![record("a", 1000, 10), record("b", 1000, 10)];
        let cur = vec![
            record("a", 1050, 10), // +5%: within threshold
            record("b", 1200, 40), // +20% cycles, 4x p95/p99
        ];
        let diff = diff_ledgers(&base, &cur, 0.10);
        assert_eq!(diff.compared, 2);
        assert!(diff.is_regression());
        let metrics: Vec<&str> = diff.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"cycles"));
        assert!(metrics.contains(&"flush_p95"));
        assert!(metrics.contains(&"flush_p99"));
        assert!(metrics.contains(&"flush_p999"));
        assert!(
            !diff.regressions.iter().any(|r| r.key.contains("::a#")),
            "point a is within threshold"
        );
        // Worst ratio first.
        assert!(diff.regressions[0].ratio >= diff.regressions[1].ratio);
    }

    #[test]
    fn diff_tracks_missing_added_and_last_write_wins() {
        let base = vec![record("a", 1000, 10), record("gone", 5, 5)];
        let cur = vec![
            record("a", 9999, 10), // superseded by the next line
            record("a", 1000, 10),
            record("new", 7, 7),
        ];
        let diff = diff_ledgers(&base, &cur, 0.10);
        assert_eq!(diff.missing, vec!["fig4::gone#0"]);
        assert_eq!(diff.added, vec!["fig4::new#0"]);
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.is_regression(), "missing coverage is a failure");
        let clean = diff_ledgers(&base[..1], &cur[1..2], 0.10);
        assert!(!clean.is_regression());
        assert!(clean.render().contains("OK"));
    }

    #[test]
    fn zero_baseline_only_regresses_when_nonzero_appears() {
        let base = vec![record("a", 1000, 0)];
        let mut grown = record("a", 1000, 3);
        grown.flush_p50 = 0;
        let diff = diff_ledgers(&base, &[grown], 0.10);
        assert_eq!(diff.regressions.len(), 3, "{:?}", diff.regressions);
        assert!(diff.regressions.iter().all(|r| r.ratio.is_infinite()));
        let same = diff_ledgers(&base, &[record("a", 1000, 0)], 0.10);
        assert!(!same.is_regression());
    }
}
