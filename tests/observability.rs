//! End-to-end checks for the tracing + metrics layer: Chrome trace-event
//! export validity, artifact determinism across worker counts, the
//! metrics-match-stats invariants, and a golden trace snapshot.
//!
//! To regenerate the golden trace after an intentional model change:
//! `UPDATE_GOLDEN=1 cargo test -p csb-core --test observability`

use std::fs;
use std::path::PathBuf;

use csb_core::experiments::fig5::{self, LockResidency};
use csb_core::experiments::runner::{
    run_values_observed, LabeledArtifacts, ObsConfig, PointSpec, PointWork,
};
use csb_core::experiments::{throughput, Scheme};
use csb_core::{workloads, FaultConfig, SimConfig, Simulator};
use csb_isa::Program;
use csb_obs::Track;
use serde_json::Value;

/// Trace and metrics capture on, everything else at its default.
fn full_obs() -> ObsConfig<'static> {
    ObsConfig {
        trace: true,
        metrics: true,
        ..ObsConfig::default()
    }
}

/// A tiny fig5-style point: the CSB path of the 4-doubleword lock
/// sequence on the paper's default machine.
fn csb_point() -> PointSpec {
    PointSpec {
        label: "5a/4dw/CSB".into(),
        cfg: SimConfig::default(),
        work: PointWork::Latency {
            dwords: 4,
            scheme: Scheme::Csb,
            residency: LockResidency::Hit,
        },
    }
}

/// [`csb_point`] run through the engine with both captures on.
fn observed_csb_point() -> LabeledArtifacts {
    let (_, mut artifacts, _) =
        run_values_observed(&[csb_point()], 1, full_obs()).expect("point simulates");
    artifacts.remove(0)
}

/// Looks up a key in a JSON object value.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(map) => map.iter().find(|(k, _)| k.as_str() == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Pulls the event list out of a parsed Chrome trace document.
fn trace_events(doc: &Value) -> Vec<Value> {
    match field(doc, "traceEvents") {
        Some(Value::Array(events)) => events.clone(),
        _ => panic!("traceEvents array missing"),
    }
}

fn str_field(event: &Value, key: &str) -> Option<String> {
    match field(event, key) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn num_field(event: &Value, key: &str) -> Option<f64> {
    match field(event, key) {
        Some(Value::Number(serde_json::Number::U(u))) => Some(*u as f64),
        Some(Value::Number(serde_json::Number::I(i))) => Some(*i as f64),
        Some(Value::Number(serde_json::Number::F(f))) => Some(*f),
        _ => None,
    }
}

#[test]
fn chrome_trace_is_schema_valid_with_distinct_tracks() {
    let outcome = observed_csb_point();
    let trace = outcome.artifacts.trace_json.expect("trace captured");
    let doc = serde_json::parse_value(&trace).expect("trace is valid JSON");
    let events = trace_events(&doc);
    assert!(!events.is_empty());

    // One thread_name metadata record per track, all in pid 1.
    let mut track_names = Vec::new();
    for e in &events {
        if str_field(e, "ph").as_deref() == Some("M") {
            assert_eq!(str_field(e, "name").as_deref(), Some("thread_name"));
            assert_eq!(num_field(e, "pid"), Some(1.0));
            let args = field(e, "args").expect("metadata args");
            track_names.push(str_field(args, "name").expect("thread name"));
        }
    }
    for track in Track::ALL {
        assert!(
            track_names.iter().any(|n| n == track.name()),
            "missing track {:?}",
            track.name()
        );
    }

    // Every payload event is a span (X, with dur) or a thread-scoped
    // instant (i), carries a timestamp, and lands on a known track.
    let tids: Vec<f64> = Track::ALL.iter().map(|t| t.tid() as f64).collect();
    for e in &events {
        let ph = str_field(e, "ph").expect("phase");
        if ph == "M" {
            continue;
        }
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(num_field(e, "ts").is_some(), "event without timestamp");
        let tid = num_field(e, "tid").expect("event without track");
        assert!(tids.contains(&tid), "unknown tid {tid}");
        if ph == "X" {
            assert!(num_field(e, "dur").unwrap_or(-1.0) >= 0.0);
        } else {
            assert_eq!(str_field(e, "s").as_deref(), Some("t"));
        }
    }
}

#[test]
fn metrics_artifact_matches_simulator_stats() {
    let outcome = observed_csb_point();
    let report = outcome.artifacts.metrics.expect("metrics captured");
    // The acceptance invariant: one flush-retry-latency observation per
    // successful conditional flush.
    let flush = &report.metrics.histograms["csb_flush_retry_latency"];
    assert_eq!(flush.count, report.csb.flush_successes);
    assert!(report.csb.flush_successes > 0, "workload flushed");
    // Every burst the CSB drove is one burst-size observation.
    assert_eq!(
        report.metrics.histograms["csb_burst_bytes"].count,
        report.csb.bursts
    );
    // First-try + retried partitions the successes.
    let first = report
        .metrics
        .counters
        .get("csb_flush_first_try")
        .copied()
        .unwrap_or(0);
    let retried = report
        .metrics
        .counters
        .get("csb_flush_retried")
        .copied()
        .unwrap_or(0);
    assert_eq!(first + retried, report.csb.flush_successes);
    // And the report serializes as one self-contained JSON document.
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let doc = serde_json::parse_value(&json).expect("report is valid JSON");
    assert!(matches!(doc, Value::Object(_)));
}

#[test]
fn artifacts_stable_across_worker_counts() {
    // A fig5-style sweep (all schemes at 4 doublewords) twice: serial and
    // on 4 workers. Both the values and every per-point artifact must be
    // byte-identical — worker count must never leak into what we save.
    let cfg = SimConfig::default();
    let specs: Vec<PointSpec> = Scheme::ladder(cfg.line())
        .into_iter()
        .map(|scheme| PointSpec {
            label: format!("5a/4dw/{scheme}"),
            cfg: cfg.clone(),
            work: PointWork::Latency {
                dwords: 4,
                scheme,
                residency: LockResidency::Hit,
            },
        })
        .collect();
    let (v1, a1, _) = run_values_observed(&specs, 1, full_obs()).expect("serial sweep");
    let (v4, a4, _) = run_values_observed(&specs, 4, full_obs()).expect("parallel sweep");
    assert_eq!(v1, v4);
    assert_eq!(a1.len(), a4.len());
    for (x, y) in a1.iter().zip(&a4) {
        assert_eq!(x.label, y.label);
        assert_eq!(
            x.artifacts.trace_json, y.artifacts.trace_json,
            "trace for {} depends on worker count",
            x.label
        );
        let mx = serde_json::to_string(x.artifacts.metrics.as_ref().unwrap()).unwrap();
        let my = serde_json::to_string(y.artifacts.metrics.as_ref().unwrap()).unwrap();
        assert_eq!(mx, my, "metrics for {} depend on worker count", x.label);
    }
}

#[test]
fn disabled_observability_keeps_tables_identical() {
    // The zero-cost-when-disabled claim, end to end: a run with capture
    // off captures nothing, and capture never changes the panel bytes.
    let (plain, artifacts, _) =
        fig5::run_jobs_observed(2, ObsConfig::default()).expect("Figure 5 simulates");
    let (observed, _, _) = fig5::run_jobs_observed(2, full_obs()).expect("Figure 5 simulates");
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&observed).unwrap()
    );
    assert!(artifacts.iter().all(|la| la.artifacts.is_empty()));
}

/// Runs `program` traced + metered through both loops and asserts the
/// exported Chrome trace and the metrics snapshot are byte-identical.
/// Returns (fast-forward simulator, cycles simulated, ticks it took).
fn assert_traced_identical(
    cfg: &SimConfig,
    program: &Program,
    faults: Option<FaultConfig>,
) -> (Simulator, u64, u64) {
    let mut ff = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    ff.set_fast_forward(true);
    let mut naive = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    naive.set_fast_forward(false);
    for sim in [&mut ff, &mut naive] {
        sim.enable_tracing();
        sim.enable_metrics();
        sim.set_faults(faults);
    }
    let a = ff.run(50_000_000).expect("ff run completes");
    let b = naive.run(50_000_000).expect("naive run completes");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "run summaries must match"
    );
    assert_eq!(
        ff.chrome_trace(),
        naive.chrome_trace(),
        "traces must be byte-identical"
    );
    assert_eq!(
        serde_json::to_string(&ff.metrics_snapshot()).unwrap(),
        serde_json::to_string(&naive.metrics_snapshot()).unwrap(),
        "metrics snapshots (timeline included) must be byte-identical"
    );
    let ticks = ff.ticks();
    (ff, a.cycles, ticks)
}

#[test]
fn fast_forward_trace_byte_identical_on_csb_active_point() {
    // The throughput bench's CSB-active shape (4along/16KB/CSB): the bus
    // is occupied nearly end to end, so almost every traced cycle inside
    // the run is bridged by the walk — the events must be synthesized,
    // not ticked.
    let spec = throughput::csb_active_point();
    assert_eq!(spec.label, "4along/16KB/CSB");
    let csb_core::experiments::runner::PointWork::Bandwidth { transfer, .. } = spec.work else {
        panic!("csb-active point is a bandwidth point");
    };
    let program =
        workloads::store_bandwidth(transfer, &spec.cfg, workloads::StorePath::CsbOutlined)
            .expect("workload builds");
    let (_, cycles, ticks) = assert_traced_identical(&spec.cfg, &program, None);
    assert!(
        ticks * 4 < cycles,
        "traced walk must still skip most cycles (ticked {ticks} of {cycles})"
    );
}

#[test]
fn fast_forward_trace_byte_identical_under_seeded_faults() {
    // Device NACK reissues, bus errors, and flush disturbs all emit (or
    // count) inside jumps; the synthesized stream must replay the
    // schedule event-for-event.
    let cfg = SimConfig::default().frequency_ratio(8);
    let faults = FaultConfig::new(0x5eed)
        .bus_error_rate(0.15)
        .device_nack_rate(0.30)
        .flush_disturb_rate(0.15)
        .max_consecutive(8);
    for path in [workloads::StorePath::Uncached, workloads::StorePath::Csb] {
        let program = workloads::store_bandwidth(1024, &cfg, path).expect("workload builds");
        let (ff, cycles, ticks) = assert_traced_identical(&cfg, &program, Some(faults));
        assert!(ticks < cycles, "faulted run must still fast-forward");
        let snap = ff.metrics_snapshot();
        let injected: u64 = [
            "fault_bus_errors",
            "fault_device_nacks",
            "fault_flush_disturbs",
        ]
        .iter()
        .map(|k| snap.counters.get(*k).copied().unwrap_or(0))
        .sum();
        assert!(injected > 0, "fault schedule must actually fire ({path:?})");
    }
}

#[test]
fn timeline_window_sums_match_run_totals() {
    // The timeline's defining invariant: at any window resolution, the
    // per-window stats sum exactly to the run totals — on both loops.
    let spec = throughput::csb_active_point();
    let csb_core::experiments::runner::PointWork::Bandwidth { transfer, .. } = spec.work else {
        panic!("csb-active point is a bandwidth point");
    };
    let program =
        workloads::store_bandwidth(transfer, &spec.cfg, workloads::StorePath::CsbOutlined)
            .expect("workload builds");
    for fast_forward in [true, false] {
        let mut sim = Simulator::new(spec.cfg.clone(), program.clone()).expect("config valid");
        sim.set_fast_forward(fast_forward);
        sim.enable_metrics();
        let summary = sim.run(50_000_000).expect("run completes");
        let timeline = sim.metrics_snapshot().timeline;
        assert!(
            timeline.windows.len() > 1,
            "a >10k-cycle run spans multiple windows"
        );
        let totals = timeline.totals();
        assert_eq!(totals.bus_txns, summary.bus.transactions);
        assert_eq!(totals.flush_successes, summary.csb.flush_successes);
        assert_eq!(totals.flush_failures, summary.csb.flush_failures);
        assert_eq!(totals.retired, summary.cpu.retired);
        assert_eq!(totals.faults, 0, "fault-free run");
        assert!(totals.bus_busy_cycles > 0 && totals.bus_payload_bytes > 0);
    }
}

#[test]
fn golden_trace_snapshot() {
    let outcome = observed_csb_point();
    let trace = outcome.artifacts.trace_json.expect("trace captured");
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_5a_4dw_csb.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(&path, &trace).expect("golden trace writes");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden trace {} missing — run UPDATE_GOLDEN=1 cargo test -p csb-core --test observability",
            path.display()
        )
    });
    assert_eq!(
        trace.trim(),
        expected.trim(),
        "the traced event stream drifted; if the model change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
