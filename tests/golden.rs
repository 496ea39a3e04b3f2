//! Golden-file snapshot tests: the figure harnesses must keep producing
//! bit-identical results (the simulator is fully deterministic).
//!
//! To regenerate after an intentional model change:
//! `UPDATE_GOLDEN=1 cargo test -p csb-core --test golden` — then review the
//! diff against EXPERIMENTS.md.

use std::fs;
use std::path::PathBuf;

use csb_core::experiments::runner::{run_panels_observed, Measure, ObsConfig, PanelSpec};
use csb_core::experiments::{fig5, Panel};
use csb_core::SimConfig;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_or_update<T: serde::Serialize>(name: &str, value: &T) {
    let path = golden_path(name);
    let actual = serde_json::to_string_pretty(value).expect("serializes");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(&path, &actual).expect("golden file writes");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file {} missing — run UPDATE_GOLDEN=1 cargo test -p csb-core --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "{name} drifted from its golden snapshot; if the model change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and update EXPERIMENTS.md"
    );
}

/// One bandwidth panel, run serially through the engine.
fn bandwidth_panel(id: &str, title: &str, cfg: SimConfig) -> Panel {
    let spec = PanelSpec::new(id, title, cfg, Measure::Bandwidth);
    let (mut panels, _, _) =
        run_panels_observed(&[spec], 1, ObsConfig::default()).expect("panel simulates");
    panels.remove(0)
}

#[test]
fn fig5_panels_match_golden() {
    let (panels, _, _) =
        fig5::run_jobs_observed(1, ObsConfig::default()).expect("Figure 5 simulates");
    check_or_update("fig5.json", &panels);
}

#[test]
fn fig3e_panel_matches_golden() {
    // The central Figure 3 panel: ratio 6, 64-byte line, idle bus.
    let cfg = SimConfig::default();
    let panel = bandwidth_panel("3e", "ratio 6, 64B line", cfg);
    check_or_update("fig3e.json", &panel);
}

#[test]
fn fig4a_panel_matches_golden() {
    let cfg = SimConfig::default().bus(
        csb_bus::BusConfig::split(16)
            .max_burst(64)
            .build()
            .expect("valid bus"),
    );
    let panel = bandwidth_panel("4a", "16B split bus", cfg);
    check_or_update("fig4a.json", &panel);
}
