//! Accuracy integration tests: the transaction-level model must track the
//! pin-accurate reference on identical stimulus (the Table-1 experiment).

use ahbplus::{scenario, AhbPlusParams, ScenarioSpec, SimReport};
use analysis::AccuracyReport;

/// One Table-1 comparison: the pin-accurate and the transaction-level
/// model on identical stimulus (`pattern` is a registry key).
struct Validation {
    accuracy: AccuracyReport,
    rtl: SimReport,
    tlm: SimReport,
}

fn validate(pattern: &str, transactions: usize, seed: u64) -> Validation {
    let config = ScenarioSpec::new(pattern, pattern, transactions, seed)
        .resolve()
        .expect("registered pattern");
    let rtl = config.run_rtl();
    let tlm = config.run_tlm();
    let accuracy = AccuracyReport::compare(config.pattern.name, &rtl, &tlm);
    Validation { accuracy, rtl, tlm }
}

/// Table 1: patterns A, B and C.
fn table1(transactions: usize, seed: u64) -> Vec<Validation> {
    ["a", "b", "c"]
        .into_iter()
        .map(|pattern| validate(pattern, transactions, seed))
        .collect()
}

/// Total bus work (busy cycles) must agree closely on every pattern — this
/// is the metric least sensitive to how contention is attributed.
#[test]
fn bus_busy_cycles_agree_within_five_percent() {
    for validation in &table1(150, 7) {
        let busy = validation
            .accuracy
            .rows
            .iter()
            .find(|r| r.metric == "bus busy cycles")
            .expect("busy row");
        assert!(
            busy.error_pct() < 5.0,
            "{}: busy-cycle error {:.2}%",
            validation.accuracy.pattern,
            busy.error_pct()
        );
    }
}

/// The longest-running master (the periodic real-time video master) pins the
/// end of the simulation; both models must agree on it almost exactly.
#[test]
fn video_completion_cycle_matches_almost_exactly() {
    for pattern in ["a", "b"] {
        let validation = validate(pattern, 150, 3);
        let row = validation
            .accuracy
            .rows
            .iter()
            .find(|r| r.metric.contains("video completion"))
            .expect("video completion row");
        assert!(
            row.error_pct() < 1.0,
            "video completion error {:.2}%",
            row.error_pct()
        );
    }
}

/// With request pipelining disabled the two models are calibrated to within
/// a few percent on every metric — evidence that the residual error of the
/// full configuration comes from concurrency-dependent effects (write-buffer
/// scheduling), not from mis-calibrated transaction timings.
#[test]
fn non_pipelined_configuration_matches_within_five_percent() {
    // The catalogued Table-1 scenario (same pattern and seed) with the
    // pipelining ablation applied as a spec variant.
    let config = scenario("table1-a")
        .expect("catalogued")
        .with_transactions(200)
        .with_params(AhbPlusParams::ahb_plus().with_request_pipelining(false))
        .resolve()
        .expect("resolvable");
    let rtl = config.run_rtl();
    let tlm = config.run_tlm();
    let accuracy = AccuracyReport::compare("pattern A, no pipelining", &rtl, &tlm);
    assert!(
        accuracy.average_error_pct() < 5.0,
        "average error {:.2}%\n{}",
        accuracy.average_error_pct(),
        accuracy.format_table()
    );
}

/// Full AHB+ configuration: average difference across all compared metrics
/// stays bounded (the paper reports <3% for its models; this reproduction's
/// write-buffer dynamics diverge more — see EXPERIMENTS.md).
#[test]
fn full_configuration_average_error_is_bounded() {
    let reports: Vec<AccuracyReport> = table1(150, 7)
        .into_iter()
        .map(|validation| validation.accuracy)
        .collect();
    let error = AccuracyReport::overall_average_error(&reports);
    let tables: String = reports.iter().map(AccuracyReport::format_table).collect();
    assert!(error < 30.0, "overall average error {error:.2}%\n{tables}");
}

/// Both models must see the exact same stimulus — equal transaction and byte
/// counts per master.
#[test]
fn stimulus_is_identical_across_models() {
    let validation = validate("a", 100, 19);
    for (id, rtl_m) in &validation.rtl.masters {
        let tlm_m = &validation.tlm.masters[id];
        assert_eq!(rtl_m.completed, tlm_m.completed, "{id} transaction count");
        assert_eq!(rtl_m.bytes, tlm_m.bytes, "{id} byte count");
    }
}

/// Smoke-sized guard against gross divergence. The paper reports <3%
/// average difference on its workloads; this reproduction tracks the
/// headline cycle counts (completion cycles of the longest-running
/// master, bus busy cycles) tightly but the per-master latency of
/// write-posting masters diverges more, so only total bus work is held
/// to a tight bound here.
#[test]
fn tlm_tracks_rtl_on_a_small_workload() {
    let validation = validate("a", 60, 7);
    let error = validation.accuracy.average_error_pct();
    assert!(
        error < 25.0,
        "TLM diverged from RTL by {error:.2}% on the smoke workload"
    );
    let busy = validation
        .accuracy
        .rows
        .iter()
        .find(|r| r.metric == "bus busy cycles")
        .expect("busy row");
    assert!(
        busy.error_pct() < 8.0,
        "busy cycle error {:.2}%",
        busy.error_pct()
    );
}
