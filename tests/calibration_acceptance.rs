//! Calibration acceptance: the simulated fleet's population statistics
//! must sit within tolerance bands of the paper's published values.
//! These are the contract between `ssd-sim` and every analysis built on
//! top of it; EXPERIMENTS.md records the same comparisons narratively.

use ssd_field_study::core::streaming::{summarize, StreamSummary};
use ssd_field_study::core::{aging, characterize, errors_analysis, lifecycle};
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::{DriveModel, ErrorKind, FleetTrace};
use std::sync::OnceLock;

/// Tables 1, 3, 4 and Figures 4–5 of the shared fleet, folded once.
fn summary() -> &'static StreamSummary {
    static SUMMARY: OnceLock<StreamSummary> = OnceLock::new();
    SUMMARY.get_or_init(|| summarize(trace()))
}

fn trace() -> &'static FleetTrace {
    static TRACE: OnceLock<FleetTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        FleetGen::new(&SimConfig {
            drives_per_model: 1200,
            horizon_days: 2190,
            seed: 4242,
            ..SimConfig::default()
        })
        .trace()
    })
}

#[test]
fn table1_error_day_rates() {
    let inc = &summary().error_incidence;
    // Paper Table 1 anchors (fraction of drive days with the error).
    let cases = [
        (ErrorKind::Correctable, DriveModel::MlcA, 0.828895, 0.05),
        (ErrorKind::Correctable, DriveModel::MlcB, 0.776308, 0.05),
        (ErrorKind::Correctable, DriveModel::MlcD, 0.767593, 0.05),
        (ErrorKind::Uncorrectable, DriveModel::MlcA, 0.002176, 0.0015),
        (ErrorKind::Uncorrectable, DriveModel::MlcB, 0.002349, 0.0015),
        (ErrorKind::FinalRead, DriveModel::MlcB, 0.001805, 0.0015),
        (ErrorKind::Write, DriveModel::MlcB, 0.001309, 0.0008),
        (ErrorKind::Write, DriveModel::MlcA, 0.000117, 0.0002),
    ];
    for (kind, model, expected, tol) in cases {
        let got = inc.rate(kind, model);
        assert!(
            (got - expected).abs() <= tol,
            "{model} {kind}: got {got}, paper {expected} (tol {tol})"
        );
    }
    // Rare kinds must stay rare (well under 1e-3).
    for kind in [ErrorKind::Meta, ErrorKind::Response, ErrorKind::Timeout] {
        for model in DriveModel::ALL {
            assert!(inc.rate(kind, model) < 1e-3, "{model} {kind} too common");
        }
    }
}

#[test]
fn table3_failure_incidence() {
    let inc = &summary().failure_incidence;
    // Paper: MLC-A 6.95%, MLC-B 14.3%, MLC-D 12.5%. Horizon censoring of
    // late deployments biases down slightly; bands are ±40% relative.
    let expect = [0.0695, 0.143, 0.125];
    for ((name, _, _, got), expected) in inc.per_model.iter().zip(expect) {
        let rel = (got - expected).abs() / expected;
        assert!(rel < 0.4, "{name}: failed fraction {got} vs paper {expected}");
    }
    // Ordering must hold exactly: B > D > A.
    assert!(inc.per_model[1].3 > inc.per_model[2].3);
    assert!(inc.per_model[2].3 > inc.per_model[0].3);
}

#[test]
fn table4_repeat_failures() {
    let d = &summary().failure_counts;
    // Paper: 88.7% zero, 10.1% one, ~1.04% two, 0.13% three.
    assert!((d.frac_of_all(0) - 0.887).abs() < 0.06, "{}", d.frac_of_all(0));
    assert!(d.frac_of_failed(1) > 0.80, "{}", d.frac_of_failed(1));
    assert!(d.frac_of_all(2) < 0.04, "{}", d.frac_of_all(2));
}

#[test]
fn figure4_non_operational_anchors() {
    let e = &summary().non_operational;
    // Paper: ~20% within a day, ~80% within 7 days, ~8% beyond 100 days.
    assert!((e.eval(1.0) - 0.20).abs() < 0.10, "P(<=1d) {}", e.eval(1.0));
    assert!((e.eval(7.0) - 0.80).abs() < 0.08, "P(<=7d) {}", e.eval(7.0));
    let tail = 1.0 - e.eval(100.0);
    assert!((0.02..0.16).contains(&tail), "100-day tail {tail}");
}

#[test]
fn figure5_table5_repair_behaviour() {
    let e = &summary().time_to_repair;
    // Paper: about half never return (horizon censoring pushes this up).
    assert!(
        (0.40..0.75).contains(&e.censored_fraction()),
        "never-returning {}",
        e.censored_fraction()
    );
    let t5 = lifecycle::repair_reentry(trace());
    for (name, cells) in &t5.rows {
        // 10-day re-entry is single-digit percent for every model
        // (paper: 3.4 / 6.8 / 4.9).
        assert!(
            cells[0].0 < 15.0,
            "{name}: 10-day re-entry {}%",
            cells[0].0
        );
    }
}

#[test]
fn figure6_infant_mortality() {
    let fa = aging::failure_age(trace());
    assert!(
        (fa.frac_under_30d - 0.15).abs() < 0.08,
        "under-30d {} vs paper 0.15",
        fa.frac_under_30d
    );
    assert!(
        (fa.frac_under_90d - 0.25).abs() < 0.10,
        "under-90d {} vs paper 0.25",
        fa.frac_under_90d
    );
}

#[test]
fn figure8_wear_is_uninformative() {
    let w = aging::wear_at_failure(trace());
    // Paper: ~98% of failures below 1500 P/E cycles.
    assert!(
        w.frac_under_1500 > 0.88,
        "under-1500 {} vs paper 0.98",
        w.frac_under_1500
    );
}

#[test]
fn figure10_zero_ue_fractions() {
    let c = errors_analysis::cumulative_error_cdfs(trace());
    let [young, old, ok] = c.zero_ue_fracs;
    // Paper: 68% young, 45% old, 80% not-failed.
    assert!((ok - 0.80).abs() < 0.10, "not-failed zero-UE {ok}");
    assert!((young - 0.68).abs() < 0.15, "young zero-UE {young}");
    assert!((old - 0.45).abs() < 0.15, "old zero-UE {old}");
    // Paper: 26% of failures entirely symptomless.
    assert!(
        (c.symptomless_failure_frac - 0.26).abs() < 0.15,
        "symptomless {}",
        c.symptomless_failure_frac
    );
}

#[test]
fn figure11_escalation_window() {
    let p = errors_analysis::pre_failure_errors(trace());
    // Paper: P(UE within last 7 days | failure) ≈ 0.25, and the jump is
    // concentrated in the final two days.
    let old = &p.p_ue_within[1];
    let week = old.points.last().unwrap().1;
    assert!((0.10..0.45).contains(&week), "P(UE in last week) {week}");
    let day2 = old.points[2].1; // within last 2 days
    let day0 = old.points[0].1;
    assert!(day2 > 0.5 * week, "final-2-day share {day2} of week {week}");
    assert!(day0 > 0.0, "failure-day probability must be positive");
}

#[test]
fn table2_key_correlations() {
    let c = characterize::correlation_matrix(trace());
    // UE <-> final read ≈ 0.97 in the paper ("essentially the same event").
    assert!(
        c.get("uncorrectable", "final read") > 0.80,
        "UE-FR {}",
        c.get("uncorrectable", "final read")
    );
    // P/E <-> age ≈ 0.73.
    let pe_age = c.get("P/E cycle", "drive age");
    assert!((pe_age - 0.73).abs() < 0.20, "P/E-age {pe_age}");
    // P/E correlates with erase errors more than with uncorrectable ones
    // (Observation 1).
    assert!(
        c.get("P/E cycle", "erase") > c.get("P/E cycle", "uncorrectable") - 0.05,
        "erase {} vs UE {}",
        c.get("P/E cycle", "erase"),
        c.get("P/E cycle", "uncorrectable")
    );
}
