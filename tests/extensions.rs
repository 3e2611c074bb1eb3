//! Integration coverage for the beyond-the-paper extensions: GBDT,
//! probability calibration, drift detection, and the observation audit,
//! all running on the same simulated fleet end to end.

use ssd_field_study::core::{
    audit_trace_observations, build_dataset, drift_report, ExtractOptions,
};
use ssd_field_study::ml::{
    cross_validate, expected_calibration_error, grouped_kfold, held_out_scores, roc_auc, CvOptions,
    ForestConfig, GbdtConfig, PlattScaler,
};
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::FleetTrace;
use std::sync::OnceLock;

fn trace() -> &'static FleetTrace {
    static T: OnceLock<FleetTrace> = OnceLock::new();
    T.get_or_init(|| {
        FleetGen::new(&SimConfig {
            drives_per_model: 300,
            horizon_days: 2190,
            seed: 31337,
            ..SimConfig::default()
        })
        .trace()
    })
}

#[test]
fn gbdt_is_competitive_with_the_forest() {
    let data = build_dataset(
        trace(),
        &ExtractOptions {
            lookahead_days: 7, // the "large N" regime the paper targets next
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    let opts = CvOptions::default();
    let rf = cross_validate(
        &ForestConfig {
            n_trees: 40,
            ..Default::default()
        },
        &data,
        &opts,
    );
    let gb = cross_validate(
        &GbdtConfig {
            n_trees: 80,
            ..Default::default()
        },
        &data,
        &opts,
    );
    // At 900 drives the downsampled training folds hold only ~60 positive
    // rows — far below boosting's comfort zone — so GBDT trails the forest
    // here; the assertion bounds the gap rather than demanding parity.
    assert!(gb.mean() > 0.60, "GBDT N=7 AUC {}", gb.mean());
    assert!(
        rf.mean() - gb.mean() < 0.15,
        "GBDT {} vs RF {} diverged",
        gb.mean(),
        rf.mean()
    );
}

#[test]
fn calibration_improves_forest_probabilities() {
    let data = build_dataset(
        trace(),
        &ExtractOptions {
            lookahead_days: 3,
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    // Hold out fold 0 for calibration + evaluation; train on the rest,
    // downsampled (which is exactly what mis-calibrates the forest).
    let folds = grouped_kfold(&data, 4, 1);
    let forest = ForestConfig {
        n_trees: 40,
        ..Default::default()
    };
    let (test, raw) = held_out_scores(&forest, &data, &folds[0], 1.0, 1);
    let scaler = PlattScaler::fit(&raw, test.labels());
    let cal = scaler.transform_batch(&raw);

    let ece_raw = expected_calibration_error(&raw, test.labels(), 10);
    let ece_cal = expected_calibration_error(&cal, test.labels(), 10);
    assert!(
        ece_cal < ece_raw,
        "calibration must reduce ECE: {ece_raw} -> {ece_cal}"
    );
    // And never change the ranking.
    let auc_raw = roc_auc(&raw, test.labels());
    let auc_cal = roc_auc(&cal, test.labels());
    assert!((auc_raw - auc_cal).abs() < 1e-9);
}

#[test]
fn drift_is_silent_between_like_fleets_and_loud_after_a_shift() {
    let reference = trace();
    let like = FleetGen::new(&SimConfig {
        drives_per_model: 300,
        horizon_days: 2190,
        seed: 999,
        ..SimConfig::default()
    })
    .trace();
    let quiet = drift_report(reference, &like);
    assert!(!quiet.any_drift(1e-5), "like fleets must not alarm");

    let mut shifted = like.clone();
    for d in &mut shifted.drives {
        for r in &mut d.reports {
            r.write_ops = (r.write_ops as f64 * 1.8) as u64;
        }
    }
    let loud = drift_report(reference, &shifted);
    assert!(loud.any_drift(1e-5), "workload shift must alarm");
}

#[test]
fn trace_observations_audit_passes_end_to_end() {
    let checks = audit_trace_observations(trace());
    let failing: Vec<u8> = checks.iter().filter(|c| !c.holds).map(|c| c.id).collect();
    assert!(
        failing.len() <= 1,
        "at most one scale-sensitive observation may fail at 900 drives: {failing:?}"
    );
}
