//! CSV interchange round-trips at fleet scale, and analysis invariance:
//! every analysis must produce identical results on a trace that has been
//! through the CSV boundary.

use ssd_field_study::core::characterize;
use ssd_field_study::core::streaming::summarize;
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::csv::{read_trace_csv, write_reports_csv, write_swaps_csv};
use std::io::BufReader;

fn trace() -> ssd_field_study::types::FleetTrace {
    // Full six-year horizon so every drive reports at least once: the CSV
    // format cannot represent a drive with no rows at all (a documented
    // limitation — short-horizon traces drop never-deployed drives).
    let t = FleetGen::new(&SimConfig {
        drives_per_model: 60,
        horizon_days: 2190,
        seed: 12,
        ..SimConfig::default()
    })
    .trace();
    assert!(
        t.drives.iter().all(|d| !d.reports.is_empty() || !d.swaps.is_empty()),
        "fixture must contain no empty drive logs"
    );
    t
}

fn csv_roundtrip(
    t: &ssd_field_study::types::FleetTrace,
) -> ssd_field_study::types::FleetTrace {
    let mut reports = Vec::new();
    let mut swaps = Vec::new();
    write_reports_csv(t, &mut reports).unwrap();
    write_swaps_csv(t, &mut swaps).unwrap();
    read_trace_csv(
        BufReader::new(reports.as_slice()),
        BufReader::new(swaps.as_slice()),
        t.horizon_days,
    )
    .unwrap()
}

#[test]
fn csv_roundtrip_is_lossless_at_fleet_scale() {
    let t = trace();
    let back = csv_roundtrip(&t);
    assert_eq!(back, t);
}

#[test]
fn analyses_are_invariant_across_the_csv_boundary() {
    let t = trace();
    let back = csv_roundtrip(&t);
    // Structured results must match exactly — same failures recovered,
    // same incidence, same correlations.
    assert_eq!(summarize(&t), summarize(&back));

    let cor_a = characterize::correlation_matrix(&t);
    let cor_b = characterize::correlation_matrix(&back);
    for (ra, rb) in cor_a.matrix.iter().zip(&cor_b.matrix) {
        for (a, b) in ra.iter().zip(rb) {
            assert!(a.is_nan() && b.is_nan() || (a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn csv_is_line_oriented_and_parsable_by_naive_tools() {
    let t = trace();
    let mut reports = Vec::new();
    write_reports_csv(&t, &mut reports).unwrap();
    let text = String::from_utf8(reports).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    let ncols = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), ncols, "ragged row: {line}");
        // No quoting or escaping anywhere.
        assert!(!line.contains('"'));
    }
}
