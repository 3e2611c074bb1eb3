//! Shared fixtures for the benchmark harness.
//!
//! The bench targets time substrate layers (simulator, codec, ML kernels,
//! flat scoring, serving) and ablations; end-to-end pipelines are timed by
//! `perfbench/`. Fleets are generated once per process and shared, so the
//! timings measure the measured layer, not the simulation. The [`harness`]
//! module provides the in-tree Criterion-compatible timing shim the bench
//! targets link against.

#![forbid(unsafe_code)]

pub mod harness;

pub use harness::{
    bench_history_dir, BatchSize, BenchRecord, BenchRunLog, BenchmarkGroup, Bencher, Criterion,
};

use ssd_sim::{FleetGen, SimConfig};
use ssd_types::FleetTrace;
use std::sync::OnceLock;

/// A smaller fleet for the prediction benches (training dominates there).
pub fn small_trace() -> &'static FleetTrace {
    static TRACE: OnceLock<FleetTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        FleetGen::new(&SimConfig {
            drives_per_model: 120,
            horizon_days: 1500,
            seed: 9090,
            ..SimConfig::default()
        })
        .trace()
    })
}

/// The prediction configuration used across prediction benches.
pub fn bench_predict_config() -> ssd_field_study_core::PredictConfig {
    ssd_field_study_core::PredictConfig::fast(8080)
}
