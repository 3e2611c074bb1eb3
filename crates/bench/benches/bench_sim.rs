//! Substrate benchmark: fleet generation throughput (parallel vs
//! sequential), fast-forward vs day-by-day traversal, and trace codec
//! performance.

use ssd_bench::{criterion_group, criterion_main, BatchSize, Criterion};
use ssd_field_study_core::streaming::SummaryAccumulator;
use ssd_sim::{FleetGen, GenMode, SimConfig};
use ssd_types::codec::{decode_trace, encode_trace, encode_trace_to, TraceDecoder};
use ssd_types::{DriveId, DriveLog, DriveModel};

fn cfg() -> SimConfig {
    SimConfig {
        drives_per_model: 60,
        horizon_days: 1500,
        seed: 1,
        ..SimConfig::default()
    }
}

/// Event-sparse telemetry: drives report ~0.2% of days (a handful of
/// event-bearing reports over six years), so almost every day is
/// skippable by the analytic fast-forward traversal. Byte-identity of
/// the two modes on such configs is pinned by tests/determinism.rs and the
/// sim proptests; this config only measures the work saved.
fn sparse_cfg(drives_per_model: u32) -> SimConfig {
    SimConfig {
        drives_per_model,
        horizon_days: 6 * 365,
        seed: 1,
        report_permille: 2,
    }
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_generation");
    g.sample_size(10);
    g.bench_function("parallel_180_drives", |b| {
        b.iter(|| FleetGen::new(&cfg()).trace())
    });
    g.bench_function("sequential_180_drives", |b| {
        b.iter(|| FleetGen::new(&cfg()).trace_sequential())
    });
    g.finish();
}

/// Day-by-day vs fast-forward on an event-sparse fleet, streamed to a null
/// sink so only generation+encoding is measured. The speedup here is the
/// headline number for GenMode::FastForward; EXPERIMENTS.md cites the
/// bench-history records this group writes.
fn bench_fastforward(c: &mut Criterion) {
    let cfg = sparse_cfg(500);
    let mut g = c.benchmark_group("fastforward");
    g.sample_size(10);
    g.bench_function("day_by_day_1500_drives_6y", |b| {
        b.iter(|| {
            FleetGen::new(&cfg)
                .mode(GenMode::DayByDay)
                .run(&mut std::io::sink())
                .unwrap()
        })
    });
    g.bench_function("fast_forward_1500_drives_6y", |b| {
        b.iter(|| {
            FleetGen::new(&cfg)
                .mode(GenMode::FastForward)
                .run(&mut std::io::sink())
                .unwrap()
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let trace = FleetGen::new(&cfg()).trace();
    let encoded = encode_trace(&trace);
    let mut g = c.benchmark_group("trace_codec");
    g.sample_size(10);
    g.bench_function("encode", |b| b.iter(|| encode_trace(&trace)));
    g.bench_function("decode", |b| {
        b.iter_batched(
            || encoded.clone(),
            |bytes| decode_trace(&bytes).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Streaming paths against the resident ones above: encode_stream
    // writes drive-by-drive through the Write-sink encoder, decode_stream
    // folds the whole archive into a summary without materializing drives.
    g.bench_function("encode_stream", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(encoded.len());
            encode_trace_to(&trace, &mut out).unwrap();
            out
        })
    });
    g.bench_function("decode_stream", |b| {
        b.iter(|| {
            let mut dec = TraceDecoder::new(encoded.as_slice()).unwrap();
            let mut acc = SummaryAccumulator::new();
            let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
            while dec.next_drive_into(&mut drive).unwrap() {
                acc.observe(&drive);
            }
            acc.finish()
        })
    });
    g.finish();
}

/// Arena/SoA archive path against the materialize-then-encode baseline at
/// bench scale. The byte-level equivalence of the two is pinned by
/// tests/determinism.rs; this group tracks the perf delta.
fn bench_archive(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_archive");
    g.sample_size(10);
    g.bench_function("arena_180_drives", |b| {
        b.iter(|| FleetGen::new(&cfg()).run_vec())
    });
    g.bench_function("baseline_180_drives", |b| {
        b.iter(|| encode_trace(&FleetGen::new(&cfg()).trace()))
    });
    g.bench_function("stream_180_drives", |b| {
        b.iter(|| {
            let mut sink = std::io::sink();
            FleetGen::new(&cfg()).run(&mut sink).unwrap()
        })
    });
    g.finish();
}

/// Paper-scale throughput: 30k drives × 6 years. Opt-in via
/// `SSD_BENCH_PAPER=1` — one day-by-day iteration takes tens of seconds,
/// so it is excluded from the standard sweep. The `fastforward` ids here
/// measure the two traversals on the event-sparse paper-scale fleet the
/// acceptance speedup is quoted on.
fn bench_paper_scale(c: &mut Criterion) {
    if std::env::var("SSD_BENCH_PAPER").map(|v| v != "1").unwrap_or(true) {
        return;
    }
    let cfg = SimConfig::paper_scale(1);
    let mut g = c.benchmark_group("paper_scale");
    g.sample_size(2);
    g.bench_function("archive_30k_6y", |b| {
        b.iter(|| FleetGen::new(&cfg).run_vec())
    });
    let sparse = sparse_cfg(10_000);
    g.bench_function("fastforward_day_by_day_30k_6y", |b| {
        b.iter(|| {
            FleetGen::new(&sparse)
                .mode(GenMode::DayByDay)
                .run(&mut std::io::sink())
                .unwrap()
        })
    });
    g.bench_function("fastforward_fast_forward_30k_6y", |b| {
        b.iter(|| {
            FleetGen::new(&sparse)
                .mode(GenMode::FastForward)
                .run(&mut std::io::sink())
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_fastforward,
    bench_codec,
    bench_archive,
    bench_paper_scale,
);
criterion_main!(benches);
