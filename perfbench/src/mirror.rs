//! The traced run: the workload's pipelines replayed in-process, with a
//! span around every call into a layer's public functions.
//!
//! Every traced run touches every layer, so each per-layer metric is
//! defined on every workload: the workload's own stage runs at full size
//! and the remaining stages run at probe size on the workload's archive.
//! The own stage is compared against the untraced binaries for
//! `trace.overhead_frac`; `trace.coverage_frac` is the share of the whole
//! traced run's wall time that spans cover.

use crate::serve_mix::{self, Kind, Mix};
use crate::trace::Tracer;
use crate::{median, note, Fnv, Report, HORIZON_DAYS};
use ssd_field_study_core::features::{build_dataset, build_dataset_streaming, ExtractOptions};
use ssd_field_study_core::predict::models::ModelComparison;
use ssd_field_study_core::predict::sweep::LookaheadSweep;
use ssd_field_study_core::predict::{six_model_trainers, PredictConfig};
use ssd_field_study_core::serve::shard::{PassPlan, ShardPartial, ShardState};
use ssd_field_study_core::serve::{Dispatcher, FleetService, Request, ServeConfig};
use ssd_field_study_core::streaming::SummaryAccumulator;
use ssd_field_study_core::{OnlineFleet, Series};
use ssd_ml::split::complement;
use ssd_ml::{
    downsample_majority, grouped_kfold, roc_auc, CvOptions, CvResult, Dataset, FlatForest,
    ForestConfig, RandomForest, Trainer,
};
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::json::Value;
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, DriveLog, DriveModel, FleetTrace};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lookaheads of `repro tab6` and `repro fig12`.
pub const TAB6_LOOKAHEADS: [u32; 4] = [1, 2, 3, 7];
/// Lookaheads of `repro fig12`.
pub const FIG12_LOOKAHEADS: [u32; 9] = [1, 2, 3, 5, 7, 10, 14, 21, 30];

/// Which stage is the workload's own (full size, compared with the
/// untraced binaries).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Own {
    /// `repro tab6 fig12`.
    Eval,
    /// `ssdstat` then `ssdpredict`.
    Stream,
}

/// Offered rate of the serving mirror's open loop, requests per second
/// over both client threads.
pub const SERVE_RATE_RPS: f64 = 40.0;
/// Requests of the open loop: three seconds at [`SERVE_RATE_RPS`].
const SERVE_REQUESTS: usize = 120;
/// Repetitions of each pass kind timed in isolation.
const PASS_REPS: usize = 10;

/// Inputs of one traced run.
pub struct Plan<'a> {
    /// The workload's own stage.
    pub own: Own,
    /// Drives per model the workload's archive was generated with.
    pub drives_per_model: u32,
    /// The workload's archive.
    pub archive: &'a Path,
    /// Fleet seed `ssdgen` wrote the archive with.
    pub fleet_seed: u64,
    /// Workload seed (training, sampling, request mix).
    pub seed: u64,
    /// Serving configuration (`ssdserve` flags) and `ssdpredict` sampling.
    pub serve_cfg: ServeConfig,
    /// Untraced seconds of one operation of the own stage.
    pub untraced: f64,
    /// `repro`'s tab6.json and fig12.json, checked against the mirror.
    pub repro_json: Option<(String, String)>,
}

/// Runs the traced mirror and records every per-layer metric in `rep`.
pub fn run(plan: &Plan<'_>, rep: &mut Report) -> Result<(), String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let source = TraceSource::from_path(plan.archive, None).map_err(|e| e.to_string())?;

    sim(
        &mut tr,
        &SimConfig {
            drives_per_model: plan.drives_per_model,
            horizon_days: HORIZON_DAYS,
            seed: plan.fleet_seed,
            ..SimConfig::default()
        },
    )?;

    let t0 = tr.now();
    let stat_counts = stat(&mut tr, &source)?;
    let predict_counts = predict(&mut tr, &source, &plan.serve_cfg)?;
    let stream_span = (t0, tr.now());
    rep.op(
        stat_counts == predict_counts,
        format_args!("mirror stat {stat_counts:?} vs predict {predict_counts:?}"),
    );

    let t0 = tr.now();
    let (tab6, fig12): (&[u32], &[u32]) = if plan.own == Own::Eval {
        (&TAB6_LOOKAHEADS, &FIG12_LOOKAHEADS)
    } else {
        (&[1], &[])
    };
    let (tab6_json, fig12_json) = eval(&mut tr, &source, plan.seed, tab6, fig12)?;
    let eval_span = (t0, tr.now());
    if let Some((want6, want12)) = &plan.repro_json {
        rep.op(
            &tab6_json == want6 && &fig12_json == want12,
            "traced mirror reproduces repro tab6/fig12 JSON",
        );
    }

    let served = serve(&mut tr, &source, plan, rep)?;
    let wall = tr.now();

    let own_span = match plan.own {
        Own::Eval => eval_span,
        Own::Stream => stream_span,
    };
    let traced = own_span.1 - own_span.0;
    let overhead = (traced - plan.untraced) / plan.untraced;
    let coverage = tr.covered(0.0, wall) / wall;
    note(format_args!(
        "trace: own stage traced {traced:.4} s vs untraced {:.4} s; spans cover {:.2}% of the \
         {wall:.3} s traced run ({:.2}% of the own stage)",
        plan.untraced,
        coverage * 100.0,
        tr.covered(own_span.0, own_span.1) / traced * 100.0
    ));
    for (name, (n, ops, secs)) in tr.summary() {
        note(format_args!(
            "span {name}: {n} calls in {ops} operations, {secs:.4} s"
        ));
    }

    let drive_days = tr.count("sim.drive_days");
    let ms = |xs: &[f64]| median(xs) * 1e3;
    let us = |xs: &[f64]| median(xs) * 1e6;
    // Summed self time of every span of a name.
    for (metric, span) in [
        ("sim.generate_s", "sim.generate"),
        ("codec.decode_s", "codec.decode"),
        ("streaming.summarize_s", "streaming.summarize"),
        ("features.extract_s", "features.extract"),
        ("features.extract_stream_s", "features.extract_stream"),
        ("split.sample_s", "split.sample"),
        ("fit.rf_s", "fit.rf"),
        ("fit.mlp_s", "fit.mlp"),
        ("fit.lr_s", "fit.lr"),
        ("fit.other_s", "fit.other"),
        ("fit.rf_large_s", "fit.rf_large"),
        ("score.knn_s", "score.knn"),
        ("score.rf_s", "score.rf"),
        ("score.mlp_s", "score.mlp"),
        ("score.other_s", "score.other"),
        ("metrics.auc_s", "metrics.auc"),
        ("online.replay_s", "online.replay"),
        ("flat.score_s", "flat.score"),
    ] {
        rep.metric(metric, tr.total(span), "s");
    }
    for counter in [
        "sim.drive_days",
        "features.extract_calls",
        "features.rows",
        "cv.folds",
        "knn.distance_pairs",
    ] {
        rep.metric(counter, tr.count(counter), "count");
    }
    rep.metric(
        "codec.bytes_per_drive_day",
        tr.count("codec.bytes") / drive_days,
        "B",
    );
    rep.metric(
        "features.rows_kept_frac",
        tr.count("features.rows") / tr.count("features.drive_days_scanned"),
        "fraction",
    );
    // Per-call medians.
    rep.metric(
        "protocol.parse_us",
        us(&tr.durations("protocol.parse")),
        "us",
    );
    rep.metric("shard.plan_us", us(&tr.durations("shard.plan")), "us");
    rep.metric("shard.merge_us", us(&tr.durations("shard.merge")), "us");
    rep.metric(
        "service.handle_ms",
        ms(&tr.durations("service.handle")),
        "ms",
    );
    for kind in Kind::PASSES {
        rep.metric(
            kind.pass_metric(),
            ms(&served.slowest_pass[kind as usize]),
            "ms",
        );
    }
    rep.metric("shard.passes", served.passes, "count");
    rep.metric("pool.broadcast_wait_ms", served.broadcast_wait_ms, "ms");
    rep.metric(
        "dispatch.requests_per_pass",
        served.queries / served.passes,
        "ratio",
    );
    rep.metric(
        "dispatch.queue_wait_ms",
        median(&served.queue_wait_ms),
        "ms",
    );
    rep.metric("loadgen.late_ms", median(&served.late_ms), "ms");
    rep.metric("trace.overhead_frac", overhead, "fraction");
    rep.metric("trace.coverage_frac", coverage, "fraction");
    note(format_args!(
        "counts: sim.drive_days={drive_days} features.extract_calls={} features.rows={} \
         cv.folds={} knn.distance_pairs={} shard.passes={}",
        tr.count("features.extract_calls"),
        tr.count("features.rows"),
        tr.count("cv.folds"),
        tr.count("knn.distance_pairs"),
        served.passes
    ));
    Ok(())
}

/// Counts bytes and discards them.
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `ssdgen --format bin`: generation and encoding fused into one sink.
fn sim(tr: &mut Tracer, cfg: &SimConfig) -> Result<(), String> {
    let mut sink = CountingSink(0);
    let stats = tr
        .span("sim.generate", || FleetGen::new(cfg).run(&mut sink))
        .map_err(|e| format!("generate: {e}"))?;
    tr.add("sim.drive_days", stats.drive_days as f64);
    tr.add("codec.bytes", sink.0 as f64);
    Ok(())
}

fn empty_drive() -> DriveLog {
    DriveLog::new(DriveId(0), DriveModel::from_index(0))
}

/// `ssdstat`: one streaming decode + summary fold. Returns (drives,
/// drive-days).
fn stat(tr: &mut Tracer, source: &TraceSource) -> Result<(u64, u64), String> {
    let mut reader = tr
        .span("codec.decode", || source.open())
        .map_err(|e| e.to_string())?;
    let mut acc = SummaryAccumulator::new();
    let mut drive = empty_drive();
    while tr.span("codec.decode", || next_valid(&mut reader, &mut drive))? {
        tr.span("streaming.summarize", || acc.observe(&drive));
    }
    let s = tr.span("streaming.summarize", || acc.finish());
    Ok((s.n_drives as u64, s.total_drive_days as u64))
}

fn next_valid(
    reader: &mut ssd_types::source::TraceReader<'_>,
    drive: &mut DriveLog,
) -> Result<bool, String> {
    let more = reader.next_drive_into(drive).map_err(|e| e.to_string())?;
    if more {
        drive
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
    }
    Ok(more)
}

/// `ssdpredict` (forest): streaming extraction, one large RF fit,
/// flattening, online replay, one batch scoring call. Returns (drives,
/// drive-days).
fn predict(tr: &mut Tracer, source: &TraceSource, cfg: &ServeConfig) -> Result<(u64, u64), String> {
    let opts = ExtractOptions {
        lookahead_days: cfg.lookahead_days,
        negative_sample_rate: cfg.sample_rate,
        seed: cfg.seed,
        ..Default::default()
    };
    let mut reader = tr
        .span("codec.decode", || source.open())
        .map_err(|e| e.to_string())?;
    let data = tr
        .span("features.extract_stream", || {
            build_dataset_streaming(&mut reader, &opts)
        })
        .map_err(|e| e.to_string())?;
    let scorer = tr.span("fit.rf_large", || {
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 30,
                ..Default::default()
            },
            &data,
            cfg.seed,
        );
        FlatForest::from_forest(&forest)
    });
    let mut reader = tr
        .span("codec.decode", || source.open())
        .map_err(|e| e.to_string())?;
    let mut fleet = OnlineFleet::new();
    let mut drive = empty_drive();
    let mut drive_days = 0u64;
    while tr.span("codec.decode", || next_valid(&mut reader, &mut drive))? {
        drive_days += drive.reports.len() as u64;
        tr.span("online.replay", || fleet.observe_drive(&drive));
    }
    let scored = tr.span("flat.score", || fleet.predict_fleet_day(&scorer));
    Ok((scored.len() as u64, drive_days))
}

/// Model family of a Table 6 trainer, for the fit/score span names.
fn spans_of(trainer_name: &str) -> (&'static str, &'static str) {
    match trainer_name {
        "Random Forest" => ("fit.rf", "score.rf"),
        "Neural Network" => ("fit.mlp", "score.mlp"),
        "Logistic Reg." => ("fit.lr", "score.other"),
        "k-NN" => ("fit.other", "score.knn"),
        _ => ("fit.other", "score.other"),
    }
}

/// `repro --trace ARCHIVE tab6 fig12`: Table 6 over `tab6` lookaheads and
/// the Fig 12 sweep over `fig12`, rendered as repro renders them.
fn eval(
    tr: &mut Tracer,
    source: &TraceSource,
    seed: u64,
    tab6: &[u32],
    fig12: &[u32],
) -> Result<(String, String), String> {
    let trace = tr.span("codec.decode", || {
        let trace = source.load().map_err(|e| e.to_string())?;
        trace
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
        Ok::<_, String>(trace)
    })?;
    // `repro --trace` (default scale): the default config, reseeded.
    let mut cfg = PredictConfig {
        seed,
        ..PredictConfig::default()
    };
    cfg.cv.seed = seed;

    let trainers = six_model_trainers();
    let mut rows: Vec<(String, Vec<(f64, f64)>)> =
        trainers.iter().map(|t| (t.name(), Vec::new())).collect();
    for &n in tab6 {
        let data = extract(tr, &trace, &cfg, n);
        for (trainer, row) in trainers.iter().zip(rows.iter_mut()) {
            let r = cross_validate(tr, trainer.as_ref(), &data, &cfg.cv);
            row.1.push((r.mean(), r.std_dev()));
        }
    }
    let tab6 = ModelComparison {
        lookaheads: tab6.to_vec(),
        rows,
    };

    let mut pts = Vec::new();
    let mut std = Vec::new();
    for &n in fig12 {
        let data = extract(tr, &trace, &cfg, n);
        let r = cross_validate(tr, &cfg.forest, &data, &cfg.cv);
        pts.push((f64::from(n), r.mean()));
        std.push((n, r.std_dev()));
    }
    let fig12 = LookaheadSweep {
        auc: Series::new("Random forest AUC vs lookahead N", pts),
        std,
    };
    Ok((
        ssd_types::json::to_string_pretty(&tab6),
        ssd_types::json::to_string_pretty(&fig12),
    ))
}

fn extract(tr: &mut Tracer, trace: &FleetTrace, cfg: &PredictConfig, n: u32) -> Dataset {
    let data = tr.span("features.extract", || {
        build_dataset(trace, &cfg.extract_opts(n))
    });
    tr.add("features.extract_calls", 1.0);
    tr.add("features.rows", data.n_rows() as f64);
    tr.add(
        "features.drive_days_scanned",
        trace.total_drive_days() as f64,
    );
    data
}

/// `ssd_ml::cross_validate`, step for step, with spans around each layer.
fn cross_validate(
    tr: &mut Tracer,
    trainer: &dyn Trainer,
    data: &Dataset,
    opts: &CvOptions,
) -> CvResult {
    let (fit_span, score_span) = spans_of(&trainer.name());
    let folds = tr.span("split.sample", || grouped_kfold(data, opts.k, opts.seed));
    let mut fold_aucs = Vec::with_capacity(opts.k);
    for (fi, fold) in folds.iter().enumerate() {
        let split = tr.span("split.sample", || {
            let test = data.select(fold);
            let (pos, neg) = test.class_counts();
            if pos == 0 || neg == 0 {
                return None;
            }
            let train_idx = complement(data, fold);
            let train_idx = downsample_majority(
                data,
                &train_idx,
                opts.downsample_ratio,
                opts.seed ^ (fi as u64).wrapping_mul(0x9E37_79B9),
            );
            let train = data.select(&train_idx);
            let (tpos, tneg) = train.class_counts();
            if tpos == 0 || tneg == 0 {
                return None;
            }
            Some((test, train))
        });
        let Some((test, train)) = split else { continue };
        tr.add("cv.folds", 1.0);
        if score_span == "score.knn" {
            tr.add(
                "knn.distance_pairs",
                test.n_rows() as f64 * train.n_rows() as f64,
            );
        }
        let model = tr.span(fit_span, || {
            trainer.fit(&train, opts.seed.wrapping_add(fi as u64))
        });
        let scores = tr.span(score_span, || model.predict_batch(&test));
        fold_aucs.push(tr.span("metrics.auc", || roc_auc(&scores, test.labels())));
    }
    CvResult { fold_aucs }
}

/// What the serving mirror measured outside the span store.
struct Served {
    /// Per pass kind: slowest replica shard's pass, seconds, per repetition.
    slowest_pass: [Vec<f64>; Kind::PASSES.len()],
    /// Mean over pass kinds of handle − slowest pass − merge (medians), ms.
    broadcast_wait_ms: f64,
    /// Shard passes the service ran during the open loop.
    passes: f64,
    /// Queries needing shard work answered during the open loop.
    queries: f64,
    /// Per request: time in the dispatcher beyond an isolated handle, ms.
    queue_wait_ms: Vec<f64>,
    /// Per request: how late the generator sent it, ms.
    late_ms: Vec<f64>,
}

/// `ssdserve`: the service loaded in-process, a replica of its shards
/// dealt the way `FleetService::load` deals them (to time each shard's
/// pass in isolation), and an open loop through a `Dispatcher` from two
/// client threads.
fn serve(
    tr: &mut Tracer,
    source: &TraceSource,
    plan: &Plan<'_>,
    rep: &mut Report,
) -> Result<Served, String> {
    let cfg = &plan.serve_cfg;
    let service = Arc::new(
        tr.span("service.load", || FleetService::load(source, cfg))
            .map_err(|e| e.to_string())?,
    );
    let shards = tr.span("shard.replica_load", || replica_shards(source, cfg))?;
    let meta = service.meta();
    let want = (meta.n_shards, meta.n_drives, meta.drive_days);
    let got = (
        shards.len(),
        shards.iter().map(|s| s.n_drives() as u64).sum::<u64>(),
        shards.iter().map(ShardState::drive_days).sum::<u64>(),
    );
    rep.op(
        got == want,
        format_args!("replica (shards, drives, drive-days) {got:?} vs the service's {want:?}"),
    );

    let mut slowest_pass: [Vec<f64>; Kind::PASSES.len()] = Default::default();
    // Median isolated handle per kind; `info` needs no shard pass.
    let mut handle_s = [0.0; Kind::PASSES.len() + 1];
    let mut waits = Vec::new();
    for kind in Kind::PASSES {
        let body = kind.canonical_body();
        let (requests, _) = Request::parse_frame(body.as_bytes()).map_err(|e| e.to_string())?;
        let (mut handle, mut merge) = (Vec::new(), Vec::new());
        for i in 0..PASS_REPS {
            let pass_plan = tr.span("shard.plan", || PassPlan::for_requests(&requests));
            let mut partials = Vec::new();
            let mut slowest: f64 = 0.0;
            for shard in &shards {
                let t = tr.now();
                partials.push(tr.span(kind.pass_span(), || shard.execute(&pass_plan)));
                slowest = slowest.max(tr.now() - t);
            }
            slowest_pass[kind as usize].push(slowest);
            let t = tr.now();
            let merged = tr.span("shard.merge", || merge_partials(partials, &pass_plan));
            merge.push(tr.now() - t);
            let t = tr.now();
            let out = tr.span("service.handle", || service.handle(&requests));
            handle.push(tr.now() - t);
            if kind == Kind::TopK && i == 0 {
                rep.op(
                    same_top(merged.as_ref(), out.as_deref().ok()),
                    "replica shards' merged top-k equals the service's topk answer",
                );
            }
            rep.op(out.is_ok(), format_args!("in-process handle of {body}"));
        }
        handle_s[kind as usize] = median(&handle);
        waits.push(
            (median(&handle) - median(&slowest_pass[kind as usize]) - median(&merge)).max(0.0),
        );
    }
    let broadcast_wait_ms = waits.iter().sum::<f64>() / waits.len() as f64 * 1e3;

    let mix = Mix::new(plan.seed);
    let expected = tr.span("service.respond", || {
        serve_mix::expected_responses(&service, &mix)
    })?;
    let mut digest = Fnv::new();
    for resp in expected.values() {
        digest.feed(resp);
    }
    note(format_args!(
        "digest: serve responses (one per distinct request body) fnv1a64={}",
        digest.hex()
    ));
    let schedule = serve_mix::schedule(SERVE_RATE_RPS, SERVE_REQUESTS, &mix);
    let dispatcher = Dispatcher::new(Arc::clone(&service), cfg.queue_cap)
        .map_err(|e| format!("spawn dispatcher: {e}"))?;
    let passes_before = service.passes();
    let origin = Instant::now() + Duration::from_millis(20);
    let run_conn = |conn: usize, tr: &mut Tracer| -> Vec<Sent> {
        let mut out = Vec::new();
        for (seq, item) in schedule.iter().enumerate().filter(|(_, s)| s.conn == conn) {
            let seq = seq as u64;
            let due = origin + Duration::from_secs_f64(item.due_s);
            let now = Instant::now();
            if due > now {
                tr.span_op("loadgen.sleep", seq, || std::thread::sleep(due - now));
            }
            let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            let body = &mix.bodies[item.body];
            let parsed = tr.span_op("protocol.parse", seq, || {
                Request::parse_frame(body.as_bytes())
            });
            let queries = match &parsed {
                Ok((reqs, _)) => {
                    tr.span_op("shard.plan", seq, || PassPlan::for_requests(reqs));
                    reqs.iter().filter(|r| !matches!(r, Request::Info)).count()
                }
                Err(_) => 0,
            };
            let sent = Instant::now();
            let response = tr.span_op("dispatch.submit", seq, || {
                dispatcher.submit(body.as_bytes().to_vec())
            });
            let wait_s = sent.elapsed().as_secs_f64() - handle_s[mix.kinds[item.body] as usize];
            out.push(Sent {
                late_ms,
                queue_wait_ms: wait_s.max(0.0) * 1e3,
                ok: response.ok().as_deref() == expected.get(&item.body).map(Vec::as_slice),
                queries,
            });
        }
        out
    };
    let tracer_origin = tr.origin();
    let (sent0, joined) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut tr1 = Tracer::new(tracer_origin);
            (run_conn(1, &mut tr1), tr1)
        });
        let mut tr0 = Tracer::new(tracer_origin);
        let sent0 = run_conn(0, &mut tr0);
        tr.absorb(tr0);
        (sent0, h.join())
    });
    let (sent1, tr1) = joined.map_err(|_| "serving mirror client panicked".to_string())?;
    tr.absorb(tr1);
    drop(dispatcher);

    let sent: Vec<Sent> = sent0.into_iter().chain(sent1).collect();
    for s in &sent {
        rep.op(
            s.ok,
            "in-process dispatcher response equals FleetService::respond",
        );
    }
    Ok(Served {
        slowest_pass,
        broadcast_wait_ms,
        passes: (service.passes() - passes_before) as f64,
        queries: sent.iter().map(|s| s.queries as f64).sum(),
        queue_wait_ms: sent.iter().map(|s| s.queue_wait_ms).collect(),
        late_ms: sent.iter().map(|s| s.late_ms).collect(),
    })
}

/// One request of the serving mirror's open loop.
struct Sent {
    /// How late the generator submitted it, ms.
    late_ms: f64,
    /// Time in the dispatcher beyond an isolated handle of its kind, ms.
    queue_wait_ms: f64,
    /// Response equals `FleetService::respond` of the body.
    ok: bool,
    /// Queries in the frame that need a shard pass.
    queries: usize,
}

/// Whether the replica's merged top rows are the service's answer to the
/// same `topk` request: the same drives in the same order with
/// bit-identical scores. The ranking covers every drive and uses the
/// trained scorer, so it checks the replica's drives and training.
fn same_top(merged: Option<&ShardPartial>, answer: Option<&[Value]>) -> bool {
    let (Some(m), Some([v])) = (merged, answer) else {
        return false;
    };
    let Some(Value::Arr(drives)) = v.get("drives") else {
        return false;
    };
    !drives.is_empty()
        && drives.len() == m.top.len()
        && drives.iter().zip(&m.top).all(|(d, (id, _, score))| {
            d.get("id").and_then(Value::as_u64) == Some(u64::from(id.0))
                && d.get("score").and_then(Value::as_f64).map(f64::to_bits) == Some(score.to_bits())
        })
}

/// Shards dealt exactly as `FleetService::load` deals them: the same
/// trained scorer, drives round-robin in stream order.
fn replica_shards(source: &TraceSource, cfg: &ServeConfig) -> Result<Vec<ShardState>, String> {
    let opts = ExtractOptions {
        lookahead_days: cfg.lookahead_days,
        negative_sample_rate: cfg.sample_rate,
        seed: cfg.seed,
        ..Default::default()
    };
    let trees = match cfg.scorer {
        ssd_field_study_core::serve::ScorerSpec::Forest { trees } => trees,
        _ => return Err("the serving mirror expects a forest scorer".into()),
    };
    let mut reader = source.open().map_err(|e| e.to_string())?;
    let data = build_dataset_streaming(&mut reader, &opts).map_err(|e| e.to_string())?;
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: trees,
            ..Default::default()
        },
        &data,
        cfg.seed,
    );
    let scorer: Arc<dyn ssd_ml::BatchScorer> = Arc::new(FlatForest::from_forest(&forest));
    let mut reader = source.open().map_err(|e| e.to_string())?;
    let n = cfg.shards.max(1);
    let mut shards: Vec<ShardState> = (0..n)
        .map(|_| ShardState::new(reader.horizon_days(), Some(Arc::clone(&scorer))))
        .collect();
    let mut drive = empty_drive();
    let mut dealt = 0usize;
    while next_valid(&mut reader, &mut drive)? {
        shards[dealt % n].push_drive(std::mem::replace(&mut drive, empty_drive()));
        dealt += 1;
    }
    Ok(shards)
}

/// Merges shard partials in shard order, as `FleetService::handle` does.
fn merge_partials(partials: Vec<ShardPartial>, plan: &PassPlan) -> Option<ShardPartial> {
    let mut iter = partials.into_iter();
    let mut merged = iter.next()?;
    for p in iter {
        merged.absorb(p);
    }
    if let Some(k) = plan.top_k {
        merged.finish_top(k);
    }
    Some(merged)
}
