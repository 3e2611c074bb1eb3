//! Streams an archived fleet trace through the online prediction
//! pipeline: train on history, then rank every drive by its current-day
//! swap risk.
//!
//! ```text
//! ssdpredict --trace PATH [--horizon DAYS] [--model forest|gbdt]
//!            [--lookahead N] [--trees T] [--seed S] [--sample-rate R]
//!            [--top K]
//! ```
//!
//! `PATH` may be a `.ssdfs` binary archive, a `.json` export, or a CSV
//! directory (then `--horizon` is required). The run is two streaming
//! passes over the source, each holding one drive resident:
//!
//! 1. **Train** — the service's `train_scorer` (the one online trainer,
//!    shared with `ssdserve`) folds every drive into a labeled dataset
//!    (swap within `--lookahead` days), fits a random forest or GBDT, and
//!    flattens the ensemble into contiguous node arrays (`ssd_ml::flat`).
//! 2. **Score** — each drive's history replays through [`OnlineFleet`]'s
//!    incremental feature state; one `predict_fleet_day` batch call then
//!    scores the whole fleet's current day, and the top `--top` drives in
//!    [`risk_order`] are printed.
//!
//! Output is deterministic for fixed inputs and flags, for every
//! thread-pool size.

#![forbid(unsafe_code)]

use ssd_field_study::cli::{self, ArgStream, BinError, UsageError};
use ssd_field_study_core::features::ExtractOptions;
use ssd_field_study_core::serve::{train_scorer, ScorerSpec};
use ssd_field_study_core::{risk_order, OnlineFleet};
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, DriveLog, DriveModel};

const USAGE: &str = "ssdpredict --trace PATH [--horizon DAYS] [--model forest|gbdt] \
                     [--lookahead N] [--trees T] [--seed S] [--sample-rate R] [--top K]";

struct Args {
    trace: String,
    horizon: Option<u32>,
    model: String,
    lookahead: u32,
    trees: usize,
    seed: u64,
    sample_rate: f64,
    top: usize,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut args = Args {
        trace: String::new(),
        horizon: None,
        model: "forest".into(),
        lookahead: 7,
        trees: 30,
        seed: 0,
        sample_rate: 1.0,
        top: 10,
    };
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--trace" => args.trace = it.value("--trace")?,
            "--horizon" => args.horizon = Some(it.parsed("--horizon")?),
            "--model" => args.model = it.value("--model")?,
            "--lookahead" => args.lookahead = it.parsed("--lookahead")?,
            "--trees" => args.trees = it.parsed("--trees")?,
            "--seed" => args.seed = it.parsed("--seed")?,
            "--sample-rate" => args.sample_rate = it.parsed("--sample-rate")?,
            "--top" => args.top = it.parsed("--top")?,
            other => return Err(it.unknown(other)),
        }
    }
    if args.trace.is_empty() {
        return Err("--trace is required".into());
    }
    if args.lookahead < 1 {
        return Err("--lookahead must be at least 1 day".into());
    }
    if !(args.sample_rate > 0.0 && args.sample_rate <= 1.0) {
        return Err("--sample-rate must be in (0, 1]".into());
    }
    if args.trees < 1 {
        return Err("--trees must be at least 1".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), BinError> {
    let source = TraceSource::from_path(&args.trace, args.horizon)?;

    // Pass 1: stream the trace into a labeled training set and fit.
    let opts = ExtractOptions {
        lookahead_days: args.lookahead,
        negative_sample_rate: args.sample_rate,
        seed: args.seed,
        ..Default::default()
    };
    let trained = match ScorerSpec::from_name(&args.model, args.trees) {
        Some(ScorerSpec::None) | None => None,
        Some(spec) => train_scorer(&source, spec, &opts)?,
    }
    .ok_or_else(|| format!("unknown model '{}' (use forest|gbdt)", args.model))?;
    let scorer = trained.scorer;
    eprintln!(
        "trained {} ({} trees) on {} rows ({} positive) in one streaming pass",
        scorer.scorer_name(),
        args.trees,
        trained.rows,
        trained.positives
    );

    // Pass 2: replay each drive's telemetry through the online feature
    // state, then score the whole fleet's current day in one batch.
    let mut reader = source.open()?;
    let mut fleet = OnlineFleet::new();
    let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
    let mut drive_days = 0u64;
    while reader.next_drive_into(&mut drive)? {
        drive
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
        drive_days += drive.reports.len() as u64;
        fleet.observe_drive(&drive);
    }
    let mut scored = fleet.predict_fleet_day(scorer.as_ref());
    scored.sort_by(|a, b| risk_order(*a, *b));

    let n = fleet.n_drives();
    let mean = if n == 0 {
        0.0
    } else {
        scored.iter().map(|(_, p)| p).sum::<f64>() / n as f64
    };
    println!("fleet risk (swap within {} days)", args.lookahead);
    println!("  drives:      {n}");
    println!("  drive-days:  {drive_days}");
    println!("  mean score:  {mean:.4}");
    println!();
    println!("top {} drives by current-day risk:", args.top.min(n));
    for (id, p) in scored.iter().take(args.top) {
        let model = fleet
            .model_of(*id)
            .map_or_else(|| "?".to_string(), |m| m.to_string());
        println!("  drive {:>6}  model {:<6}  score {:.4}", id.0, model, p);
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => cli::usage_exit("ssdpredict", &e),
    };
    if let Err(e) = run(&args) {
        cli::runtime_exit("ssdpredict", &*e);
    }
}
