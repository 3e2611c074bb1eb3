//! `archive_stream`: the streaming path. Set-up is `ssdgen --format bin`
//! (generation and encoding fused, streamed to disk); each operation is
//! `ssdstat` (streaming decode + summary fold) followed by `ssdpredict`
//! (streaming extraction, one large imbalanced RF fit, online replay,
//! flat batch scoring) on that archive.

use crate::calib;
use crate::mirror::{self, Own};
use crate::serve_mix::serve_config;
use crate::{
    field, file_digest, generate, median, note, proc, Ctx, GenCounts, Report, Window, HORIZON_DAYS,
};

/// Drives per model of the streamed archive (over `HORIZON_DAYS`).
pub const DRIVES_PER_MODEL: u32 = 1000;
/// `ssdgen` runs of the workload seed in set-up (each rewrites the same
/// archive); `setup_s` is their median.
const SETUPS: usize = 3;

/// Whether a binary's report states the archive's drive and drive-day
/// totals.
fn counts_match(stdout: &str, want: GenCounts) -> bool {
    field(stdout, "drives:") == Some(want.drives)
        && field(stdout, "drive-days:") == Some(want.drive_days)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let dir = ctx.work.join("stream");
    let mut probe = calib::Probe::new()?;
    let mut gens = Vec::new();
    let mut gen_probes = Vec::new();
    let mut all_counts = Vec::new();
    for _ in 0..SETUPS {
        let (run, counts, before) =
            generate(ctx, &mut rep, &mut probe, &dir, DRIVES_PER_MODEL, ctx.seed)?;
        gens.push(run);
        gen_probes.push(before);
        all_counts.push(counts);
    }
    let counts = all_counts[0];
    rep.op(
        all_counts.iter().all(|&c| c == counts),
        format_args!("ssdgen runs of one seed report the same counts {all_counts:?}"),
    );
    let archive = dir.join("trace.ssdfs");
    let cfg = serve_config(ctx.seed);
    note(format_args!(
        "fleet: drives_per_model={DRIVES_PER_MODEL} days={HORIZON_DAYS} drives={} drive_days={} \
         ssdpredict: forest(30) lookahead={} sample_rate={} seed={}",
        counts.drives, counts.drive_days, cfg.lookahead_days, cfg.sample_rate, ctx.seed
    ));
    note(format_args!(
        "digest: archive fnv1a64={}",
        file_digest(&archive)?
    ));

    let path = archive.display().to_string();
    let seed = ctx.seed.to_string();
    let stat_args = vec!["--trace".to_string(), path.clone()];
    let predict_args: Vec<String> = ["--trace", &path, "--sample-rate", "0.05", "--seed", &seed]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let window = Window::open(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut ops: Vec<(proc::Run, proc::Run)> = Vec::new();
    let mut op_probes = Vec::new();
    while window.fits(
        ops.last().map_or(0.0, |(s, p)| s.wall_s + p.wall_s),
        ops.len(),
    ) {
        let i = ops.len();
        op_probes.push(probe.time()?);
        let stat = proc::run(
            &ctx.bin("ssdstat"),
            &stat_args,
            &ctx.work,
            &format!("ssdstat-{i}"),
        )
        .map_err(|e| format!("spawn ssdstat: {e}"))?;
        rep.op(
            stat.ok && counts_match(&stat.stdout, counts),
            format_args!(
                "ssdstat run {i} totals vs ssdgen {counts:?}: {}",
                stat.stderr.trim()
            ),
        );
        let predict = proc::run(
            &ctx.bin("ssdpredict"),
            &predict_args,
            &ctx.work,
            &format!("ssdpredict-{i}"),
        )
        .map_err(|e| format!("spawn ssdpredict: {e}"))?;
        rep.op(
            predict.ok && counts_match(&predict.stdout, counts),
            format_args!(
                "ssdpredict run {i} totals vs ssdgen {counts:?}: {}",
                predict.stderr.trim()
            ),
        );
        ops.push((stat, predict));
    }
    probe.time()?;

    let walls: Vec<f64> = ops.iter().map(|(s, p)| s.wall_s + p.wall_s).collect();
    let stat_s: Vec<f64> = ops.iter().map(|(s, _)| s.wall_s).collect();
    let predict_s: Vec<f64> = ops.iter().map(|(_, p)| p.wall_s).collect();
    let gen_s: Vec<f64> = gens.iter().map(|g| g.wall_s).collect();
    let cpu: Vec<f64> = ops.iter().map(|(s, p)| s.cpu_s + p.cpu_s).collect();
    let stat_rss = ops.iter().map(|(s, _)| s.maxrss_mb).fold(0.0, f64::max);
    note(format_args!(
        "gen_s={:.4} stat_s={:.4} predict_s={:.4} op_s={:.4} op_cpu_s={:.4} (medians; {} \
         operations {walls:.3?}) stat_rss_mb={stat_rss:.2}",
        median(&gen_s),
        median(&stat_s),
        median(&predict_s),
        median(&walls),
        median(&cpu),
        ops.len()
    ));
    note(format_args!(
        "probe: median {:.4} s (reference {} s) {:.4?}",
        median(probe.times()),
        calib::REF_S,
        probe.times()
    ));
    if ctx.trace {
        let plan = mirror::Plan {
            own: Own::Stream,
            drives_per_model: DRIVES_PER_MODEL,
            archive: &archive,
            fleet_seed: ctx.seed,
            seed: ctx.seed,
            serve_cfg: cfg,
            untraced: median(&walls),
            repro_json: None,
        };
        mirror::run(&plan, &mut rep)?;
    } else {
        let rss = gens
            .iter()
            .chain(ops.iter().flat_map(|(s, p)| [s, p]))
            .map(|r| r.maxrss_mb)
            .fold(0.0, f64::max);
        rep.metric("setup_s", probe.median_scaled(&gen_s, &gen_probes), "s");
        rep.metric(
            "op_p50_ms",
            probe.median_scaled(&walls, &op_probes) * 1e3,
            "ms",
        );
        rep.metric("peak_rss_mb", rss, "MiB");
    }
    Ok(rep)
}
