//! `eval_cv`: the paper's §5 evaluation, `repro --trace ARCHIVE tab6
//! fig12`, on archives `ssdgen` writes in set-up.
//!
//! Grouped 5-fold CV of six classifiers over four lookaheads plus the
//! random-forest lookahead sweep: k-NN scoring, RF fit and score, and 13
//! dataset extractions do the work; `sim` and `codec` appear only in
//! set-up and the archive load.
//!
//! The CV work grows with the number of failed drives, which varies from
//! fleet to fleet (59 to 88 over fleet seeds 1–12 at this size), so one
//! archive per run would make the seed, not the program, set much of the
//! spread between runs. Set-up therefore writes [`ARCHIVES`] fleets
//! drawn from the workload seed, the operations take them in turn, and
//! the reported median is over fleets.

use crate::calib;
use crate::mirror::{self, Own};
use crate::serve_mix::serve_config;
use crate::{file_digest, generate, median, note, proc, Ctx, Fnv, Report, Window, HORIZON_DAYS};
use std::path::PathBuf;

/// Drives per model of each evaluated archive (over `HORIZON_DAYS`).
pub const DRIVES_PER_MODEL: u32 = 250;
/// Archives written in set-up, one `ssdgen` run each; `setup_s` is the
/// median of those runs.
const ARCHIVES: u64 = 5;

/// Fleet seed of archive `k` of workload seed `seed`.
fn fleet_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(ARCHIVES).wrapping_add(k)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut probe = calib::Probe::new()?;
    let mut gens = Vec::new();
    let mut gen_probes = Vec::new();
    let mut archives: Vec<PathBuf> = Vec::new();
    for k in 0..ARCHIVES {
        let dir = ctx.work.join(format!("eval-{k}"));
        let (run, counts, before) = generate(
            ctx,
            &mut rep,
            &mut probe,
            &dir,
            DRIVES_PER_MODEL,
            fleet_seed(ctx.seed, k),
        )?;
        let archive = dir.join("trace.ssdfs");
        note(format_args!(
            "fleet {k}: drives_per_model={DRIVES_PER_MODEL} days={HORIZON_DAYS} seed={} drives={} \
             drive_days={} archive fnv1a64={}",
            fleet_seed(ctx.seed, k),
            counts.drives,
            counts.drive_days,
            file_digest(&archive)?
        ));
        gens.push(run);
        gen_probes.push(before);
        archives.push(archive);
    }
    note(format_args!(
        "experiments=tab6,fig12 predict_config=default(seed={})",
        ctx.seed
    ));

    let window = Window::open(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut runs: Vec<proc::Run> = Vec::new();
    let mut op_probes = Vec::new();
    let mut first_json: Vec<Option<(String, String)>> = vec![None; archives.len()];
    while window.fits(runs.last().map_or(0.0, |r| r.wall_s), runs.len()) {
        let i = runs.len();
        let k = i % archives.len();
        op_probes.push(probe.time()?);
        let json_dir = ctx.work.join(format!("json-{i}"));
        let args: Vec<String> = [
            "--trace",
            &archives[k].display().to_string(),
            "--seed",
            &ctx.seed.to_string(),
            "--json",
            &json_dir.display().to_string(),
            "tab6",
            "fig12",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let run = proc::run(&ctx.bin("repro"), &args, &ctx.work, &format!("repro-{i}"))
            .map_err(|e| format!("spawn repro: {e}"))?;
        let read = |id: &str| std::fs::read_to_string(json_dir.join(format!("{id}.json"))).ok();
        let json = read("tab6").zip(read("fig12"));
        let same = match (json, &mut first_json[k]) {
            (Some(j), Some(first)) => j == *first,
            (Some(j), slot) => {
                *slot = Some(j);
                true
            }
            (None, _) => false,
        };
        rep.op(
            run.ok && same,
            format_args!("repro run {i} on fleet {k}: {}", run.stderr.trim()),
        );
        runs.push(run);
    }
    probe.time()?;
    let mut h = Fnv::new();
    for (tab6, fig12) in first_json.iter().flatten() {
        h.feed(tab6.as_bytes());
        h.feed(fig12.as_bytes());
    }
    note(format_args!(
        "digest: repro tab6+fig12 JSON of the fleets run, in fleet order, fnv1a64={}",
        h.hex()
    ));

    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    let setups: Vec<f64> = gens.iter().map(|g| g.wall_s).collect();
    note(format_args!(
        "eval_s: median {:.4} s over {} repro runs (fleet i mod {ARCHIVES}) {walls:.3?}; cpu median {:.4} s; \
         gen_s median {:.4} s {setups:.3?}",
        median(&walls),
        runs.len(),
        median(&cpu),
        median(&setups)
    ));
    note(format_args!(
        "probe: median {:.4} s (reference {} s) {:.4?}",
        median(probe.times()),
        calib::REF_S,
        probe.times()
    ));
    if ctx.trace {
        let plan = mirror::Plan {
            own: Own::Eval,
            drives_per_model: DRIVES_PER_MODEL,
            archive: &archives[0],
            fleet_seed: fleet_seed(ctx.seed, 0),
            seed: ctx.seed,
            serve_cfg: serve_config(ctx.seed),
            untraced: runs[0].wall_s,
            repro_json: first_json[0].take(),
        };
        mirror::run(&plan, &mut rep)?;
    } else {
        let rss = gens
            .iter()
            .chain(&runs)
            .map(|r| r.maxrss_mb)
            .fold(0.0, f64::max);
        rep.metric("setup_s", probe.median_scaled(&setups, &gen_probes), "s");
        rep.metric(
            "op_p50_ms",
            probe.median_scaled(&walls, &op_probes) * 1e3,
            "ms",
        );
        rep.metric("peak_rss_mb", rss, "MiB");
    }
    Ok(rep)
}
