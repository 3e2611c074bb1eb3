//! Benchmark of the repository's user pipelines.
//!
//! ```text
//! perfbench --bin-dir DIR --workload eval_cv|archive_stream
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the release binaries in `--bin-dir` and reports the
//! end-to-end metrics; `--trace 1` additionally replays the workload
//! in-process with spans around each layer's public functions and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`). See README.md.
//!
//! `perfbench --probe` is the host-speed probe's child process (see
//! `calib`).

mod archive_stream;
mod calib;
mod eval_cv;
mod mirror;
mod proc;
mod serve_mix;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Trace horizon of every generated archive: the paper's six years.
pub const HORIZON_DAYS: u32 = 2190;

/// What one workload run knows about its environment.
pub struct Ctx {
    /// Directory holding the release binaries.
    pub bins: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Ctx {
    /// Path of a release binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }
}

/// Metrics and operation accounting of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records one attempted operation; a failed one is reported on
    /// stderr with `what` and counts against `error_rate`.
    pub fn op(&mut self, ok: bool, what: impl std::fmt::Display) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
        ok
    }
}

/// Prints one human-readable line before the result line.
pub fn note(line: impl std::fmt::Display) {
    println!("# {line}");
}

/// Deadline bookkeeping for the measurement window.
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another operation of about `estimate_s` seconds fits, after
    /// `done` operations; the first always runs.
    pub fn fits(&self, estimate_s: f64, done: usize) -> bool {
        done == 0 || self.start.elapsed().as_secs_f64() + estimate_s <= self.seconds
    }
}

/// Median (mean of the middle two for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// 64-bit FNV-1a, folded over several byte strings.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hex digest.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The first whitespace-separated number after `key` in `text`.
pub fn field(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())?
        .parse()
        .ok()
}

/// What `ssdgen` reported about the archive it wrote.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GenCounts {
    /// Drives in the archive.
    pub drives: u64,
    /// Drive-days in the archive.
    pub drive_days: u64,
}

/// Times `probe`, then runs `ssdgen --format bin` once for fleet `seed`
/// into `dir`, recording a failed operation unless it exits 0 and reports
/// a non-empty fleet. Returns the run, the counts it reported and the
/// index of the probe timing before it.
pub fn generate(
    ctx: &Ctx,
    rep: &mut Report,
    probe: &mut calib::Probe,
    dir: &Path,
    drives_per_model: u32,
    seed: u64,
) -> Result<(proc::Run, GenCounts, usize), String> {
    let args: Vec<String> = [
        "--out",
        &dir.display().to_string(),
        "--drives",
        &drives_per_model.to_string(),
        "--days",
        &HORIZON_DAYS.to_string(),
        "--seed",
        &seed.to_string(),
        "--format",
        "bin",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let before = probe.time()?;
    let tag = format!("ssdgen-{seed}");
    let run = proc::run(&ctx.bin("ssdgen"), &args, &ctx.work, &tag)
        .map_err(|e| format!("spawn ssdgen: {e}"))?;
    let counts = GenCounts {
        drives: field(&run.stderr, "generating ").unwrap_or(0),
        drive_days: field(&run.stderr, "generated ").unwrap_or(0),
    };
    if !rep.op(
        run.ok && counts.drives > 0,
        format_args!("ssdgen --seed {seed}: {}", run.stderr.trim()),
    ) {
        return Err("ssdgen failed".into());
    }
    Ok((run, counts, before))
}

/// FNV digest of a file's bytes.
///
/// Streams the file: the children's peak RSS comes from `wait4`, which
/// also counts the spawning process's own peak (the child shares its
/// address space until `exec`), so this process must stay small.
pub fn file_digest(path: &Path) -> Result<String, String> {
    let err = |e: std::io::Error| format!("read {}: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(err)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut h = Fnv::new();
    loop {
        match std::io::Read::read(&mut file, &mut buf).map_err(err)? {
            0 => return Ok(h.hex()),
            n => h.feed(&buf[..n]),
        }
    }
}

struct Args {
    bin_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bin_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks that the run reported exactly the metrics (name and unit)
/// `BENCHMARK.json` declares for its mode.
fn check_declared(report: &Report, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = ssd_types::json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(ssd_types::json::Value::Arr(declared)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    let mut want: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(ssd_types::json::Value::as_str)
                    .unwrap_or("")
            };
            (field("name"), field("unit"))
        })
        .collect();
    let mut got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
    want.sort_unstable();
    got.sort_unstable();
    if got != want {
        return Err(format!(
            "reported metrics {got:?} differ from BENCHMARK.json {key} {want:?}"
        ));
    }
    Ok(())
}

fn result_line(report: &Report, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--probe") {
        calib::child();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        bins: args.bin_dir,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    note(format_args!(
        "env: workload={} seed={} seconds={} trace={} nproc={} ssd_parallel_threads={} \
         serve_shards={} serve_rate_rps={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ssd_parallel::current_num_threads(),
        serve_mix::serve_config(ctx.seed).shards,
        mirror::SERVE_RATE_RPS,
    ));
    let outcome = match args.workload.as_str() {
        "eval_cv" => eval_cv::run(&ctx),
        "archive_stream" => archive_stream::run(&ctx),
        other => Err(format!("unknown workload {other} (eval_cv|archive_stream)")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = check_declared(&report, ctx.trace) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.0);
        std::process::exit(1);
    }
    for (name, value, unit) in &report.metrics {
        note(format_args!("metric {name} = {value} {unit}"));
    }
    note(format_args!(
        "error_rate = {} ({} failed / {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    let correct = report.failed == 0 && report.attempted > 0;
    println!("{}", result_line(&report, correct));
    if !correct {
        std::process::exit(1);
    }
}
